"""Every benchmark workload still reproduces the benchmark's recorded output.

The benchmark compares pass 0 at its reference seed with
``bench/reference.json`` field by field (floats to 1e-12 relative).  Running
that comparison here makes a drift past the tolerance fail in the test suite,
not only when the benchmark runs.  The benchmark's files are read, never
changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def test_reference_covers_every_workload():
    assert REFERENCE["seed"] == workloads.REFERENCE_SEED
    assert sorted(REFERENCE["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_output_matches_reference(name, tmp_path):
    wl = workloads.make(name)
    wl.prepare(str(tmp_path))
    try:
        inp = wl.inputs(workloads.REFERENCE_SEED, 0)
        out = wl.execute(inp)
    finally:
        wl.cleanup()
    assert wl.check(inp, out) == (0, [])
    assert workloads.compare_text(REFERENCE["workloads"][name], wl.serialize(out)) == []
