"""The benchmark's unit calls still run against the library.

Each workload names the library functions whose calls are its unit calls
(``unit_functions``) and makes one warm-up unit call in ``setup``.  A change
to the signature of ``trace_points`` or ``run_point`` that the benchmark's
calls no longer fit fails here, at the workloads' smallest sizes, and not
only when the benchmark runs.  So does a pass that stops making its unit
calls, such as a CLI command that no longer runs its points through
``run_point`` or its schemes through ``trace_points``: the benchmark's
latency probe then observes no unit call.  The benchmark's files are read,
never changed.
"""

import importlib
import importlib.util

import pytest

# bench/workloads.py, loaded once, the way the reference check loads it.
from test_bench_reference import BENCH, workloads


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_setup_makes_a_unit_call_of_every_unit_function(name, monkeypatch):
    wl = workloads.make(name, tiny=True)
    assert wl.units_per_pass > 0 and wl.unit_functions
    called = set()
    for module_name, attr in wl.unit_functions:
        module = importlib.import_module(f"confrelay.{module_name}")
        function = getattr(module, attr, None)
        assert callable(function), f"confrelay.{module_name}.{attr}"

        def counted(*args, _key=(module_name, attr), _function=function, **kwargs):
            called.add(_key)
            return _function(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    wl.setup(workloads.REFERENCE_SEED)
    assert called == set(wl.unit_functions)


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_each_pass_makes_its_unit_calls(name, tmp_path):
    # One pass, timed by the benchmark's own latency probe: one call at each
    # position from 0 to units_per_pass - 1.
    wl = workloads.make(name, tiny=True)
    wl.prepare(str(tmp_path))
    try:
        inp = wl.inputs(workloads.REFERENCE_SEED, 0)
        with spans.LatencyProbe(wl.unit_functions) as probe:
            probe.start_pass(0)
            out = wl.execute(inp)
    finally:
        wl.cleanup()
    assert wl.check(inp, out) == (0, [])
    assert {position: len(calls) for position, calls in probe.samples.items()} == {
        position: 1 for position in range(wl.units_per_pass)}
