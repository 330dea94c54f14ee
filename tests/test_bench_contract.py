"""The benchmark's unit calls still run against the library.

Each workload names the library functions whose calls are its unit calls
(``unit_functions``) and makes one warm-up unit call in ``setup``.  A change
to the signature of ``trace_points`` or ``run_point`` that the benchmark's
calls no longer fit fails here, at the workloads' smallest sizes, and not
only when the benchmark runs.  The benchmark's files are read, never
changed.
"""

import importlib

import pytest

# bench/workloads.py, loaded once, the way the reference check loads it.
from test_bench_reference import workloads


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
