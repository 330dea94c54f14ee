"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

For every workload at its tiny size it checks that a run emits every metric
named in ``BENCHMARK.json`` with its unit and no failed operation, that a
traced pass produces the same bytes as the untraced pass, and that the
reference comparison accepts a last-digit change and rejects a wrong value.
"""

import json
import os
import sys

import bootstrap
import run
import spans
import workloads


def check_compare() -> None:
    want = "a,1,2.000000000000e+00\n"
    assert not workloads.compare_text(want, "a,1,2.000000000001e+00\n")
    assert workloads.compare_text(want, "a,1,2.000000002000e+00\n")
    assert workloads.compare_text(want, "a,2,2.000000000000e+00\n")
    assert workloads.compare_text(want, "b,1,2.000000000000e+00\n")


def check_workload(name: str, bench: dict) -> None:
    wl = workloads.make(name, tiny=True)
    attempted, failed, report = run.measure(wl, seed=7, seconds=0.2,
                                            reference=None, setup_reps=1,
                                            tiny=True)
    assert failed == 0, (name, report["notes"])
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line(attempted, failed, report, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want, (name, section, set(want) ^ set(got))
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())
        json.dumps(line, allow_nan=False)

    wl.prepare(bootstrap.OUT_DIR)
    try:
        inp = wl.inputs(11, 0)
        out = wl.execute(inp)
        assert wl.check(inp, out) == (0, []), f"{name}: output fails its check"
        with spans.Tracer() as tracer:
            root = tracer.open("harness.pass")
            traced = wl.serialize(wl.execute(wl.inputs(11, 0)))
            tracer.close(root)
    finally:
        wl.cleanup()
    assert traced == wl.serialize(out), f"{name}: tracing changed the output"
    assert len(tracer.aggregate()) > 1, f"{name}: no span was recorded"
    print(f"selftest {name}: ok ({attempted} operations)")


def main() -> int:
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_compare()
    for w in bench["workloads"]:
        check_workload(w["name"], bench)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
