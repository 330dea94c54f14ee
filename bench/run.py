"""confrelay benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep_small_n --seed 1 --seconds 15 --trace 0

A run has five phases, all in this process except the first:

1. set-up: ``SETUP_REPS`` fresh processes each time the import, config
   parse or construction, moments and one warm-up unit call
   (``probe_setup.py``); ``setup_s`` is their median;
2. reference pass: pass 0 at ``REFERENCE_SEED``, untimed; it warms caches
   and is compared field by field with ``reference.json``;
3. untraced phase: passes 0, 1, ... from ``--seed`` for ``--seconds``; only
   the unit calls carry a latency probe; the end-to-end metrics come from
   here;
4. traced phase: the same passes again for ``TRACED_SHARE`` of that time,
   with a span around every listed public function; the per-layer metrics
   come from here, and traced minus untraced median pass time is the
   tracing overhead;
5. checks: every pass's output is checked, and each traced pass's output
   must equal its untraced twin byte for byte.

Pass and call times are reported at the nominal speed of
``calibration.py``: each is multiplied by the nominal over the measured time
of the calibration kernel run next to it.  Raw times are kept in the report.

BLAS pools are pinned to one thread and the CLI keeps ``--workers 1``.  The
last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
line before it, and ``.bench_out/<workload>-seed<seed>-trace<t>.json``,
hold the full report with provenance; the spans of the traced phase go to
``.bench_out/spans-<workload>.csv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap
import numpy as np

import calibration
import confrelay
import spans
import workloads

SETUP_REPS = 7
TRACED_SHARE = 0.25
HERE = os.path.dirname(os.path.abspath(__file__))


def _git_commit():
    if not os.path.isdir(os.path.join(bootstrap.ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", bootstrap.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(bootstrap.SRC, "confrelay", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure_setup(name: str, seed: int, tiny: bool, reps: int) -> list[dict]:
    cmd = [sys.executable, os.path.join(HERE, "probe_setup.py"),
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = []
    for _ in range(reps):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=bootstrap.ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def _run_pass(wl, inp, tracer=None):
    """Execute one pass; returns (seconds, output or None, error text)."""
    root = tracer.open("harness.pass") if tracer else None
    t0 = time.perf_counter()
    try:
        out, err = wl.execute(inp), None
    except Exception:  # a failing pass is counted, and the run goes on
        out, err = None, traceback.format_exc(limit=5)
    dt = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    return dt, out, err


def _phase(wl, seed, seconds, max_passes, probe=None, tracer=None):
    """Passes 0, 1, ... until ``seconds`` elapse.

    The calibration kernel runs between passes, and each pass's scale to the
    nominal speed uses the kernel times on both sides of it.  Each pass is
    checked as soon as it ends, and only a digest of its output is kept, so
    the process's memory does not grow with the number of passes.  Returns
    the times, the scales, the failed unit calls with their reasons, and the
    output digests.
    """
    times, scales, failures, digests = [], [], [], []
    before = calibration.kernel_seconds()
    start = time.perf_counter()
    k = 0
    while k < max_passes and (k == 0 or time.perf_counter() - start < seconds):
        inp = wl.inputs(seed, k)
        if probe:
            probe.start_pass(k)
        dt, out, err = _run_pass(wl, inp, tracer)
        after = calibration.kernel_seconds()
        times.append(dt)
        scales.append(2.0 * calibration.NOMINAL_S / (before + after))
        if err is None:
            failures.append(wl.check(inp, out))
            digests.append(hashlib.sha256(wl.serialize(out).encode()).digest())
        else:
            failures.append((wl.units_per_pass, [f"pass {k} raised: {err}"]))
            digests.append(None)
        del inp, out
        before = after
        k += 1
    return times, scales, failures, digests


def per_layer_metrics(wl, agg, tracer, n_passes, speed, traced_wall_s,
                      overhead_s) -> dict:
    """Per-layer metrics; times are scaled to the nominal speed by
    ``speed``, the traced phase's median scale."""
    counts = wl.counts()

    def st(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name, key, scale):
        s = st(name)
        return s[key] / s["calls"] * scale * speed if s["calls"] else 0.0

    m = {}
    for name in ("model.sample_realization", "model.moments",
                 "rates.af_power_factors", "asymptotics.trace_points"):
        m[f"{name}.calls"] = (st(name)["calls"] / n_passes, "count")
    for name in ("model.sample_realization", "model.moments",
                 "rates.capacity_upper_bound", "rates.df_rate",
                 "rates.df_relay_rates", "rates.df_mac_rate", "rates.af_rate",
                 "rates.af_q_terms", "rates.af_power_factors"):
        m[f"{name}.self_us_per_call"] = (per_call(name, "self_s", 1e6), "us")
    m["rates.af_power_factors.calls_per_point"] = (
        st("rates.af_power_factors")["calls"] / (n_passes * counts["af_points"]),
        "count")
    for scheme in ("af", "df", "upper"):
        m[f"rates.nonfinite.{scheme}"] = (tracer.nonfinite[scheme], "count")
    m["montecarlo.run_point.self_ms"] = (
        per_call("montecarlo.run_point", "self_s", 1e3), "ms")
    m["asymptotics.trace_points.self_ms"] = (
        per_call("asymptotics.trace_points", "self_s", 1e3), "ms")
    m["cli.parse_config.ms"] = (per_call("cli.parse_config", "total_s", 1e3), "ms")
    m["cli.emit_csv.ms"] = (per_call("cli.emit_csv", "total_s", 1e3), "ms")
    m["cli.dispatch.self_ms"] = (per_call("cli.dispatch", "self_s", 1e3), "ms")
    total = st("harness.pass")["total_s"]
    shares = {layer: 0.0 for layer in (*spans.LAYERS, "harness")}
    for name, s in agg.items():
        shares[name.split(".", 1)[0]] += s["self_s"] / total
    for layer, share in shares.items():
        m[f"{layer}.share"] = (share, "fraction")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, sum(shares.values())


def measure(wl, seed: int, seconds: float, reference, setup_reps=SETUP_REPS,
            tiny=False):
    """Run every phase; returns (attempted, failed, report)."""
    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    wl.prepare(bootstrap.OUT_DIR)
    try:
        return _measure(wl, seed, seconds, reference, setup_reps, tiny)
    finally:
        wl.cleanup()


def _measure(wl, seed, seconds, reference, setup_reps, tiny):
    setup = measure_setup(wl.name, seed, tiny, setup_reps)

    failed, notes = 0, []
    ref_inp = wl.inputs(workloads.REFERENCE_SEED, 0)
    _, ref_out, err = _run_pass(wl, ref_inp)
    if err is not None:
        failed += wl.units_per_pass
        notes.append(f"reference pass raised: {err}")
    elif reference is not None:
        diffs = wl.check(ref_inp, ref_out)[1] + workloads.compare_text(
            reference, wl.serialize(ref_out))
        if diffs:
            failed += wl.units_per_pass
            notes.extend(f"reference pass: {d}" for d in diffs[:10])

    gc.collect()
    with spans.LatencyProbe(wl.unit_functions) as probe:
        times, scales, failures, digests = _phase(wl, seed, seconds,
                                                  sys.maxsize, probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency = probe.summary(scales)

    gc.collect()
    with spans.Tracer() as tracer:
        ttimes, tscales, tfailures, tdigests = _phase(
            wl, seed, seconds * TRACED_SHARE, len(times), tracer=tracer)

    for bad, why in failures + tfailures:
        failed += bad
        notes.extend(why)
    for k, (a, b) in enumerate(zip(digests, tdigests)):
        if a is not None and b is not None and a != b:
            failed += wl.units_per_pass
            notes.append(f"traced pass {k} output differs from untraced")
    attempted = wl.units_per_pass * (1 + len(times) + len(ttimes))

    counts = wl.counts()
    scaled = [t * c for t, c in zip(times, scales)]
    wall_s = statistics.median(scaled)
    traced_wall_s = statistics.median(t * c for t, c in zip(ttimes, tscales))
    overhead_s = traced_wall_s - wall_s
    end_to_end = {
        "setup_s": (statistics.median(p["setup_s"] * calibration.NOMINAL_S
                                      / p["kernel_s"] for p in setup), "s"),
        "wall_s": (wall_s, "s"),
        "trials_per_s": (counts["realizations"] * len(times) / sum(scaled), "1/s"),
        "call_ms_p50": (latency["call_ms_p50"], "ms"),
        "call_ms_tail": (latency["call_ms_tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    agg = tracer.aggregate()
    per_layer, share_sum = per_layer_metrics(
        wl, agg, tracer, len(ttimes), statistics.median(tscales),
        traced_wall_s, overhead_s)
    if abs(share_sum - 1.0) > 1e-9:
        failed += 1
        notes.append(f"layer self times add up to {share_sum} of traced wall")
    tracer.write(os.path.join(bootstrap.OUT_DIR, f"spans-{wl.name}.csv.gz"))

    report = {
        "workload": wl.name,
        "provenance": {
            "package": confrelay.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "blas_threads": bootstrap.THREAD_ENV["OPENBLAS_NUM_THREADS"],
            "git_commit": _git_commit(),
            "source_digest": _source_digest(),
            "config": wl.describe(),
            "config_digest": wl.config_digest(),
            "seed": seed,
            "reference_seed": workloads.REFERENCE_SEED,
            "passes": {"untraced": len(times), "traced": len(ttimes)},
            "trials": counts["realizations"] * len(times),
            "nominal_kernel_s": calibration.NOMINAL_S,
            "raw_pass_s": {"min": min(times), "median": statistics.median(times),
                           "max": max(times)},
            "scale": {"min": min(scales), "median": statistics.median(scales),
                      "max": max(scales)},
            "setup_samples_s": setup,
            "latency": latency,
            "tracing_overhead_s": overhead_s,
            "tracing_overhead_share": overhead_s / wall_s,
        },
        "fail_ratio": failed / attempted,
        "notes": notes[:50],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "spans": agg,
    }
    return attempted, failed, report


def load_reference(name: str):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["seed"] != workloads.REFERENCE_SEED:
        raise RuntimeError("reference.json was recorded at another seed")
    return ref["workloads"][name]


def result_line(attempted: int, failed: int, report: dict, trace: int) -> dict:
    """The last line of a run: end-to-end metrics, or per-layer when traced."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": report["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    wl = workloads.make(args.workload)
    attempted, failed, report = measure(wl, args.seed, args.seconds,
                                        load_reference(wl.name))
    result = result_line(attempted, failed, report, args.trace)
    path = os.path.join(bootstrap.OUT_DIR,
                        f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({k: report[k] for k in ("workload", "provenance",
                                              "fail_ratio", "notes")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
