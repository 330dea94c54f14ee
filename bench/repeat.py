"""Repeat the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0] \
        [--out bench/baseline.json]

Runs ``run.py`` once per (workload, seed) in a fresh process, each for the
``run_seconds`` of ``BENCHMARK.json``, and reports for each metric the median
of its values and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace,
               "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600, cwd=ROOT)
            if done.returncode != 0:
                raise SystemExit(f"{name} seed {seed} failed:\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            runs.append((seed, json.loads(lines[-2]), json.loads(lines[-1])))
        metrics = {}
        for key in runs[0][2]["metrics"]:
            s = summarize([r[2]["metrics"][key]["value"] for r in runs])
            s["unit"] = runs[0][2]["metrics"][key]["unit"]
            if bounds.get(key) is not None and s["spread"] is not None:
                s["bound"] = bounds[key]
                s["within_third_of_bound"] = s["spread"] < bounds[key] / 3
            metrics[key] = s
        summary["workloads"][name] = {
            "seeds": [r[0] for r in runs],
            "all_correct": all(r[2]["correct"] for r in runs),
            "attempted": sum(r[2]["attempted"] for r in runs),
            "failed": sum(r[2]["failed"] for r in runs),
            "provenance": {k: runs[0][1]["provenance"][k]
                           for k in ("package", "numpy", "python", "nproc",
                                     "cpu", "git_commit", "source_digest",
                                     "config_digest")},
            "metrics": metrics,
        }
        for key, s in metrics.items():
            flag = "" if s.get("within_third_of_bound", True) else "  <-- spread"
            print(f"{name:18s} {key:48s} median {s['median']:.6g} {s['unit']}"
                  f"  spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"{flag}", flush=True)
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
