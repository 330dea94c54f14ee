"""Run and summarize alternating benchmark pairs of two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--workload W ...] --pairs N --seed S [--log FILE]
    python3 tools/bench_pairs.py --summarize FILE

``DIR`` is a checkout of the repository, for example a ``git worktree`` of
the parent commit.  ``--workload`` may be repeated: the pairs of each
workload run in turn, all of one before the next, and the summary has one
section per workload.  Pair ``i`` runs the command of the change's
``BENCHMARK.json`` (``bench/run.py``) with ``--workload W --seed S+i
--seconds R --trace 0`` once in each checkout, one run at a time: the parent
first in even pairs, the change first in odd ones.  ``R`` is the
``run_seconds`` of the change's ``BENCHMARK.json``, so both sides run as
long.  Each run's last line of standard output (the result line) and exit
code are kept; ``--log`` appends them to FILE as JSON lines, and
``--summarize`` re-reads such a file without running anything (the metrics
are then those of the ``BENCHMARK.json`` next to this script).

For every end-to-end metric the summary prints each side's median and
quartiles over its own runs (``summarize`` of ``bench/repeat.py``), the pairs
in which the change is better out of all N pairs run (``k/N``; a tie, or a
pair with a run that gave no value, counts for neither side) and every
pair's values.  A metric reads
``gain``        when k >= 0.9 N and the change's median is better than the
                parent's by more than the parent's quartile distance;
``worse``       when the change's median is worse than the parent's by more
                than the metric's ``bound`` times the parent's median;
``unresolved``  when the parent's quartile distance is wider than that bound
                and some run of the change is not better than every run of
                the parent: the runs spread too widely to tell;
``level``       otherwise.
Any run that exits non-zero or whose result is not ``correct`` is flagged.
The exit code is 1 when a run is flagged or a metric reads ``worse`` or
``unresolved``, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("repeat", ROOT / "bench" / "repeat.py")
repeat = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(repeat)


def benchmark(checkout: Path) -> tuple[list, float, list[dict]]:
    """The benchmark command, run length and end-to-end metrics of
    ``checkout``."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return bench["command"], bench["run_seconds"], bench["end_to_end"]


def run_pairs(dirs: dict, command: list, workload: str, pairs: int, seed: int,
              seconds: float, log=None) -> list[dict]:
    """One record per run: pair, side, seed, exit code and last stdout line."""
    records = []
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            proc = subprocess.run(
                [*command, "--workload", workload, "--seed", str(seed + i),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=dirs[side], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            record = {"pair": i, "side": side, "workload": workload, "seed": seed + i,
                      "returncode": proc.returncode, "line": lines[-1] if lines else ""}
            records.append(record)
            if log is not None:
                log.write(json.dumps(record) + "\n")
                log.flush()
    return records


def _result(record: dict):
    """The parsed result line of a run, or None when it is not one."""
    try:
        result = json.loads(record["line"])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def flagged(records: list[dict]) -> list[str]:
    """One line per run that exited non-zero or whose result is not correct."""
    out = []
    for r in records:
        result = _result(r)
        why = []
        if r["returncode"] != 0:
            why.append(f"exit {r['returncode']}")
        if result is None:
            why.append("no result line")
        elif result.get("correct") is not True:
            why.append(f"not correct (failed {result.get('failed')} of "
                       f"{result.get('attempted')})")
        if why:
            out.append(f"FLAGGED pair {r['pair']} {r['side']} seed {r['seed']}: "
                       + ", ".join(why))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, lower and upper quartile; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    s = repeat.summarize(values)
    return s["median"], s["q1"], s["q3"]


def verdict(pairs: list[tuple], better: str, bound: float) -> tuple[int, str]:
    """Pairs the change wins, and ``gain``, ``worse``, ``unresolved`` or
    ``level``.  ``pairs`` holds one (parent, change) value per pair run,
    None where that run gave none; each side needs at least one value."""
    # Signed values: the better of two is the higher one for either metric.
    sign = 1.0 if better == "higher" else -1.0
    parent = [sign * p for p, _ in pairs if p is not None]
    change = [sign * c for _, c in pairs if c is not None]
    wins = sum(p is not None and c is not None and sign * (c - p) > 0 for p, c in pairs)
    p_med, p_q1, p_q3 = quartiles(parent)
    c_med = quartiles(change)[0]
    if wins >= 0.9 * len(pairs) and c_med - p_med > p_q3 - p_q1:
        return wins, "gain"
    if p_med - c_med > bound * abs(p_med):
        return wins, "worse"
    if p_q3 - p_q1 > bound * abs(p_med) and min(change) <= max(parent):
        return wins, "unresolved"
    return wins, "level"


def summarize(records: list[dict], metrics: list[dict]) -> tuple[list[str], bool]:
    """Summary lines per workload, and whether no run is flagged and every
    metric reads ``gain`` or ``level``."""
    lines = flagged(records)
    ok = not lines
    for workload in dict.fromkeys(r["workload"] for r in records):
        lines.append(f"workload {workload}")
        ok = _summarize_workload([r for r in records if r["workload"] == workload],
                                 metrics, lines) and ok
    return lines, ok


def _summarize_workload(records: list[dict], metrics: list[dict],
                        lines: list[str]) -> bool:
    """Append one workload's metric lines to ``lines``; False when a metric
    reads ``worse`` or ``unresolved``."""
    results = {(r["pair"], r["side"]): _result(r) for r in records}
    pairs = sorted({r["pair"] for r in records})
    ok = True
    for m in metrics:
        name = m["name"]
        values = []
        for i in pairs:
            got = [(results.get((i, side)) or {}).get("metrics", {}).get(name)
                   for side in SIDES]
            values.append(tuple(float(g["value"]) if isinstance(g, dict) else None
                                for g in got))
        sides = [[v[k] for v in values if v[k] is not None] for k in (0, 1)]
        if not all(sides):
            lines.append(f"  {name}: no value from a side")
            continue
        wins, word = verdict(values, m["better"], m["bound"])
        ok = ok and word in ("gain", "level")
        text = " -> ".join("{:.6g} [{:.6g}, {:.6g}]".format(*quartiles(v)) for v in sides)
        lines.append(f"  {name} ({m['unit']}, {m['better']} is better, bound {m['bound']}): "
                     f"{text}; change better in {wins}/{len(values)}: {word}")
        lines.append("    pairs parent/change: " + ", ".join(
            "/".join("-" if v is None else f"{v:.6g}" for v in pair) for pair in values))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="a workload to run pairs of; repeat for more")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--log", type=Path, help="append each run's record to FILE")
    parser.add_argument("--summarize", type=Path, metavar="FILE",
                        help="summarize the records of FILE without running")
    args = parser.parse_args(argv)
    if args.summarize is not None:
        records = [json.loads(line) for line in
                   args.summarize.read_text(encoding="utf-8").splitlines() if line.strip()]
        _, _, metrics = benchmark(ROOT)
    else:
        missing = [f"--{k}" for k in ("parent", "change", "workload", "pairs", "seed")
                   if getattr(args, k) is None]
        if missing:
            parser.error("running pairs needs " + ", ".join(missing))
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        command, seconds, metrics = benchmark(args.change)
        dirs = {"parent": args.parent, "change": args.change}
        with (contextlib.nullcontext() if args.log is None
              else open(args.log, "a", encoding="utf-8")) as log:
            records = [r for workload in args.workload
                       for r in run_pairs(dirs, command, workload, args.pairs, args.seed,
                                          seconds, log)]
    lines, ok = summarize(records, metrics)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
