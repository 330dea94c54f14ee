"""Time one command-line pass in two checkouts, in alternating pairs.

    python3 tools/pass_pairs.py --parent DIR --change DIR --pairs N --reps R \\
        -- <confrelay argv>

``DIR`` is a checkout of the repository, for example a ``git clone`` of the
parent commit.  Pair ``i`` runs the command ``R`` times in one subprocess per
checkout, one process at a time: the parent first in even pairs, the change
first in odd ones.  Each process imports its own checkout's ``confrelay``
(``checkout_results`` of ``tools/cli_bytes.py``) and runs in the current
directory, so a ``--config`` path is read from there.  Pass ``r`` is one
``confrelay.cli.main`` call on the argv with ``--set seed=r`` appended, so no
pass reads first rows that an earlier pass of its process kept, and every
process runs the same passes.

Per process the fastest pass's wall time, the peak RSS (``ru_maxrss``) and
each pass's exit code and sha256 of stdout are kept.  For wall time and peak
RSS the summary prints each side's median and quartiles over its processes
(``summarize`` of ``bench/repeat.py``, through ``tools/bench_pairs.py``) and
the pairs in which the change is lower.  The exit code is 1 when any
process's exit codes or stdout hashes differ from the first process's, else
0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import resource
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_bytes, bench_pairs = _tool("cli_bytes"), _tool("bench_pairs")


def run_passes(job: dict) -> dict:
    """Run ``job["argv"]`` ``job["reps"]`` times in this process, pass ``r``
    with ``--set seed=r``: the fastest pass's wall time in seconds, the peak
    RSS in MB, and each pass's exit code and stdout sha256."""
    from confrelay import cli

    walls, outputs = [], []
    for r in range(job["reps"]):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([*job["argv"], "--set", f"seed={r}"])
            except SystemExit as exc:
                code = exc.code
        walls.append(time.perf_counter() - start)
        outputs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
    # ru_maxrss is in KiB on Linux.
    return {"wall_s": min(walls), "outputs": outputs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_pairs(dirs: dict, argv: list, pairs: int, reps: int) -> list[dict]:
    """One record per process: pair, side and :func:`run_passes`' result."""
    job = {"argv": argv, "reps": reps}
    return [{"pair": i, "side": side,
             **cli_bytes.checkout_results(dirs[side], job, Path(__file__))}
            for i in range(pairs)
            for side in (bench_pairs.SIDES if i % 2 == 0 else bench_pairs.SIDES[::-1])]


def summarize(records: list[dict]) -> tuple[list[str], bool]:
    """Summary lines, and whether every process's outputs are the first's."""
    lines = []
    pairs = sorted({r["pair"] for r in records})
    for key in ("wall_s", "peak_rss_mb"):
        value = {(r["pair"], r["side"]): r[key] for r in records}
        sides = [[value[i, side] for i in pairs] for side in bench_pairs.SIDES]
        lower = sum(value[i, "change"] < value[i, "parent"] for i in pairs)
        text = " -> ".join("{:.6g} [{:.6g}, {:.6g}]".format(*bench_pairs.quartiles(v))
                           for v in sides)
        lines.append(f"{key}: {text}; change lower in {lower}/{len(pairs)}")
        lines.append("  pairs parent/change: " + ", ".join(
            f"{p:.6g}/{c:.6g}" for p, c in zip(*sides)))
    first = records[0]["outputs"]
    differ = [r for r in records if r["outputs"] != first]
    lines += [f"DIFFERS pair {r['pair']} {r['side']}: exit codes and stdout hashes "
              f"{r['outputs']} against {first}" for r in differ]
    lines.append(f"{len(records) - len(differ)} of {len(records)} processes "
                 f"print the same bytes")
    return lines, not differ


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    argv, command = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(run_passes(json.load(sys.stdin))))
        return 0
    missing = [f"--{k}" for k in ("parent", "change", "pairs", "reps")
               if getattr(args, k) is None]
    if missing or not command:
        parser.error("needs " + ", ".join(missing + ["-- <confrelay argv>"] * (not command)))
    if args.pairs < 1 or args.reps < 1:
        parser.error("--pairs and --reps must be at least 1")
    records = run_pairs({"parent": args.parent, "change": args.change}, command,
                        args.pairs, args.reps)
    lines, same = summarize(records)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
