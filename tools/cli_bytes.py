"""Compare the command line's exit codes and output bytes in two checkouts.

    python3 tools/cli_bytes.py --parent DIR --change DIR

``DIR`` is a checkout of the repository, for example a ``git clone`` of the
parent commit.  Each checkout runs the same fixed list of cases (``CASES``)
in one subprocess, with its own ``src`` first on ``PYTHONPATH``, inside an
empty temporary directory that holds the case's config as ``run.cfg``.  The
cases are all six commands on four configs (the last with both hops point
masses, so every row is constant) and three seeds, each with
``model._CPUS`` at 1 and at 2; three runs that read trials past the kept
first rows, at both CPU counts: a ``diagnose`` at N = 16000, 32000 and 64000
with 20 trials, a ``single`` at N = 4 with 40000 trials (16384 kept, then two
state chunks) and a ``sweep-n`` at N = 25, 50 and 100 with 3000 trials (2621
kept); and inputs that exit with code 2
(configuration error) and 3 (precondition error).  A case is one
``confrelay.cli.main`` call, an ``argparse`` exit counting with its code;
its exit code and the sha256 of its stdout and of its stderr (their first
16 hex digits) are kept.
Each case whose exit code or either hash differs between the checkouts is
printed, and the exit code is 1 when any case differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "cscg": "N=50\np=0.2\ntrials=30\n",
    "point_mass": "N=12\nM=4\ntrials=30\nh_dist=cscg:0.7\ng_dist=point_mass:0.6+0.8j\n",
    "wide": "N=400\np=0.05\ntrials=10\n",
    "point_masses": "N=12\nM=4\ntrials=30\nh_dist=point_mass:0.6+0.8j\ng_dist=point_mass:1\n",
}
COMMANDS = {
    "single": [],
    "sweep-n": ["--axis", "25,100,200"],
    "sweep-p": ["--axis", "0.1,0.3,1.0"],
    "sweep-snr": ["--axis=-5,0,10"],
    "oracle": ["--draws", "2000"],
    "diagnose": ["--axis", "32,128,400"],
}
SEEDS = (0, 7, 2 ** 64 - 1)
CPUS = (1, 2)
# Runs past the kept first rows: name, config text and argv.
PAST_KEPT = {
    "diagnose/large_n": ("N=16000\np=0.01\ntrials=20\n",
                         ["diagnose", "--axis", "16000,32000,64000"]),
    "single/past_kept": ("N=4\nM=1\ntrials=40000\n", ["single"]),
    "sweep-n/past_kept": ("N=25\np=0.2\ntrials=3000\n", ["sweep-n", "--axis", "25,50,100"]),
}
# Inputs that exit with code 2 or 3, each run on the cscg config at one CPU.
ERRORS = {
    "workers_zero": ["single", "--workers", "0"],
    "draws_zero": ["oracle", "--draws", "0"],
    "bad_axis": ["sweep-p", "--axis", "0.1,x"],
    "unknown_key": ["single", "--set", "K=1"],
    "negative_n": ["single", "--set", "N=-3"],
    "unknown_flag": ["single", "--bogus"],
    "missing_config": ["single", "--config", "absent.cfg"],
    "single_pc_zero": ["single", "--set", "Pc=0"],
    "oracle_ps_zero": ["oracle", "--draws", "100", "--set", "Ps=0"],
    "diagnose_pc_zero": ["diagnose", "--axis", "8,16,32", "--set", "Pc=0"],
    "single_ps_overflow": ["single", "--set", "Ps=1e308"],
}


def _cases() -> list:
    """(name, CPUs, config text, argv) of every case, ``--config run.cfg``
    appended to each argv that names no config."""
    cases = [(f"{command}/{config}/seed={seed}/cpus={cpus}", cpus, CONFIGS[config],
              [command, *args, "--set", f"seed={seed}"])
             for command, args in COMMANDS.items() for config in CONFIGS
             for seed in SEEDS for cpus in CPUS]
    cases += [(f"{name}/cpus={cpus}", cpus, config, argv)
              for name, (config, argv) in PAST_KEPT.items() for cpus in CPUS]
    cases += [(f"error/{name}", 1, CONFIGS["cscg"], argv) for name, argv in ERRORS.items()]
    return [(name, cpus, config, argv if "--config" in argv else [*argv, "--config", "run.cfg"])
            for name, cpus, config, argv in cases]


CASES = _cases()


def run_cases(cases: list) -> dict:
    """Run each case in this process: by name, its exit code and the first
    16 hex digits of the sha256 of its stdout and of its stderr."""
    from confrelay import cli, model

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, cpus, config, argv in cases:
            Path("run.cfg").write_text(config, encoding="utf-8")
            model._CPUS = cpus
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            results[name] = [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest()[:16]
                                      for s in (out, err)]
    return results


def checkout_results(checkout: Path, cases, tool: Path = Path(__file__)):
    """What ``tool --worker`` prints as JSON for ``cases`` (sent as JSON on
    its stdin), run in one subprocess that imports the ``confrelay`` of
    ``checkout``: for this tool, :func:`run_cases` of ``cases``."""
    src = str(Path(checkout).resolve() / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(Path(tool).resolve()), "--worker"],
                          input=json.dumps(cases), env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"cases failed to run in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differing(parent: dict, change: dict) -> list[str]:
    """One line per case whose exit code or output hashes differ."""
    lines = []
    for name, want in parent.items():
        got = change[name]
        if got != want:
            parts = [f"{label} {a} -> {b}"
                     for label, a, b in zip(("exit", "stdout", "stderr"), want, got) if a != b]
            lines.append(f"DIFFERS {name}: " + ", ".join(parts))
    return lines


def compare(parent: Path, change: Path, cases: list = CASES) -> tuple[list[str], bool]:
    """The lines :func:`differing` prints for ``cases`` run in each
    checkout, then a count; and whether every case is the same."""
    lines = differing(checkout_results(parent, cases), checkout_results(change, cases))
    return lines + [f"{len(lines)} of {len(cases)} cases differ"], not lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(run_cases(json.load(sys.stdin))))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    lines, same = compare(args.parent, args.change)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
