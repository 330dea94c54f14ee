"""``tools/cli_bytes.py`` runs the same command-line cases in two checkouts
and reports each case whose exit code or output bytes differ.  Run here on
copies of this checkout's ``src`` with a short case list."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_bytes", ROOT / "tools" / "cli_bytes.py")
cli_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_bytes)

CONFIG = "N=6\np=0.5\ntrials=4\n"
CASES = [("single", 1, CONFIG, ["single", "--config", "run.cfg"]),
         ("diagnose", 2, CONFIG, ["diagnose", "--axis", "2,4,8", "--config", "run.cfg"]),
         ("exit_2", 1, CONFIG, ["single", "--workers", "0", "--config", "run.cfg"]),
         ("exit_3", 1, CONFIG, ["single", "--set", "Pc=0", "--config", "run.cfg"])]


def test_identical_checkouts_agree_and_one_printed_digit_differs(tmp_path):
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "src" / "confrelay", tmp_path / side / "src" / "confrelay",
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert cli_bytes.compare(tmp_path / "parent", tmp_path / "change", CASES) == (
        ["0 of 4 cases differ"], True)
    # The change prints every float with one digit fewer.
    cli = tmp_path / "change" / "src" / "confrelay" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("{v:.12e}") == 1
    cli.write_text(text.replace("{v:.12e}", "{v:.11e}"), encoding="utf-8")
    lines, same = cli_bytes.compare(tmp_path / "parent", tmp_path / "change", CASES)
    assert not same and lines[-1] == "2 of 4 cases differ"
    assert [line.split(":")[0] for line in lines[:-1]] == ["DIFFERS single", "DIFFERS diagnose"]
    assert all(", " not in line and " stdout " in line for line in lines[:-1])


def test_the_fixed_cases_cover_every_command_both_cpu_counts_and_both_error_codes():
    names = [name for name, *_ in cli_bytes.CASES]
    assert len(names) == len(set(names)) == 6 * 3 * 3 * 2 + 3 * 2 + len(cli_bytes.ERRORS)
    assert {name.split("/")[0] for name in names} == {*cli_bytes.COMMANDS, "error"}
    assert {cpus for _, cpus, _, _ in cli_bytes.CASES} == {1, 2}
    assert all(argv.count("--config") == 1 for *_, argv in cli_bytes.CASES)
