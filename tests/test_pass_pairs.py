"""``tools/pass_pairs.py`` times a command-line pass in two checkouts in
alternating pairs of processes and reports each side's median and quartiles,
and whether every process printed the same bytes.  Run here on copies of this
checkout's ``src`` at a tiny size."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pass_pairs", ROOT / "tools" / "pass_pairs.py")
pass_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pass_pairs)

ARGV = ["--pairs", "2", "--reps", "2", "--", "single", "--config", "run.cfg"]


def test_pairs_alternate_and_one_printed_digit_differs(tmp_path, monkeypatch, capsys):
    dirs = {side: tmp_path / side for side in ("parent", "change")}
    for d in dirs.values():
        shutil.copytree(ROOT / "src" / "confrelay", d / "src" / "confrelay",
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("N=4\np=0.5\ntrials=4\n", encoding="utf-8")
    sides = ["--parent", str(dirs["parent"]), "--change", str(dirs["change"])]
    records = pass_pairs.run_pairs(dirs, ["single", "--config", "run.cfg"], 2, 2)
    assert [(r["pair"], r["side"]) for r in records] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    assert all(r["wall_s"] > 0 and r["peak_rss_mb"] > 0 for r in records)
    # Two passes of seeds 0 and 1, each exiting 0 with its own stdout.
    outputs = records[0]["outputs"]
    assert [code for code, _ in outputs] == [0, 0] and outputs[0][1] != outputs[1][1]
    assert pass_pairs.main(sides + ARGV) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wall_s: ") and out[0].endswith("/2")
    assert out[2].startswith("peak_rss_mb: ")
    assert out[-1] == "4 of 4 processes print the same bytes"
    # The change prints every float with one digit fewer.
    cli = dirs["change"] / "src" / "confrelay" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("{v:.12e}") == 1
    cli.write_text(text.replace("{v:.12e}", "{v:.11e}"), encoding="utf-8")
    assert pass_pairs.main(sides + ARGV) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out if line.startswith("DIFFERS")] == [
        "DIFFERS pair 0 change", "DIFFERS pair 1 change"]
    assert out[-1] == "2 of 4 processes print the same bytes"
