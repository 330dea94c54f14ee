"""``tools/bench_pairs.py`` summarizes alternating bench pairs: each side's
median and quartiles, the pairs the change wins out of all pairs run (ties
for neither side), a ``gain``, ``worse``, ``unresolved`` or ``level`` verdict
per metric, and a flag for every run that failed.  Fed canned result lines; nothing is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "call_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]


def _record(pair, side, rate, ms, correct=True, returncode=0, line=None):
    result = {"correct": correct, "attempted": 40, "failed": 0 if correct else 2,
              "metrics": {"trials_per_s": {"value": rate, "unit": "1/s"},
                          "call_ms_p50": {"value": ms, "unit": "ms"}}}
    return {"pair": pair, "side": side, "workload": "w", "seed": 100 + pair,
            "returncode": returncode, "line": json.dumps(result) if line is None else line}


def _records():
    # Pair 1 ties on trials_per_s; pair 5's change run crashed before its
    # result line, so pair 5 is a win for neither side.
    rates = [(100, 120), (102, 102), (98, 118), (101, 121), (99, 119), (100, None)]
    out = []
    for pair, (parent, change) in enumerate(rates):
        out.append(_record(pair, "parent", parent, 1.0))
        out.append(_record(pair, "change", change, 1.3) if change is not None else
                   _record(pair, "change", 0, 0, returncode=1, line="Traceback"))
    return out


def test_summary_counts_ties_for_neither_side_and_flags_the_failed_run():
    lines, ok = bench_pairs.summarize(_records(), METRICS)
    assert not ok
    assert lines == [
        "FLAGGED pair 5 change seed 105: exit 1, no result line",
        "workload w",
        "  trials_per_s (1/s, higher is better, bound 0.25): 100 [98.75, 101.25] -> "
        "119 [110, 120.5]; change better in 4/6: level",
        "    pairs parent/change: 100/120, 102/102, 98/118, 101/121, 99/119, 100/-",
        "  call_ms_p50 (ms, lower is better, bound 0.25): 1 [1, 1] -> 1.3 [1.3, 1.3]; "
        "change better in 0/6: worse",
        "    pairs parent/change: 1/1.3, 1/1.3, 1/1.3, 1/1.3, 1/1.3, 1/-",
    ]


def test_a_run_that_is_not_correct_is_flagged():
    records = [_record(0, "parent", 100, 1.0, correct=False), _record(0, "change", 100, 1.0)]
    assert bench_pairs.flagged(records) == [
        "FLAGGED pair 0 parent seed 100: not correct (failed 2 of 40)"]


# Parent 10..19: median 14.5, quartiles 11.75 and 17.25 (distance 5.5).  With
# a bound of 0.4 (5.8 of the median) the change is worse when its median
# falls below 8.7; with a bound of 0.2 the quartile distance is wider than
# the bound.
PARENT = [float(v) for v in range(10, 20)]


def _shifted(shift, lost=()):
    return [(p, None if i in lost else p + shift) for i, p in enumerate(PARENT)]


VERDICT_CASES = {
    "gain": (_shifted(6), 0.4, (10, "gain")),
    "level_within_the_quartile_distance": (_shifted(5), 0.4, (10, "level")),
    "level_within_the_bound": (_shifted(-5.5), 0.4, (0, "level")),
    "worse": (_shifted(-6), 0.4, (0, "worse")),
    "unresolved_when_the_spread_is_wider_than_the_bound": (_shifted(5), 0.2,
                                                           (10, "unresolved")),
    # Median 5, quartiles 0 and 10: every change run beats every parent run.
    "level_when_every_change_run_is_better": ([(0.0, 10.5)] * 5 + [(10.0, 10.5)] * 5,
                                              0.2, (10, "level")),
    # 8 of 8 complete pairs, but 8 of the 10 pairs run: no gain.
    "wins_count_every_pair_run": (_shifted(6, lost=(3, 7)), 0.4, (8, "level")),
}


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_gain_needs_the_parent_quartile_distance_and_worse_the_bound(name):
    pairs, bound, want = VERDICT_CASES[name]
    assert bench_pairs.verdict(pairs, "higher", bound) == want
    # The same pairs negated read the same for a lower-is-better metric.
    negated = [tuple(None if v is None else -v for v in pair) for pair in pairs]
    assert bench_pairs.verdict(negated, "lower", bound) == want


def test_summarize_option_reads_a_log_without_running(tmp_path, capsys):
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in _records()[:10]))
    # The metrics are those of the repository's BENCHMARK.json; the canned
    # lines carry two of them, and call_ms_p50 is worse.
    assert bench_pairs.main(["--summarize", str(log)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FLAGGED" not in "".join(out)
    assert "  setup_s: no value from a side" in out
    assert any(line.startswith("  call_ms_p50 ") and line.endswith(": worse") for line in out)
    assert any(line.startswith("  trials_per_s ") and line.endswith("4/5: level")
               for line in out)
