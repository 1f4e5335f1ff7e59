"""The summary of ``tools/bench_pairs.py``, on hand-made runs; no process
is spawned."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "rate", "better": "higher"}, {"name": "time", "better": "lower"}]


def runs(workload, pairs):
    """Runs of one workload from (parent, change) metric dicts, one per pair."""
    out = []
    for pair, (parent, change) in enumerate(pairs):
        both = [("parent", parent), ("change", change)]
        for side, metrics in both[::-1] if pair % 2 else both:  # alternating, as run
            out.append({"workload": workload, "seed": 230 + pair, "side": side, "pair": pair,
                        "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}})
    return out


def test_summary_counts_wins_in_each_metric_direction():
    # rate: the change wins 9 of 10 and its median clears the parent's
    # quartile range; time: a tie, a loss and 8 wins, not enough
    pairs = [({"rate": 100 + k, "time": 10.0}, {"rate": 120 + k, "time": 9.0})
             for k in range(10)]
    pairs[3] = ({"rate": 103, "time": 10.0}, {"rate": 99, "time": 10.0})
    pairs[4] = ({"rate": 104, "time": 10.0}, {"rate": 124, "time": 11.0})
    rows = bench_pairs.summary(runs("w", pairs), METRICS)
    assert [(r["metric"], r["won"], r["pairs"], r["rule"]) for r in rows] == [
        ("rate", 9, 10, True), ("time", 8, 10, False)]
    rate = rows[0]
    assert rate["parent"][1] == 104.5 and rate["change"][1] == 124.5
    assert rate["parent"][0] < rate["parent"][1] < rate["parent"][2]


def test_summary_needs_a_median_gap_wider_than_the_parents_spread():
    # the change wins every pair by 1, but the parent's runs spread by 40
    pairs = [({"rate": 100 + 10 * k}, {"rate": 101 + 10 * k}) for k in range(10)]
    (row,) = bench_pairs.summary(runs("w", pairs), METRICS[:1])
    assert (row["won"], row["rule"]) == (10, False)


def test_summary_skips_pairs_missing_a_side_and_keeps_workloads_apart():
    pairs = [({"rate": 1.0}, {"rate": 2.0})] * 3
    record = runs("a", pairs) + runs("b", pairs)[:-1]  # b's last pair has one side
    rows = bench_pairs.summary(record, METRICS[:1])
    assert [(r["workload"], r["won"], r["pairs"]) for r in rows] == [("a", 3, 3), ("b", 2, 2)]


def test_seed_list_reads_ranges_and_lists():
    assert bench_pairs.seed_list("230-233,7") == [230, 231, 232, 233, 7]
