"""Bench: regenerate Table VI (grouping and heuristic vs solver time)."""

from repro.experiments import tab06_grouping_heuristic


def test_tab06_grouping_heuristic(experiment):
    res = experiment(tab06_grouping_heuristic.run)
    # Heuristic throughput within a few percent of the best strategy.
    for key, gap in res.summary.items():
        assert gap > 0.9, key
    # Solve time: heuristic <= group=2 < group=1 in every case.
    by_case = {}
    for model, cluster, strategy, tput, overhead in res.rows:
        by_case.setdefault((model, cluster), {})[strategy] = overhead
    for case, overheads in by_case.items():
        assert overheads["group=1"] > overheads["group=2"], case
        assert overheads["heuristic"] <= overheads["group=2"], case
