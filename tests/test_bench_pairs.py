"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


METRICS = [("doc_p90_ms", "lower"), ("docs_per_s", "higher"), ("setup_s", "lower")]
# Ten pairs: p90 falls in nine (not in the fifth) by more than the base
# IQR; throughput rises in all ten but by less than the base IQR; setup
# ties in every pair.
BASE = [{"doc_p90_ms": 19.0 + 0.1 * i, "docs_per_s": 90.0 + i, "setup_s": 0.2}
        for i in range(10)]
NEW = [{"doc_p90_ms": 20.0 if i == 4 else 15.5 + 0.1 * i, "docs_per_s": 90.5 + i,
        "setup_s": 0.2} for i in range(10)]


def test_the_summary_counts_wins_and_applies_both_rules():
    rows = {r["metric"]: r for r in _tool().summarize(BASE, NEW, METRICS)}
    p90 = rows["doc_p90_ms"]
    assert (p90["wins"], p90["pairs"], p90["nine_in_ten"], p90["beyond_iqr"]) == (9, 10, True, True)
    assert p90["base"] == [19.225, 19.45, 19.675]
    rate = rows["docs_per_s"]
    assert (rate["wins"], rate["nine_in_ten"], rate["beyond_iqr"]) == (10, True, False)
    setup = rows["setup_s"]
    assert (setup["wins"], setup["nine_in_ten"], setup["beyond_iqr"]) == (0, False, False)


def test_eight_wins_in_ten_fail_the_first_rule_and_a_loss_fails_the_second():
    new = [dict(run, doc_p90_ms=run["doc_p90_ms"] + (5.0 if i < 2 else 0.0))
           for i, run in enumerate(BASE)]
    new = [dict(run, doc_p90_ms=run["doc_p90_ms"] - 0.01) if i >= 2 else run
           for i, run in enumerate(new)]
    (row,) = _tool().summarize(BASE, new, METRICS[:1])
    assert (row["wins"], row["nine_in_ten"], row["beyond_iqr"]) == (8, False, False)
    (row,) = _tool().summarize(NEW, BASE, METRICS[:1])
    assert (row["wins"], row["nine_in_ten"], row["beyond_iqr"]) == (1, False, False)


def test_the_table_prints_one_line_per_metric():
    tool = _tool()
    lines = tool.format_rows(tool.summarize(BASE, NEW, METRICS), "1e5f5df")
    assert len(lines) == 4 and lines[0].startswith("metric")
    words = lines[1].split()
    assert words[:2] + words[4:5] + words[-3:] == ["doc_p90_ms", "19.45", "16.05", "9/10",
                                                   "yes", "yes"]
    assert lines[3].split()[-3:] == ["0/10", "no", "no"]


def test_every_end_to_end_metric_of_the_benchmark_is_summarized():
    names = [name for name, _ in _tool().end_to_end_metrics()]
    assert names[:2] == ["setup_s", "docs_per_s"] and "doc_p90_ms" in names


BOUNDS = {"doc_p90_ms": 0.25, "docs_per_s": 0.25, "setup_s": 0.25}


def test_a_median_worse_than_its_bound_is_named_and_none_is_said_so():
    tool = _tool()
    assert tool.beyond_bounds(tool.summarize(BASE, NEW, METRICS), METRICS, BOUNDS) == [
        "no end-to-end median is worse than its bound"]
    # p90 up by 40% (lower is better) and throughput down by 30% (higher is
    # better) cross the 25% bound; setup up by 20% does not.
    new = [dict(run, doc_p90_ms=1.4 * run["doc_p90_ms"], docs_per_s=0.7 * run["docs_per_s"],
                setup_s=0.24) for run in BASE]
    lines = tool.beyond_bounds(tool.summarize(BASE, new, METRICS), METRICS, BOUNDS)
    assert [line.split(":")[0] for line in lines] == ["doc_p90_ms", "docs_per_s"]
    assert lines[0] == ("doc_p90_ms: the change's median 27.23 is 40.0% worse than 19.45, "
                        "beyond the bound of 25%")
    assert "30.0% worse than 94.5" in lines[1]


def test_the_bounds_are_those_of_the_benchmark():
    tool = _tool()
    bounds = tool.end_to_end_bounds()
    assert list(bounds) == [name for name, _ in tool.end_to_end_metrics()]
    assert all(0 < bound < 1 for bound in bounds.values())
