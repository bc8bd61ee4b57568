"""The benchmark ledgers add up: every summary in a BENCH_*.json at the
repository root is recomputed from the runs it summarizes.

A ledger holds, per workload, the runs of the parent and the change and
one summary per end-to-end metric of BENCHMARK.json.  The runs come in
one of two layouts: "pairs" (each side's metrics under "metrics", with
its "correct" flag and "failed" count) or "runs" (each side's metrics
themselves).

`past_parent_iqr`, where a summary has it, reads "the change's median is
past the parent's quartile in the better direction": above the parent's
third quartile for a metric where higher is better, below its first
quartile otherwise.  One older ledger, EITHER_DIRECTION, means by it
|change median - parent median| > the parent's IQR, in either direction,
and is checked against that meaning.
"""

import glob
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGERS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")))

# the one ledger whose past_parent_iqr is "moved past the parent's IQR" in
# either direction: its points p99_us.compiled reads true for a slowdown
EITHER_DIRECTION = "BENCH_pure_codegen.json"


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as f:
        return json.load(f)


def _sides(workload):
    """(parent, change) metric dicts of each run of a workload, in order."""
    if "pairs" in workload:
        return [(p["parent"]["metrics"], p["change"]["metrics"]) for p in workload["pairs"]]
    return [(r["parent"], r["change"]) for r in workload["runs"]]


def _recomputed(summary, parent, change, either=False):
    """The fields of summary that its runs determine, recomputed from them;
    either selects the either-direction meaning of past_parent_iqr."""
    higher = summary["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    bound = summary["bound"]
    got = {
        "parent_median": pm,
        "change_median": cm,
        "parent_q1": q1,
        "parent_q3": q3,
        "wins": sum(map(better, change, parent)),
        "losses": sum(map(better, parent, change)),
        "pairs": len(parent),
        "change_vs_parent": cm / pm,
        "within_bound": cm >= pm * (1 - bound) if higher else cm <= pm * (1 + bound),
    }
    if "past_parent_iqr" in summary:
        got["past_parent_iqr"] = (abs(cm - pm) > q3 - q1 if either
                                  else cm > q3 if higher else cm < q1)
    if "change_q1" in summary:
        got["change_q1"], _, got["change_q3"] = statistics.quantiles(
            change, n=4, method="inclusive")
    return got


def test_the_ledgers_are_found():
    assert len(LEDGERS) >= 4, LEDGERS


@pytest.mark.parametrize("name", LEDGERS)
def test_summaries_add_up(name):
    metrics = {m["name"]: m for m in _load("BENCHMARK.json")["end_to_end"]}
    for workload, body in _load(name)["workloads"].items():
        runs = _sides(body)
        assert set(body["summary"]) == set(metrics), workload
        for metric, summary in body["summary"].items():
            where = (workload, metric)
            assert (summary["better"], summary["bound"]) == (
                metrics[metric]["better"], metrics[metric]["bound"]), where
            got = _recomputed(summary, [p[metric] for p, _ in runs], [c[metric] for _, c in runs],
                              either=name == EITHER_DIRECTION)
            assert {k: summary[k] for k in got} == got, where


def test_either_direction_ledger_needs_its_meaning():
    # the exception names a ledger that exists, and one of its fields reads
    # true for a slowdown, which the better-direction meaning would not give
    body = _load(EITHER_DIRECTION)["workloads"]["points"]
    summary = body["summary"]["p99_us.compiled"]
    parent, change = zip(*[(p["p99_us.compiled"], c["p99_us.compiled"]) for p, c in _sides(body)])
    assert summary["past_parent_iqr"] is True
    assert summary["change_median"] > summary["parent_median"]
    assert _recomputed(summary, parent, change)["past_parent_iqr"] is False


@pytest.mark.parametrize("name", LEDGERS)
def test_no_run_failed(name):
    for workload, body in _load(name)["workloads"].items():
        for pair in body.get("pairs", []):
            for run in (pair["parent"], pair["change"]):
                assert run["correct"] is True and run["failed"] == 0, (workload, pair["pair"])
        for parent, change in _sides(body):
            for run in (parent, change):
                assert run["success_ratio.compiled"] == run["success_ratio.pure"] == 1.0, workload
