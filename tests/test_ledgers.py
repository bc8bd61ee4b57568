"""The benchmark ledgers add up: every summary in a BENCH_*.json at the
repository root is recomputed from the runs it summarizes.

A ledger holds, per workload, the runs of the parent and the change and
one summary per end-to-end metric of BENCHMARK.json.  The runs come in
one of two layouts: "pairs" (each side's metrics under "metrics", with
its "correct" flag and "failed" count) or "runs" (each side's metrics
themselves).  `past_parent_iqr` is not checked: the ledgers use two
definitions of it.
"""

import glob
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGERS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as f:
        return json.load(f)


def _sides(workload):
    """(parent, change) metric dicts of each run of a workload, in order."""
    if "pairs" in workload:
        return [(p["parent"]["metrics"], p["change"]["metrics"]) for p in workload["pairs"]]
    return [(r["parent"], r["change"]) for r in workload["runs"]]


def _recomputed(summary, parent, change):
    """The fields of summary that its runs determine, recomputed from them."""
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
            got = _recomputed(summary, [p[metric] for p, _ in runs], [c[metric] for _, c in runs])
            assert {k: summary[k] for k in got} == got, where


@pytest.mark.parametrize("name", LEDGERS)
def test_no_run_failed(name):
    for workload, body in _load(name)["workloads"].items():
        for pair in body.get("pairs", []):
            for run in (pair["parent"], pair["change"]):
                assert run["correct"] is True and run["failed"] == 0, (workload, pair["pair"])
        for parent, change in _sides(body):
            for run in (parent, change):
                assert run["success_ratio.compiled"] == run["success_ratio.pure"] == 1.0, workload
