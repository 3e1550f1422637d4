"""Every committed ``BENCH_*.json`` at the repository root is whole, and its
summaries follow from its own per-run records.

A file compares one workload (its claim) on parent and change runs, paired
by seed; it may carry more workloads under ``controls``, each with the same
``summary`` and ``records``.  A summary gives, per end-to-end metric, each
side's median and quartiles, the ratio of the medians, and the number of
pairs the change won.

Both sides of every pair must give the same outputs.  The one exemption is
a workload the file names under ``outputs_changed`` with the reason its
outputs moved on purpose: the file must then record that workload's one
parent and one change fingerprint under the workload's fingerprint key
(``cells_sha256`` for ``bound``), every unit of every run must give the
recorded fingerprint of its side, the two must differ, and no run on either
side may fail.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

TOP_KEYS = {
    "label",
    "workload",
    "command",
    "pairs",
    "parent_commit",
    "parent_src_sha256",
    "change_src_sha256",
    "summary",
    "failed",
    "records",
}
SUMMARY_KEYS = {
    "parent_median",
    "parent_quartiles",
    "change_median",
    "change_quartiles",
    "change_over_parent",
    "change_better_pairs",
    "pairs",
}
HIGHER_IS_BETTER = {"work_per_s"}
# The top-level key under which a file records a workload's output
# fingerprints; it is the name perfbench gives each workload's fingerprint.
FINGERPRINT_KEYS = {
    "train-csac-tilt": "log_sha256",
    "train-rs-pointnav": "log_sha256",
    "eval-swing": "eval_return_cost",
    "bound": "cells_sha256",
}
OPTIONAL_KEYS = {"controls", "outputs_changed", *FINGERPRINT_KEYS.values()}


def comparisons(doc):
    """``(workload, part)`` for the claim and for each control."""
    yield doc["workload"], doc
    yield from doc.get("controls", {}).items()


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_the_schema(path):
    doc = json.loads(path.read_text())
    assert TOP_KEYS <= set(doc) <= TOP_KEYS | OPTIONAL_KEYS
    assert path.name == f"BENCH_{doc['label']}.json"
    for _, part in comparisons(doc):
        assert {"summary", "records"} <= set(part)
        assert set(part["records"]) == {"parent", "change"}
        for metric in part["summary"].values():
            assert set(metric) == SUMMARY_KEYS
    workloads = {workload for workload, _ in comparisons(doc)}
    for workload, reason in doc.get("outputs_changed", {}).items():
        assert workload in workloads
        assert isinstance(reason, str) and reason.strip()
        recorded = doc[FINGERPRINT_KEYS[workload]]
        assert set(recorded) == {"parent", "change"}
        assert len(recorded["parent"]) == len(recorded["change"]) == 1
        assert recorded["parent"] != recorded["change"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_summaries_follow_from_the_records(path):
    doc = json.loads(path.read_text())
    for workload, part in comparisons(doc):
        parent, change = part["records"]["parent"], part["records"]["change"]
        assert [r["seed"] for r in parent] == [r["seed"] for r in change]
        for side in (parent, change):
            assert {r["workload"] for r in side} == {workload}
        srcs = {"parent": doc["parent_src_sha256"], "change": doc["change_src_sha256"]}
        for name, side in (("parent", parent), ("change", change)):
            assert {r["machine"]["src_sha256"] for r in side} == {srcs[name]}
        for name, s in part["summary"].items():
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            assert s["pairs"] == len(p) == len(c)
            assert s["parent_median"] == statistics.median(p)
            assert s["change_median"] == statistics.median(c)
            assert s["parent_quartiles"] == statistics.quantiles(p, n=4)[::2]
            assert s["change_quartiles"] == statistics.quantiles(c, n=4)[::2]
            assert math.isclose(
                s["change_over_parent"], s["change_median"] / s["parent_median"], rel_tol=1e-12
            )
            sign = 1 if name in HIGHER_IS_BETTER else -1
            assert s["change_better_pairs"] == sum(sign * (b - a) > 0 for a, b in zip(p, c))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_both_sides_give_the_same_outputs(path):
    doc = json.loads(path.read_text())
    changed = doc.get("outputs_changed", {})
    failed = []
    for workload, part in comparisons(doc):
        outputs = {
            side: [{u["fingerprint"] for u in r["units"]} for r in records]
            for side, records in part["records"].items()
        }
        if workload in changed:
            recorded = doc[FINGERPRINT_KEYS[workload]]
            for side, records in part["records"].items():
                assert all(fps == set(recorded[side]) for fps in outputs[side])
                assert all(r["failed_share"] == 0 for r in records)
        else:
            assert outputs["parent"] == outputs["change"]
        for records in part["records"].values():
            failed += [r["failed_share"] for r in records]
    assert doc["failed"] == max(failed)
