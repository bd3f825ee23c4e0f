"""Self-tests of the benchmark: tiny smoke runs, metric names and units, determinism.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import os
import re

import pytest

import harness
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTER = re.compile(r".*\.(calls|points|nodes|rows|bytes|log_lik_calls|failures)$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload, seed, trace):
    return harness.run_benchmark(workload, seed, 0.0, trace, size="tiny", setup_repeats=1)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    """Tiny runs of one workload: untraced and traced at seed 0 (twice), and seed 1."""
    name = request.param
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp(name))
    try:
        yield {
            "plain": _run(name, 0, False),
            "traced": [_run(name, 0, True), _run(name, 0, True)],
            "other_seed": _run(name, 1, False),
        }
    finally:
        os.chdir(cwd)


def test_benchmark_json_lists_what_the_harness_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER_UNITS
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


def test_smoke_emits_every_metric_with_its_unit(runs):
    summary, detail = runs["plain"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0, (detail["errors"], detail["failures"])
    assert summary["attempted"] >= 1
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == harness.END_TO_END_UNITS
    for name, metric in summary["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    traced, _ = runs["traced"][0]
    assert traced["correct"], runs["traced"][0][1]["failures"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == harness.PER_LAYER_UNITS
    for name, metric in traced["metrics"].items():
        assert NAME.fullmatch(name) and math.isfinite(metric["value"]), name


def test_same_seed_gives_identical_outputs_and_counts(runs):
    (first, first_detail), (second, second_detail) = runs["traced"]
    plain_detail = runs["plain"][1]
    assert first_detail["inputs_sha256"] == second_detail["inputs_sha256"]
    assert first_detail["output_sha256"] == second_detail["output_sha256"] \
        == plain_detail["output_sha256"]
    assert first_detail["figures"] == second_detail["figures"] == plain_detail["figures"]
    counters = [name for name in first["metrics"] if COUNTER.match(name)]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name


def test_other_seed_changes_the_inputs(runs):
    assert runs["other_seed"][1]["inputs_sha256"] != runs["plain"][1]["inputs_sha256"]
