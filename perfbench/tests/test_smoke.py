"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/tests

Checks that each run emits every metric BENCHMARK.json names, with its
unit, that no operation fails, that the exact counts repeat for a repeated
seed, and that the traced run writes spans with parent ids.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from coverplan import corpus  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT = [name for name, _ in run.COUNT_METRICS] + [
    f"{layer}.calls" for layer in (name for name, _, _ in run.tracing.LAYERS)
]


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def tiny(name, workdir):
    wl = workloads.WORKLOADS[name](str(workdir))
    wl.trace_ops = min(wl.trace_ops, 6)
    return wl


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(name, tmp_path):
    result = run.run_untraced(tiny(name, tmp_path), seed=3, seconds=0.2, setup_repeats=1)
    assert result.failed == 0, result.errors
    assert result.attempted > 0
    assert result.named["error_rate"]["value"] == 0
    assert units(result.metrics) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result.metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_repeats_counts(name, tmp_path):
    results = []
    for attempt in range(2):
        trace = tmp_path / f"trace{attempt}.json"
        result = run.run_traced(tiny(name, tmp_path), seed=3, seconds=0.2, trace_path=trace, meta={})
        assert result.failed == 0, result.errors
        assert result.named["error_rate"]["value"] == 0
        assert units(result.metrics) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        results.append(result.metrics)
    assert {n: results[0][n]["value"] for n in EXACT} == {n: results[1][n]["value"] for n in EXACT}
    assert results[0]["trace_overhead"]["value"] > 0

    dump = json.loads(trace.read_text())
    spans = dump["spans"]
    ids = {s[0] for s in spans}
    assert spans and any(s[1] == -1 for s in spans)
    assert all(s[1] == -1 or s[1] in ids for s in spans if not dump["spans_dropped"])
    assert all(s[3] <= s[4] for s in spans)
    assert dump["names"][-1] == f"{name}.op"


def test_online_makes_no_collision_checks(tmp_path):
    metrics = run.run_traced(tiny("online", tmp_path), 3, 0.2, tmp_path / "t.json", {}).metrics
    assert metrics["cspace.checks_per_query"]["value"] == 0
    assert metrics["cspace.is_valid.calls"]["value"] == 0
    assert metrics["cspace.navigation_value.calls"]["value"] > 0


def test_named_scenarios_match_the_corpus():
    named = dict(corpus.corpus())
    for name, make in workloads.SCENARIOS.items():
        if name in named:
            assert make() == named[name], name


def test_arm3_s16_is_three_dof_with_a_valid_home():
    scenario = workloads.build_scenario("arm3_s16")
    assert scenario.dof == 3 and scenario.dims == (16, 16, 16)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "online", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
