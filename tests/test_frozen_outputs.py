"""Frozen outputs: exact search records, bench bytes and library bytes.

Library files are pinned in both formats: the format-1 pins, recorded
before format 2 existed, are checked through ``conftest.v1_projection``,
which shows that format 2 changed nothing but the added descent moves and
the ``rep_path`` field.

The values below were recorded before the anytime searches were folded
into one shared weighted-A* pass. A refactor of the search core must
leave them unchanged; a change meant to alter them updates them here and
says why in CHANGES.md. Refinement schedules run to well over a hundred
iterations, so each one is pinned by its length, its total expansions
and the sha256 of the repr of its (epsilon, cost, expansions,
selections) tuples.
"""

import hashlib
import json

import pytest

from conftest import v1_projection
from coverplan import bench, corpus, cspace, search
from coverplan import cover as pre
from coverplan.online import QueryRequest, query

# goal -> (iterations, total expansions, sha256 of the refine records)
REFINE = {
    (18, 0): (163, 358, "4b6872dbbdc87c777cb678a945f3c153b1013189488e78152e3a8271362aca5b"),
    (19, 18): (158, 314, "fd39ac17944f6277ff2b3906ac1ef2c6f9f8c87530942ec347d28f980b4d036a"),
    (20, 20): (146, 229, "eda7fa394dac09474a9595060a89eb1ac5c57fdba8ab79109bb2420dbfae254d"),
}


def _ara(first, middle_cost, at_5, last):
    """ARA* rows at weights 50, 45, ..., 5, 1; weights 45 to 10 expand nothing."""
    return [first] + [(float(w), middle_cost, 0) for w in range(45, 5, -5)] + [at_5, last]


# goal -> ARA* (weight, cost, expansions) per iteration, w0=50, dw=5
ARA = {
    (18, 0): _ara((50.0, 108.0, 264), 108.0, (5.0, 106.0, 10), (1.0, 88.0, 252)),
    (19, 18): _ara((50.0, 71.0, 184), 71.0, (5.0, 71.0, 0), (1.0, 71.0, 137)),
    (20, 20): _ara((50.0, 70.0, 179), 70.0, (5.0, 70.0, 0), (1.0, 70.0, 80)),
}

# criterion 8's bench config without ctmp+shortcut
TRIALS_SHA256 = "9e50e648d1c631b9ef3cd5b91444b2fb8e8ac663ab8f931022745ef4709400aa"

# scenario -> sha256 of its saved library at preprocess seed 0, recorded
# in format 1 before is_valid answered from the scenario's validity memo
LIBRARY_SHA256 = {
    "grid24_d20": "8e87521f6e34a76408ade44fed961c2416f9b70553e33113c8e0f228cb942867",
    "arm32_o2": "05b6ef9f375e2b80396e418cd4643b85a1e31cd8c2c63f041dd93c3cee7fbbe1",
    "grid21_ladder": "f906ff3b8cd61668852c4ee36180fcc43eb4ca62343a52f5a1ae2833bc6a2bef",
}

# scenario -> sha256 of the same library saved in format 2, recorded when
# format 2 was introduced
LIBRARY_V2_SHA256 = {
    "grid24_d20": "b54da7ea2c5fe61d2a638e51b5703b27ffaf5cafa627b905dd42b97a8f6be7c9",
    "arm32_o2": "313048bd4c7acf34e97b90fee7a8e042b461b89674aa0198c95ce3316c7fcd17",
    "grid21_ladder": "6ff3ecf4cda9900969a0cebed0e96a5c14d2b101a816cb5037c3f9c045ff77d4",
}


@pytest.fixture(scope="module")
def ladder():
    scenario = dict(corpus.corpus())["grid21_ladder"]
    return scenario, pre.preprocess(scenario, seed=0)


def test_pinned_goals_span_the_library(ladder):
    scenario, library = ladder
    goals = sorted(q for rc in library.regions for q in rc.covered)
    assert sorted(REFINE) == [goals[0], goals[len(goals) // 2], goals[-1]]


@pytest.mark.parametrize("goal", sorted(REFINE))
def test_refine_records_frozen(ladder, goal):
    scenario, library = ladder
    request = QueryRequest(start=scenario.s_home, goal=goal, refine=False)
    initial = query(scenario, library, request).path
    _, report = search.anytime_refine(scenario, scenario.s_home, goal, initial)
    records = [(it.epsilon, it.cost, it.expansions, it.selections) for it in report.iterations]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (len(records), sum(r[2] for r in records), digest) == REFINE[goal]


@pytest.mark.parametrize("goal", sorted(ARA))
def test_ara_star_records_frozen(ladder, goal):
    scenario, _ = ladder
    _, profile, optimal = search.ara_star(scenario, scenario.s_home, goal)
    assert [(it.weight, it.cost, it.expansions) for it in profile] == ARA[goal]
    assert optimal


def test_bench_trials_csv_frozen(ladder, tmp_path):
    scenario, library = ladder
    spath = tmp_path / "ladder_scenario.json"
    lpath = tmp_path / "ladder_library.json"
    cspace.save_scenario(scenario, spath)
    pre.save_library(library, lpath)
    cfg = bench.ExperimentConfig(
        scenario=str(spath),
        library=str(lpath),
        mode="single",
        trials=10,
        budget_ms=500.0,
        planners=("ctmp", "ctmp+refine", "astar", "wastar", "arastar"),
        seed=9,
        outdir=str(tmp_path / "bench"),
    )
    run_scenario = cspace.load_scenario(spath)
    run_library = pre.load_library(lpath, run_scenario)
    records, stats = bench.run_single_experiment(run_scenario, run_library, cfg)
    files = bench.emit_results(records, stats, cfg.outdir)
    with open(files["trials"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == TRIALS_SHA256


@pytest.mark.parametrize("name", sorted(LIBRARY_SHA256))
def test_library_bytes_frozen(name, tmp_path):
    scenario = dict(corpus.corpus())[name]
    path = tmp_path / f"{name}_library.json"
    pre.save_library(pre.preprocess(scenario, seed=0), path)
    data = path.read_bytes()
    v1 = cspace.canonical_json(v1_projection(json.loads(data))) + "\n"
    assert hashlib.sha256(v1.encode()).hexdigest() == LIBRARY_SHA256[name]
    assert hashlib.sha256(data).hexdigest() == LIBRARY_V2_SHA256[name]
