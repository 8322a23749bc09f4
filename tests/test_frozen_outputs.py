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

The wider refine pins below were recorded before the refinement loop
stopped rebuilding its incumbent and inflation ratios on every pass. Each
pins a run by its length, the collision checks it spent, the sha256 of
its records and the sha256 of its per-iteration incumbent configs: seed
paths that revisit states (non-home starts on the ladder), two more
scenarios, goals whose paths cross the arm's wrap seam, and a simulated
deadline that stops the schedule midway.

The refine-record pins (``REFINE``, ``LADDER_V_REFINE``, ``HOME_REFINE``,
``SIMCLOCK_REFINE``) and ``TRIALS_SHA256`` were re-recorded once, when
refinement stopped putting the whole incumbent back on the open list
after each pass and put back only the goal. Every selection is now an
expansion, so the selections column moved wherever a pass had re-popped
an incumbent state (all but the three three-pass ladder runs). A
re-popped state counted as closed in its pass, so a later improvement of
it waited for the next pass; now it joins the open set at once, so
expansions and schedules moved too: on grid24_d30, and one pass fewer
for the ladder goal (20, 20) and in five ``ctmp+refine`` bench trials,
whose ``n_iterations`` is the only ``trials.csv`` column that moved.
Parking unselectable open states between passes, which came in the same
change, moved none of them.

The arm3_s16 library pins and the preprocess check-count pins were
recorded before descent compared integer squared distances and before the
scenario kept its neighbour table and end-effector points: they show that
the offline phase builds the same bytes with the same logical checks.
"""

import hashlib
import json

import pytest

from conftest import v1_projection
from coverplan import bench, corpus, cspace, search
from coverplan.cspace import ArmModel, Circle, RegionSpec, Scenario
from coverplan import cover as pre
from coverplan.online import QueryRequest, query

# goal -> (iterations, total expansions, sha256 of the refine records)
REFINE = {
    (18, 0): (163, 358, "462209447fa2dae88c37014ea596149faebbae52d6e70ea0a6331f394def81a4"),
    (19, 18): (158, 314, "67d6acd7342483e2a3fa5b2484325ab66632e71374b0af7332d978697330bbaf"),
    (20, 20): (145, 229, "91ec4667e4ddc7276f41ea9e807cdf65ad00bf2d08ad9a460679f9c31f1e7af4"),
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
TRIALS_SHA256 = "759b9a974e92159f22143254853947f96d3807d51efa20bb2c765b17a8040fa4"

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

# preprocess seed -> sha256 of the saved arm3_s16 library (format 2)
ARM3_S16_LIBRARY_SHA256 = {
    0: "4cee61ecda11ec3e5572f94982ac1130f9e88b65823e93fd36c374af2c87bb76",
    1: "1272b187ece0b7054c9c307b0bd1ea40831794c9b5343294842fd5e7a2d83390",
}

# (scenario, preprocess seed) -> logical collision checks that preprocess spends
PREPROCESS_CHECKS = {
    ("grid24_d20", 0): 10447,
    ("grid24_d20", 1): 10339,
    ("arm32_o2", 0): 9905,
    ("arm32_o2", 1): 9988,
    ("arm3_s16", 0): 62150,
    ("arm3_s16", 1): 59295,
}


# run -> (iterations, collision checks, sha256 of the refine records,
# sha256 of the incumbent configs per iteration)
LADDER_V_REFINE = {  # (start, goal): the seed path runs via home
    ((18, 0), (20, 19)): (
        3,
        99,
        "3798b5306e474a5175a0890ec7794443692353b9e3d2bb2145578a164020fd9e",
        "21a3aac2c1a4e9245d089eb848c65bd45f892217d677422f19910e06987d2d4b",
    ),
    ((19, 2), (18, 18)): (
        3,
        76,
        "949f0b498baedf3d20867e49ec426c41b18a8aa3af78ddd6c71dc3562c016edc",
        "b6dc70ff3eaa9dacd9a022c08bd798a1fa0536103dd936fb26558159406546c3",
    ),
    ((19, 20), (18, 0)): (
        3,
        96,
        "76f510b1b107e2af0ca429b859abd457ceac797363499748b1960690ebcf7788",
        "feece0d88b993c030e701b6fc478a565b8ba514716f59386472a81e342544427",
    ),
    # a rep-path start: its first pass improves no state of the seed path,
    # whose parent chain is still shorter than the path
    ((7, 18), (18, 0)): (
        87,
        1042,
        "a78ff7955b89246aae61409e7a0e7543eb098e981bd4337cf99e8ecbfffddbb7",
        "824e069c1255e70211a003066b2d12eeb149a44e85cae99ee65ebc36b7a0cf2c",
    ),
}
HOME_REFINE = {  # (scenario, goal), from home
    ("grid24_d30", (21, 0)): (
        52,
        1383,
        "4dc6b65501649283912847d0a73b1dc62b8c22d51f698da6b75a364bc0360235",
        "f91efa4e8c8877c78118b34a0091be6e9db0dc11d59e8615083cdc183993d97e",
    ),
    ("grid24_d30", (22, 0)): (
        43,
        835,
        "3200663a0d06520aa7a66639534f13599f3fac8cb41b63ccef7e3c667c19d000",
        "e50c2bb43d13eb0b9bdb13f776e62c0149252a4a4038d853375b20fbb1ac8d5d",
    ),
    ("grid24_d30", (23, 1)): (
        26,
        739,
        "3701e036e638d57a939781d655c2af695a174f4dea8375a54f295d606651cffe",
        "b67fd99abc45667a34bd129a586265f7a872c12c45790dfe0838b7f2a1c63771",
    ),
    ("grid24_d30", (23, 23)): (
        14,
        177,
        "aead9e55df824b4ede593ef1a7a600fd072f5b47b418c4ecb5716dcdd0d17098",
        "ba968988ec8a2a4d97d1788a80c5ea25ca1888f2df436da0e80d66307262c67e",
    ),
    ("arm32_o2", (12, 3)): (
        52,
        824,
        "6bfb544fd591c19fea78f46ef1921c4e47bb668d345bfe0d9e62d2dce31422ea",
        "8f3b67964a1ad38c3a04739e71c3774cc81aeba055a93c40954c68b3ea3206c5",
    ),
    ("arm32_o2", (13, 31)): (  # this and the next two cross the wrap seam
        76,
        1248,
        "f7b923d5af59b997e95d74e402425a074f2639a92368a3d882b415e884cd16e3",
        "3775c6c8edda8185e021bb8437fb7ceb6b0d4dca017a9e6d2b94eb55349d381b",
    ),
    ("arm32_o2", (14, 29)): (
        58,
        1368,
        "b433f22ccce767a252ed0ed5dda6c8e1d923dc8481310b536aa8b13f5c78de28",
        "15827de999adf9c8c61be90354930f44e7f28535c4a71bca311f3fd647de0429",
    ),
    ("arm32_o2", (15, 30)): (
        68,
        1452,
        "57dc7e37b9fc2e43b37a39e4b197bf14a1756362d9796e3e07c2c8978a77d738",
        "646306ae035ed06d8b37c3eb27792f2785ce2870f963151fc95926b701cb6de2",
    ),
}
# ladder, home -> (19, 18) under SimClock with half the simulated time
# that the full 158-iteration run takes
SIMCLOCK_REFINE = (
    74,
    604,
    "59207d910fc576f41465e2bdae73cfa54ad1665f6da19dc4647ccb7a1471a1e1",
    "cd8218c024f68f9be9e0cc079ff1c7d06c9f77c8f60271790aad85dc026da352",
)


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _initial(scenario, library, start, goal):
    request = QueryRequest(start=start, goal=goal, refine=False)
    return query(scenario, library, request).path


def _refine_pin(scenario, start, goal, initial, **kwargs):
    """Refine ``initial``; return the run's pin and its report."""
    checks = scenario.counters.collision_checks
    _, report = search.anytime_refine(scenario, start, goal, initial, **kwargs)
    records = [(it.epsilon, it.cost, it.expansions, it.selections) for it in report.iterations]
    incumbents = [path.configs for path in report.incumbents]
    pin = (
        len(records),
        scenario.counters.collision_checks - checks,
        _sha256(records),
        _sha256(incumbents),
    )
    return pin, report


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


@pytest.mark.parametrize("start, goal", sorted(LADDER_V_REFINE))
def test_refine_records_frozen_via_home(ladder, start, goal):
    scenario, library = ladder
    initial = _initial(scenario, library, start, goal)
    assert len(set(initial.configs)) < len(initial.configs)  # the seed path revisits states
    pin, report = _refine_pin(scenario, start, goal, initial)
    assert pin == LADDER_V_REFINE[start, goal]
    assert report.optimal_flag


@pytest.fixture(scope="module")
def home_refine_setups():
    names = {name for name, _ in HOME_REFINE}
    return {
        name: (scenario, pre.preprocess(scenario, seed=0))
        for name, scenario in corpus.corpus()
        if name in names
    }


@pytest.mark.parametrize("name, goal", sorted(HOME_REFINE))
def test_refine_records_frozen_from_home(home_refine_setups, name, goal):
    scenario, library = home_refine_setups[name]
    initial = _initial(scenario, library, scenario.s_home, goal)
    pin, report = _refine_pin(scenario, scenario.s_home, goal, initial)
    assert pin == HOME_REFINE[name, goal]
    assert report.optimal_flag


def test_refine_records_frozen_at_a_simulated_deadline(ladder):
    scenario, library = ladder
    goal = (19, 18)
    initial = _initial(scenario, library, scenario.s_home, goal)
    clock = bench.SimClock(scenario.counters)
    scenario.counters.reset()
    _, full = _refine_pin(scenario, scenario.s_home, goal, initial, clock=clock)
    assert len(full.iterations) == REFINE[goal][0]
    run_time = clock()
    scenario.counters.reset()
    pin, report = _refine_pin(
        scenario, scenario.s_home, goal, initial, deadline=run_time / 2, clock=clock
    )
    assert pin == SIMCLOCK_REFINE
    assert not report.optimal_flag


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


def arm3_s16() -> Scenario:
    """The benchmark's 3-link arm: 16 joint steps per revolution, two discs."""
    reach = 2.4
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 0.8, 0.6), joints_per_rev=16),
        s_home=(0, 0, 0),
        regions=(
            RegionSpec("pick", (0.55 * reach, 0.15 * reach, 1.0 * reach, 0.65 * reach)),
            RegionSpec("place", (-1.0 * reach, 0.15 * reach, -0.55 * reach, 0.65 * reach)),
        ),
        obstacles=(Circle((0.0, 1.7), 0.25), Circle((0.3, -1.5), 0.3)),
    )


@pytest.fixture(scope="module")
def preprocess_runs():
    """(scenario, seed) -> (library, logical checks that preprocess spent)."""
    scenarios = dict(corpus.corpus())
    scenarios["arm3_s16"] = arm3_s16()
    runs = {}
    for name, seed in sorted(PREPROCESS_CHECKS):
        scenario = scenarios[name]
        before = scenario.counters.collision_checks
        library = pre.preprocess(scenario, seed=seed)
        runs[name, seed] = library, scenario.counters.collision_checks - before
    return runs


@pytest.mark.parametrize("seed", sorted(ARM3_S16_LIBRARY_SHA256))
def test_arm3_s16_library_bytes_frozen(preprocess_runs, seed, tmp_path):
    path = tmp_path / "arm3_s16_library.json"
    pre.save_library(preprocess_runs["arm3_s16", seed][0], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARM3_S16_LIBRARY_SHA256[seed]


@pytest.mark.parametrize("name, seed", sorted(PREPROCESS_CHECKS))
def test_preprocess_checks_frozen(preprocess_runs, name, seed):
    assert preprocess_runs[name, seed][1] == PREPROCESS_CHECKS[name, seed]
