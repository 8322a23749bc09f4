"""Frozen outputs: exact search records, bench bytes and library bytes.

Library files are pinned in four formats. The format-1 pins, recorded
before format 2 existed, are checked through ``conftest.v1_projection``,
which shows that format 2 changed nothing but the added descent moves and
the ``rep_path`` field. The format-2 pins and ``COVER_SHA256``, recorded
before format 3 existed, are checked through ``conftest.v2_projection``,
which puts back the covered and excluded sets and the rep paths that the
format-3 loader derives from the scenario: format 3 dropped those fields
and changed nothing else. The format-3 pins (``LIBRARY_V3_SHA256``,
recorded before format 4 existed) are checked through
``conftest.v3_projection``, which grows each stored attractor's basin
with ``construct_neighborhood`` and writes members, moves and step bound
as the format-3 writer did: format 4 stores only the attractors, and each
older pin is rebuilt exactly from them. ``LIBRARY_V4_SHA256`` pins the
format-4 bytes.

The ARA* values below were recorded before the anytime searches were
folded into one shared weighted-A* pass. A refactor of the search core
must leave them unchanged; a change meant to alter them updates them here
and says why in CHANGES.md. A refinement schedule is pinned by its
length, its total expansions and the sha256 of the repr of its (epsilon,
cost, expansions, selections) tuples.

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

These pins were re-recorded once more when preprocessing stopped running
weighted A* (weight 3) for each rep path and read a shortest one off the
scenario's home-distance table, and refinement raised its Manhattan
heuristic with that table as a landmark: the library byte pins (both
formats, and arm3_s16), ``PREPROCESS_CHECKS`` (no A* runs, so no checks
for them), the refine-record pins and ``TRIALS_SHA256``, where only
``ctmp+refine``'s ``plan_ms`` and ``n_iterations`` moved. ``COVER_SHA256``,
recorded before that change, shows that it moved nothing in the libraries
but the rep paths. With shortest rep paths, the seed path of a home query
is often optimal already, so several refine pins are now one pass with no
expansion; the simulated-deadline pin moved to an arm32_o2 run that still
has ten passes, and the rep-path start (7, 18), no longer on a rep path,
was replaced by (6, 18).

The arm3_s16 library pins and the preprocess check-count pins were
recorded before descent compared integer squared distances and before the
scenario kept its neighbour table and end-effector points: they show that
the offline phase builds the same bytes with the same logical checks.

``PREPROCESS_CHECKS`` was re-recorded when format 4 came in. ``preprocess``
now builds each entry the way the loader does, by walking every covered
goal of the region toward each sampled attractor once more, and the
checks of those walks are new: +30 on both grid24_d20 seeds, +508 and
+688 on arm32_o2, +2,484 and +2,868 on arm3_s16. The basin growth that
samples the attractors spends the same checks as before.

``PREPROCESS_CHECKS`` was re-recorded again when ``preprocess`` came to
walk only the region. It spends checks on region-local walks alone: the
home check, one walk of each covered goal toward each attractor (on the
memo that builds the entry, so no second walk) and the validity checks
and walks of the neighbours of uncovered goals that find the next
candidates. The counted sweep of every lattice state that enumerated the
region, and the basin growth over the whole lattice, are gone. The
attractors and every library byte did not move.

``PREPROCESS_CHECKS`` was re-recorded a third time when each attractor's
walk memo came to keep every state it has checked, with its squared
navigation value or its collision. A descent step, and the validity test
that finds the next candidates, check a state only the first time the
memo meets it, so a build charges one check per state per attractor,
where a state next to several walk states was checked once per visit:
41 -> 26 and 39 -> 24 on grid24_d20, 509 -> 213 and 689 -> 282 on
arm32_o2, 2,485 -> 989 and 2,869 -> 1,122 on arm3_s16. Every walk, and
so every attractor and library byte, did not move.

``SHORTCUT_SHA256`` pins ``shortcut_path`` (the ``ctmp+shortcut``
planner), which ``TRIALS_SHA256`` leaves out: no-refine plans chained
through every covered goal, each shortcut with seeds 0-2, on the ladder
and on the wrapping arm32_o2. It was recorded while the shortcut walk
still stepped a state by reading a per-scenario move table.
"""

import hashlib
import json

import pytest

from conftest import arm3_s16, v1_projection, v2_projection, v3_projection
from coverplan import CoverPlanner, bench, corpus, cspace, search
from coverplan import cover as pre

# goal -> (iterations, total expansions, sha256 of the refine records)
REFINE = {
    (18, 0): (1, 0, "0c228d30bde272294d2b9bc5e7dce2937a6fef266d7ff5ed09f682552dbfd323"),
    (19, 18): (1, 0, "3a76a38a2a2f8fd6c7b03d01c9d6fa5c68bb2d0f15247bdcf0c93009bf224af0"),
    (20, 20): (2, 4, "5c20951cd6d262af1cd6af2eac01c46c8868369eab8643bf85b7eb5642f6ecd9"),
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
TRIALS_SHA256 = "cc0aac54775501e522d6b1ae38d4ef11a7956ec02117e969a4acd0f23b20ae6c"

# scenario -> sha256 of its saved library at preprocess seed 0, recorded
# in format 1 before is_valid answered from the scenario's validity memo
LIBRARY_SHA256 = {
    "grid24_d20": "f0077f4c4fc7267251a099cf1a824ce32340f41a30d2336e57762d95b6f1f3b9",
    "arm32_o2": "c41db223eae0e61580a6569619bee781256c76f2968c47d7367b8efaa932d450",
    "grid21_ladder": "8be028b1d02889e2e1ebe35958dd55cd688fb10bc8168372dc289ca19faa87e6",
}

# scenario -> sha256 of the same library saved in format 2, recorded when
# format 2 was introduced
LIBRARY_V2_SHA256 = {
    "grid24_d20": "aba73cfd7344910302cb0f5ac1a66bdf779985a7a4b364ebb8f6f812267100bc",
    "arm32_o2": "1b268eb3bacaef1dd6806fa405ff44ea13b21130567086f6d33707b725556b4b",
    "grid21_ladder": "bdb6e249b03751e501112bd6728ff01e49ac6b5b8b428c7b5629947214e913a0",
}

# (scenario, preprocess seed) -> sha256 of the saved library in format 3,
# recorded when format 3 was introduced
LIBRARY_V3_SHA256 = {
    ("grid24_d20", 0): "eb5fca5f35df5af6191ce0f2f1c5be4754fcf290e174b7278e16809b4567eb13",
    ("arm32_o2", 0): "d6f109c4b60f3ae81f7ba1803b623ac525394ac788bcfb16d6187033d53aebb3",
    ("grid21_ladder", 0): "6a9b4df0281643a066e51dc263f016c3df086943c39b0c6b7723e73e16e449ac",
    ("arm3_s16", 0): "50f60d5f942de96f584a158c3d1d84434a78bf02bf5dffa967d5d4c9b8a6c78f",
    ("arm3_s16", 1): "4ce2501e8a09e342113fbe6fb2cdf40c1ec8bff7dbfad8872e43f469e7015bcd",
}

# (scenario, preprocess seed) -> sha256 of the saved library in format 4,
# recorded when format 4 was introduced
LIBRARY_V4_SHA256 = {
    ("grid24_d20", 0): "3c4806fc9fa0331ecac9ca7be66147cb21b3f92b15c00cb9f8450b64c955af8f",
    ("arm32_o2", 0): "5614c07a017f1da650ccd5de0671c7fb5bb7d7c8292ce6abd31e446463f4d6ff",
    ("grid21_ladder", 0): "86faf14283a6a35da4f0591ec75bae0f541618fa70e33cbe13a21836da0cbef7",
    ("arm3_s16", 0): "e6ac444d7b3f53351e64089e0db2fd0ac0c559c5f5048e4b70b801c28b09eaa3",
    ("arm3_s16", 1): "326d401aa8a6463de582b3a0b4ede988973baa2b9b91a7057262a37e75eb6b31",
}

# (scenario, preprocess seed) -> sha256 of the canonical format-2 library
# payload with each entry's rep_path removed
COVER_SHA256 = {
    ("grid24_d20", 0): "78f9aaae446d1ec83d3f90709d74ca85eda478a2152d99d959e94bbf7d801c65",
    ("arm32_o2", 0): "a686acc3b81afb083b094a6227034c01a2f371f006c78288b5be8c5eb76127a8",
    ("grid21_ladder", 0): "ed5f9fa33525699a916d190b3d39bc3169444026cee55b6637febcff11b50027",
    ("arm3_s16", 0): "f36808e0d8b31fff1fef1e11fcc1ecf0c4e1f68482d66913cddc5315a356b713",
    ("arm3_s16", 1): "d7a264f984fab843b4db4e11c4b3e34df2a7c74b332a55df14dcfb66c7390e0d",
}

# scenario -> sha256 of shortcut_path's outputs (seeds 0-2) on no-refine
# plans from home to the first covered goal, then from each covered goal
# to the next, with the library of preprocess seed 0
SHORTCUT_SHA256 = {
    "grid21_ladder": "99d0224f9c56415227aca67f2209f3803ee059d099b6e7f0e867c5bd396da708",
    "arm32_o2": "ad7642e684585b03737c26b174c5c17d37b0bc3953479ded0d4aae9c8dc47099",
}

# sha256 over the corpus's names and fingerprints, in order
CORPUS_SHA256 = "5d91e749d9bc708719043655898c60ce30cd931ccad283fc36d86cfcc40ef386"

# preprocess seed -> sha256 of the saved arm3_s16 library (format 2)
ARM3_S16_LIBRARY_SHA256 = {
    0: "e357f74682d0f095d20b7dd148ba26a2d6f5f13fb62e7f926e3d0d8068e2e06b",
    1: "0b690b397282150ed2f1dc0abce1a96bd016cb77feca05b9ed3571b6132d247d",
}

# (scenario, preprocess seed) -> logical collision checks that preprocess spends
PREPROCESS_CHECKS = {
    ("grid24_d20", 0): 26,
    ("grid24_d20", 1): 24,
    ("arm32_o2", 0): 213,
    ("arm32_o2", 1): 282,
    ("arm3_s16", 0): 989,
    ("arm3_s16", 1): 1122,
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
        2,
        72,
        "76400c13b7424e75ae38f68bbce2d7298fdb94d6cc3953235ab47042eda8dd39",
        "832b6d736bf8fdc91c6147bd1c7853ae706fa6a8bcdab7f52044599993e01e58",
    ),
    # a rep-path start: the seed path runs back home down one corridor and
    # out again along it, so its parent chain is shorter than the path
    ((6, 18), (18, 0)): (
        2,
        266,
        "f8ceb4ae518eb97a73f6a9b27264cdc5c8d49e92ee6c110e0b252f48aba061c5",
        "074834013ddf3d4364e61e13614c364f0c535fd4923372b1d3b3d009c650dc3d",
    ),
}
HOME_REFINE = {  # (scenario, goal), from home
    ("grid24_d30", (21, 0)): (
        1,
        0,
        "e91be787cf3e55d030fb6aece38e62f58f85b18a38ed87e807e7d585c978de5c",
        "0c472cd3b8f014c7baefc7d00596bf11cc5de44fdd2f2baa3d14b23ab939ea96",
    ),
    ("grid24_d30", (22, 0)): (
        1,
        0,
        "8e3220cbbccc7d3769b01bedd3c60c9ee117e703ca3e1ccd4d211488e3011481",
        "e8a33c7b3a46fb787bf6477e34d8dd5a560afebcc1a32a0a4a004870b2adf67a",
    ),
    ("grid24_d30", (23, 1)): (
        1,
        0,
        "3e1cc5f141f5414ef89a6b445f88e93395b6f91d7bae73893b8158179420a0e4",
        "46304b30b3a7907f2b3b7105990914feb217977a3895703ead4d03e5fd1763ed",
    ),
    ("grid24_d30", (23, 23)): (
        1,
        0,
        "0edc12f5b683cb0b417a32d0c9fe271809a4cc7db5e2b8df04df44f405e62245",
        "ca7df60f196b811070b2faf83bcfc9393fb5f47a0bc3d8563788f5ca66bbd610",
    ),
    ("arm32_o2", (12, 3)): (
        2,
        8,
        "c2f0c66a38a4e8b5328de2fd5b203a9bc2d612ae282b18a0bb547735b759e56d",
        "9118134f0264cd8db5e42205e9b7d459a452b7be0a232b1ae12c8e77de20989c",
    ),
    ("arm32_o2", (13, 31)): (  # this and the next two cross the wrap seam
        1,
        0,
        "e85aab21b427a84b8d0a96e0a8e49a900c2755bc3299489fc84387cc523a7ee9",
        "7572396e51984cf70f007de425d29154a57469609752e899bf656aabfeb194b3",
    ),
    ("arm32_o2", (14, 29)): (
        9,
        556,
        "38981a5139d4d51148c6725e6e7848cf83454848d4f4053567db607ee9b4a749",
        "1c4fc83ada6f2a1a5fb4ccaf7d33a60605684d44445ac970727e1bcc77d29dd9",
    ),
    ("arm32_o2", (15, 30)): (
        10,
        680,
        "842964383fc9e0c35c873b3d3873414a864082d17853286ab5ce29d1c74e6186",
        "7290fcfb96bf9185d2623d78fcb9240a30bb3f8cd9e908236c0a576857ad2408",
    ),
}
# arm32_o2, home -> (15, 30) under SimClock with half the simulated time
# that the full 10-iteration run takes
SIMCLOCK_REFINE = (
    5,
    340,
    "179ce2f84dba110f8862ef88d870a537f6e9da6adba04f7b6c6b162eddb6bac4",
    "5ac10f99a662b9c397d5e0492e0de961314e21a430e96fa17a04cf5cf607f713",
)


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _initial(scenario, library, start, goal):
    return CoverPlanner.from_library(scenario, library).plan(goal, start, refine=False).path


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
    planner = CoverPlanner.from_library(scenario, library)
    initial = planner.plan(goal, scenario.s_home, refine=False).path
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


def test_refine_records_frozen_at_a_simulated_deadline(home_refine_setups):
    scenario, library = home_refine_setups["arm32_o2"]
    goal = (15, 30)
    initial = _initial(scenario, library, scenario.s_home, goal)
    clock = bench.SimClock(scenario.counters)
    scenario.counters.reset()
    _, full = _refine_pin(scenario, scenario.s_home, goal, initial, clock=clock)
    assert len(full.iterations) == HOME_REFINE["arm32_o2", goal][0]
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


@pytest.mark.parametrize("name", sorted(SHORTCUT_SHA256))
def test_shortcut_paths_frozen(name):
    scenario = dict(corpus.corpus())[name]
    library = pre.preprocess(scenario, seed=0)
    outputs, start = [], scenario.s_home
    for goal in sorted(q for rc in library.regions for q in rc.covered):
        initial = _initial(scenario, library, start, goal)
        outputs += [search.shortcut_path(scenario, initial, seed=s).configs for s in range(3)]
        start = goal
    assert _sha256(outputs) == SHORTCUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(LIBRARY_SHA256))
def test_library_bytes_frozen(name, tmp_path):
    scenario = dict(corpus.corpus())[name]
    path = tmp_path / f"{name}_library.json"
    pre.save_library(pre.preprocess(scenario, seed=0), path)
    data = path.read_bytes()
    v3 = v3_projection(json.loads(data), scenario)
    v2 = v2_projection(v3, scenario)
    v1 = cspace.canonical_json(v1_projection(v2)) + "\n"
    assert hashlib.sha256(v1.encode()).hexdigest() == LIBRARY_SHA256[name]
    v2 = cspace.canonical_json(v2) + "\n"
    assert hashlib.sha256(v2.encode()).hexdigest() == LIBRARY_V2_SHA256[name]
    v3 = cspace.canonical_json(v3) + "\n"
    assert hashlib.sha256(v3.encode()).hexdigest() == LIBRARY_V3_SHA256[name, 0]
    assert hashlib.sha256(data).hexdigest() == LIBRARY_V4_SHA256[name, 0]


def test_corpus_frozen():
    digest = hashlib.sha256()
    for name, scenario in corpus.corpus():
        digest.update((name + scenario.fingerprint).encode())
    assert digest.hexdigest() == CORPUS_SHA256


@pytest.fixture(scope="module")
def preprocess_runs():
    """(scenario, seed) -> (library, logical checks that preprocess spent, scenario)."""
    scenarios = dict(corpus.corpus())
    scenarios["arm3_s16"] = arm3_s16()
    runs = {}
    for name, seed in sorted(PREPROCESS_CHECKS.keys() | COVER_SHA256.keys()):
        scenario = scenarios[name]
        before = scenario.counters.collision_checks
        library = pre.preprocess(scenario, seed=seed)
        runs[name, seed] = library, scenario.counters.collision_checks - before, scenario
    return runs


@pytest.mark.parametrize("seed", sorted(ARM3_S16_LIBRARY_SHA256))
def test_arm3_s16_library_bytes_frozen(preprocess_runs, seed, tmp_path):
    library, _, scenario = preprocess_runs["arm3_s16", seed]
    path = tmp_path / "arm3_s16_library.json"
    pre.save_library(library, path)
    data = path.read_bytes()
    v3 = v3_projection(json.loads(data), scenario)
    v2 = cspace.canonical_json(v2_projection(v3, scenario)) + "\n"
    assert hashlib.sha256(v2.encode()).hexdigest() == ARM3_S16_LIBRARY_SHA256[seed]
    v3 = cspace.canonical_json(v3) + "\n"
    assert hashlib.sha256(v3.encode()).hexdigest() == LIBRARY_V3_SHA256["arm3_s16", seed]
    assert hashlib.sha256(data).hexdigest() == LIBRARY_V4_SHA256["arm3_s16", seed]


@pytest.mark.parametrize("name, seed", sorted(PREPROCESS_CHECKS))
def test_preprocess_checks_frozen(preprocess_runs, name, seed):
    assert preprocess_runs[name, seed][1] == PREPROCESS_CHECKS[name, seed]


@pytest.mark.parametrize("name, seed", sorted(COVER_SHA256))
def test_cover_frozen(preprocess_runs, name, seed):
    library, _, scenario = preprocess_runs[name, seed]
    v3 = v3_projection(pre.library_to_payload(library), scenario)
    payload = v2_projection(v3, scenario)
    for rc in payload["regions"]:
        for entry in rc["entries"]:
            del entry["rep_path"]
    digest = hashlib.sha256(cspace.canonical_json(payload).encode()).hexdigest()
    assert digest == COVER_SHA256[name, seed]
