import csv
import hashlib
import json
from pathlib import Path

import pytest

from oracles import bfs_distances
from coverplan import CoverPlanner, bench, corpus, cspace
from coverplan import cover as pre
from coverplan.search import astar


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    sc = corpus.make_grid(12, 0.1, seed=3)
    lib = pre.preprocess(sc, seed=0)
    spath, lpath = d / "scenario.json", d / "library.json"
    cspace.save_scenario(sc, spath)
    pre.save_library(lib, lpath)
    return d, sc, lib, str(spath), str(lpath)


def make_cfg(small_setup, **kw):
    d, sc, lib, spath, lpath = small_setup
    base = dict(
        scenario=spath,
        library=lpath,
        mode="single",
        trials=6,
        budget_ms=500.0,
        planners=("ctmp", "ctmp+refine", "ctmp+shortcut", "astar"),
        seed=5,
        outdir=str(d / "out"),
    )
    base.update(kw)
    return bench.ExperimentConfig(**base)


def test_config_validation(small_setup):
    with pytest.raises(ValueError):
        make_cfg(small_setup, trials=0)
    with pytest.raises(ValueError):
        make_cfg(small_setup, budget_ms=-1.0)
    with pytest.raises(ValueError):
        make_cfg(small_setup, planners=("warp-drive",))
    with pytest.raises(ValueError):
        make_cfg(small_setup, mode="weird")
    # the ends of each range are accepted
    make_cfg(small_setup, trials=1, budget_ms=0.5)
    make_cfg(small_setup, mode="sequential", budget_range_ms=(0.5, 0.5))


def test_config_file_round_trip(small_setup, tmp_path):
    cfg = make_cfg(small_setup, mode="sequential", budget_range_ms=(500.0, 3000.0))
    path = tmp_path / "cfg.json"
    bench.save_experiment_config(cfg, path)
    again = bench.load_experiment_config(path)
    assert again == cfg


def test_config_file_defaults_are_the_dataclass_defaults(tmp_path):
    """Every key but the version, scenario and library may be left out."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format_version": 1, "scenario": "s.json", "library": "l.json"}))
    assert bench.load_experiment_config(path) == bench.ExperimentConfig("s.json", "l.json")
    path.write_text(json.dumps({"format_version": 1, "scenario": "s.json"}))
    with pytest.raises(ValueError, match="'library'"):
        bench.load_experiment_config(path)


def test_single_experiment_invariants(small_setup):
    d, sc, lib, spath, lpath = small_setup
    cfg = make_cfg(small_setup)
    records, stats = bench.run_single_experiment(sc, lib, cfg)
    by_planner = {}
    for r in records:
        by_planner.setdefault(r.planner, []).append(r)

    assert all(r.success for r in by_planner["ctmp"])  # lookup planner cannot fail
    for base, refined in zip(by_planner["ctmp"], by_planner["ctmp+refine"]):
        assert (base.trial_id, base.start, base.goal) == (
            refined.trial_id,
            refined.start,
            refined.goal,
        )
        assert refined.cost <= base.cost

    # oracle_costs reads these records, so they are checked against BFS instead
    for r in by_planner["astar"]:
        assert r.cost == bfs_distances(sc, r.start)[r.goal]

    for row in stats:
        if row.mean_suboptimality_common is not None:
            assert row.mean_suboptimality_common >= 1.0
        if row.planner == "astar":
            assert row.mean_suboptimality_common == pytest.approx(1.0)


def test_sequential_experiment_chains(small_setup):
    d, sc, lib, spath, lpath = small_setup
    cfg = make_cfg(
        small_setup,
        mode="sequential",
        trials=8,
        planners=("ctmp", "ctmp+refine"),
        budget_range_ms=(500.0, 3000.0),
    )
    records, _ = bench.run_sequential_experiment(sc, lib, cfg)
    ctmp = [r for r in records if r.planner == "ctmp"]
    assert ctmp[0].start == sc.s_home
    for prev, cur in zip(ctmp, ctmp[1:]):
        assert cur.start == prev.goal
    budgets = {r.budget_ms for r in ctmp}
    assert all(500.0 <= b <= 3000.0 for b in budgets)
    refined = [r for r in records if r.planner == "ctmp+refine"]
    for base, ref in zip(ctmp, refined):
        assert ref.cost <= base.cost
    # lookup-only sequential plans go through home: the concatenation identity
    from coverplan import online as onl

    index = onl.PotentialStateIndex(sc, lib)
    for rec in ctmp:
        goal_half = onl.connect(onl.find_rep_path(lib, rec.goal), rec.goal)
        start_half = onl.path_home_to(index, rec.start)
        assert rec.cost == start_half.cost + goal_half.cost


def test_emit_results_structure(small_setup):
    d, sc, lib, spath, lpath = small_setup
    cfg = make_cfg(small_setup, outdir=str(d / "emit"))
    records, stats = bench.run_single_experiment(sc, lib, cfg)
    files = bench.emit_results(records, stats, cfg.outdir)

    with open(files["trials"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    assert list(rows[0].keys()) == list(bench.TRIALS_COLUMNS)

    svg = Path(files["profile"]).read_text()
    for planner in cfg.planners:
        assert f'data-planner="{planner}"' in svg
    assert "<polyline" in svg and "eps=" in svg


def test_emit_empty_records(tmp_path):
    files = bench.emit_results([], [], tmp_path / "empty")
    with open(files["trials"]) as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(bench.TRIALS_COLUMNS)]
    assert "</svg>" in Path(files["profile"]).read_text()


def test_reproducible_trials_csv(small_setup):
    d, sc, lib, spath, lpath = small_setup
    out_a, out_b = str(d / "rep_a"), str(d / "rep_b")
    for out in (out_a, out_b):
        sc_run = cspace.load_scenario(spath)
        lib_run = pre.load_library(lpath, sc_run)
        cfg = make_cfg(small_setup, outdir=out, planners=("ctmp", "ctmp+refine", "arastar"))
        records, stats = bench.run_single_experiment(sc_run, lib_run, cfg)
        bench.emit_results(records, stats, out)
    a = Path(out_a, "trials.csv").read_bytes()
    b = Path(out_b, "trials.csv").read_bytes()
    assert a == b


# sha256 of summary.csv and anytime_profile.svg for the grid21_ladder config
# whose trials.csv test_frozen_outputs pins, recorded before TrialRecord and
# SummaryRow derived their columns and one writer emitted both CSVs, and
# re-recorded once, with TRIALS_SHA256, when rep paths became shortest paths
# and refinement took the home-distance landmark: ctmp+refine's plan times
# and anytime profiles moved, its costs did not.
LADDER_SUMMARY_SHA256 = "ee08e36aaa2198f4a0684dd5505b7ff61de10c826f496f991fcd0fd93ef7a8b4"
LADDER_PROFILE_SHA256 = "32990d69480987c127dfbf46fb2865eab48a92f758c41b8c5cde46da9f39991b"


@pytest.fixture(scope="module")
def ladder():
    scenario = dict(corpus.corpus())["grid21_ladder"]
    return scenario, pre.preprocess(scenario, seed=0)


def ladder_outputs(ladder, outdir, budget_ms=500.0) -> dict[str, bytes]:
    """The bytes test_frozen_outputs.test_bench_trials_csv_frozen's config emits."""
    scenario, library = ladder
    cfg = bench.ExperimentConfig(
        scenario="ladder_scenario.json",
        library="ladder_library.json",
        mode="single",
        trials=10,
        budget_ms=budget_ms,
        planners=("ctmp", "ctmp+refine", "astar", "wastar", "arastar"),
        seed=9,
        outdir=str(outdir),
    )
    records, stats = bench.run_single_experiment(scenario, library, cfg)
    files = bench.emit_results(records, stats, cfg.outdir)
    return {name: Path(path).read_bytes() for name, path in files.items()}


def test_bench_summary_and_profile_frozen(ladder, tmp_path):
    out = ladder_outputs(ladder, tmp_path)
    assert hashlib.sha256(out["summary"]).hexdigest() == LADDER_SUMMARY_SHA256
    assert hashlib.sha256(out["profile"]).hexdigest() == LADDER_PROFILE_SHA256


def test_integer_budget_writes_the_float_budget_bytes(ladder, tmp_path):
    """Cells are formatted by column, not by the value's type."""
    as_float = ladder_outputs(ladder, tmp_path / "float", budget_ms=500.0)
    as_int = ladder_outputs(ladder, tmp_path / "int", budget_ms=500)
    assert as_int == as_float
    assert b",500.000000," in as_int["trials"]


def test_oracle_reuses_the_astar_trials(ladder, monkeypatch):
    """oracle_costs gives the BFS distance of every pair. It takes each
    successful astar trial's cost and runs A* only for the pairs that have
    no such trial."""
    scenario, library = ladder

    def experiment(planners):
        cfg = bench.ExperimentConfig(
            scenario="grid21_ladder",
            library="grid21_ladder",
            mode="sequential",
            trials=4,
            budget_ms=2000.0,
            planners=planners,
            seed=3,
        )
        return bench.run_sequential_experiment(scenario, library, cfg)[0]

    calls = []

    def counting_astar(*args, **kwargs):
        calls.append(args[1:3])
        return astar(*args, **kwargs)

    for planners, astar_calls in ((bench.KNOWN_PLANNERS, 0), (("ctmp", "ctmp+refine"), 4)):
        records = experiment(planners)
        assert all(r.success for r in records if r.planner == "astar")
        monkeypatch.setattr(bench, "astar", counting_astar)
        oracle = bench.oracle_costs(scenario, records)
        monkeypatch.undo()
        pairs = {(r.start, r.goal) for r in records}
        assert len(pairs) == 4 and oracle.keys() == pairs
        for start, goal in pairs:
            assert oracle[(start, goal)] == bfs_distances(scenario, start)[goal]
        assert len(calls) == astar_calls and set(calls) <= pairs
        calls.clear()


def test_sim_clock_is_counter_driven(small_setup):
    d, sc, lib, spath, lpath = small_setup
    sc.counters.reset()
    clock = bench.SimClock(sc.counters)
    assert clock() == 0.0
    astar(sc, sc.s_home, sorted(lib.regions[0].covered)[0])
    assert clock() > 0.0
    frozen = clock()
    assert clock() == frozen  # no work, no time


def test_trial_failing_revalidation_is_not_optimal(small_setup, monkeypatch):
    """A path that fails the defensive re-validation takes its optimal flag
    with it: a failed trial never reads optimal."""
    d, sc, lib, spath, lpath = small_setup
    cfg = make_cfg(small_setup)
    robot = CoverPlanner.from_library(sc, lib)
    goal = sorted(lib.regions[0].covered)[-1]
    args = (robot, 0, sc.s_home, goal, 500.0, cfg)
    for planner in ("astar", "ctmp+refine"):
        assert bench.run_trial(planner, *args).optimal_flag
    monkeypatch.setattr(bench, "path_is_valid", lambda scenario, path: False)
    for planner in ("astar", "ctmp+refine"):
        rec = bench.run_trial(planner, *args)
        assert not rec.success and not rec.optimal_flag and rec.cost is None
