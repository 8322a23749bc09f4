"""Acceptance suite: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Bench-based criteria run under the deterministic simulated
clock (see coverplan.bench); real-time criteria use the wall clock.
"""

import pathlib
import random
import time
from contextlib import contextmanager

import pytest

from coverplan import Circle, CoverPlanner, bench, corpus, cspace
from coverplan import cover as pre
from coverplan.search import anytime_refine, astar, concat_paths, path_is_valid
from oracles import bfs_distances


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL - {description}")
        raise
    print(f"\n[criterion {number}] PASS - {description}")


@pytest.fixture(scope="module")
def fitted_corpus():
    """Every corpus scenario preprocessed once (shared across criteria)."""
    out = {}
    for name, scenario in corpus.corpus():
        out[name] = (scenario, pre.preprocess(scenario, seed=0))
    return out


@pytest.fixture(scope="module")
def bench_runs(fitted_corpus):
    """All bench experiments the acceptance suite performs.

    Criterion 7 reads the hard-scenario runs; criteria 4 and 5 assert the
    refinement invariants across every run collected here.
    """
    runs = {}
    hard = [name for name, _ in corpus.hard_scenarios()]
    sweep = hard + ["grid12_d20", "grid16_d30", "arm24_o2"]
    for name in sweep:
        scenario, library = fitted_corpus[name]
        cfg = bench.ExperimentConfig(
            scenario=name,
            library=name,
            mode="single",
            trials=20,
            budget_ms=500.0,
            planners=("ctmp", "ctmp+refine", "ctmp+shortcut", "astar", "wastar", "arastar"),
            seed=11,
            outdir="unused",
        )
        runs[name] = bench.run_single_experiment(scenario, library, cfg)
    for name in ("grid12_d00", "grid16_d10"):
        scenario, library = fitted_corpus[name]
        cfg = bench.ExperimentConfig(
            scenario=name,
            library=name,
            mode="sequential",
            trials=12,
            budget_ms=500.0,
            budget_range_ms=(500.0, 3000.0),
            planners=("ctmp", "ctmp+refine"),
            seed=3,
            outdir="unused",
        )
        runs[name + "_seq"] = bench.run_sequential_experiment(scenario, library, cfg)
    return runs


def test_criterion_1_cover_completeness(fitted_corpus):
    """Every reachable in-region config is covered; home queries always succeed."""
    with criterion(1, "cover completeness and 100% query success on covered goals"):
        t_start = time.monotonic()
        assert len(fitted_corpus) >= 20
        for name, (scenario, library) in fitted_corpus.items():
            reach = set(bfs_distances(scenario, scenario.s_home))
            for region, rc in zip(scenario.regions, library.regions):
                states = cspace.region_configs(scenario, region)
                for q in states:
                    if q in reach:
                        assert q in rc.covered, (name, region.id, q)
                    else:
                        assert q in rc.excluded, (name, region.id, q)
                assert rc.covered | rc.excluded == set(states), (name, region.id)
            covered = sorted(set().union(*(rc.covered for rc in library.regions)))
            planner = CoverPlanner.from_library(scenario, library)
            for goal in covered:
                res = planner.plan(goal, scenario.s_home, refine=False)
                assert res.path.configs[0] == scenario.s_home
                assert res.path.configs[-1] == goal
        assert time.monotonic() - t_start < 120.0  # stated runtime bound


def test_criterion_2_constant_time_query(fitted_corpus):
    """Zero checks/expansions; step counts identical across obstacle counts."""
    with criterion(2, "constant-time query: 0 checks, 0 expansions, obstacle-independent"):
        base, _ = fitted_corpus["grid12_d10"]
        counts = {}
        for total_obstacles in (1, 500):
            # one real obstacle plus decoys far outside the workspace: the
            # lattice validity (and hence the cover) is identical
            far = tuple(
                Circle(center=(1000.0 + 3.0 * k, -500.0), radius=1.0)
                for k in range(total_obstacles - 1)
            )
            scenario = cspace.Scenario(
                kind="grid",
                grid_dims=base.grid_dims,
                s_home=base.s_home,
                regions=base.regions,
                obstacles=base.obstacles[:1] + far,
            )
            library = pre.preprocess(scenario, seed=0)
            planner = CoverPlanner.from_library(scenario, library)
            starts = [scenario.s_home] + sorted(library.regions[0].covered)[:3]
            goals = sorted(library.regions[1].covered)[:3]
            per_query = []
            for s in starts:
                for g in goals:
                    scenario.counters.reset()
                    t0 = time.perf_counter()
                    planner.plan(g, s, refine=False)
                    wall = time.perf_counter() - t0
                    checks, expansions, steps = scenario.counters.snapshot()
                    assert checks == 0, (s, g)
                    assert expansions == 0, (s, g)
                    assert wall < 0.010, (s, g, wall)
                    per_query.append(steps)
            counts[total_obstacles] = per_query
        assert counts[1] == counts[500]


def test_criterion_3_optimal_convergence():
    """200 seeded instances: refinement meets the optimal oracle exactly."""
    with criterion(3, "anytime refinement converges to the A* oracle on 200 instances"):
        t_start = time.monotonic()
        rng = random.Random(2024)
        checked = 0
        attempt = 0
        while checked < 200:
            attempt += 1
            size = 8 if checked % 2 == 0 else 12
            density = rng.choice([0.0, 0.1, 0.2, 0.3])
            sc = corpus.make_grid(size, density, seed=1000 + attempt)
            dist = bfs_distances(sc, sc.s_home)
            reachable = sorted(dist)
            if len(reachable) < 3:
                continue
            goal = reachable[rng.randrange(len(reachable))]
            via = reachable[rng.randrange(len(reachable))]
            if goal == sc.s_home or via in (sc.s_home, goal):
                continue
            initial = concat_paths(
                astar(sc, sc.s_home, via, weight=3.0), astar(sc, via, goal, weight=3.0)
            )
            deadline = time.monotonic() + 10.0
            refined, report = anytime_refine(
                sc, sc.s_home, goal, initial, deadline=deadline
            )
            assert refined.cost == dist[goal], (size, density, goal)
            assert report.optimal_flag
            assert report.epsilon_history[-1] == 1.0
            checked += 1
        assert time.monotonic() - t_start < 300.0  # stated runtime bound


def _refine_profiles(bench_runs):
    for name, (records, _) in bench_runs.items():
        for rec in records:
            if rec.planner == "ctmp+refine" and rec.success:
                yield name, rec


def test_criterion_4_epsilon_schedule(bench_runs):
    """Every recorded refinement schedule strictly decreases to 1."""
    with criterion(4, "inflation schedules strictly decrease to a final value of 1"):
        seen = 0
        for name, rec in _refine_profiles(bench_runs):
            history = [eps for _, _, eps in rec.profile if eps is not None]
            if not history:  # initial plan had cost 0 (start == goal): no schedule
                continue
            assert all(b < a for a, b in zip(history, history[1:])), (name, rec.trial_id)
            assert history[-1] == 1.0, (name, rec.trial_id, history)
            assert rec.optimal_flag, (name, rec.trial_id)
            seen += 1
        assert seen > 0


def test_criterion_5_anytime_monotonicity(bench_runs, fitted_corpus):
    """Iteration costs never increase; every intermediate path validates."""
    with criterion(5, "anytime cost monotonicity and intermediate path validity"):
        for name, rec in _refine_profiles(bench_runs):
            costs = [c for _, c, _ in rec.profile]
            assert all(b <= a for a, b in zip(costs, costs[1:])), (name, rec.trial_id)
        # direct runs retain every intermediate incumbent for validation
        scenario, library = fitted_corpus["grid16_d30"]
        planner = CoverPlanner.from_library(scenario, library)
        starts = sorted(library.regions[0].covered)[:4]
        goals = sorted(library.regions[1].covered)[:4]
        validated = 0
        for s, g in zip(starts, goals):
            res = planner.plan(g, s, budget_ms=2000.0)
            report = res.refine_report
            assert report is not None
            for inc in report.incumbents:
                assert inc.configs[0] == s and inc.configs[-1] == g
                assert path_is_valid(scenario, inc)
                validated += 1
        assert validated > 0


def test_criterion_6_sequential_improvement(fitted_corpus):
    """Refined sequential queries beat the via-home path by >= 30% on average."""
    with criterion(6, "sequential pick->place refinement: mean cost ratio <= 0.7, optimal"):
        ratios = []
        for name in ("grid12_d00", "grid16_d00", "grid24_d00", "arm24_o0", "arm32_o0"):
            scenario, library = fitted_corpus[name]
            planner = CoverPlanner.from_library(scenario, library)
            rng = random.Random(77)
            pick = sorted(library.regions[0].covered)
            place = sorted(library.regions[1].covered)
            for k in range(8):
                start = pick[rng.randrange(len(pick))]
                goal = place[rng.randrange(len(place))]
                if start == goal:
                    continue
                res = planner.plan(goal, start, budget_ms=10_000.0)
                oracle = astar(scenario, start, goal).cost
                if oracle >= res.initial_cost:  # via-home already as short as direct
                    continue
                assert res.final_cost == oracle, (name, start, goal)
                assert res.optimal_flag
                ratios.append(res.final_cost / res.initial_cost)
        assert len(ratios) >= 20
        mean_ratio = sum(ratios) / len(ratios)
        assert mean_ratio <= 0.7, mean_ratio


def test_criterion_7_baseline_ordering(bench_runs):
    """Planner quality ordering and from-scratch baseline degradation."""
    with criterion(
        7, "refine <= shortcut <= lookup cost; lookup 100% success; arastar timeout"
    ):
        hard = [name for name, _ in corpus.hard_scenarios()]
        ara_timeouts = 0
        for name in hard + ["grid12_d20", "grid16_d30", "arm24_o2"]:
            records, _ = bench_runs[name]
            by_planner = {}
            for rec in records:
                by_planner.setdefault(rec.planner, {})[rec.trial_id] = rec
            ctmp, refine, shortcut = (
                by_planner["ctmp"],
                by_planner["ctmp+refine"],
                by_planner["ctmp+shortcut"],
            )
            assert all(r.success for r in ctmp.values()), name  # 100% success
            common = [
                t
                for t in ctmp
                if ctmp[t].success and refine[t].success and shortcut[t].success
            ]
            mean = lambda recs: sum(recs[t].cost for t in common) / len(common)
            assert mean(refine) <= mean(shortcut) <= mean(ctmp), name
            for rec in by_planner["arastar"].values():
                # timeout: the deadline ended the run before the final
                # weight-1 iteration certified optimality
                if not rec.success or not rec.optimal_flag:
                    assert rec.plan_ms >= rec.budget_ms or not rec.success
                    if name in hard:
                        ara_timeouts += 1
        assert ara_timeouts >= 1


def test_criterion_8_determinism(fitted_corpus, tmp_path):
    """Fixed seeds reproduce library files and trials.csv byte for byte."""
    with criterion(8, "bit-identical libraries and byte-identical trials.csv"):
        for name in ("grid21_ladder", "arm24_o2"):
            scenario, _ = fitted_corpus[name]
            paths = []
            for k in (0, 1):
                library = pre.preprocess(scenario, seed=4)
                p = tmp_path / f"{name}_{k}.json"
                pre.save_library(library, p)
                paths.append(p)
            assert paths[0].read_bytes() == paths[1].read_bytes(), name

        name = "grid21_ladder"
        scenario, library = fitted_corpus[name]
        spath = tmp_path / "ladder_scenario.json"
        lpath = tmp_path / "ladder_library.json"
        cspace.save_scenario(scenario, spath)
        pre.save_library(library, lpath)
        blobs = []
        for k in (0, 1):
            outdir = tmp_path / f"bench_{k}"
            cfg = bench.ExperimentConfig(
                scenario=str(spath),
                library=str(lpath),
                mode="single",
                trials=10,
                budget_ms=500.0,
                planners=("ctmp", "ctmp+refine", "ctmp+shortcut", "astar", "wastar", "arastar"),
                seed=9,
                outdir=str(outdir),
            )
            run_scenario = cspace.load_scenario(spath)
            run_library = pre.load_library(lpath, run_scenario)
            records, stats = bench.run_single_experiment(run_scenario, run_library, cfg)
            files = bench.emit_results(records, stats, cfg.outdir)
            blobs.append(pathlib.Path(files["trials"]).read_bytes())
        assert blobs[0] == blobs[1]
