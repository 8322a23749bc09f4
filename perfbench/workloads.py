"""Workloads of the coverplan wall-clock benchmark.

A workload owns its set-up (scenarios, libraries, generated inputs, oracle),
one operation ``op(k)`` that the harness calls for k = 0, 1, 2, ... in a
closed loop with a single caller, and ``check(k, outcome)``, which the
harness runs outside the timed region. Inputs depend only on the seed and
on k, so a run that replays k = 0..n-1 repeats the same work. The program
is driven only through coverplan's public functions, called as module
attributes so that a traced run sees every call.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass

from coverplan import ArmModel, Circle, CoverPlanner, RegionSpec, Scenario
from coverplan import bench, corpus, cover, cspace, online, search

ns = time.perf_counter_ns


class SetupError(RuntimeError):
    """A workload's scenario or library does not meet the workload's needs."""


def arm3_s16() -> Scenario:
    """Planar 3-link arm, 16 joint steps per revolution, two fixed discs.

    ``corpus.make_arm`` cannot build it, because it hard-codes a 2-DOF home.
    """
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


# The generator arguments corpus.corpus() uses for these names. Building only
# the scenarios a workload needs keeps the whole corpus out of set-up.
SCENARIOS = {
    "grid24_d20": lambda: corpus.make_grid(24, 0.2, seed=24 * 31 + 20),
    "grid24_d30": lambda: corpus.make_grid(24, 0.3, seed=24 * 31 + 30),
    "arm32_o2": lambda: corpus.make_arm(32, 2, seed=32 * 7 + 2),
    "grid21_ladder": lambda: corpus.make_ladder_grid(21, (5, 10, 15)),
    "arm3_s16": arm3_s16,
}


def build_scenario(name: str) -> Scenario:
    scenario = SCENARIOS[name]()
    if not cspace.is_valid(scenario, scenario.s_home):
        raise SetupError(f"{name}: home state {scenario.s_home} is in collision")
    return scenario


def covered_goals(name: str, library) -> dict[str, list]:
    """Region id -> sorted covered goals; every region must have one."""
    goals = {rc.region_id: sorted(rc.covered) for rc in library.regions}
    empty = [region for region, qs in goals.items() if not qs]
    if empty:
        raise SetupError(f"{name}: regions without covered goals: {empty}")
    return goals


def library_size(library) -> tuple[int, int]:
    """(canonical JSON bytes, cover entries) of a library."""
    data = cspace.canonical_json(cover.library_to_payload(library))
    return len(data.encode()), sum(len(rc.entries) for rc in library.regions)


def counter_delta(before, after) -> tuple[int, int, int]:
    return tuple(b - a for a, b in zip(before, after))


@dataclass
class Outcome:
    latency_ns: int  # the user-visible call only
    value: object = None  # what check() inspects
    ops: tuple[int, int, int] = (0, 0, 0)  # collision checks, expansions, elementary steps
    refine: tuple[int, int, int] = (0, 0, 0)  # iterations, expansions, selections


class Workload:
    name = ""
    scenario_names: tuple[str, ...] = ()
    trace_ops = 0  # ops k < trace_ops form the pass a traced run replays; a multiple of scenarios
    counters_reset_per_op = False  # run_trial resets scenario counters itself

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.setup_errors: list[str] = []
        self.library_bytes = 0
        self.entries = 0
        self.preprocess_s: dict[str, float] = {}

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, k: int) -> Outcome:
        raise NotImplementedError

    def check(self, k: int, outcome: Outcome) -> str | None:
        """None when the outcome is correct, else what is wrong."""
        raise NotImplementedError

    @property
    def trace_op(self):
        """The operation a traced run times; the offline workload widens it."""
        return self.op

    @property
    def warmup_ops(self) -> int:
        """Untimed ops before measuring: one per scenario."""
        return len(self.scenario_names)

    def scenario_of(self, k: int) -> int:
        return k % len(self.scenario_names)

    def inputs_per_pass(self, s: int) -> int:
        """How many of scenario s's ops make one pass over its distinct inputs."""
        return 1

    def counters(self) -> tuple[int, int, int]:
        """Summed OpCounters of every scenario the workload drives."""
        totals = [0, 0, 0]
        for scenario in self.scenarios:
            for i, v in enumerate(scenario.counters.snapshot()):
                totals[i] += v
        return tuple(totals)

    def _fit(self):
        """Scenarios and planners fitted with preprocess seed 0; records library size."""
        self.scenarios, self.planners, self.goals = [], [], []
        self.library_bytes = self.entries = 0
        for name in self.scenario_names:
            scenario = build_scenario(name)
            planner = CoverPlanner(seed=0).fit(scenario)
            self.scenarios.append(scenario)
            self.planners.append(planner)
            self.goals.append(covered_goals(name, planner.library_))
            size, entries = library_size(planner.library_)
            self.library_bytes += size
            self.entries += entries

    def _valid_path(self, s: int, path) -> bool:
        """path_is_valid, memoised per distinct path: replayed ops repeat paths."""
        key = (s, path.configs, path.cost)
        if key in self._valid:
            return True
        if not search.path_is_valid(self.scenarios[s], path):
            return False
        self._valid.add(key)
        return True


class Online(Workload):
    """No-refine pick-and-place queries, each followed by register_executed."""

    name = "online"
    scenario_names = ("grid24_d30", "arm32_o2", "arm3_s16")
    # A multiple of 4, so a replay restarts from home; large enough that each
    # seed's set of (start, goal) pairs has much the same cost distribution.
    queries_per_scenario = 480
    trace_ops = 3 * queries_per_scenario  # one whole query cycle

    def setup(self, seed: int) -> None:
        self._fit()
        self._valid = set()
        self.queries = []
        for name, scenario, goals in zip(self.scenario_names, self.scenarios, self.goals):
            rng = random.Random(f"{seed}:{name}")
            cycles = []
            for region in scenario.regions:  # pick, then place
                order = list(goals[region.id])
                rng.shuffle(order)
                cycles.append(itertools.cycle(order))
            queries, prev = [], None
            for i in range(self.queries_per_scenario):
                goal = next(cycles[i % 2])
                start = scenario.s_home if i % 4 == 0 else prev
                queries.append((start, goal))
                prev = goal
            self.queries.append(queries)

    def inputs_per_pass(self, s: int) -> int:
        return self.queries_per_scenario

    def op(self, k: int) -> Outcome:
        s = k % 3
        start, goal = self.queries[s][(k // 3) % self.queries_per_scenario]
        planner = self.planners[s]
        counters = self.scenarios[s].counters
        c0 = counters.snapshot()
        t0 = ns()
        result = planner.plan(goal, start, refine=False)
        t1 = ns()
        c1 = counters.snapshot()
        planner.register_executed(result.path)
        return Outcome(t1 - t0, (s, start, goal, result.path), counter_delta(c0, c1))

    def check(self, k: int, outcome: Outcome) -> str | None:
        s, start, goal, path = outcome.value
        checks, expansions, _ = outcome.ops
        if checks or expansions:
            return f"initial plan spent {checks} collision checks and {expansions} expansions"
        if path.start != start or path.goal != goal:
            return f"path runs {path.start} -> {path.goal}, asked {start} -> {goal}"
        if not self._valid_path(s, path):
            return f"path {start} -> {goal} fails path_is_valid"
        return None


class Refine(Workload):
    """Home-start queries refined until the result is proven optimal."""

    name = "refine"
    scenario_names = ("grid21_ladder", "grid24_d30", "arm32_o2")
    budget_ms = 1e7  # about three hours: never binds
    trace_ops = 60

    def setup(self, seed: int) -> None:
        self._fit()
        self._valid = set()
        self.order, self.oracle = [], []
        for name, scenario, goals in zip(self.scenario_names, self.scenarios, self.goals):
            every = sorted(q for qs in goals.values() for q in qs)
            random.Random(f"{seed}:{name}").shuffle(every)
            self.order.append(every)
            self.oracle.append(
                {q: search.astar(scenario, scenario.s_home, q, weight=1.0).cost for q in every}
            )

    def inputs_per_pass(self, s: int) -> int:
        return len(self.order[s])

    def op(self, k: int) -> Outcome:
        s = k % 3
        order = self.order[s]
        goal = order[(k // 3) % len(order)]
        counters = self.scenarios[s].counters
        c0 = counters.snapshot()
        t0 = ns()
        result = self.planners[s].plan(goal, budget_ms=self.budget_ms)
        t1 = ns()
        c1 = counters.snapshot()
        report = result.refine_report
        iterations = report.iterations if report is not None else []
        refine = (
            len(iterations),
            sum(it.expansions for it in iterations),
            sum(it.selections for it in iterations),
        )
        return Outcome(t1 - t0, (s, goal, result), counter_delta(c0, c1), refine)

    def check(self, k: int, outcome: Outcome) -> str | None:
        s, goal, result = outcome.value
        if not result.optimal_flag:
            return f"query to {goal} returned without optimal_flag"
        if result.final_cost != self.oracle[s][goal]:
            return f"query to {goal}: cost {result.final_cost}, A* oracle {self.oracle[s][goal]}"
        path = result.path
        if path.start != self.scenarios[s].s_home or path.goal != goal:
            return f"path runs {path.start} -> {path.goal}, asked home -> {goal}"
        if not self._valid_path(s, path):
            return f"path to {goal} fails path_is_valid"
        return None


class Offline(Workload):
    """Library write side (preprocess, save) in set-up; read side (load, index) timed.

    Libraries are built with preprocess seed 0, as in the other workloads,
    so the figures do not move with library content; the workload seed
    orders the loads."""

    name = "offline"
    scenario_names = ("grid24_d20", "arm32_o2", "arm3_s16")
    preprocess_seed = 0
    trace_ops = 3

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.saved: list[bytes] | None = None  # the first build's files

    def _build(self, s: int, path: str) -> tuple[bytes, str | None]:
        """Preprocess and save one scenario; the error says if the file differs
        from the first build."""
        name, scenario = self.scenario_names[s], self.scenarios[s]
        t0 = time.perf_counter()
        library = cover.preprocess(scenario, seed=self.preprocess_seed)
        self.preprocess_s[name] = time.perf_counter() - t0
        covered_goals(name, library)
        cover.save_library(library, path)
        with open(path, "rb") as fh:
            data = fh.read()
        self.built[s] = library
        if self.saved is not None and data != self.saved[s]:
            return data, f"{name}: two builds with seed {self.preprocess_seed} differ on disk"
        return data, None

    def setup(self, seed: int) -> None:
        self.scenarios = [build_scenario(name) for name in self.scenario_names]
        self.built = [None] * len(self.scenarios)
        self.paths = [os.path.join(self.workdir, f"{name}.json") for name in self.scenario_names]
        saved = []
        for s, path in enumerate(self.paths):
            data, error = self._build(s, path)
            saved.append(data)
            if error:
                self.setup_errors.append(error)
        if self.saved is None:
            self.saved = saved
        self.library_bytes = sum(len(data) for data in saved)
        self.entries = sum(library_size(lib)[1] for lib in self.built)
        rng = random.Random(f"{seed}:offline")
        self.schedule = []
        for _ in range(20):  # rounds that each load every scenario once
            block = list(range(len(self.scenarios)))
            rng.shuffle(block)
            self.schedule += block

    def scenario_of(self, k: int) -> int:
        return self.schedule[k % len(self.schedule)]

    def op(self, k: int) -> Outcome:
        s = self.scenario_of(k)
        scenario = self.scenarios[s]
        t0 = ns()
        library = cover.load_library(self.paths[s], scenario)
        online.PotentialStateIndex(scenario, library)
        t1 = ns()
        return Outcome(t1 - t0, (s, library, None))

    def cycle(self, k: int) -> Outcome:
        """One scenario's whole pipeline: preprocess, save, load, index."""
        s = self.scenario_of(k)
        path = os.path.join(self.workdir, f"cycle-{self.scenario_names[s]}.json")
        t0 = ns()
        _, error = self._build(s, path)
        library = cover.load_library(path, self.scenarios[s])
        online.PotentialStateIndex(self.scenarios[s], library)
        t1 = ns()
        return Outcome(t1 - t0, (s, library, error))

    @property
    def trace_op(self):
        return self.cycle

    def check(self, k: int, outcome: Outcome) -> str | None:
        s, library, error = outcome.value
        if error:
            return error
        if library != self.built[s]:
            return f"{self.scenario_names[s]}: loaded library differs from the built one"
        return None


class Baselines(Workload):
    """bench_demo-style experiments with the bench planners, in sequential
    mode: trial 0 goes home -> pick, trial 1 pick -> place. Single mode
    draws every goal from either region; on grid21_ladder pick and place
    trials differ in cost by about a third, so each run's mix of the two
    moved the median latency from seed to seed."""

    name = "baselines"
    scenario_names = ("grid21_ladder",)
    trials = 2  # per experiment: one pick, one place
    # ctmp+shortcut is left out: shortcut_path currently turns a
    # span between two visits of one state into a zero-length self-edge,
    # which path_is_valid rejects, so about one trial in 500 fails.
    planners = tuple(p for p in bench.KNOWN_PLANNERS if p != "ctmp+shortcut")
    # Simulated milliseconds (bench.SimClock). ARA* needs about 550 to reach
    # weight 1 on this layout, so its cost can be checked against the oracle;
    # bench_demo's 500 stops it early, as acceptance criterion 7 expects.
    budget_ms = 2000.0
    trace_ops = 4
    counters_reset_per_op = True

    def setup(self, seed: int) -> None:
        self.seed = seed
        scenario = build_scenario(self.scenario_names[0])
        library = cover.preprocess(scenario, seed=0)
        covered_goals(self.scenario_names[0], library)
        self.scenarios, self.library = [scenario], library
        self.oracle = {}  # (start, goal) -> weight-1 A* cost, filled by check()
        self.library_bytes, self.entries = library_size(library)

    def op(self, k: int) -> Outcome:
        cfg = bench.ExperimentConfig(
            scenario=self.scenario_names[0],
            library=self.scenario_names[0],
            mode="sequential",
            trials=self.trials,
            budget_ms=self.budget_ms,
            planners=self.planners,
            seed=self.seed * 100_000 + k,
        )
        t0 = ns()
        records, _ = bench.run_sequential_experiment(self.scenarios[0], self.library, cfg)
        t1 = ns()
        return Outcome(t1 - t0, records)

    def check(self, k: int, outcome: Outcome) -> str | None:
        for rec in outcome.value:
            if not rec.success:
                return f"trial {rec.trial_id} {rec.planner} {rec.start} -> {rec.goal} failed"
            if rec.planner in ("astar", "arastar"):
                key = (rec.start, rec.goal)
                if key not in self.oracle:
                    self.oracle[key] = search.astar(self.scenarios[0], *key, weight=1.0).cost
                if rec.cost != self.oracle[key]:
                    return f"trial {rec.trial_id} {rec.planner}: cost {rec.cost}, oracle {self.oracle[key]}"
        return None


WORKLOADS = {w.name: w for w in (Online, Refine, Offline, Baselines)}
