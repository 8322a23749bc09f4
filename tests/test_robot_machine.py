"""Stateful model of one robot: random sequences of plans and registrations.

Hypothesis draws a world, a random 6 x 6 to 9 x 9 grid with cell obstacles
(density up to 0.2), home at (0, 0) and two 3 x 3 corner regions, and then
a sequence of rules on one ``CoverPlanner``:

- plan from the robot's position to a covered goal, with or without
  refinement, and register the result or not (a registered path moves the
  robot to its end);
- plan the same way under a ``bench.SimClock`` deadline of a few
  simulated milliseconds, which may cut the refinement short;
- register a random valid walk of up to six moves from the position, or
  from any state of the executed path (home before the first);
- plan as in the first rule while another thread, on a second
  ``CoverPlanner`` bound to the same library by ``from_library``, replays
  the robot's registrations and plans from the position to another drawn
  goal.

After every plan and registration the model checks, against
``oracles.bfs_distances`` and ``path_is_valid``:

- each plan is a valid path from the position to the goal, costing at
  least the breadth-first distance;
- a plan without refinement makes 0 collision checks and 0 expansions;
- a refined plan is flagged optimal and costs the breadth-first distance,
  and a plan cut by its deadline is flagged optimal only at that cost;
- the index's anchor is a valid path from home to the executed path's end;
- the second planner's plan is the robot's own plan of the same request,
  made after the threads are joined (the paths only: the two threads add
  their counts to the one scenario's counters).

Two ratios are recorded, not asserted: the states of each anchor over
those of a shortest path from home to its end, which grows without bound
as registrations chain back over earlier executed paths, and each initial
cost over the distance. ``pytest tests/test_robot_machine.py
--hypothesis-show-statistics`` prints them.
"""

from concurrent.futures import ThreadPoolExecutor

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from conftest import cell_rect, grid
from coverplan import CoverPlanner, RegionSpec, bench
from coverplan.search import Path, path_is_valid
from oracles import bfs_distances, lattice_neighbors, valid_states


@st.composite
def worlds(draw):
    """(size, obstacle cells): up to a fifth of the cells, never home."""
    size = draw(st.integers(6, 9))
    cells = [(i, j) for i in range(size) for j in range(size) if (i, j) != (0, 0)]
    count = draw(st.integers(0, len(cells) // 5))
    obstacles = draw(st.lists(st.sampled_from(cells), min_size=count, max_size=count, unique=True))
    return size, obstacles


def bucket(ratio):
    """A ratio rounded to a coarse bucket, so the statistics stay short."""
    for bound in (1.5, 3, 10):
        if ratio < bound:
            return f"< {bound}"
    return ">= 10"


class RobotMachine(RuleBasedStateMachine):
    @initialize(world=worlds())
    def build(self, world):
        size, cells = world
        regions = (
            RegionSpec("pick", (size - 3.0, 0.0, float(size), 3.0)),
            RegionSpec("place", (size - 3.0, size - 3.0, float(size), float(size))),
        )
        self.sc = grid(size, obstacles=[cell_rect(i, j) for i, j in cells], regions=regions)
        self.planner = CoverPlanner(seed=0).fit(self.sc)
        self.free = valid_states(self.sc)
        self.home_distance = bfs_distances(self.sc, self.sc.s_home, self.free)
        self.goals = sorted(self.planner.library_.goal_index)
        self.position = self.sc.s_home
        self.registered = []

    def distance(self, goal):
        return bfs_distances(self.sc, self.position, self.free)[goal]

    def checked_plan(self, pick, **options):
        """Plan from the position to a drawn goal; check the ends, the
        validity and the cost against the distance; return the result."""
        goal = self.goals[pick % len(self.goals)]
        result = self.planner.plan(goal, self.position, **options)
        path, distance = result.path, self.distance(goal)
        assert path.start == self.position and path.goal == goal
        assert path_is_valid(self.sc, path)
        assert path.cost >= distance
        assert not result.optimal_flag or path.cost == distance
        if distance:
            event(f"initial cost / distance {bucket(result.initial_cost / distance)}")
        return result, distance

    @precondition(lambda self: self.goals)
    @rule(pick=st.integers(0, 10**6), refine=st.booleans(), register=st.booleans())
    def plan(self, pick, refine, register):
        before = self.sc.counters.snapshot()
        result, distance = self.checked_plan(pick, budget_ms=1e7, refine=refine)
        checks = self.sc.counters.collision_checks - before[0]
        expansions = self.sc.counters.expansions - before[1]
        if refine:
            assert result.optimal_flag and result.path.cost == distance
        else:
            assert (checks, expansions) == (0, 0)
        if register:
            self.register(result.path)

    @precondition(lambda self: self.goals)
    @rule(pick=st.integers(0, 10**6), budget_ms=st.floats(0.001, 20.0), register=st.booleans())
    def plan_under_deadline(self, pick, budget_ms, register):
        clock = bench.SimClock(self.sc.counters)
        result, _ = self.checked_plan(pick, budget_ms=budget_ms, clock=clock)
        event(f"optimal under a deadline: {result.optimal_flag}")
        if register:
            self.register(result.path)

    @precondition(lambda self: self.goals)
    @rule(pick=st.integers(0, 10**6), other=st.integers(0, 10**6), refine=st.booleans())
    def plan_beside_a_second_index(self, pick, other, refine):
        goal = self.goals[other % len(self.goals)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            beside = pool.submit(self.replay_and_plan, self.position, goal, refine)
            self.checked_plan(pick, budget_ms=1e7, refine=refine)
            path = beside.result(timeout=60)
        again, _ = self.checked_plan(other, budget_ms=1e7, refine=refine)
        assert path.configs == again.path.configs

    def replay_and_plan(self, start, goal, refine):
        """On a fresh planner of the robot's library: register the robot's
        executed paths in order, then plan start -> goal."""
        replay = CoverPlanner.from_library(self.sc, self.planner.library_)
        for path in self.registered:
            replay.register_executed(path)
        return replay.plan(goal, start, budget_ms=1e7, refine=refine).path

    @rule(moves=st.lists(st.integers(0, 3), max_size=6))
    def walk(self, moves):
        self.register(self.random_walk(self.position, moves))

    @rule(draw=st.integers(0, 10**6), moves=st.lists(st.integers(0, 3), max_size=6))
    def walk_from_the_executed_path(self, draw, moves):
        executed = self.index.executed_path
        states = executed.configs if executed is not None else (self.position,)
        self.register(self.random_walk(states[draw % len(states)], moves))

    def random_walk(self, start, moves):
        """A valid walk from start: each move picks one of the free
        neighbours of the state before."""
        configs = [start]
        for m in moves:
            free = [q for q in lattice_neighbors(self.sc, configs[-1]) if q in self.free]
            if not free:
                break
            configs.append(free[m % len(free)])
        return Path(tuple(configs))

    def register(self, path):
        self.planner.register_executed(path)
        self.registered.append(path)
        self.position = path.goal
        shortest = self.home_distance[path.goal] + 1
        event(f"anchor states / shortest {bucket(len(self.index.anchor.configs) / shortest)}")

    @property
    def index(self):
        return self.planner.index_

    @invariant()
    def anchor_runs_from_home_to_the_executed_end(self):
        anchor = self.index.anchor
        if anchor is not None:
            assert anchor.start == self.sc.s_home
            assert anchor.goal == self.index.executed_path.goal == self.position
            assert path_is_valid(self.sc, anchor)


RobotMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None, derandomize=True, database=None
)
test_robot_machine = RobotMachine.TestCase
