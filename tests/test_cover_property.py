"""Property test: the cover, its file and its queries against the BFS oracle.

On random small grids and on 2- and 3-link arms whose joints wrap, each
with one or two goal boxes drawn at random, ``preprocess`` at a drawn seed
must give a library in which

- each region's attractors are those that ``oracles.reference_attractors``
  samples, in order, with whole basins and their frontiers;
- each region's covered goals are its valid states that
  ``oracles.bfs_distances`` reaches from home, and its excluded states the
  rest of its valid states;
- the saved payload, read back, loads to the built library;
- every covered goal's no-refine query from home is a valid path from
  home to the goal that makes zero collision checks and zero expansions,
  and the goal's ``oracles.simulate_descent`` walk reaches its entry's
  attractor in at most the entry's ``max_descent_steps`` moves;
- refinement from home to a few drawn goals ends with ``optimal_flag``
  set and the breadth-first distance as its cost.

The attractors are also checked on every corpus scenario at seed 0, and
on one grid whose second attractor comes from the first one's frontier.
"""

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cell_rect, grid
from oracles import bfs_distances, reference_attractors, simulate_descent
from coverplan import CoverPlanner, RegionSpec, corpus, cover, cspace
from coverplan.search import path_is_valid
from test_astar_property import wrapping_arms
from test_refine_property import grids


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def boxes(draw, lo, hi):
    """An axis-aligned box with corners in [lo, hi] and positive area."""
    x0, x1 = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
    return (x0, y0, x1, y1)


@st.composite
def covers(draw):
    """(scenario, preprocess seed): a grid or wrapping arm with one or two
    drawn goal boxes and a valid home."""
    scenario = draw(st.one_of(grids(), wrapping_arms()))
    if scenario.kind == "grid":
        lo, hi = 0.0, float(max(scenario.dims))
    else:
        hi = sum(scenario.arm.link_lengths)
        lo = -hi
    n = draw(st.integers(1, 2))
    regions = tuple(RegionSpec(f"r{k}", draw(boxes(lo, hi))) for k in range(n))
    scenario = dataclasses.replace(scenario, regions=regions)
    assume(cspace.collision_free(scenario, scenario.s_home))
    return scenario, draw(st.integers(0, 3))


def attractors(library):
    return [[entry.attractor for entry in rc.entries] for rc in library.regions]


@PROPERTY
@given(covers(), st.data())
def test_cover_file_and_queries_match_the_bfs_oracle(case, data):
    scenario, seed = case
    library = cover.preprocess(scenario, seed=seed)
    assert attractors(library) == reference_attractors(scenario, seed)
    reach = bfs_distances(scenario, scenario.s_home)
    for region, rc in zip(scenario.regions, library.regions):
        states = set(cspace.region_configs(scenario, region))
        assert rc.covered == {q for q in states if q in reach}
        assert rc.excluded == states - rc.covered

    text = cspace.canonical_json(cover.library_to_payload(library))
    assert cover.library_from_payload(json.loads(text), scenario) == library

    goals = sorted(set().union(*(rc.covered for rc in library.regions)))
    home = scenario.s_home
    planner = CoverPlanner.from_library(scenario, library)
    for goal in goals:
        entry = library.goal_index[goal]
        reached, steps, _ = simulate_descent(scenario, goal, entry.attractor)
        assert reached and steps <= entry.max_descent_steps, goal
        scenario.counters.reset()
        path = planner.plan(goal, home, refine=False).path
        assert (scenario.counters.collision_checks, scenario.counters.expansions) == (0, 0)
        assert path.start == home and path.goal == goal
        assert path_is_valid(scenario, path), goal

    if goals:
        drawn = data.draw(st.lists(st.sampled_from(goals), min_size=1, max_size=3, unique=True))
        for goal in drawn:
            result = planner.plan(goal, home, budget_ms=1e7)
            assert result.optimal_flag, goal
            assert result.path.cost == reach[goal], goal
            assert path_is_valid(scenario, result.path), goal


CORPUS = dict(corpus.corpus())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_attractors_match_the_reference(name):
    scenario = CORPUS[name]
    assert attractors(cover.preprocess(scenario)) == reference_attractors(scenario, 0)


def test_frontier_draw_matches_the_reference():
    """The second attractor is drawn from the first one's frontier. The
    draw differs if the frontier is left out, if only states that the
    entry's walks already met count as basin states, or if a state in
    collision next to a goal counts when its walk reaches the attractor."""
    obstacles = [cell_rect(2, 3), cell_rect(3, 4), cell_rect(5, 2)]
    scenario = grid(8, obstacles=obstacles, regions=(RegionSpec("r", (1.0, 0.0, 8.0, 5.0)),))
    expected = [[(7, 2), (1, 4)]]
    assert reference_attractors(scenario, 0) == expected
    assert attractors(cover.preprocess(scenario)) == expected
