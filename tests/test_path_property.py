"""Property test: ``search.path_is_valid`` accepts exactly the lattice walks.

A Path stores only its states, so this check is what tells a lattice walk
from any other tuple of states. The oracle asks the same question without
the scenario's tables: the first state is on the lattice and collision
free (``cspace.collision_free``), and each next state is one of the
oracle's ``lattice_neighbors`` of the one before and collision free. On
random small grids and 2-link arms, each random walk is compared intact
and under each of four mutations: an interior state dropped, a state
repeated, a state moved off the lattice, or the walk cut at a step into a
state in collision. ``search.check_path`` and the public
``search.anytime_refine`` refuse exactly the paths the oracle rejects,
with InvalidPath.
"""

import itertools
import math

import pytest

from oracles import lattice_neighbors
from coverplan import ArmModel, Circle, RegionSpec, Rect, Scenario, cspace, errors, search

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

MUTATIONS = ("drop interior", "repeat", "off lattice", "obstacle")


@st.composite
def grids(draw):
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=12))
    return Scenario(
        kind="grid",
        grid_dims=(nx, ny),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.0, 0.0, float(nx), float(ny))),),
        obstacles=tuple(Rect((i + 0.2, j + 0.2, i + 0.8, j + 0.8)) for i, j in cells),
    )


@st.composite
def arms(draw):
    jpr = draw(st.integers(4, 16))
    step = 2.0 * math.pi / jpr
    limits = []
    for _ in range(2):
        if draw(st.booleans()):
            lo = draw(st.floats(-math.pi, math.pi))
            limits.append((lo, lo + (draw(st.integers(1, jpr - 1)) + 0.5) * step))
        else:
            limits.append(None)
    links = tuple(draw(st.lists(st.floats(0.2, 1.0), min_size=2, max_size=2)))
    coord = st.floats(-sum(links), sum(links))
    obstacles = draw(
        st.lists(st.builds(Circle, st.tuples(coord, coord), st.floats(0.05, 0.5)), max_size=3)
    )
    return Scenario(
        kind="arm",
        arm=ArmModel(
            link_lengths=links,
            joints_per_rev=jpr,
            joint_limits=tuple(limits) if any(limits) else None,
        ),
        s_home=(0, 0),
        regions=(RegionSpec("r", (-2.0, -2.0, 2.0, 2.0)),),
        obstacles=tuple(obstacles),
    )


def on_lattice(scenario, q):
    return len(q) == len(scenario.dims) and all(0 <= c < n for c, n in zip(q, scenario.dims))


def states(scenario):
    return list(itertools.product(*map(range, scenario.dims)))


def oracle_is_walk(scenario, configs):
    first = configs[0]
    if not (on_lattice(scenario, first) and cspace.collision_free(scenario, first)):
        return False
    return all(
        b in lattice_neighbors(scenario, a) and cspace.collision_free(scenario, b)
        for a, b in zip(configs, configs[1:])
    )


def random_walk(data, scenario, free):
    """A walk from a drawn free state along drawn free neighbours."""
    walk = [data.draw(st.sampled_from(free))]
    for _ in range(data.draw(st.integers(0, 12))):
        options = [nb for nb in lattice_neighbors(scenario, walk[-1]) if nb in free]
        if not options:
            break
        walk.append(data.draw(st.sampled_from(sorted(set(options)))))
    return walk


def mutate(data, scenario, walk, mutation):
    walk = list(walk)
    if mutation == "drop interior" and len(walk) >= 3:
        del walk[data.draw(st.integers(1, len(walk) - 2))]
    elif mutation == "repeat":
        i = data.draw(st.integers(0, len(walk) - 1))
        walk.insert(i, walk[i])
    elif mutation == "off lattice":
        i = data.draw(st.integers(0, len(walk) - 1))
        axis = data.draw(st.integers(0, len(scenario.dims) - 1))
        c = data.draw(st.sampled_from((-1, scenario.dims[axis])))
        walk[i] = walk[i][:axis] + (c,) + walk[i][axis + 1 :]
    elif mutation == "obstacle":  # the walk's i-th step goes into a blocked lattice neighbour
        i = data.draw(st.integers(min(1, len(walk) - 1), len(walk) - 1))
        near = lattice_neighbors(scenario, walk[i - 1]) if i else states(scenario)
        blocked = sorted({q for q in near if not cspace.collision_free(scenario, q)})
        if blocked:
            walk[i:] = [data.draw(st.sampled_from(blocked))]
    return walk


def check(data, scenario):
    free = [q for q in states(scenario) if cspace.collision_free(scenario, q)]
    hypothesis.assume(free)
    walk = random_walk(data, scenario, free)
    assert search.path_is_valid(scenario, search.Path(tuple(walk)))
    for mutation in MUTATIONS:
        configs = mutate(data, scenario, walk, mutation)
        expected = oracle_is_walk(scenario, configs)
        path = search.Path(tuple(configs))
        assert search.path_is_valid(scenario, path) == expected, configs
        if expected:
            search.check_path(scenario, path)
        else:
            with pytest.raises(errors.InvalidPath):
                search.check_path(scenario, path)
            with pytest.raises(errors.InvalidPath):
                search.anytime_refine(scenario, path.start, path.goal, path)


@PROPERTY
@given(st.data())
def test_path_is_valid_is_the_oracle_on_grids(data):
    check(data, data.draw(grids()))


@PROPERTY
@given(st.data())
def test_path_is_valid_is_the_oracle_on_arms(data):
    check(data, data.draw(arms()))


def test_every_mutation_breaks_a_walk():
    """Each mutation above makes an invalid path from a valid one."""
    sc = Scenario(
        kind="grid",
        grid_dims=(4, 4),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.0, 0.0, 4.0, 4.0)),),
        obstacles=(Rect((3.2, 0.2, 3.8, 0.8)),),
    )
    walk = ((0, 0), (1, 0), (2, 0), (2, 1))
    broken = [
        ((0, 0), (2, 0), (2, 1)),  # an interior state dropped
        ((0, 0), (1, 0), (1, 0), (2, 0), (2, 1)),  # a state repeated
        ((0, 0), (1, 0), (2, 0), (4, 0)),  # off the lattice
        ((-1, 0), (0, 0)),  # off the lattice at the start
        ((0, 0), (1, 0), (2, 0), (3, 0)),  # (3, 0) is in collision
    ]
    assert search.path_is_valid(sc, search.Path(walk)) and oracle_is_walk(sc, walk)
    for configs in broken:
        assert not search.path_is_valid(sc, search.Path(configs)), configs
        assert not oracle_is_walk(sc, configs), configs
