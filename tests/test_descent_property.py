"""Property test: descent on integer squared distances is the float rule.

``cover.greedy_step`` compares sums of squared axis distances as integers;
``oracles.simulate_descent`` takes the argmin of the float
``cspace.navigation_value``. On random small arms and grids, for every
valid state and a drawn attractor, the step equals the oracle's first
move. Arms have 1 to 3 joints with 4 to 20 steps per revolution (at most
10 for three joints, so a lattice has at most 1,000 states), odd and even,
so the draws cross the wrap seam and meet the two-way ties of a half-turn
distance; joints may have limits.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import simulate_descent
from coverplan import ArmModel, Circle, RegionSpec, Rect, Scenario, cover, cspace


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def arms(draw):
    dof = draw(st.integers(1, 3))
    jpr = draw(st.integers(4, 10 if dof == 3 else 20))
    step = 2.0 * math.pi / jpr
    limits = []
    for _ in range(dof):
        if draw(st.booleans()):
            lo = draw(st.floats(-math.pi, math.pi))
            span = draw(st.integers(1, jpr - 1))
            limits.append((lo, lo + (span + 0.5) * step))
        else:
            limits.append(None)
    links = tuple(draw(st.lists(st.floats(0.2, 1.0), min_size=dof, max_size=dof)))
    reach = sum(links)
    coord = st.floats(-reach, reach)
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
        s_home=(0,) * dof,
        regions=(RegionSpec("r", (-reach, -reach, reach, reach)),),
        obstacles=tuple(obstacles),
    )


@st.composite
def grids(draw):
    nx, ny = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=12))
    return Scenario(
        kind="grid",
        grid_dims=(nx, ny),
        s_home=(0, 0),
        regions=(RegionSpec("r", (0.0, 0.0, float(nx), float(ny))),),
        obstacles=tuple(Rect((i + 0.2, j + 0.2, i + 0.8, j + 0.8)) for i, j in cells),
    )


def check_every_state(scenario, attractor):
    for q in cspace.lattice_configs(scenario):
        if not cspace.collision_free(scenario, q):
            continue
        _, _, visited = simulate_descent(scenario, q, attractor, max_steps=1)
        expected = visited[1] if len(visited) > 1 else None
        assert cover.greedy_step(scenario, q, attractor) == expected, (q, attractor)


@PROPERTY
@given(st.data())
def test_greedy_step_is_the_float_rule_on_arms(data):
    scenario = data.draw(arms())
    states = list(cspace.lattice_configs(scenario))
    check_every_state(scenario, data.draw(st.sampled_from(states)))


@PROPERTY
@given(st.data())
def test_greedy_step_is_the_float_rule_on_grids(data):
    scenario = data.draw(grids())
    states = list(cspace.lattice_configs(scenario))
    check_every_state(scenario, data.draw(st.sampled_from(states)))
