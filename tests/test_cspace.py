import dataclasses
import hashlib
import json
import math
import re
import sys
import threading

import pytest
from hypothesis import given, settings

import oracles
from conftest import arm3_s16, cell_rect, drawn_arms, grid
from coverplan import ArmModel, Circle, RegionSpec, Scenario, corpus, cspace, errors


def test_fk_zero_angles_collinear():
    arm = ArmModel(link_lengths=(1.0, 1.0), joints_per_rev=16)
    pts = cspace.forward_kinematics(arm, (0, 0))
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == pytest.approx((1.0, 0.0))
    assert pts[2] == pytest.approx((2.0, 0.0))


def test_fk_quarter_turn():
    arm = ArmModel(link_lengths=(1.0,), joints_per_rev=16)
    pts = cspace.forward_kinematics(arm, (4,))  # 4/16 of a revolution
    assert pts[1] == pytest.approx((0.0, 1.0), abs=1e-12)


def test_fk_composed_rotations():
    arm = ArmModel(link_lengths=(1.0, 1.0), joints_per_rev=4)
    pts = cspace.forward_kinematics(arm, (1, 1))  # 90 deg, 90 deg
    assert pts[1] == pytest.approx((0.0, 1.0), abs=1e-12)
    assert pts[2] == pytest.approx((-1.0, 1.0), abs=1e-12)


def test_fk_length_preservation():
    arm = ArmModel(link_lengths=(0.7, 1.3, 0.4), joints_per_rev=24)
    for q in [(0, 0, 0), (3, 17, 9), (23, 23, 23), (11, 5, 20)]:
        pts = cspace.forward_kinematics(arm, q)
        for (a, b), length in zip(zip(pts, pts[1:]), arm.link_lengths):
            assert math.hypot(b[0] - a[0], b[1] - a[1]) == pytest.approx(length, rel=1e-9)


def test_is_valid_empty_workspace(empty8):
    assert all(cspace.is_valid(empty8, q) for q in cspace.lattice_configs(empty8))


def test_is_valid_blocked_cell():
    sc = grid(8, obstacles=[cell_rect(3, 3)])
    assert not cspace.is_valid(sc, (3, 3))
    assert cspace.is_valid(sc, (3, 4))


def test_is_valid_out_of_bounds(empty8):
    assert not cspace.is_valid(empty8, (8, 0))
    assert not cspace.is_valid(empty8, (-1, 0))


def test_is_valid_arm_segment_circle():
    # First link runs (0,0)->(1,0) at q=(0,0); an obstacle on its midpoint
    # hits iff segment-circle distance (here exactly 0) is <= radius.
    blocking = Circle(center=(0.5, 0.0), radius=0.1)
    clearing = Circle(center=(0.5, 0.3), radius=0.2)  # analytic distance 0.3 > 0.2
    region = (RegionSpec("r", (1.9, -0.1, 2.1, 0.1)),)
    arm = ArmModel(link_lengths=(1.0, 1.0), joints_per_rev=16)
    assert not cspace.is_valid(
        Scenario(kind="arm", arm=arm, s_home=(4, 0), regions=region, obstacles=(blocking,)),
        (0, 0),
    )
    assert cspace.is_valid(
        Scenario(kind="arm", arm=arm, s_home=(0, 0), regions=region, obstacles=(clearing,)),
        (0, 0),
    )


def test_is_valid_deterministic(empty8):
    sc = grid(8, obstacles=[cell_rect(2, 2), Circle((5.5, 5.5), 0.8)])
    for q in cspace.lattice_configs(sc):
        assert cspace.is_valid(sc, q) == cspace.is_valid(sc, q)


def test_successors_boundary_clipping(empty8):
    succ = set(cspace.successors(empty8, (0, 0)))
    assert succ == {(1, 0), (0, 1)}


def test_successors_blocked_move():
    sc = grid(8, obstacles=[cell_rect(1, 2)])
    assert len(cspace.successors(sc, (1, 1))) == 3


def test_successors_arm_interior(unit_arm):
    assert len(cspace.successors(unit_arm, (5, 7))) == 4


def test_successors_exclude_self(empty8):
    for q in [(0, 0), (3, 3), (7, 7)]:
        assert q not in cspace.successors(empty8, q)


def mixed_limit_arm():
    """A limited joint with a single index next to a wrapping one."""
    sc = Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 0.8), joints_per_rev=8, joint_limits=((0.0, 0.5), None)),
        s_home=(0, 0),
        regions=(RegionSpec("r", (-1.8, -1.8, 1.8, 1.8)),),
    )
    assert sc.dims == (1, 8)
    return sc


def test_edge_symmetry_exhaustive():
    scenarios = [
        grid(8, obstacles=[cell_rect(3, 3), cell_rect(4, 1), Circle((6.5, 2.5), 0.6)]),
        Scenario(
            kind="arm",
            arm=ArmModel(link_lengths=(1.0, 0.8), joints_per_rev=8),
            s_home=(0, 0),
            regions=(RegionSpec("r", (1.0, 0.0, 1.8, 0.9)),),
            obstacles=(Circle((0.0, 1.2), 0.3),),
        ),
        # the smallest wrapping axis ArmModel allows
        Scenario(
            kind="arm",
            arm=ArmModel(link_lengths=(1.0, 0.8), joints_per_rev=4),
            s_home=(0, 0),
            regions=(RegionSpec("r", (-1.8, -1.8, 1.8, 1.8)),),
        ),
        mixed_limit_arm(),
    ]
    for sc in scenarios:
        for q in cspace.lattice_configs(sc):
            nbs = cspace.lattice_neighbors(sc, q)
            assert len(set(nbs)) == len(nbs) and q not in nbs, (q, nbs)
            if not cspace.is_valid(sc, q):
                continue
            for nb in cspace.successors(sc, q):
                assert q in cspace.successors(sc, nb)


def test_heuristic_examples(empty8):
    assert cspace.heuristic(empty8, (2, 3), (2, 3)) == 0.0
    assert cspace.heuristic(empty8, (0, 0), (3, 4)) == 7.0


def test_heuristic_wrapped_joint():
    arm = Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0,), joints_per_rev=16),
        s_home=(0,),
        regions=(RegionSpec("r", (-2.0, -2.0, 2.0, 2.0)),),
    )
    assert cspace.heuristic(arm, (15,), (0,)) == 1.0


def test_heuristic_limits_disable_wrapping():
    arm = Scenario(
        kind="arm",
        arm=ArmModel(
            link_lengths=(1.0,),
            joints_per_rev=16,
            joint_limits=((0.0, 2.0 * math.pi),),
        ),
        s_home=(0,),
        regions=(RegionSpec("r", (-2.0, -2.0, 2.0, 2.0)),),
    )
    assert cspace.heuristic(arm, (15,), (0,)) == 15.0


@pytest.mark.parametrize("size", [8, 12, 16])
def test_heuristic_consistency_exhaustive(size):
    """For every lattice edge (q, q', c=1): h(q, goal) <= c + h(q', goal)."""
    sc = grid(size, obstacles=[cell_rect(size // 2, j) for j in range(size - 2)])
    goals = [(size - 1, size - 1), (0, size - 1), (size // 2, 0)]
    for q in cspace.lattice_configs(sc):
        if not cspace.is_valid(sc, q):
            continue
        for nb in cspace.successors(sc, q):
            for goal in goals:
                assert cspace.heuristic(sc, q, goal) <= cspace.UNIT_COST + cspace.heuristic(
                    sc, nb, goal
                )


def assert_rows_equal_axis_delta(sc):
    """``distance_rows[axis][i][c]`` is ``axis_delta(c, i)`` as a float, and
    ``square_rows[axis][i][c]`` its square as an int, for every axis, index
    i and index c."""
    assert len(sc.distance_rows) == len(sc.square_rows) == sc.dof
    for n, wrap, floats, squares in zip(sc.dims, sc.wraps, sc.distance_rows, sc.square_rows):
        assert len(floats) == len(squares) == n
        for i in range(n):
            assert len(floats[i]) == len(squares[i]) == n
            for c in range(n):
                d = cspace.axis_delta(c, i, n, wrap)
                assert type(floats[i][c]) is float and floats[i][c] == d, (i, c)
                assert type(squares[i][c]) is int and squares[i][c] == d * d, (i, c)


ROW_SCENARIOS = dict(corpus.corpus(), arm3_s16=arm3_s16())


@pytest.mark.parametrize("name", ROW_SCENARIOS)
def test_distance_rows_equal_axis_delta(name):
    assert_rows_equal_axis_delta(ROW_SCENARIOS[name])


@settings(max_examples=40, deadline=None)
@given(drawn_arms())
def test_distance_rows_of_drawn_arms_equal_axis_delta(sc):
    assert_rows_equal_axis_delta(sc)


def test_neighbor_table_matches_the_oracle():
    """Every lattice state's table entry is the oracle's moves, axis by axis,
    -1 before +1, with those off the lattice left out, in all 23 corpus
    scenarios, on a lattice with a one-index axis and on a 1 x 1 grid.
    ``cover._home_path`` breaks ties by this order."""
    scenarios = [sc for _, sc in corpus.corpus()] + [mixed_limit_arm(), grid(1)]
    for sc in scenarios:
        table = sc.neighbor_table
        assert list(table) == list(cspace.lattice_configs(sc))
        # one object per lattice state: the tables hold the state table's keys
        keys = {q: q for q in sc.state_table}
        assert all(nb is keys[nb] for q in table for nb in (q, *table[q]))
        assert all(q is keys[q] for q in sc.home_distance)
        for q, nbs in table.items():
            moves = [
                oracles.lattice_move(sc, q, axis, d) for axis in range(sc.dof) for d in (-1, +1)
            ]
            assert nbs == tuple(nb for nb in moves if nb is not None), (q, nbs)
            assert len(set(nbs)) == len(nbs), (q, nbs)
            assert sorted(nbs) == sorted(oracles.lattice_neighbors(sc, q)), (q, nbs)
            assert cspace.lattice_neighbors(sc, q) is nbs


def test_neighbors_off_the_lattice_are_not_stored(empty8):
    """Off the lattice there are no neighbours, as there is no valid state,
    and the table stays as built."""
    table = empty8.neighbor_table
    size = len(table)
    for q in [(-1, 3), (8, 0), (3, -2)]:
        assert cspace.lattice_neighbors(empty8, q) == ()
        assert cspace.successors(empty8, q) == []
        assert not cspace.is_valid(empty8, q)
        assert q not in table
    assert len(empty8.neighbor_table) == size == 64


def ee_points(sc):
    return {q: p for q, (_, p) in sc.state_table.items()}


def test_replace_gives_fresh_caches(unit_arm):
    """A replaced scenario computes its own tables."""
    cspace.region_configs(unit_arm, unit_arm.regions[0])
    cspace.lattice_neighbors(unit_arm, (0, 0))
    copy = dataclasses.replace(unit_arm, obstacles=(Circle((2.0, 0.0), 0.1),))
    assert copy.neighbor_table is not unit_arm.neighbor_table
    assert copy.state_table is not unit_arm.state_table
    assert copy.neighbor_table == unit_arm.neighbor_table
    assert ee_points(copy) == ee_points(unit_arm)
    assert not cspace.is_valid(copy, (0, 0)) and cspace.is_valid(unit_arm, (0, 0))


def test_concurrent_first_use_matches_a_serial_one(unit_arm):
    """Threads racing on a fresh scenario's first neighbour and region reads
    all get the serial answers, and the tables end up the serial ones."""
    region = unit_arm.regions[0]
    serial = (dict(unit_arm.neighbor_table), cspace.region_configs(unit_arm, region))
    shared = dataclasses.replace(unit_arm)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def read(k):
        barrier.wait()
        nbs = {q: cspace.lattice_neighbors(shared, q) for q in serial[0]}
        results[k] = (nbs, cspace.region_configs(shared, region))

    threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to interleave more
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    assert shared.neighbor_table == serial[0] and shared.state_table == unit_arm.state_table


def test_region_configs_reads_the_end_effector_table(unit_arm):
    """The oracle's region states, in its order, for one counted check per
    lattice state, and the states that ``region_reach`` splits. The cases
    include a free cell in a grid box, a blocked cell in it and the arm's
    end-effector box."""
    wide = RegionSpec("wide", (-1.0, 0.0, 2.0, 2.0))
    disc = dataclasses.replace(
        unit_arm, obstacles=(Circle((0.0, 1.2), 0.3),), regions=(*unit_arm.regions, wide)
    )
    box = RegionSpec("goal", (6.0, 6.0, 8.0, 8.0))
    blocked = grid(8, regions=(box,), obstacles=[cell_rect(6, 7)])
    # (scenario, region, states in the region, states not in it)
    cases = [
        (grid(8, regions=(box,)), box, [(6, 7)], [(0, 0)]),
        (blocked, box, [(6, 6)], [(6, 7)]),
        (unit_arm, unit_arm.regions[0], [(0, 0)], [(4, 0)]),  # end effector at (2, 0), (0, 2)
        (disc, disc.regions[0], [(0, 0)], [(4, 0)]),
        (disc, wide, [], []),  # last: its states are checked below
    ]
    for sc, region, inside, outside in cases:
        before = sc.counters.collision_checks
        states = cspace.region_configs(sc, region)
        assert sc.counters.collision_checks - before == len(sc.state_table)
        assert states == oracles.region_states(sc, region)
        assert set(states) == set().union(*sc.region_reach[region])
        assert set(inside) <= set(states) and not set(outside) & set(states)
    x0, y0, x1, y1 = wide.box
    in_box = [q for q, (x, y) in ee_points(disc).items() if x0 <= x <= x1 and y0 <= y <= y1]
    assert 0 < len(states) < len(in_box)  # the disc blocks part of the wide box


def test_navigation_value(empty8):
    assert cspace.navigation_value(empty8, (4, 4), (4, 4)) == 0.0
    assert cspace.navigation_value(empty8, (3, 4), (0, 0)) == 5.0


def test_navigation_value_wrapped():
    arm = Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0,), joints_per_rev=16),
        s_home=(0,),
        regions=(RegionSpec("r", (-2.0, -2.0, 2.0, 2.0)),),
    )
    assert cspace.navigation_value(arm, (15,), (0,)) == 1.0


def test_scenario_round_trip(tmp_path, two_region_grid12, unit_arm):
    for sc in (two_region_grid12, unit_arm):
        path = tmp_path / "scenario.json"
        cspace.save_scenario(sc, path)
        again = cspace.load_scenario(path)
        assert cspace.scenario_to_payload(again) == cspace.scenario_to_payload(sc)
        assert again.fingerprint == sc.fingerprint


def test_fingerprint_tracks_content(two_region_grid12):
    other = grid(
        12,
        home=(0, 6),
        obstacles=[cell_rect(5, 5)],
        regions=two_region_grid12.regions,
    )
    assert other.fingerprint != two_region_grid12.fingerprint


def _content_hash(sc):
    return hashlib.sha256(cspace.canonical_json(cspace.scenario_to_payload(sc)).encode()).hexdigest()


def test_fingerprint_is_the_content_hash_for_the_corpus():
    scenarios = corpus.corpus()
    assert len(scenarios) == 23
    for name, sc in scenarios:
        assert sc.fingerprint == _content_hash(sc), name


def test_replace_gets_a_new_fingerprint(two_region_grid12):
    edited = dataclasses.replace(two_region_grid12, obstacles=(cell_rect(5, 5),))
    assert edited.fingerprint != two_region_grid12.fingerprint
    assert edited.fingerprint == _content_hash(edited)


def test_bad_scenario_files(tmp_path, unit_arm):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(errors.ScenarioFormatError):
        cspace.load_scenario(path)
    path.write_text('{"format_version": 99}')
    with pytest.raises(errors.ScenarioFormatError):
        cspace.load_scenario(path)
    # not UTF-8, nested too deep to parse, and not an object
    for blob in [b'{"kind": "\xff"}', b"[" * 100_000 + b"]" * 100_000, b"[1, 2]"]:
        path.write_bytes(blob)
        with pytest.raises(errors.ScenarioFormatError, match="cannot read|not a JSON object"):
            cspace.load_scenario(path)
    good = cspace.scenario_to_payload(grid(8))
    assert cspace.scenario_from_payload(good) == grid(8)
    bad_fields = [
        ("grid", {"dims": [8.5, 8]}),
        ("grid", {"dims": [8, 8, 8]}),
        ("grid", {"dims": [0, 8]}),
        ("actions", "multi_dof"),
        ("cost_model", "euclid"),
        ("regions", [{"id": "r", "box": [0, 0, 1, 1]}, {"id": "r", "box": [2, 2, 3, 3]}]),
        ("regions", [{"id": "flat", "box": [1.0, 1.0, 1.0, 4.0]}]),
        ("regions", [{"id": "line", "box": [1.0, 2.0, 4.0, 2.0]}]),
        ("regions", [{"id": "flipped", "box": [4.0, 4.0, 1.0, 1.0]}]),
        ("s_home", [0, 0, 0]),
        ("s_home", [0]),
        ("s_home", [8, 0]),
        ("s_home", [0, -1]),
    ]
    # Refused, not converted: ints only for indices and counts, finite
    # numbers (no bool, string, NaN or infinity) for coordinates and sizes.
    nan, inf = float("nan"), float("inf")
    box = [6.0, 6.0, 8.0, 8.0]
    bad_fields += [
        ("s_home", [0.9, 4]),
        ("s_home", ["0", "4"]),
        ("s_home", [False, 4]),
        ("grid", {"dims": [True, 8]}),
        ("regions", [{"id": "r", "box": ["0", "0", "1", "1"]}]),
        ("regions", [{"id": "r", "box": [nan, 0.0, 1.0, 1.0]}]),
        ("regions", [{"id": "r", "box": [0.0, 0.0, 1.0, inf]}]),
        ("regions", [{"id": "r", "box": [0, 0, 1, True]}]),
        ("regions", [{"id": 5, "box": box}]),
    ]
    circle = {"shape": "circle", "center": [3.0, 3.0], "radius": 0.5}
    for bad in [
        {"radius": "0.5"},
        {"radius": True},
        {"radius": nan},
        {"radius": -0.5},
        {"center": ["3", "3"]},
        {"center": [3.0, 3.0, 3.0]},
    ]:
        bad_fields.append(("obstacles", [dict(circle, **bad)]))
    for bounds in [["0", "0", "1", "1"], [0.0, 0.0, 1.0], [0.0, 0.0, nan, 1.0]]:
        bad_fields.append(("obstacles", [{"shape": "rect", "bounds": bounds}]))
    payloads = [dict(good, **{key: value}) for key, value in bad_fields]
    arm = cspace.scenario_to_payload(unit_arm)
    payloads.append(dict(arm, s_home=[16, 0]))
    for bad in [
        {"joints_per_rev": 16.7},
        {"joints_per_rev": "16"},
        {"link_lengths": [nan, 1.0]},
        {"base": ["0", 0.0]},
        {"base": [0.0, 0.0, 0.0]},
        {"joint_limits": [[0.0, inf], None]},
        {"joint_limits": [[3.0, -3.0], None]},
    ]:
        payloads.append(dict(arm, arm=dict(arm["arm"], **bad)))
    for payload in payloads:
        path.write_text(json.dumps(payload))
        with pytest.raises(errors.ScenarioFormatError):
            cspace.load_scenario(path)


def test_scenario_is_frozen(empty8):
    for name, value in [("s_home", (1, 1)), ("grid_dims", (4, 4)), ("dims", (4, 4))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(empty8, name, value)
    assert empty8.dims == (8, 8) and empty8.wraps == (False, False)


def test_scenario_refuses_grid_dims_off_the_exact_int_rule():
    """Grid dims are two positive ints, with the exact type test of
    ``in_bounds``: ``(True, 8)`` once gave ``dims == (True, 8)``, which
    ``save_scenario`` wrote and ``load_scenario`` refused."""
    region = (RegionSpec("r", (1.0, 1.0, 2.0, 2.0)),)
    for dims in [(True, 8), (8, False), (8.0, 8), (0, 8), (8, -1), (8,), (8, 8, 8), None]:
        with pytest.raises(ValueError, match="grid_dims must be two positive ints"):
            Scenario(kind="grid", grid_dims=dims, s_home=(0, 0), regions=region)


def test_check_config(empty8):
    assert cspace.check_config(empty8, [3, 4]) == (3, 4)
    with pytest.raises(ValueError):
        cspace.check_config(empty8, (1, 2, 3))
    with pytest.raises(ValueError):
        cspace.check_config(empty8, (9, 0))
    # a coordinate must be an integer: no truncation, no parsing, no bools
    for q in [(9.7, 0), (3.0, 4), ("9", 0), ("3", "4"), (True, 0), (3, False), "34", 34]:
        with pytest.raises(ValueError):
            cspace.check_config(empty8, q)


def test_check_config_takes_any_iterable_of_integers(empty8):
    assert cspace.check_config(empty8, (c for c in (3, 4))) == (3, 4)
    assert cspace.check_config(empty8, range(2, 4)) == (2, 3)


def test_check_config_reads_numpy_integers_as_ints(empty8):
    np = pytest.importorskip("numpy")
    for q in [np.array([3, 4], dtype=np.int64), [np.int64(3), np.int64(4)]]:
        cfg = cspace.check_config(empty8, q)
        assert cfg == (3, 4) and [type(c) for c in cfg] == [int, int]


def test_check_config_refusal_messages(empty8):
    refusals = {
        (1, 2, 3): "configuration has 3 coordinates, scenario has 2 DOF",
        (): "configuration has 0 coordinates, scenario has 2 DOF",
        (9, 0): "configuration (9, 0) outside lattice dims (8, 8)",
        (0, 8): "configuration (0, 8) outside lattice dims (8, 8)",
        (-1, 0): "configuration (-1, 0) outside lattice dims (8, 8)",
        (9.7, 0): "configuration must be a sequence of integers, got (9.7, 0)",
        ("3", "4"): "configuration must be a sequence of integers, got ('3', '4')",
        (3, False): "configuration must be a sequence of integers, got (3, False)",
        (True, 0, 0): "configuration must be a sequence of integers, got (True, 0, 0)",
        "34": "configuration must be a sequence of integers, got '34'",
        34: "configuration must be a sequence of integers, got 34",
    }
    for q, message in refusals.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cspace.check_config(empty8, q)


def test_check_config_builds_no_table():
    for sc in (grid(8), arm3_s16()):
        fresh = dataclasses.replace(sc)
        cspace.check_config(fresh, fresh.s_home)
        assert "state_table" not in vars(fresh) and "neighbor_table" not in vars(fresh)


def test_arm_joint_limits_dims():
    arm = ArmModel(
        link_lengths=(1.0, 1.0),
        joints_per_rev=16,
        joint_limits=((0.0, math.pi), None),
    )
    assert arm.dims() == (8, 16)


@pytest.mark.parametrize("limit", [(1.0, 0.0), (1.0, 1.0)])
def test_arm_refuses_an_empty_joint_limit(limit):
    """A limit [lo, hi) with hi <= lo holds no angle, so it is refused, not
    given one index at lo, outside its own range."""
    with pytest.raises(ValueError, match="joint limit .* is empty"):
        ArmModel(link_lengths=(1.0, 1.0), joint_limits=(limit, None))
