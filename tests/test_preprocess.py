import collections
import dataclasses
import itertools
import json
import math
import random

import pytest

from conftest import arm3_s16, cell_rect, grid, v1_projection, v2_projection
from coverplan import RegionSpec, corpus, cspace, errors
from coverplan import cover as pre
from coverplan.search import path_is_valid
from oracles import bfs_distances, descent_basin, lattice_move, simulate_descent


def grid3(obstacles=()):
    return grid(3, obstacles=obstacles, regions=(RegionSpec("r", (0.0, 0.0, 3.0, 3.0)),))


# ---------------------------------------------------------------------------
# descent / neighborhoods


def test_neighborhood_empty_3x3_covers_all():
    sc = grid3()
    pointers, steps, frontier = pre.construct_neighborhood(sc, (0, 0))
    members, oracle_max = descent_basin(sc, (0, 0))
    assert len(members) == 9
    assert pointers.keys() == frozenset(members)
    assert steps == oracle_max
    assert steps <= 4
    assert frontier == frozenset()


def test_neighborhood_excludes_stalled_cell():
    # (2,0)'s only valid successor (2,1) has navigation value sqrt(5) > 2
    sc = grid3(obstacles=[cell_rect(1, 0)])
    pointers, steps, frontier = pre.construct_neighborhood(sc, (0, 0))
    members, _ = descent_basin(sc, (0, 0))
    assert (2, 0) not in pointers
    assert pointers.keys() == frozenset(members)
    assert (2, 0) in frontier


def test_neighborhood_enclosed_attractor():
    sc = grid(5, home=(4, 4), obstacles=[cell_rect(0, 1), cell_rect(1, 0), cell_rect(1, 1)])
    pointers, steps, frontier = pre.construct_neighborhood(sc, (0, 0))
    assert pointers.keys() == frozenset({(0, 0)})
    assert steps == 0
    assert frontier == frozenset()


@pytest.mark.parametrize("seed", range(4))
def test_neighborhood_matches_per_cell_oracle(seed):
    rng = random.Random(seed)
    cells = [(i, j) for i in range(6) for j in range(6) if rng.random() < 0.25]
    sc = grid(6, home=(5, 5), obstacles=[cell_rect(i, j) for i, j in cells if (i, j) != (5, 5)])
    attractor = (0, 0) if cspace.is_valid(sc, (0, 0)) else (5, 5)
    pointers, steps, _ = pre.construct_neighborhood(sc, attractor)
    members, oracle_max = descent_basin(sc, attractor)
    assert pointers.keys() == frozenset(members)
    assert steps == oracle_max


def test_descend_trivial_and_monotone():
    sc = grid3()
    p = pre.descend(sc, (0, 0), (0, 0))
    assert p.configs == ((0, 0),) and p.cost == 0.0
    p = pre.descend(sc, (2, 0), (0, 0))
    assert p.configs == ((2, 0), (1, 0), (0, 0))


def test_descend_stalls_where_oracle_stalls():
    sc = grid3(obstacles=[cell_rect(1, 0)])
    reached, _, _ = simulate_descent(sc, (2, 0), (0, 0))
    assert not reached
    with pytest.raises(errors.DescentStalled):
        pre.descend(sc, (2, 0), (0, 0))


def test_descend_bound_exceeded():
    sc = grid3()
    with pytest.raises(errors.BoundExceeded):
        pre.descend(sc, (2, 2), (0, 0), step_bound=1)


def test_descent_needs_a_lattice_attractor():
    sc = grid3()
    for attractor in [(-1, 0), (0, 3), (0,)]:
        with pytest.raises(ValueError, match="not a lattice state"):
            pre.descend(sc, (0, 0), attractor)
        with pytest.raises(ValueError, match="not a lattice state"):
            pre.greedy_step(sc, (0, 0), attractor)


@pytest.fixture(scope="module")
def corpus_libraries():
    return [(name, sc, pre.preprocess(sc, seed=0)) for name, sc in corpus.corpus()]


def test_descent_pointers_replay_the_walk(corpus_libraries):
    """For all 23 corpus scenarios, every member's pointer chase is the
    offline walk. Each pointer equals the validity-mode ``greedy_step`` and
    the literal oracle's first move, and every chase reaches the attractor
    within max_descent_steps, so by induction each chase equals both the
    ``descend`` walk and ``simulate_descent``; the longest chase of each
    entry is also checked against both walks in full."""
    for name, sc, lib in corpus_libraries:
        for rc in lib.regions:
            for entry in rc.entries:
                attractor, pointers = entry.attractor, entry.next_member
                assert pointers[attractor] == attractor, name
                chases = {}
                for q in entry.members - {attractor}:
                    nxt = pointers[q]
                    assert nxt in entry.members, (name, q)
                    assert pre.greedy_step(sc, q, attractor) == nxt, (name, q)
                    _, _, visited = simulate_descent(sc, q, attractor, max_steps=1)
                    assert visited == [q, nxt], (name, q)
                    chase = [q]
                    while chase[-1] != attractor and len(chase) <= entry.max_descent_steps:
                        chase.append(pointers[chase[-1]])
                    assert chase[-1] == attractor, (name, q)
                    chases[q] = chase
                longest = max(chases.values(), key=len, default=[attractor])
                assert len(longest) - 1 == entry.max_descent_steps, name
                q = longest[0]
                assert list(pre.descend(sc, q, attractor).configs) == longest, name
                reached, steps, visited = simulate_descent(sc, q, attractor)
                assert reached and visited == longest, name


def test_descent_soundness_within_bound():
    sc = grid(8, obstacles=[cell_rect(4, j) for j in range(6)])
    pointers, steps, _ = pre.construct_neighborhood(sc, (7, 7))
    for q in sorted(pointers):
        path = pre.descend(sc, q, (7, 7), step_bound=steps)
        assert all(cspace.is_valid(sc, c) for c in path.configs)


# ---------------------------------------------------------------------------
# sampling


def test_sampler_prefers_frontier():
    rng = random.Random(0)
    states = [(0, 0), (1, 1), (2, 2)]
    pick = pre.sample_valid_uncovered(states, {(0, 0)}, frozenset({(1, 1), (9, 9)}), rng)
    assert pick == (1, 1)


def test_sampler_deterministic_fallback():
    states = [(0, 0), (1, 1), (2, 2)]
    picks = {
        pre.sample_valid_uncovered(states, {(0, 0)}, frozenset(), random.Random(7))
        for _ in range(5)
    }
    assert len(picks) == 1
    assert picks.pop() in {(1, 1), (2, 2)}


def test_sampler_exhausted():
    states = [(0, 0)]
    assert pre.sample_valid_uncovered(states, {(0, 0)}, frozenset(), random.Random(0)) is None


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_single_cell_region():
    sc = grid(8, regions=(RegionSpec("one", (5.0, 5.0, 6.0, 6.0)),))
    lib = pre.preprocess(sc)
    rc = lib.regions[0]
    assert len(rc.entries) == 1
    assert (5, 5) in rc.entries[0].members
    assert rc.covered == frozenset({(5, 5)})
    assert rc.excluded == frozenset()


def test_preprocess_split_region_covers_both_components():
    # Wall splits the 2x2 region into two parts, both reachable from home
    # around the wall's ends.
    region = RegionSpec("r", (4.0, 3.0, 6.0, 5.0))
    sc = grid(
        8,
        regions=(region,),
        obstacles=[cell_rect(4, 4), cell_rect(5, 3)],  # block region diagonal
    )
    region_states = [q for q in cspace.lattice_configs(sc) if cspace.in_region(sc, region, q)]
    assert set(region_states) == {(4, 3), (5, 4)}
    lib = pre.preprocess(sc)
    rc = lib.regions[0]
    assert rc.covered == set(region_states)
    assert rc.excluded == frozenset()
    covered_by_entries = set()
    for e in rc.entries:
        covered_by_entries |= e.members & set(region_states)
    assert covered_by_entries == set(region_states)


def test_preprocess_unreachable_region_excluded():
    # Region sealed off from home by a full wall.
    obstacles = [cell_rect(5, j) for j in range(8)]
    region = RegionSpec("locked", (6.0, 6.0, 8.0, 8.0))
    sc = grid(8, regions=(region,), obstacles=obstacles)
    lib = pre.preprocess(sc)
    rc = lib.regions[0]
    assert rc.entries == ()
    assert rc.covered == frozenset()
    assert len(rc.excluded) == 4  # cells (6..7, 6..7)


def test_preprocess_home_invalid():
    sc = grid(8, obstacles=[cell_rect(0, 0)])
    with pytest.raises(errors.HomeInvalid):
        pre.preprocess(sc)


def test_cold_preprocess_runs_kinematics_once_per_state(monkeypatch):
    """A cold build of the benchmark's 3-link arm runs forward kinematics once
    per lattice state: validity and the end-effector point share one pass."""
    sc = arm3_s16()
    calls = []
    fk = cspace.forward_kinematics

    def counted(arm, q):
        calls.append(q)
        return fk(arm, q)

    monkeypatch.setattr(cspace, "forward_kinematics", counted)
    pre.preprocess(sc, seed=0)
    assert len(calls) == len(set(calls)) == math.prod(sc.dims) == 4096


def test_cover_completeness_against_bfs(two_region_grid12):
    sc = grid(
        12,
        home=(0, 6),
        regions=two_region_grid12.regions,
        obstacles=[cell_rect(6, j) for j in range(1, 11)] + [cell_rect(9, 2)],
    )
    lib = pre.preprocess(sc, seed=5)
    reach = set(bfs_distances(sc, sc.s_home))
    for region, rc in zip(sc.regions, lib.regions):
        for q in cspace.lattice_configs(sc):
            if not cspace.in_region(sc, region, q):
                continue
            if q in reach:
                assert q in rc.covered, q
            else:
                assert q in rc.excluded, q


def test_rep_paths_start_home_end_attractor(two_region_grid12):
    lib = pre.preprocess(two_region_grid12, seed=2)
    for rc in lib.regions:
        for e in rc.entries:
            rep = e.rep_path
            assert rep.configs[0] == two_region_grid12.s_home
            assert rep.configs[-1] == e.attractor
            assert path_is_valid(two_region_grid12, rep)


def test_preprocess_deterministic(two_region_grid12):
    a = pre.preprocess(two_region_grid12, seed=9)
    b = pre.preprocess(two_region_grid12, seed=9)
    assert pre.library_to_payload(a) == pre.library_to_payload(b)


# ---------------------------------------------------------------------------
# the home-distance table, and the cover read off it


@pytest.fixture(scope="module")
def home_table_libraries():
    """(name, scenario, seed-0 library, expansions its preprocess made) for
    the corpus and the benchmark's 3-link arm."""
    runs = []
    for name, sc in corpus.corpus() + [("arm3_s16", arm3_s16())]:
        before = sc.counters.expansions
        library = pre.preprocess(sc, seed=0)
        runs.append((name, sc, library, sc.counters.expansions - before))
    return runs


def test_home_distance_is_the_bfs_distance(home_table_libraries):
    for name, sc, _, _ in home_table_libraries:
        oracle = bfs_distances(sc, sc.s_home)
        assert sc.home_distance == {q: int(d) for q, d in oracle.items()}, name


def test_home_distance_counts_no_check_and_is_empty_for_a_colliding_home():
    sc = grid(8, obstacles=[cell_rect(3, j) for j in range(8)])
    assert len(sc.home_distance) == 3 * 8 and sc.counters.snapshot() == (0, 0, 0)
    assert grid(8, obstacles=[cell_rect(0, 0)]).home_distance == {}


def test_rep_paths_are_shortest_walks_from_home(home_table_libraries):
    for name, sc, library, _ in home_table_libraries:
        for rc in library.regions:
            for e in rc.entries:
                rep = e.rep_path
                assert rep.start == sc.s_home and rep.goal == e.attractor, name
                assert path_is_valid(sc, rep), (name, e.attractor)
                assert len(rep.configs) - 1 == sc.home_distance[e.attractor], (name, e.attractor)


def test_cover_splits_each_region_by_the_home_table(home_table_libraries):
    for name, sc, library, _ in home_table_libraries:
        for region, rc in zip(sc.regions, library.regions):
            states = set(cspace.region_configs(sc, region))
            assert rc.covered == {q for q in states if q in sc.home_distance}, name
            assert rc.excluded == states - rc.covered, name


def test_preprocess_runs_no_search(home_table_libraries):
    assert [(name, n) for name, _, _, n in home_table_libraries if n] == []


# ---------------------------------------------------------------------------
# persistence


def test_library_round_trip(tmp_path, two_region_grid12, corpus_libraries):
    """Save then load gives the built library back, descent pointers and
    goal index included (arms exercise moves across a wrapping axis)."""
    built = [("grid12", two_region_grid12, pre.preprocess(two_region_grid12, seed=1))]
    for name, sc, lib in built + corpus_libraries:
        path = tmp_path / f"{name}.json"
        pre.save_library(lib, path)
        again = pre.load_library(path, sc)
        assert again == lib, name
        assert {q: (h.region_id, h.entry_index) for q, h in again.goal_index.items()} == {
            q: (h.region_id, h.entry_index) for q, h in lib.goal_index.items()
        }, name


def test_library_bit_stable(tmp_path, two_region_grid12):
    lib = pre.preprocess(two_region_grid12, seed=1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    pre.save_library(lib, p1)
    pre.save_library(pre.load_library(p1, two_region_grid12), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_library_fingerprint_mismatch(tmp_path, two_region_grid12):
    lib = pre.preprocess(two_region_grid12, seed=1)
    path = tmp_path / "lib.json"
    pre.save_library(lib, path)
    edited = grid(
        12,
        home=(0, 6),
        regions=two_region_grid12.regions,
        obstacles=[cell_rect(3, 3)],
    )
    with pytest.raises(errors.FingerprintMismatch):
        pre.load_library(path, edited)


def test_library_home_must_be_the_scenarios(tmp_path, two_region_grid12):
    """A home naming a goal state is rejected on load: taken on trust, a
    query from that state would return a path from the real home."""
    lib = pre.preprocess(two_region_grid12, seed=1)
    payload = pre.library_to_payload(lib)
    payload["s_home"] = list(min(lib.regions[0].covered))
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.CorruptLibrary, match="home"):
        pre.load_library(path, two_region_grid12)


def test_library_truncated_file(tmp_path, two_region_grid12):
    lib = pre.preprocess(two_region_grid12, seed=1)
    path = tmp_path / "lib.json"
    pre.save_library(lib, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(errors.CorruptLibrary):
        pre.load_library(path, two_region_grid12)


def test_library_version_error(tmp_path, two_region_grid12):
    """Unknown versions, and format-2 and format-1 files: there is no reader
    for a file that stores the fields format 3 derives."""
    lib = pre.preprocess(two_region_grid12, seed=1)
    payload = pre.library_to_payload(lib)
    v2 = v2_projection(payload, two_region_grid12)
    path = tmp_path / "lib.json"
    for old in (dict(payload, format_version=99), v2, v1_projection(v2)):
        path.write_text(json.dumps(old))
        with pytest.raises(errors.LibraryVersionError):
            pre.load_library(path, two_region_grid12)


def lattice_step(q, move, n):
    """The state one ``move`` (axis * 2 + (1 if +1 else 0)) from q on an
    n x n grid, or None off the lattice."""
    axis, up = divmod(move, 2)
    c = q[axis] + (1 if up else -1)
    return q[:axis] + (c,) + q[axis + 1 :] if 0 <= c < n else None


def set_move(entry_payload, i, move):
    """Replace the i-th character of an entry's descent moves."""
    moves = entry_payload["moves"]
    entry_payload["moves"] = moves[:i] + move + moves[i + 1 :]


CORRUPTIONS = (
    "members [-5, 1000]",
    "members repeat a rank",
    "members step back",
    "covered rank past the lattice",
    "members rank past the lattice",
    "dims differ from the scenario",
    "attractor not a member",
    "one move too few",
    "one move too many",
    "member without a move",
    "move index out of range",
    "attractor with a move",
    "move leaves the lattice",
    "move leaves the member set",
)


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_library_corrupt_payload_rejected(tmp_path, corpus_libraries, case):
    """Member rank sets and descent moves are checked on load: CorruptLibrary."""
    # 12 x 12, with basins smaller than the lattice
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    entry = lib.regions[0].entries[0]
    e_p = payload["regions"][0]["entries"][0]
    order = sorted(entry.members)  # the order of e_p["moves"]
    movers = [(i, q) for i, q in enumerate(order) if q != entry.attractor]
    assert movers
    if case == "members [-5, 1000]":
        e_p["members"] = [-5, 1000]
    elif case == "members repeat a rank":
        e_p["members"][1] = 0
    elif case == "members step back":
        e_p["members"][1] = -1
    elif case == "covered rank past the lattice":
        # the entry's last member is rank 144, the first past a 12 x 12 lattice
        e_p["members"][-1] += 144 - sum(e_p["members"])
    elif case == "members rank past the lattice":
        e_p["members"][-1] += 144
    elif case == "dims differ from the scenario":
        payload["dims"] = [12, 13]
    elif case == "attractor not a member":
        e_p["attractor"] = list(next(q for q in cspace.lattice_configs(sc) if q not in entry.members))
    elif case == "one move too few":
        e_p["moves"] = e_p["moves"][:-1]
    elif case == "one move too many":
        e_p["moves"] += "0"
    elif case == "member without a move":
        set_move(e_p, movers[0][0], pre.NO_MOVE)
    elif case == "move index out of range":
        set_move(e_p, movers[0][0], "4")  # a 2-DOF lattice has moves 0..3
    elif case == "attractor with a move":
        set_move(e_p, order.index(entry.attractor), "0")
    elif case == "move leaves the lattice":
        i, m = next((i, m) for i, q in movers for m in range(4) if lattice_step(q, m, 12) is None)
        set_move(e_p, i, str(m))
    else:
        i, m = next(
            (i, m)
            for i, q in movers
            for m in range(4)
            if lattice_step(q, m, 12) not in entry.members | {None}
        )
        set_move(e_p, i, str(m))
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.CorruptLibrary):
        pre.load_library(path, sc)


@pytest.mark.parametrize("steps", [2.7, "3", True, -1, 0, None])
def test_library_max_descent_steps_must_be_a_move_count(corpus_libraries, steps):
    """An entry with members besides its attractor needs an int bound of at
    least 1: a float, a string, a bool, a negative or zero is refused on
    load, not truncated or coerced."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    e_p = payload["regions"][0]["entries"][0]
    assert len(lib.regions[0].entries[0].members) > 1
    assert pre.library_from_payload(payload, sc) == lib
    e_p["max_descent_steps"] = steps
    with pytest.raises(errors.CorruptLibrary, match="max_descent_steps"):
        pre.library_from_payload(payload, sc)


def test_library_one_member_entry_may_have_no_moves(corpus_libraries):
    """An entry whose only member is its attractor loads with bound 0."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    i, j = payload["regions"][0]["entries"][0]["attractor"]
    e_p = dict(attractor=[i, j], members=[i * 12 + j], moves=pre.NO_MOVE, max_descent_steps=0)
    payload["regions"][0]["entries"].append(e_p)
    entry = pre.library_from_payload(payload, sc).regions[0].entries[-1]
    assert entry.members == {(i, j)} and entry.max_descent_steps == 0
    e_p["max_descent_steps"] = -1
    with pytest.raises(errors.CorruptLibrary, match="max_descent_steps"):
        pre.library_from_payload(payload, sc)
    # moves as a JSON object whose one key is the attractor's move: the
    # decoder's string methods fail on it, and that is a corrupt file too
    e_p.update(moves={pre.NO_MOVE: 0}, max_descent_steps=0)
    with pytest.raises(errors.CorruptLibrary, match="malformed"):
        pre.library_from_payload(payload, sc)


def straight_line(a, b):
    """The lattice walk a -> b that moves axis 0 first, blind to obstacles."""
    walk = [a]
    for axis in range(len(a)):
        while walk[-1][axis] != b[axis]:
            q = list(walk[-1])
            q[axis] += 1 if b[axis] > q[axis] else -1
            walk.append(tuple(q))
    return walk


REP_PATH_CORRUPTIONS = (
    "straight line through obstacles",
    "empty",
    "a state off the lattice",
    "a state that is no integer",
    "a jump",
    "starts away from home",
    "ends away from the attractor",
)


@pytest.mark.parametrize("case", REP_PATH_CORRUPTIONS)
def test_library_rep_path_must_be_a_valid_walk(corpus_libraries, case):
    """A payload cannot give an entry its rep path: the loader reads each
    one off the scenario's home table, and a ``rep_path`` in the file, here
    one that is no valid walk from home to the attractor, is not read. A
    refined query would otherwise splice a colliding rep path into its
    answer and could flag it optimal."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    e_p = payload["regions"][0]["entries"][0]
    assert "rep_path" not in e_p
    rep = [list(q) for q in lib.regions[0].entries[0].rep_path.configs]
    assert len(rep) > 3
    if case == "straight line through obstacles":
        line = straight_line(sc.s_home, tuple(e_p["attractor"]))
        assert not all(sc.state_table[q][0] for q in line)
        rep = [list(q) for q in line]
    elif case == "empty":
        rep = []
    elif case == "a state off the lattice":
        rep[2] = [-1, rep[2][1]]
    elif case == "a state that is no integer":
        rep[2] = [rep[2][0] + 0.5, rep[2][1]]
    elif case == "a jump":
        del rep[2]
    elif case == "starts away from home":
        del rep[0]
    else:
        del rep[-1]
    e_p["rep_path"] = rep
    loaded = pre.library_from_payload(payload, sc)
    assert loaded == lib
    for rc in loaded.regions:
        for entry in rc.entries:
            path = entry.rep_path
            assert path.start == sc.s_home and path.goal == entry.attractor
            assert path_is_valid(sc, path)


def test_library_member_home_cannot_reach_rejected(corpus_libraries):
    """A member must be a state home reaches. Here a member's pointer is
    sent through the colliding (8, 0), added with a pointer to (8, 1), and
    the step bound allows the detour: taken on trust, a query to (9, 0)
    would return a path through the obstacle."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    entry = lib.regions[0].entries[0]
    assert (9, 0) in entry.members and (8, 1) in entry.members
    assert not sc.state_table[8, 0][0]
    pointers = dict(entry.next_member)
    pointers[9, 0], pointers[8, 0] = (8, 0), (8, 1)
    tampered = dataclasses.replace(
        entry, next_member=pointers, max_descent_steps=entry.max_descent_steps + 2
    )
    payload = pre.library_to_payload(lib)
    payload["regions"][0]["entries"][0] = pre._encode_entry(
        tampered, sc.dims, pre._move_of_step(sc.dims)
    )
    with pytest.raises(errors.CorruptLibrary, match="home cannot reach"):
        pre.library_from_payload(payload, sc)


@pytest.mark.parametrize("case", ["one region too few", "one region too many", "regions swapped"])
def test_library_regions_must_be_the_scenarios(corpus_libraries, case):
    """Payload regions pair with the scenario's by position: their count
    and ids must match, or the load fails."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    regions = payload["regions"]
    if case == "one region too few":
        del regions[-1]
    elif case == "one region too many":
        regions.append(dict(regions[0]))
    else:
        regions.reverse()
    with pytest.raises(errors.CorruptLibrary, match="region"):
        pre.library_from_payload(payload, sc)


def test_library_covered_goal_in_no_entry_rejected(corpus_libraries):
    """Every goal that home reaches in a region lies in one of the region's
    entries: a file that drops an entry, and with it the only basin that
    holds some goal, is refused rather than loaded with that goal uncovered."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    rc = lib.regions[0]
    only = [
        k
        for k, e in enumerate(rc.entries)
        if e.members & rc.covered - set().union(*(o.members for o in rc.entries if o is not e))
    ]
    payload = pre.library_to_payload(lib)
    del payload["regions"][0]["entries"][only[0]]
    with pytest.raises(errors.CorruptLibrary, match="covered goal of region .* is in no entry"):
        pre.library_from_payload(payload, sc)


def wrapping_library(corpus_libraries):
    """A corpus arm: 32 x 32, both joints wrapping, and the one corpus
    library with a seam move out of its basin."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "arm32_o2")
    assert sc.wraps == (True, True)
    return sc, lib


def crosses_seam(sc, q, target):
    return any(abs(a - b) == n - 1 for a, b, n in zip(q, target, sc.dims))


def test_library_codec_across_the_seam(corpus_libraries):
    """On a wrapping lattice some descent moves cross a seam, and the
    payload decodes to the built library."""
    sc, lib = wrapping_library(corpus_libraries)
    entries = [e for rc in lib.regions for e in rc.entries]
    pointers = [p for e in entries for p in e.next_member.items()]
    assert any(crosses_seam(sc, q, target) for q, target in pointers)
    assert pre.library_from_payload(pre.library_to_payload(lib), sc) == lib


def seam_exits(sc, lib):
    """(region, entry, move index, move) of each seam move that leaves its basin."""
    for r, rc in enumerate(lib.regions):
        for k, entry in enumerate(rc.entries):
            for i, q in enumerate(sorted(entry.members)):  # the order of the moves
                for m in range(2 * sc.dof):
                    target = lattice_move(sc, q, m // 2, 1 if m % 2 else -1)
                    exits = crosses_seam(sc, q, target) and target not in entry.members
                    if exits and q != entry.attractor:
                        yield r, k, i, m


@pytest.mark.parametrize("case", ["seam move leaves the member set", "move index out of range"])
def test_library_corrupt_seam_payload_rejected(corpus_libraries, case):
    """Descent moves are checked on a wrapping lattice too: CorruptLibrary."""
    sc, lib = wrapping_library(corpus_libraries)
    payload = pre.library_to_payload(lib)
    if case == "seam move leaves the member set":
        r, k, i, m = next(seam_exits(sc, lib))
        set_move(payload["regions"][r]["entries"][k], i, pre.MOVE_DIGITS[m])
        match = "member set"
    else:
        entry, e_p = lib.regions[0].entries[0], payload["regions"][0]["entries"][0]
        i = next(i for i, q in enumerate(sorted(entry.members)) if q != entry.attractor)
        set_move(e_p, i, str(2 * sc.dof))  # a 2-DOF lattice has moves 0..3
        match = "no move of this lattice"
    with pytest.raises(errors.CorruptLibrary, match=match):
        pre.library_from_payload(payload, sc)


def test_warm_load_builds_no_lattice_table(tmp_path, monkeypatch, corpus_libraries):
    """A load reads the scenario's move table, and the tables built from its
    state table (home distances, reachable ranks, region states): once one
    load has built them, a second enumerates no lattice state and steps none."""
    sc, lib = wrapping_library(corpus_libraries)
    path = tmp_path / "lib.json"
    pre.save_library(lib, path)
    warm = dataclasses.replace(sc)
    pre.load_library(path, warm)
    calls = collections.Counter()
    for name in ("lattice_configs", "_move_column"):
        original = getattr(cspace, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cspace, name, counted)
    assert pre.load_library(path, warm) == lib
    assert calls == {}
    pre.load_library(path, dataclasses.replace(sc))  # a cold load is counted
    # one enumeration builds the move table, one the state table
    assert calls == {"lattice_configs": 2, "_move_column": 2 * sc.dof}


def test_member_encoding_round_trip():
    dims = (5, 7, 3)
    configs = {(0, 0, 0), (4, 6, 2), (2, 3, 1), (1, 0, 2)}
    table = list(itertools.product(*(range(n) for n in dims)))  # rank r is table[r]
    deltas = pre._deltas(pre._ranks(sorted(configs), dims))
    ranks = pre._decode_ranks(deltas, len(table))
    assert {table[r] for r in ranks} == configs
