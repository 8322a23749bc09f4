import collections
import dataclasses
import itertools
import json
import math
import random

import pytest

from conftest import (
    arm3_s16,
    cell_rect,
    grid,
    rank_set,
    v1_projection,
    v2_projection,
    v3_projection,
)
from coverplan import RegionSpec, corpus, cspace, errors
from coverplan import cover as pre
from coverplan import online as onl
from coverplan.search import path_is_valid
from oracles import bfs_distances, descent_basin, region_states, simulate_descent


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
    """The walk (2, 2) -> (0, 0) takes four moves, more than a bound of one:
    ``descend`` runs it out; only ``connect``'s pointer chase is bounded."""
    sc = grid3()
    assert len(pre.descend(sc, (2, 2), (0, 0)).configs) - 1 == 4


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


def oracle_walks(sc, rc, entry):
    """Each state on the ``simulate_descent`` walk of a covered goal of the
    region that reaches the entry's attractor, mapped to its own walk."""
    walks = {}
    for q in rc.covered:
        reached, _, visited = simulate_descent(sc, q, entry.attractor)
        if reached:
            for k, state in enumerate(visited):
                walks[state] = visited[k:]
    return walks


def test_home_paths_match_the_descent_oracle(corpus_libraries):
    """For all 23 corpus scenarios and arm3_s16, on built and on loaded
    libraries: each entry's members are its region's covered goals whose
    oracle walks reach its attractor, each member's ``connect`` is the rep
    path followed by the member's oracle walk reversed, cut at its first
    arrival, and max_descent_steps is the longest walk. The longest walk is
    also ``descend``'s. So every covered goal, which its goal-index entry
    holds, gets the oracle's home path."""
    built = [*corpus_libraries, ("arm3_s16", arm3_s16(), None)]
    for name, sc, lib in built:
        lib = lib or pre.preprocess(sc, seed=0)
        loaded = pre.library_from_payload(pre.library_to_payload(lib), sc)
        for rc, loaded_rc in zip(lib.regions, loaded.regions):
            for entry, loaded_entry in zip(rc.entries, loaded_rc.entries):
                walks = oracle_walks(sc, rc, entry)
                goals = walks.keys() & rc.covered
                assert entry.members == loaded_entry.members == goals, name
                rep = entry.rep_path.configs
                for q in goals:
                    walk = walks[q]
                    configs = rep + tuple(reversed(walk[:-1]))
                    expected = configs[: configs.index(q) + 1]
                    assert onl.connect(entry, q).configs == expected, (name, q)
                    assert onl.connect(loaded_entry, q).configs == expected, (name, q)
                longest = max(walks.values(), key=len)
                assert entry.max_descent_steps == len(longest) - 1, name
                assert loaded_entry.max_descent_steps == len(longest) - 1, name
                assert list(pre.descend(sc, longest[0], entry.attractor).configs) == longest
        for q in lib.goal_index:
            assert q in lib.goal_index[q].members and q in loaded.goal_index[q].members


def test_descent_soundness_within_bound():
    sc = grid(8, obstacles=[cell_rect(4, j) for j in range(6)])
    pointers, steps, _ = pre.construct_neighborhood(sc, (7, 7))
    for q in sorted(pointers):
        path = pre.descend(sc, q, (7, 7))
        assert len(path.configs) - 1 <= steps
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
    states = region_states(sc, region)
    assert set(states) == {(4, 3), (5, 4)}
    lib = pre.preprocess(sc)
    rc = lib.regions[0]
    assert rc.covered == set(states)
    assert rc.excluded == frozenset()
    covered_by_entries = set()
    for e in rc.entries:
        covered_by_entries |= e.members & set(states)
    assert covered_by_entries == set(states)


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


def test_cold_preprocess_tests_each_link_prefix_once(monkeypatch):
    """A cold build of the benchmark's 3-link arm builds the state table once
    and tests each (joint prefix, obstacle) pair at most once: at most
    sum_k prod(dims[:k+1]) * len(obstacles) segment tests, where a test per
    state and link would make up to 4,096 * 3 * 2."""
    sc = arm3_s16()
    tests, builds = collections.Counter(), []
    for name in ("segment_hits_circle", "segment_hits_rect"):

        def counted(a, b, o, original=getattr(cspace, name)):
            tests[a, b, o] += 1
            return original(a, b, o)

        monkeypatch.setattr(cspace, name, counted)
    arm_states = cspace._arm_states

    def counted_build(scenario):
        builds.append(scenario)
        return arm_states(scenario)

    monkeypatch.setattr(cspace, "_arm_states", counted_build)
    pre.preprocess(sc, seed=0)
    bound = sum(math.prod(sc.dims[: k + 1]) for k in range(sc.dof)) * len(sc.obstacles)
    assert len(builds) == 1 and builds[0] is sc
    assert max(tests.values()) == 1
    assert sum(tests.values()) <= bound == (16 + 256 + 4096) * 2


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
        for q in region_states(sc, region):
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


def goal_positions(lib):
    """Each goal's (region position, entry position) in the library, found
    by identity, since entries equal in value may sit at two positions."""
    where = {id(e): (i, j) for i, rc in enumerate(lib.regions) for j, e in enumerate(rc.entries)}
    return {q: where[id(e)] for q, e in lib.goal_index.items()}


def test_library_round_trip(tmp_path, two_region_grid12, corpus_libraries):
    """Save then load gives the built library back, descent pointers and
    goal index included (arms exercise pointers across a wrapping axis)."""
    built = [("grid12", two_region_grid12, pre.preprocess(two_region_grid12, seed=1))]
    for seed in (0, 1):
        sc = arm3_s16()
        built.append((f"arm3_s16-{seed}", sc, pre.preprocess(sc, seed=seed)))
    for name, sc, lib in built + corpus_libraries:
        path = tmp_path / f"{name}.json"
        pre.save_library(lib, path)
        again = pre.load_library(path, sc)
        assert again == lib, name
        assert goal_positions(again) == goal_positions(lib), name


def test_library_payload_stores_only_the_attractors(corpus_libraries):
    """A format-4 file holds the format version, the scenario fingerprint
    and, per region, its id and its attractors in entry order."""
    for name, _, lib in corpus_libraries:
        assert pre.library_to_payload(lib) == {
            "format_version": 4,
            "scenario_fingerprint": lib.fingerprint,
            "regions": [
                {"id": rc.region_id, "attractors": [list(e.attractor) for e in rc.entries]}
                for rc in lib.regions
            ],
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


def test_library_home_must_be_the_scenarios(two_region_grid12):
    """A format-4 file stores no home: the library's home is the
    scenario's. A home naming a goal state, as format 3 could store it, is
    not read; taken on trust, a query from that state would return a path
    from the real home."""
    lib = pre.preprocess(two_region_grid12, seed=1)
    payload = pre.library_to_payload(lib)
    assert "s_home" not in payload
    payload["s_home"] = list(min(lib.regions[0].covered))
    loaded = pre.library_from_payload(payload, two_region_grid12)
    assert loaded == lib and loaded.s_home == two_region_grid12.s_home


def test_library_truncated_file(tmp_path, two_region_grid12):
    lib = pre.preprocess(two_region_grid12, seed=1)
    path = tmp_path / "lib.json"
    pre.save_library(lib, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(errors.CorruptLibrary):
        pre.load_library(path, two_region_grid12)
    # not UTF-8, and nested too deep to parse
    latin1 = blob.replace("regions", "r\xe9gions").encode("latin-1")
    for raw in [latin1, b"[" * 100_000 + b"]" * 100_000]:
        path.write_bytes(raw)
        with pytest.raises(errors.CorruptLibrary, match="cannot read library file"):
            pre.load_library(path, two_region_grid12)


def test_library_version_error(tmp_path, two_region_grid12):
    """Unknown versions, and format-3, format-2 and format-1 files: there
    is no reader for a file that stores the fields format 4 derives. An
    older file's error names the command that rebuilds it."""
    lib = pre.preprocess(two_region_grid12, seed=1)
    payload = pre.library_to_payload(lib)
    v3 = v3_projection(payload, two_region_grid12)
    v2 = v2_projection(v3, two_region_grid12)
    path = tmp_path / "lib.json"
    cases = [(dict(payload, format_version=99), False), (v3, True), (v2, True)]
    for old, older in cases + [(v1_projection(v2), True)]:
        path.write_text(json.dumps(old))
        with pytest.raises(errors.LibraryVersionError) as info:
            pre.load_library(path, two_region_grid12)
        assert ("coverplan preprocess --scenario" in str(info.value)) == older


# grid12_d20 at seed 0: region "pick" has the one attractor (10, 2), six
# covered goals, the excluded (11, 0) and the colliding (10, 0) and (11, 1);
# region "place" has the attractors (9, 10) and (11, 10).
ATTRACTORS = [[[10, 2]], [[9, 10], [11, 10]]]


def _set(region, *attractors):
    """Set a region's attractor list."""
    return lambda payload: payload["regions"][region].update(attractors=list(attractors))


# Each case keeps the name of the format-3 corruption it replaced, where
# there was one. Format 4 stores one field per entry, its attractor, so
# every case now attacks a region's attractor list. Each attractor must be
# a list of plain ints naming a covered state of its region, and each
# covered goal must reach some attractor.
CORRUPTIONS = {
    # the old member list, read as one attractor: off the lattice
    "members [-5, 1000]": _set(0, [-5, 1000]),
    # an attractor repeated in place of the other, whose goals reach neither
    "members repeat a rank": _set(1, [9, 10], [9, 10]),
    "members step back": _set(0, [10, -1]),
    # rank 144, the first rank past a 12 x 12 lattice
    "covered rank past the lattice": _set(0, [12, 0]),
    "members rank past the lattice": _set(0, [10, 2 + 144]),
    # a state of a 3-axis lattice
    "dims differ from the scenario": _set(0, [10, 2, 0]),
    # home: valid, reached from home, outside the region
    "attractor not a member": _set(0, [0, 6]),
    "one move too few": _set(0, [10]),
    # one attractor too many: the goals are all reached, and the extra is
    # the excluded (11, 0), which home cannot reach
    "one move too many": _set(0, [10, 2], [11, 0]),
    "member without a move": lambda payload: payload["regions"][0].pop("attractors"),
    "move index out of range": _set(0, ["10", 2]),
    # one move from the covered (10, 1) onto the colliding (10, 0)
    "attractor with a move": _set(0, [10, 0]),
    # one move from the covered (11, 2) off the lattice
    "move leaves the lattice": _set(0, [12, 2]),
    # another region's attractor
    "move leaves the member set": _set(0, [9, 10]),
    # the covered (10, 1) written with a bool and with a float
    "written [10, true]": _set(0, [10, True]),
    "written [10.0, 1]": _set(0, [10.0, 1]),
    "not a list": _set(0, "10,2"),
    "attractors not a list": lambda payload: payload["regions"][0].update(attractors=10),
    # a repeat would build a second, identical entry that no goal is served by
    "attractor listed twice": _set(1, [9, 10], [11, 10], [9, 10]),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_library_corrupt_payload_rejected(tmp_path, corpus_libraries, case):
    """A bad attractor list is refused on load: CorruptLibrary."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    assert [rc["attractors"] for rc in payload["regions"]] == ATTRACTORS
    assert [rc.covered for rc in lib.regions] == [
        {(9, 0), (9, 1), (9, 2), (10, 1), (10, 2), (11, 2)},
        {(9, 9), (9, 10), (9, 11), (10, 9), (11, 9), (11, 10), (11, 11)},
    ]
    CORRUPTIONS[case](payload)
    path = tmp_path / "lib.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.CorruptLibrary):
        pre.load_library(path, sc)


@pytest.mark.parametrize("steps", [2.7, "3", True, -1, 0, None])
def test_library_max_descent_steps_must_be_a_move_count(corpus_libraries, steps):
    """A format-4 file stores no step bound: each entry's bound is the
    longest walk of its covered goals, an int move count. One written into
    the file, as format 3 stored it, is not read, whatever its value."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    payload = pre.library_to_payload(lib)
    payload["regions"][0]["max_descent_steps"] = steps
    loaded = pre.library_from_payload(payload, sc)
    assert loaded == lib
    for rc in loaded.regions:
        for entry in rc.entries:
            walks = [len(pre.descend(sc, q, entry.attractor).configs) - 1 for q in entry.members]
            assert type(entry.max_descent_steps) is int
            assert entry.max_descent_steps == max(walks) >= 1


def test_library_one_member_entry_may_have_no_moves(tmp_path):
    """An entry whose only covered goal is its attractor has no home path
    but the rep path, and step bound 0, and loads back the same."""
    sc = grid(8, regions=(RegionSpec("one", (5.0, 5.0, 6.0, 6.0)),))
    lib = pre.preprocess(sc)
    (entry,) = lib.regions[0].entries
    assert entry.home_paths == {(5, 5): entry.rep_path.configs}
    assert entry.max_descent_steps == 0
    path = tmp_path / "lib.json"
    pre.save_library(lib, path)
    assert pre.load_library(path, sc) == lib


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
    rc_p = payload["regions"][0]
    rep = [list(q) for q in lib.regions[0].entries[0].rep_path.configs]
    assert len(rep) > 3
    if case == "straight line through obstacles":
        line = straight_line(sc.s_home, tuple(rc_p["attractors"][0]))
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
    rc_p["rep_path"] = rep
    loaded = pre.library_from_payload(payload, sc)
    assert loaded == lib
    for rc in loaded.regions:
        for entry in rc.entries:
            path = entry.rep_path
            assert path.start == sc.s_home and path.goal == entry.attractor
            assert path_is_valid(sc, path)


def test_library_member_home_cannot_reach_rejected(corpus_libraries):
    """An attractor must be a state home reaches. Here region pick's
    attractor is the excluded (11, 0), a valid state that no path from home
    reaches, and then the colliding (8, 0) next to it: each is refused."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    assert sc.state_table[11, 0][0] and (11, 0) not in sc.home_distance
    assert not sc.state_table[8, 0][0]
    for attractor in ([11, 0], [8, 0]):
        payload = pre.library_to_payload(lib)
        payload["regions"][0]["attractors"] = [attractor]
        with pytest.raises(errors.CorruptLibrary, match="not a covered state"):
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
    """Every goal that home reaches in a region reaches one of the region's
    attractors: a file that drops an attractor, and with it the only walk
    target of some goal, is refused rather than loaded with that goal
    uncovered."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "grid12_d20")
    rc = lib.regions[1]
    only = [
        k
        for k, e in enumerate(rc.entries)
        if e.members & rc.covered - set().union(*(o.members for o in rc.entries if o is not e))
    ]
    payload = pre.library_to_payload(lib)
    del payload["regions"][1]["attractors"][only[0]]
    with pytest.raises(errors.CorruptLibrary, match="covered goal .* of region .* is in no entry"):
        pre.library_from_payload(payload, sc)


def wrapping_library(corpus_libraries):
    """A corpus arm: 32 x 32, both joints wrapping, with descent moves and
    covered goals next to the seam."""
    _, sc, lib = next(built for built in corpus_libraries if built[0] == "arm32_o2")
    assert sc.wraps == (True, True)
    return sc, lib


def crosses_seam(sc, q, target):
    return any(abs(a - b) == n - 1 for a, b, n in zip(q, target, sc.dims))


def test_library_codec_across_the_seam(corpus_libraries):
    """On a wrapping lattice some descent moves cross a seam, and the
    payload decodes to the built library. A member off the rep path ends
    its home path with its own descent move, reversed."""
    sc, lib = wrapping_library(corpus_libraries)
    entries = [e for rc in lib.regions for e in rc.entries]
    moves = [
        (path[-1], path[-2])
        for e in entries
        for path in e.home_paths.values()
        if len(path) > len(e.rep_path.configs)
    ]
    assert any(crosses_seam(sc, q, target) for q, target in moves)
    assert pre.library_from_payload(pre.library_to_payload(lib), sc) == lib


@pytest.mark.parametrize("case", ["seam move leaves the member set", "move index out of range"])
def test_library_corrupt_seam_payload_rejected(corpus_libraries, case):
    """Attractors are checked on a wrapping lattice too: CorruptLibrary for
    a covered goal's neighbour across the seam that is no covered state of
    the region, and for an index one past a wrapping axis, which is
    refused, not wrapped."""
    sc, lib = wrapping_library(corpus_libraries)
    payload = pre.library_to_payload(lib)
    covered = lib.regions[0].covered
    if case == "seam move leaves the member set":
        q, target = next(
            (q, t)
            for q in sorted(covered)
            for t in sc.neighbor_table[q]
            if crosses_seam(sc, q, t) and t not in covered
        )
        attractor = list(target)
    else:
        attractor = [payload["regions"][0]["attractors"][0][0], sc.dims[1]]
    payload["regions"][0]["attractors"] = [attractor]
    with pytest.raises(errors.CorruptLibrary, match="not a covered state"):
        pre.library_from_payload(payload, sc)


def test_warm_load_builds_no_lattice_table(tmp_path, monkeypatch, corpus_libraries):
    """A load reads the scenario's neighbour table, and the tables built
    from its state table (home distances, region states): once one load
    has built them, a second enumerates no lattice state and steps none."""
    sc, lib = wrapping_library(corpus_libraries)
    path = tmp_path / "lib.json"
    pre.save_library(lib, path)
    warm = dataclasses.replace(sc)
    pre.load_library(path, warm)
    calls = collections.Counter()
    for name in ("lattice_configs", "_arm_states"):
        original = getattr(cspace, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cspace, name, counted)
    assert pre.load_library(path, warm) == lib
    assert calls == {}
    pre.load_library(path, dataclasses.replace(sc))  # a cold load is counted
    # the arm's state table walks the joint prefixes, and the neighbour table is
    # built from its keys, so no lattice state is enumerated
    assert calls == {"_arm_states": 1}


def test_member_encoding_round_trip():
    """The format-3 member encoding that ``conftest.v3_projection`` writes
    for the frozen-output pins decodes back to the member set."""
    dims = (5, 7, 3)
    configs = {(0, 0, 0), (4, 6, 2), (2, 3, 1), (1, 0, 2)}
    table = list(itertools.product(*(range(n) for n in dims)))  # rank r is table[r]
    ranks = list(itertools.accumulate(rank_set(configs, dims)))
    assert ranks == sorted(ranks) and {table[r] for r in ranks} == configs
