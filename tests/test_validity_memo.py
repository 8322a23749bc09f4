"""The validity table behind ``cspace.is_valid``.

``is_valid`` answers with one lookup in ``Scenario.state_table``, built
whole on first use; ``collision_free`` always runs the geometry. These tests
check that the two agree everywhere, that every call counts one logical
check, that input off the lattice is invalid, that a new scenario never sees
an old answer or count, and that concurrent first sweeps agree with a serial
one.
"""

import dataclasses
import math
import sys
import threading

import pytest

from conftest import cell_rect, grid
from coverplan import corpus, cspace

CORPUS = corpus.corpus()
BY_NAME = dict(CORPUS)


def fresh(scenario):
    """Same scenario, no table built yet."""
    out = dataclasses.replace(scenario)
    assert out == scenario and "state_table" not in vars(out)
    return out


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_is_valid_equals_collision_free_cold_and_warm(name):
    sc = fresh(BY_NAME[name])
    configs = list(cspace.lattice_configs(sc))
    truth = [cspace.collision_free(sc, q) for q in configs]
    assert "state_table" not in vars(sc)
    assert [cspace.is_valid(sc, q) for q in configs] == truth
    assert [cspace.is_valid(sc, q) for q in configs] == truth
    assert len(sc.state_table) == math.prod(sc.dims)


def test_every_call_counts_one_check():
    sc = grid(8, obstacles=[cell_rect(3, 3)])
    for q in [(3, 3), (3, 3), (0, 0), (0, 0), (-1, 0), (8, 0), (0,), (0, 0, 0), (0.5, 0)]:
        before = sc.counters.collision_checks
        cspace.is_valid(sc, q)
        assert sc.counters.collision_checks == before + 1, q


def test_out_of_lattice_configs_are_invalid_and_not_stored(unit_arm):
    sc = grid(8)
    outside = [(-1, 0), (0, -1), (8, 0), (0, 8), (0,), (0, 0, 0), (), (0.5, 0), (0, 2.5)]
    for q in outside:
        assert not cspace.is_valid(sc, q)
    assert all(cspace.is_valid(sc, q) for q in cspace.lattice_configs(sc))
    assert len(sc.state_table) == math.prod(sc.dims) == 64
    assert not any(q in sc.state_table for q in outside)
    # Arm joints wrap in lattice moves, but an index off the lattice is
    # still invalid, not reduced modulo joints_per_rev.
    assert not cspace.is_valid(unit_arm, (16, 0))
    assert not cspace.is_valid(unit_arm, (0, -1))


def test_replace_starts_a_fresh_memo():
    open8 = grid(8)
    assert all(cspace.is_valid(open8, q) for q in cspace.lattice_configs(open8))
    blocked = dataclasses.replace(open8, obstacles=(cell_rect(3, 3),))
    assert not cspace.is_valid(blocked, (3, 3))
    assert cspace.is_valid(open8, (3, 3))
    assert blocked.state_table is not open8.state_table


def test_replace_gives_fresh_counters():
    """Checks on a replaced scenario are counted on it alone."""
    original = BY_NAME["grid24_d20"]
    copy = dataclasses.replace(original, obstacles=())
    assert copy.counters is not original.counters
    before = original.counters.snapshot()
    assert cspace.is_valid(copy, (0, 0))
    assert original.counters.snapshot() == before
    assert copy.counters.collision_checks == 1


@pytest.mark.parametrize("name", ["grid24_d30", "arm32_o2"])
def test_concurrent_sweeps_match_a_serial_sweep(name):
    serial_sc = fresh(BY_NAME[name])
    configs = list(cspace.lattice_configs(serial_sc))
    serial = [cspace.is_valid(serial_sc, q) for q in configs]

    shared = fresh(BY_NAME[name])
    barrier = threading.Barrier(4)
    results = [None] * 4

    def sweep(k):
        # Two threads sweep forwards and two backwards: each pair races on
        # the same first checks, and the two pairs cross in the middle.
        order = configs if k % 2 == 0 else configs[::-1]
        barrier.wait()
        answers = {q: cspace.is_valid(shared, q) for q in order}
        results[k] = [answers[q] for q in configs]

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
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
    assert {q: ok for q, (ok, _) in shared.state_table.items()} == dict(zip(configs, serial))
