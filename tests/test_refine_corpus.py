"""Corpus test: refinement through ``CoverPlanner.plan`` against the plain
reference loop and the breadth-first distance.

On seed-0 fits of grid21_ladder, grid24_d30 and arm32_o2, every covered
goal is planned from home, and then one pick -> place sweep runs: each
place goal from a pick covered goal, the starts taken in turn. Each query,
refined to convergence, must give all four outputs of
``oracles.reference_refine`` under ``oracles.landmark_heuristic`` from the
same seed path (the query's no-refine path): the returned path, every
pass's record and incumbent, and the optimal flag, which must be set.
Every completed pass must cost at most its inflation times the
breadth-first distance (the ARA* bound), and the last one must cost
exactly that distance.
"""

import pytest

from oracles import bfs_distances, landmark_heuristic, reference_refine, valid_states
from coverplan import CoverPlanner, corpus


@pytest.mark.parametrize("name", ["grid21_ladder", "grid24_d30", "arm32_o2"])
def test_corpus_refine_matches_reference_and_bfs(name):
    scenario = dict(corpus.corpus())[name]
    planner = CoverPlanner(seed=0).fit(scenario)
    pick, place = (sorted(rc.covered) for rc in planner.library_.regions)
    home = scenario.s_home
    queries = [(home, goal) for goal in pick + place]
    queries += [(pick[i % len(pick)], goal) for i, goal in enumerate(place)]
    free = valid_states(scenario)
    distances = {home: bfs_distances(scenario, home, free)}  # start -> breadth-first distances
    for start, goal in queries:
        seed = planner.plan(goal, start, refine=False).path
        result = planner.plan(goal, start, budget_ms=1e7)
        report = result.refine_report
        records = [(it.epsilon, it.cost, it.expansions, it.selections) for it in report.iterations]
        incumbents = [p.configs for p in report.incumbents]
        h = landmark_heuristic(scenario, goal, distances[home])
        reference = reference_refine(scenario, start, goal, seed, h)
        got = (result.path.configs, records, incumbents, report.optimal_flag)
        assert got == reference and report.optimal_flag, (start, goal)
        if start not in distances:
            distances[start] = bfs_distances(scenario, start, free)
        distance = distances[start][goal]
        assert all(r[1] <= r[0] * distance + 1e-9 for r in records), (start, goal, records)
        assert records[-1][1] == distance, (start, goal, records)
