"""Independent reference implementations used to freeze expected values.

These deliberately avoid the search / preprocess / query code paths they
are used to check: breadth-first flood fill for unit-cost distances, the
home-landmark heuristic built on it, a literal step-by-step simulation of
the navigation-descent rule, the offline sampling loop over whole basins,
the seed path's g-values and parent links, a plain anytime refinement
loop that heapifies its whole open set every pass, and the first-match
rule that makes a state a potential start and the home path that rule
gives it. They test validity with ``cspace.collision_free``, which runs
the geometry on every call (the floods can instead take
``valid_states``, the set of states it accepts, made once), and find
moves and neighbours by their own formula, so they never read the
validity memo or the move and neighbour tables that the scenario keeps.
"""

import functools
import heapq
import itertools
import random
from collections import deque

from coverplan import cspace


def lattice_neighbors(scenario, q):
    """q with one coordinate moved by one index down or up.

    A wrapping axis takes the moved index modulo its size; any other axis
    drops a move that leaves [0, n).
    """
    out = []
    for d, (n, wrap) in enumerate(zip(scenario.dims, scenario.wraps)):
        for c in (q[d] - 1, q[d] + 1):
            if wrap or 0 <= c < n:
                out.append(q[:d] + (c % n,) + q[d + 1 :])
    return out


def lattice_move(scenario, q, axis, delta):
    """q with coordinate ``axis`` moved by ``delta`` (-1 or +1): modulo n on
    a wrapping axis, None when it leaves [0, n) on any other."""
    n = scenario.dims[axis]
    c = q[axis] + delta
    if scenario.wraps[axis]:
        c %= n
    elif not 0 <= c < n:
        return None
    return q[:axis] + (c,) + q[axis + 1 :]


def valid_states(scenario):
    """The set of lattice states that ``cspace.collision_free`` accepts, one
    geometry check each; for repeated floods over one scenario."""
    states = itertools.product(*map(range, scenario.dims))
    return {q for q in states if cspace.collision_free(scenario, q)}


def successors(scenario, q, free=None):
    """Valid unit-cost lattice moves from q, checked without the memo, or
    looked up in ``free`` (``valid_states``) when given."""
    check = functools.partial(cspace.collision_free, scenario)
    valid = check if free is None else free.__contains__
    return [(nb, cspace.UNIT_COST) for nb in lattice_neighbors(scenario, q) if valid(nb)]


def bfs_distances(scenario, source, free=None):
    """Unit-cost shortest distances from source over valid lattice moves
    (``free`` as in ``successors``)."""
    dist = {source: 0.0}
    queue = deque([source])
    while queue:
        q = queue.popleft()
        for nb, cost in successors(scenario, q, free):
            if nb not in dist:
                dist[nb] = dist[q] + cost
                queue.append(nb)
    return dist


def landmark_heuristic(scenario, goal, home_distances=None):
    """h(q) to ``goal``: the wrapped Manhattan distance, raised to
    |d(q) - d(goal)| where the breadth-first distance d from a valid home
    is defined for both states. ``home_distances``, when given, is d (from
    ``bfs_distances``, empty for a colliding home), made once for many goals."""
    home = scenario.s_home
    d = home_distances
    if d is None:
        d = bfs_distances(scenario, home) if cspace.collision_free(scenario, home) else {}

    def h(q):
        manhattan = 0
        for a, b, n, wrap in zip(q, goal, scenario.dims, scenario.wraps):
            manhattan += min(abs(a - b), n - abs(a - b)) if wrap else abs(a - b)
        if q in d and goal in d:
            return max(float(manhattan), abs(d[q] - d[goal]))
        return float(manhattan)

    return h


def descent_move(scenario, q, attractor):
    """The greedy-descent move from q, or None at a stall.

    The move goes to the valid successor with the smallest navigation
    value (lexicographic smallest on ties) and must strictly decrease it.
    """
    nav_cur = cspace.navigation_value(scenario, q, attractor)
    candidates = [nb for nb, _ in successors(scenario, q)]
    if not candidates:
        return None
    best = min(
        candidates,
        key=lambda nb: (cspace.navigation_value(scenario, nb, attractor), nb),
    )
    if cspace.navigation_value(scenario, best, attractor) >= nav_cur:
        return None
    return best


def simulate_descent(scenario, q, attractor, max_steps=10_000):
    """Literal greedy-descent walk: (reached, steps, visited configs),
    one ``descent_move`` at a time."""
    visited = [q]
    cur = q
    steps = 0
    while cur != attractor and steps < max_steps:
        cur = descent_move(scenario, cur, attractor)
        if cur is None:
            return False, steps, visited
        visited.append(cur)
        steps += 1
    return cur == attractor, steps, visited


def descent_basin(scenario, attractor):
    """All valid configs whose simulated walk reaches the attractor, and
    the longest such walk in moves.

    ``descent_move`` runs once per valid state; each state's walk then
    follows those moves. A move strictly decreases the navigation value,
    so no walk cycles.
    """
    move = {
        q: descent_move(scenario, q, attractor)
        for q in cspace.lattice_configs(scenario)
        if cspace.collision_free(scenario, q)
    }
    members = set()
    max_steps = 0
    for q in move:
        cur, steps = q, 0
        while cur is not None and cur != attractor:
            cur, steps = move[cur], steps + 1
        if cur == attractor:
            members.add(q)
            max_steps = max(max_steps, steps)
    return members, max_steps


def region_states(scenario, region):
    """The region's valid states, in lexicographic order: the box test on
    each state's end-effector point (a grid cell's centre), computed anew."""
    x0, y0, x1, y1 = region.box
    states = []
    for q in cspace.lattice_configs(scenario):
        if scenario.kind == "grid":
            x, y = cspace.cell_center(q)
        else:
            x, y = cspace.forward_kinematics(scenario.arm, q)[-1]
        if x0 <= x <= x1 and y0 <= y <= y1 and cspace.collision_free(scenario, q):
            states.append(q)
    return states


def reference_attractors(scenario, seed):
    """Each region's attractors, in the order the offline loop samples them.

    The loop grows each attractor's whole basin (``descent_basin``) and
    takes its frontier, the valid states next to a member that are not
    members, by adjacency. Per region, with the rng seeded by
    ``f"{seed}:{region id}"``, each candidate is drawn uniformly from the
    sorted region states of the last frontier that are not yet done, or,
    when there are none, from all region states not yet done. A candidate
    that ``bfs_distances`` from home does not reach is done and excluded;
    any other is an attractor, and its basin's region states are done.
    """
    reach = bfs_distances(scenario, scenario.s_home)
    out = []
    for region in scenario.regions:
        rng = random.Random(f"{seed}:{region.id}")
        states = region_states(scenario, region)
        in_region = set(states)
        done, frontier, attractors = set(), set(), []
        while True:
            pool = sorted(q for q in frontier if q in in_region and q not in done)
            pool = pool or [q for q in states if q not in done]
            if not pool:
                break
            cand = pool[rng.randrange(len(pool))]
            done.add(cand)
            if cand not in reach:
                continue
            attractors.append(cand)
            basin, _ = descent_basin(scenario, cand)
            done |= basin & in_region
            frontier = {
                nb
                for q in basin
                for nb in lattice_neighbors(scenario, q)
                if nb not in basin and cspace.collision_free(scenario, nb)
            }
        out.append(attractors)
    return out


def seed_from_path(path):
    """A seed path's states with their path g-values and predecessor links.

    A concatenated initial path can revisit a state (the V through home);
    the first, cheaper occurrence wins, which keeps g strictly decreasing
    along parent chains and therefore acyclic.
    """
    g, parent = {}, {}
    prev = None
    for k, q in enumerate(path.configs):
        if q not in g:
            g[q] = cspace.UNIT_COST * k
            parent[q] = prev
        prev = q
    return g, parent


def reference_refine(scenario, start, goal, initial_path, h, *, deadline=None, clock=None):
    """Plain path-seeded anytime refinement under the heuristic ``h``, a
    function of the state (``landmark_heuristic`` gives the planner's).

    Returns (path configs, records, incumbents, optimal flag): records are
    the (epsilon, cost, expansions, selections) of each completed pass and
    incumbents its path configs, as in ``search.RefineReport``.

    The open set starts as the seed path's states (cut at its first goal)
    at their first path g-values. Each pass heapifies the whole open set
    and selects by smaller f = g + eps * h, then larger g, then the
    smaller config, until it takes the goal off; every other selection
    scans its successors, and a state improved after it was closed in the
    pass joins the next one. After each pass the incumbent is the parent
    chain from the goal, and the next inflation is the min of the
    incumbent's and the open set's max (C - g) / (h + 1e-6), by a full
    scan of each, clamped below at 1, and 1 when that does not decrease;
    then only the goal is put back on the open list.

    A successor scan charges the scenario's counters as the planner does
    (one expansion, one collision check per lattice neighbour), so a
    ``bench.SimClock`` on them reads the same at every selection. The
    deadline is checked before each selection; a cut pass is not recorded.
    """
    if len(initial_path.configs) == 1:
        return initial_path.configs, [], [], True
    if deadline is not None and clock() >= deadline:
        return initial_path.configs, [], [], False
    configs = initial_path.configs[: initial_path.configs.index(goal) + 1]
    g, parent = {}, {}
    for k, q in enumerate(configs):
        if q not in g:
            g[q], parent[q] = float(k), configs[k - 1] if k else None

    def max_ratio(states, cost):
        return max(((cost - g[q]) / (h(q) + 1e-6) for q in states), default=float("inf"))

    incumbent = configs
    eps = max(1.0, max_ratio(incumbent, len(incumbent) - 1.0))
    open_set, incons = set(configs), set()
    records, incumbents = [], []
    while True:
        open_set |= incons
        incons.clear()
        heap = [(g[q] + eps * h(q), -g[q], q) for q in open_set]
        heapq.heapify(heap)
        closed, selections = set(), 0
        while True:
            if deadline is not None and clock() >= deadline:
                return incumbent, records, incumbents, False
            _, neg_g, q = heapq.heappop(heap)
            if q not in open_set or -neg_g != g[q]:
                continue  # an entry left by a later improvement or a selection
            open_set.discard(q)
            if q == goal:
                break
            closed.add(q)
            selections += 1
            scenario.counters.expansions += 1
            scenario.counters.collision_checks += len(lattice_neighbors(scenario, q))
            for nb, step in successors(scenario, q):
                if g[q] + step < g.get(nb, float("inf")):
                    g[nb], parent[nb] = g[q] + step, q
                    if nb in closed:
                        incons.add(nb)
                    else:
                        open_set.add(nb)
                        heapq.heappush(heap, (g[nb] + eps * h(nb), -g[nb], nb))
        chain = [goal]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        incumbent = tuple(reversed(chain))
        cost = len(incumbent) - 1.0
        g[goal] = min(g[goal], cost)
        records.append((eps, cost, selections, selections))  # each selection is one scan
        incumbents.append(incumbent)
        if eps == 1.0:
            return incumbent, records, incumbents, True
        new_eps = max(1.0, min(max_ratio(incumbent, cost), max_ratio(open_set, cost)))
        eps = 1.0 if new_eps >= eps else new_eps
        open_set.add(goal)


def potential_provenance(library):
    """Potential start state -> why it is one, by the literal first-match rule.

    Home comes first. Then, region by region in library order, every state
    of each entry's representative path (``("rep_path", entry, position)``,
    at its first position), then every covered goal of each entry
    (``("goal_region", entry, None)``). A state keeps the first reason
    found. Built from the regions alone, never from the library's goal
    index.
    """
    provenance = {library.s_home: ("home", None, None)}
    for rc in library.regions:
        for entry in rc.entries:
            for k, q in enumerate(entry.rep_path.configs):
                provenance.setdefault(q, ("rep_path", entry, k))
        for entry in rc.entries:
            for q in entry.members & rc.covered:
                provenance.setdefault(q, ("goal_region", entry, None))
    return provenance


def home_path_by_lookup(index, s, provenance=None):
    """The home path of s by the documented lookup order, with no shortcut.

    Home, then the first-match reason of ``potential_provenance``: a
    rep-path state takes its rep path up to its position, a covered goal
    its entry's rep path followed by its ``simulate_descent`` walk to the
    entry's attractor, reversed, cut at the first arrival at s. Any other
    state of the index's executed path takes the anchor, then the executed
    path from its end back to s's last position there. Returns the
    configurations, or None when s is not a potential state.
    ``provenance`` is ``potential_provenance(index.library)``, computed
    when not given.
    """
    if provenance is None:
        provenance = potential_provenance(index.library)
    why = provenance.get(s)
    if why is not None:
        kind, entry, position = why
        if kind == "home":
            return (s,)
        if kind == "rep_path":
            return entry.rep_path.configs[: position + 1]
        reached, _, visited = simulate_descent(index.scenario, s, entry.attractor)
        if not reached:
            raise AssertionError(f"the walk from {s} does not reach {entry.attractor}")
        configs = entry.rep_path.configs + tuple(reversed(visited[:-1]))
        return configs[: configs.index(s) + 1]
    if index.executed_path is None:
        return None
    executed = index.executed_path.configs
    last = [k for k, q in enumerate(executed) if q == s]
    if not last:
        return None
    return index.anchor.configs + executed[last[-1] :][::-1][1:]
