"""Independent reference implementations used to freeze expected values.

These deliberately avoid the search / preprocess / query code paths they
are used to check: breadth-first flood fill for unit-cost distances, a
literal step-by-step simulation of the navigation-descent rule, and the
first-match rule that makes a state a potential start. They test
validity with ``cspace.collision_free``, which runs the geometry on every
call, and find moves and neighbours by their own formula, so they never
read the validity memo or the move and neighbour tables that the scenario
keeps.
"""

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


def successors(scenario, q):
    """Valid unit-cost lattice moves from q, checked without the memo."""
    return [
        (nb, cspace.UNIT_COST)
        for nb in lattice_neighbors(scenario, q)
        if cspace.collision_free(scenario, nb)
    ]


def bfs_distances(scenario, source):
    """Unit-cost shortest distances from source over valid lattice moves."""
    dist = {source: 0.0}
    queue = deque([source])
    while queue:
        q = queue.popleft()
        for nb, cost in successors(scenario, q):
            if nb not in dist:
                dist[nb] = dist[q] + cost
                queue.append(nb)
    return dist


def simulate_descent(scenario, q, attractor, max_steps=10_000):
    """Literal greedy-descent walk: (reached, steps, visited configs).

    Each move goes to the valid successor with the smallest navigation
    value (lexicographic smallest on ties) and must strictly decrease it.
    """
    visited = [q]
    cur = q
    steps = 0
    while cur != attractor and steps < max_steps:
        nav_cur = cspace.navigation_value(scenario, cur, attractor)
        candidates = [nb for nb, _ in successors(scenario, cur)]
        if not candidates:
            return False, steps, visited
        best = min(
            candidates,
            key=lambda nb: (cspace.navigation_value(scenario, nb, attractor), nb),
        )
        if cspace.navigation_value(scenario, best, attractor) >= nav_cur:
            return False, steps, visited
        cur = best
        visited.append(cur)
        steps += 1
    return cur == attractor, steps, visited


def descent_basin(scenario, attractor):
    """All valid configs whose simulated walk reaches the attractor."""
    members = set()
    max_steps = 0
    for q in cspace.lattice_configs(scenario):
        if not cspace.collision_free(scenario, q):
            continue
        reached, steps, _ = simulate_descent(scenario, q, attractor)
        if reached:
            members.add(q)
            max_steps = max(max_steps, steps)
    return members, max_steps


def naive_refine(scenario, start, goal, initial_path, delta=1e-6):
    """Literal path-seeded anytime refinement: linear argmin selection, no
    priority queue, no re-scan skipping. Runs to convergence and returns
    (final cost, inflation history, per-iteration incumbent costs).

    Semantics mirror the production engine's documented behavior: open
    list seeded with the cheapest occurrence of each path state, strict
    tie-break (smaller f, then larger g, then lexicographic config),
    incumbent cost recomputed from the extracted parent chain, a final
    inflation-1 iteration, and a jump to 1 if the update fails to
    decrease.
    """
    configs = list(initial_path.configs)
    first_goal = configs.index(goal)
    if first_goal < len(configs) - 1:
        configs = configs[: first_goal + 1]

    g, parent = {}, {}
    for k, q in enumerate(configs):
        acc = float(k)
        if q not in g or acc < g[q]:
            g[q] = acc
            parent[q] = configs[k - 1] if k > 0 else None

    def h(q):
        return cspace.heuristic(scenario, q, goal)

    def extract():
        chain = [goal]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chain.reverse()
        return chain, float(len(chain) - 1)

    def ratio(q, cost):
        return (cost - g[q]) / (h(q) + delta)

    incumbent_cost = float(len(configs) - 1)
    incumbent = configs
    open_set = set(configs)
    incons, closed = set(), set()
    eps = max(1.0, max(ratio(q, incumbent_cost) for q in configs))
    history, costs = [], []

    while True:
        while True:
            q = min(open_set, key=lambda s: (g[s] + eps * h(s), -g[s], s))
            if q == goal:
                open_set.discard(q)
                break
            open_set.discard(q)
            closed.add(q)
            for nb, cost in successors(scenario, q):
                g2 = g[q] + cost
                if g2 < g.get(nb, float("inf")):
                    g[nb] = g2
                    parent[nb] = q
                    (incons if nb in closed else open_set).add(nb)
        incumbent, incumbent_cost = extract()
        g[goal] = min(g[goal], incumbent_cost)
        history.append(eps)
        costs.append(incumbent_cost)
        if eps == 1.0:
            return incumbent_cost, history, costs
        closed.clear()
        path_max = max(ratio(q, incumbent_cost) for q in incumbent)
        if open_set:
            new_eps = max(1.0, min(path_max, max(ratio(q, incumbent_cost) for q in open_set)))
        else:
            new_eps = max(1.0, path_max)
        if new_eps >= eps:
            new_eps = 1.0
        eps = new_eps
        open_set |= incons
        incons.clear()
        open_set.update(incumbent)


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
