"""Mutation audit of the boundary and lookup code; standard library only.

    python tools/mutation_audit.py [module.qualname ...]   # default: TARGETS

Each site gives one mutant: a comparison swapped, ``and``/``or`` swapped,
a ``not`` dropped or an int constant plus 1. Tier-1 runs with ``-x`` in a
copy of the tree per mutant, ``os.cpu_count()`` at a time; a run that fails,
passes 2 GB of address space or ten times the clean run's wall time
(``hung``) kills it. A survivor not in ``EQUIVALENT`` is ``SURVIVED``, and
the audit then exits 1.
"""

import ast
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coverplan"
ALL = None  # every function and method of the module
TARGETS = {
    "online": ALL,
    "cover": ALL,
    "search": ("_path_defect", "_HeuristicMemo", "_AnytimeSearch.improve_path",
               "_seeded_search", "refine_seed", "anytime_refine", "astar", "ara_star"),
    "cspace": ("in_bounds", "check_config", "Scenario.__post_init__", "Scenario.neighbor_table",
               "Scenario.home_distance", "Scenario.region_reach", "_rows_by_index",
               "scenario_from_payload", "finite_reals", "read_json_file"),
    "bench": ("ExperimentConfig.__post_init__", "load_experiment_config"),
}
EQUIVALENT = {  # survivors that change no result: site -> why
    "online.CoverPlanner.plan: cost > 0.0 -> cost >= 0.0":
        "a zero-cost plan starts at its goal; refining it returns it, flagged optimal",
    "cover.Library.__post_init__: ((self.s_home,), 0) -> ((self.s_home,), 1)":
        "home's stored path is (home,): its prefix up to either position is the same",
    "cover.CoverEntry.__post_init__: path[-1] -> path[-2] #2":
        "only the StaleLibrary message changes; no test reads the state it names",
    "cover.greedy_step: nb < best -> nb <= best": "a state's neighbours are distinct",
    "cover.library_from_payload: version < LIBRARY_FORMAT_VERSION -> version <= "
    "LIBRARY_FORMAT_VERSION": "it runs only for a version that is not the current one",
    "search._HeuristicMemo: d > v -> d >= v": "on a tie v is set to the value it has",
    "search._seeded_search: ratio > eps -> ratio >= eps": "on a tie eps is set to the value it has",
    "search._AnytimeSearch.improve_path: q in open_set and -neg_g == g[q] -> q in open_set or "
    "-neg_g == g[q]": "in a pass an entry holds its state's g exactly when the state is open",
    "search.refine_seed: first_goal < len(initial_path.configs) - 1 -> first_goal <= "
    "len(initial_path.configs) - 1": "it rebuilds an equal path",
    "search.refine_seed: len(initial_path.configs) - 1 -> len(initial_path.configs) - 2":
        "no seed steps from its goal to itself: it is checked, or built from walks",
    "search.refine_seed: incumbent.cost > lower -> incumbent.cost >= lower":
        "it runs the certifying pass it would record, and the goal pops first",
    "search.refine_seed: new_eps >= eps -> new_eps > eps": "equal only if a pass empties the "
    "frontier and keeps the incumbent's ratio; no random multi-pass refinement tried does",
}
SWAP = {ast.Lt: ast.LtE, ast.Gt: ast.GtE, ast.Eq: ast.NotEq, ast.Is: ast.IsNot, ast.In: ast.NotIn}
SWAP.update({b: a for a, b in SWAP.items()})


def definitions(tree):
    """{qualified name: node} of each top-level function and class and each method."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(member, ast.FunctionDef):
                found[f"{node.name}.{member.name}"] = member
    return found


def targets():
    return [f"{module}.{name}" for module, wanted in TARGETS.items() for name in wanted or [
        q for q, node in definitions(ast.parse((SRC / f"{module}.py").read_bytes())).items()
        if isinstance(node, ast.FunctionDef)]]


def changes(site, parent):
    """(context before, context after, the site's new text) for each mutant of one node."""
    if isinstance(site, ast.UnaryOp) and isinstance(site.op, ast.Not):
        return [(ast.unparse(site),) + (ast.unparse(site.operand),) * 2]
    context = site
    if isinstance(site, ast.Compare):
        ops = site.ops
        edits = [("ops", ops[:i] + [SWAP[type(op)]()] + ops[i + 1 :]) for i, op in enumerate(ops)]
    elif isinstance(site, ast.BoolOp):
        edits = [("op", ast.Or() if isinstance(site.op, ast.And) else ast.And())]
    elif isinstance(site, ast.Constant) and type(site.value) is int:
        edits = [("value", site.value + 1)]
        context = parent[site]  # the constant's expression, past a unary minus
        context = parent[context] if isinstance(context, ast.UnaryOp) else context
    else:
        return []
    out = []
    for field, value in edits:
        old, before = getattr(site, field), ast.unparse(context)
        setattr(site, field, value)
        out.append((before, ast.unparse(context), ast.unparse(site)))
        setattr(site, field, old)
    return out


def mutants(target):
    """[(label, line, module file, mutated source)], one per site of a target."""
    module, qualname = target.split(".", 1)
    source = (SRC / f"{module}.py").read_bytes()
    lines = source.splitlines(keepends=True)
    nodes = ast.walk(definitions(ast.parse(source))[qualname])
    parent = {child: node for node in nodes for child in ast.iter_child_nodes(node)}
    out, seen = [], Counter()
    for site in sorted((n for n in parent if "lineno" in n._attributes),
                       key=lambda n: (n.lineno, n.col_offset)):
        start = sum(map(len, lines[: site.lineno - 1])) + site.col_offset
        end = sum(map(len, lines[: site.end_lineno - 1])) + site.end_col_offset
        for before, after, text in changes(site, parent):
            label = f"{target}: {before} -> {after}"
            seen[label] += 1
            label += f" #{seen[label]}" if seen[label] > 1 else ""
            mutated = source[:start] + f"({text})".encode() + source[end:]
            out.append((label, site.lineno, f"{module}.py", mutated))
    return out


def tier1(mutant=None, timeout=None):
    """Tier-1 in a copy of the tree: ("passed", "killed" or "hung", wall seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns(".git", "*cache*", ".hypothesis")
        tree = Path(shutil.copytree(ROOT, Path(tmp) / "repo", ignore=skip))
        if mutant:
            (tree / "src" / "coverplan" / mutant[2]).write_bytes(mutant[3])
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        # the audit's own guard reads the mutated source, so it is left out
        pytest = "-m pytest -q -x -p no:cacheprovider --ignore=tests/test_mutation_audit.py"
        command = f"ulimit -v {2 << 20}; exec {shlex.quote(sys.executable)} {pytest}"
        t0 = time.monotonic()
        try:
            run = subprocess.run(["sh", "-c", command], cwd=tree, env=env, timeout=timeout,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "hung", time.monotonic() - t0
        return "killed" if run.returncode else "passed", time.monotonic() - t0


def main(names):
    names = names or targets()
    outcome, wall = tier1()
    if outcome != "passed":
        sys.exit("Tier-1 fails on the unmutated tree; nothing to audit")
    work = [(name, m) for name in names for m in mutants(name)]
    print(f"{len(work)} mutants in {len(names)} targets; clean run {wall:.1f} s", flush=True)
    totals = {name: [0, 0, 0] for name in names}  # mutants, killed, new survivors
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        runs = pool.map(lambda job: tier1(job[1], timeout=10 * wall), work)
        for (name, (label, line, file, _)), (outcome, seconds) in zip(work, runs):
            if outcome == "passed":
                outcome = "equivalent" if label in EQUIVALENT else "SURVIVED"
            tally = totals[name]
            tally[0] += 1
            tally[1] += outcome in ("killed", "hung")
            tally[2] += outcome == "SURVIVED"
            print(f"{outcome:10} {seconds:5.1f} s  {file}:{line}  {label}", flush=True)
    print("\ntarget: mutants, killed, new survivors")
    for name, counts in totals.items():
        print(f"{name}: {', '.join(map(str, counts))}")
    sys.exit(1 if any(counts[2] for counts in totals.values()) else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
