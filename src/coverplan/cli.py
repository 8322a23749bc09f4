"""Command-line front end: preprocess, query, bench."""

from __future__ import annotations

import argparse
import sys

from . import __version__, bench, cover as cov, cspace
from .cover import LIBRARY_FORMAT_VERSION
from .cspace import SCENARIO_FORMAT_VERSION
from .errors import PlanningError
from .online import CoverPlanner


def _parse_config(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(";", ",").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverplan",
        description="Constant-time lattice motion planning with anytime refinement.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"coverplan {__version__} "
            f"(scenario format {SCENARIO_FORMAT_VERSION}, "
            f"library format {LIBRARY_FORMAT_VERSION}, "
            f"experiment config format {bench.CONFIG_FORMAT_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("preprocess", help="build a cover library for a scenario")
    p_pre.add_argument("--scenario", required=True, help="scenario JSON file")
    p_pre.add_argument("--out", required=True, help="library output file")
    p_pre.add_argument("--seed", type=int, default=0, help="attractor sampling seed")

    p_plan = sub.add_parser("query", help="plan one start->goal request")
    p_plan.add_argument("--scenario", required=True)
    p_plan.add_argument("--library", required=True)
    p_plan.add_argument("--start", type=_parse_config, default=None, help="default: home state")
    p_plan.add_argument("--goal", type=_parse_config, required=True)
    p_plan.add_argument("--budget-ms", type=float, default=500.0)
    p_plan.add_argument("--no-refine", action="store_true", help="return the initial plan only")

    p_bench = sub.add_parser("bench", help="run an experiment config")
    p_bench.add_argument("--config", required=True, help="experiment config JSON file")
    return parser


def cmd_preprocess(args) -> int:
    scenario = cspace.load_scenario(args.scenario)
    library = cov.preprocess(scenario, seed=args.seed)
    cov.save_library(library, args.out)
    total_entries = sum(len(rc.entries) for rc in library.regions)
    total_covered = sum(len(rc.covered) for rc in library.regions)
    total_excluded = sum(len(rc.excluded) for rc in library.regions)
    print(
        f"library written to {args.out}: {len(library.regions)} regions, "
        f"{total_entries} entries, {total_covered} covered states, "
        f"{total_excluded} excluded states"
    )
    return 0


def cmd_plan(args) -> int:
    """The ``query`` command: one plan on the loaded library."""
    scenario = cspace.load_scenario(args.scenario)
    planner = CoverPlanner.from_library(scenario, cov.load_library(args.library, scenario))
    result = planner.plan(
        args.goal, args.start, budget_ms=args.budget_ms, refine=not args.no_refine
    )
    print(" -> ".join("(" + ",".join(str(c) for c in q) + ")" for q in result.path.configs))
    print(
        f"cost: {result.final_cost:g} (initial {result.initial_cost:g}), "
        f"optimal: {result.optimal_flag}, "
        f"lookup {result.lookup_ms:.3f} ms, connect {result.connect_ms:.3f} ms, "
        f"refine {result.refine_ms:.3f} ms"
    )
    return 0


def cmd_bench(args) -> int:
    files = bench.run_bench(args.config)
    for kind, path in sorted(files.items()):
        print(f"{kind}: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "preprocess":
            return cmd_preprocess(args)
        if args.command == "query":
            return cmd_plan(args)
        if args.command == "bench":
            return cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except PlanningError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
