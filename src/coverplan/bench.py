"""Benchmark harness: experiment configs, trial runners, CSV/SVG emission.

Trials run against a deterministic simulated clock derived from the
scenario's operation counters (1 ms per expansion, 10 us per collision
check, 1 us per elementary step — a stand-in for manipulation-scale
per-expansion cost). Budgets, timeouts, anytime profiles and the
reported planning times are therefore exactly reproducible: identical
(config, seed) runs emit byte-identical trials.csv.

Trials run one at a time: run_trial resets the scenario's shared
operation counters, which SimClock reads, so two trials on one scenario
would charge each other's work. Records keep trial-index order.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path as FsPath

from . import cspace
from .cover import Library, load_library
from .cspace import Config, OpCounters, Scenario
from .errors import NoPath, PlanningError
from .online import CoverPlanner
from .search import Path, ara_star, astar, path_is_valid, shortcut_path

CONFIG_FORMAT_VERSION = 1

KNOWN_PLANNERS = ("ctmp", "ctmp+refine", "ctmp+shortcut", "astar", "wastar", "arastar")

# The wastar baseline's inflation; arastar runs search.ara_star's fixed schedule.
WASTAR_WEIGHT = 3.0

# Simulated-time quanta (seconds per counted operation).
EXPANSION_SECONDS = 1e-3
CHECK_SECONDS = 1e-5
STEP_SECONDS = 1e-6

TRIALS_COLUMNS = (
    "trial_id",
    "planner",
    "start",
    "goal",
    "budget_ms",
    "success",
    "cost",
    "plan_ms",
    "n_iterations",
    "final_epsilon",
    "optimal_flag",
)

SUMMARY_COLUMNS = (
    "planner",
    "trials",
    "solved",
    "success_rate_pct",
    "mean_cost_common",
    "mean_plan_ms",
    "std_plan_ms",
    "mean_suboptimality_common",
)


class SimClock:
    """Deterministic clock: a weighted sum of the scenario's op counters."""

    def __init__(self, counters: OpCounters):
        self.counters = counters

    def __call__(self) -> float:
        c = self.counters
        return (
            c.expansions * EXPANSION_SECONDS
            + c.collision_checks * CHECK_SECONDS
            + c.elementary_steps * STEP_SECONDS
        )


@dataclass
class ExperimentConfig:
    """One benchmark run: scenario, library, mode, budgets, planners."""

    scenario: str
    library: str
    mode: str = "single"  # "single" | "sequential"
    trials: int = 20
    budget_ms: float = 500.0
    budget_range_ms: tuple[float, float] | None = None  # sequential-mode draw
    planners: tuple[str, ...] = ("ctmp", "ctmp+refine")
    seed: int = 0
    outdir: str = "bench_out"

    def __post_init__(self):
        for name in ("scenario", "library", "outdir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a path string")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name!r} must be an int, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.budget_ms > 0:  # also refuses NaN
            raise ValueError("budget_ms must be positive")
        if self.mode not in ("single", "sequential"):
            raise ValueError(f"unknown mode {self.mode!r}")
        rng = self.budget_range_ms
        if rng is not None and self.mode != "sequential":
            raise ValueError("budget_range_ms applies to sequential mode only")
        if rng is not None and not (
            len(rng) == 2 and all(type(x) in (int, float) for x in rng) and 0 < rng[0] <= rng[1]
        ):
            raise ValueError(f"budget_range_ms must be two numbers 0 < lo <= hi, got {rng!r}")
        if not self.planners:
            raise ValueError("planners must name at least one planner")
        for i, p in enumerate(self.planners):
            if p not in KNOWN_PLANNERS:
                raise ValueError(f"unknown planner {p!r}")
            if p in self.planners[:i]:
                raise ValueError(f"planner {p!r} is listed twice")


def save_experiment_config(cfg: ExperimentConfig, path) -> None:
    payload = {"format_version": CONFIG_FORMAT_VERSION, **asdict(cfg)}
    cspace.write_json_file(path, json.dumps(payload, indent=2, sort_keys=True))


# How a file value becomes its ExperimentConfig field; other fields take it
# as is. Numbers follow the scenario file's rule, ``cspace.finite_reals``:
# a bool, a string or a non-finite value is refused, not converted.
_CONFIG_COERCE = {
    "budget_ms": lambda v: float(cspace.finite_reals([v])[0]),
    "budget_range_ms": lambda rng: None if rng is None else cspace.finite_reals(rng),
    "planners": tuple,
}


def load_experiment_config(path) -> ExperimentConfig:
    """Read an experiment config with ``cspace.read_json_file``.

    A file that cannot be read, a document that is not a JSON object, an
    unknown version or key, a missing required key and a value its field
    refuses all raise ValueError.
    """
    payload = cspace.read_json_file(path, ValueError, "experiment config")
    version = payload.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        raise ValueError(f"unsupported experiment config format_version {version}")
    config_fields = fields(ExperimentConfig)
    unknown = sorted(payload.keys() - {"format_version"} - {f.name for f in config_fields})
    if unknown:
        raise ValueError(f"experiment config has unknown keys {', '.join(map(repr, unknown))}")
    kwargs = {}
    for f in config_fields:
        if f.name in payload:
            try:
                kwargs[f.name] = _CONFIG_COERCE.get(f.name, lambda v: v)(payload[f.name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"experiment config {f.name!r}: {exc}") from exc
        elif f.default is MISSING:
            raise ValueError(f"experiment config is missing {f.name!r}")
    return ExperimentConfig(**kwargs)  # a key the file omits takes the field default


@dataclass
class TrialRecord:
    """One planner on one instance. ``profile`` holds the anytime samples
    (simulated ms, cost, inflation or None); ``path`` is None on failure."""

    trial_id: int
    planner: str
    start: Config
    goal: Config
    budget_ms: float
    plan_ms: float
    optimal_flag: bool
    profile: list[tuple[float, float, float | None]]
    path: Path | None

    @property
    def success(self) -> bool:
        return self.path is not None

    @property
    def cost(self) -> float | None:
        return self.path.cost if self.path is not None else None

    @property
    def n_iterations(self) -> int:
        """Samples taken at an inflation: one per completed search iteration."""
        return sum(eps is not None for _, _, eps in self.profile)

    @property
    def final_epsilon(self) -> float | None:
        return self.profile[-1][2] if self.profile else None


@dataclass
class SummaryRow:
    planner: str
    trials: int
    solved: int
    mean_cost_common: float | None
    mean_plan_ms: float
    std_plan_ms: float
    mean_suboptimality_common: float | None

    @property
    def success_rate_pct(self) -> float:
        return 100.0 * self.solved / self.trials if self.trials else 0.0


# ---------------------------------------------------------------------------
# trial execution


def run_trial(
    planner: str,
    robot: CoverPlanner,
    trial_id: int,
    start: Config,
    goal: Config,
    budget_ms: float,
    cfg: ExperimentConfig,
) -> TrialRecord:
    """One planner on one instance under the simulated clock.

    The ctmp planners plan through ``robot``, the experiment's one
    CoverPlanner, whose history gives the chained starts; the baselines
    search its scenario. Each planner sets the path, its anytime profile
    and whether it proved the path optimal; a planning error or a path
    that fails re-validation leaves no path, and so no optimal flag.
    """
    scenario = robot.scenario_
    scenario.counters.reset()
    clock = SimClock(scenario.counters)
    deadline = budget_ms / 1000.0
    path = None
    profile: list[tuple[float, float, float | None]] = []
    optimal = False
    try:
        if planner in ("ctmp", "ctmp+refine", "ctmp+shortcut"):
            refine = planner == "ctmp+refine"
            res = robot.plan(goal, start, budget_ms=budget_ms, refine=refine, clock=clock)
            path = res.path
            if planner == "ctmp+shortcut":
                path = shortcut_path(
                    scenario,
                    path,
                    deadline=deadline,
                    seed=cfg.seed * 100000 + trial_id,
                    clock=clock,
                )
            rep = res.refine_report
            if rep is not None:
                base_ms = res.lookup_ms + res.connect_ms
                optimal = rep.optimal_flag
                profile = [(base_ms, res.initial_cost, None)] + [
                    (base_ms + it.elapsed_ms, it.cost, it.epsilon) for it in rep.iterations
                ]
            else:
                profile = [(clock() * 1000.0, path.cost, None)]
        elif planner in ("astar", "wastar"):
            weight = 1.0 if planner == "astar" else WASTAR_WEIGHT
            path = astar(scenario, start, goal, weight=weight, deadline=deadline, clock=clock)
            optimal = weight == 1.0
            profile = [(clock() * 1000.0, path.cost, weight)]
        elif planner == "arastar":
            path, iters, optimal = ara_star(scenario, start, goal, deadline=deadline, clock=clock)
            profile = [(it.elapsed_ms, it.cost, it.weight) for it in iters]
        else:
            raise ValueError(f"unknown planner {planner!r}")
    except PlanningError:
        path = None
    plan_ms = clock() * 1000.0
    if path is not None and not path_is_valid(scenario, path):
        # Defensive: a planner bug must surface as a failed trial, not bad stats.
        path, optimal = None, False
    return TrialRecord(trial_id, planner, start, goal, budget_ms, plan_ms, optimal, profile, path)


def _covered_goals(library: Library, region_id: str | None = None) -> list[Config]:
    goals: list[Config] = []
    for rc in library.regions:
        if region_id is not None and rc.region_id != region_id:
            continue
        goals.extend(rc.covered)
    return sorted(goals)


def run_single_experiment(
    scenario: Scenario, library: Library, cfg: ExperimentConfig
) -> tuple[list[TrialRecord], list[SummaryRow]]:
    """Home-start queries to uniformly sampled covered goals."""
    rng = random.Random(cfg.seed)
    goals_pool = _covered_goals(library)
    if not goals_pool:
        raise PlanningError("library covers no goals")
    instances = []
    for t in range(cfg.trials):
        goal = goals_pool[rng.randrange(len(goals_pool))]
        instances.append((t, scenario.s_home, goal, cfg.budget_ms))
    return _run_instances(scenario, library, cfg, instances)


def run_sequential_experiment(
    scenario: Scenario, library: Library, cfg: ExperimentConfig
) -> tuple[list[TrialRecord], list[SummaryRow]]:
    """Chained pick -> place -> pick queries; each start is the previous goal."""
    if len(scenario.regions) < 2:
        raise PlanningError("sequential mode needs at least two regions")
    rng = random.Random(cfg.seed)
    region_ids = [r.id for r in scenario.regions]
    instances = []
    start = scenario.s_home
    for t in range(cfg.trials):
        region = region_ids[t % 2]
        pool = [q for q in _covered_goals(library, region) if q != start]
        if not pool:
            raise PlanningError(f"region {region} covers no goals")
        goal = pool[rng.randrange(len(pool))]
        if cfg.budget_range_ms is not None:
            budget = rng.uniform(*cfg.budget_range_ms)
        else:
            budget = cfg.budget_ms
        instances.append((t, start, goal, budget))
        start = goal
    return _run_instances(scenario, library, cfg, instances, sequential=True)


def _run_instances(scenario, library, cfg, instances, sequential=False):
    robot = CoverPlanner.from_library(scenario, library)
    chain_planner = "ctmp+refine" if "ctmp+refine" in cfg.planners else cfg.planners[0]
    records: list[TrialRecord] = []
    for trial_id, start, goal, budget in instances:
        executed: Path | None = None
        for planner in cfg.planners:
            rec = run_trial(planner, robot, trial_id, start, goal, budget, cfg)
            records.append(rec)
            if planner == chain_planner and rec.path is not None:
                executed = rec.path
        if sequential and executed is not None:
            robot.register_executed(executed)
    stats = summarize(scenario, records, cfg.planners)
    return records, stats


# ---------------------------------------------------------------------------
# statistics


def oracle_costs(scenario: Scenario, records: list[TrialRecord]) -> dict[tuple, float | None]:
    """Per-instance optimal cost from a weight-1 A* oracle (no deadline).

    A successful ``astar`` trial made that same call, cut short by no
    deadline, so its cost is taken as is; A* runs only for the pairs that
    have no such record. No other planner's result or optimal flag is
    read, so the oracle stays independent of the planners it grades.
    """
    out: dict[tuple, float | None] = {
        (rec.start, rec.goal): rec.cost for rec in records if rec.planner == "astar" and rec.success
    }
    for rec in records:
        key = (rec.start, rec.goal)
        if key in out:
            continue
        try:
            out[key] = astar(scenario, rec.start, rec.goal, weight=1.0).cost
        except NoPath:
            out[key] = None
    return out


def summarize(
    scenario: Scenario, records: list[TrialRecord], planners
) -> list[SummaryRow]:
    """Per-planner stats; cost columns restricted to commonly-solved instances."""
    oracle = oracle_costs(scenario, records)
    by_planner: dict[str, list[TrialRecord]] = {p: [] for p in planners}
    for rec in records:
        by_planner[rec.planner].append(rec)
    solved_ids = None
    for p in planners:
        ids = {r.trial_id for r in by_planner[p] if r.success}
        solved_ids = ids if solved_ids is None else (solved_ids & ids)
    solved_ids = solved_ids or set()
    rows = []
    for p in planners:
        recs = by_planner[p]
        solved = [r for r in recs if r.success]
        common = [r for r in solved if r.trial_id in solved_ids]
        subopts = []
        for r in common:
            opt = oracle.get((r.start, r.goal))
            if opt and opt > 0:
                subopts.append(r.cost / opt)
            elif opt == 0.0 and r.cost == 0.0:
                subopts.append(1.0)
        plan_times = [r.plan_ms for r in recs]
        rows.append(
            SummaryRow(
                planner=p,
                trials=len(recs),
                solved=len(solved),
                mean_cost_common=statistics.fmean(r.cost for r in common) if common else None,
                mean_plan_ms=statistics.fmean(plan_times) if plan_times else 0.0,
                std_plan_ms=statistics.pstdev(plan_times) if len(plan_times) > 1 else 0.0,
                mean_suboptimality_common=statistics.fmean(subopts) if subopts else None,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# emission


def _fmt_float(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.6f}"


def _fmt_config(q: Config) -> str:
    return ";".join(str(c) for c in q)


# How a column's cells are written, by column name; other columns are written as is.
_CELL_FORMAT = {"start": _fmt_config, "goal": _fmt_config} | dict.fromkeys(
    ("budget_ms", "cost", "plan_ms", "final_epsilon", "success_rate_pct", "mean_cost_common",
     "mean_plan_ms", "std_plan_ms", "mean_suboptimality_common"),
    _fmt_float,
)


def emit_results(records: list[TrialRecord], stats: list[SummaryRow], outdir) -> dict[str, str]:
    """Write trials.csv, summary.csv and anytime_profile.svg into outdir."""
    out = FsPath(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, columns, rows in (
        ("trials", TRIALS_COLUMNS, records),
        ("summary", SUMMARY_COLUMNS, stats),
    ):
        files[name] = str(out / f"{name}.csv")
        with open(files[name], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow(
                    _CELL_FORMAT.get(c, lambda v: v)(getattr(row, c)) for c in columns
                )
    files["profile"] = str(out / "anytime_profile.svg")
    with open(files["profile"], "w", encoding="utf-8") as fh:
        fh.write(render_profile_svg(records))
    return files


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def render_profile_svg(records: list[TrialRecord]) -> str:
    """Self-contained cost-vs-time SVG: one polyline per planner, inflation
    values annotated at anytime samples."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 30, 45
    curves: dict[str, list[tuple[float, float, float | None]]] = {}
    for rec in records:
        if rec.planner not in curves and rec.profile:
            curves[rec.planner] = rec.profile
    samples = [pt for prof in curves.values() for pt in prof]
    max_t = max((pt[0] for pt in samples), default=1.0) or 1.0
    max_c = max((pt[1] for pt in samples), default=1.0) or 1.0

    def sx(t: float) -> float:
        return ml + (width - ml - mr) * t / max_t

    def sy(c: float) -> float:
        return height - mb - (height - mt - mb) * c / max_c

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="13">planning time [ms]</text>',
        f'<text x="15" y="{(mt + height - mb) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 15 {(mt + height - mb) / 2:.1f})">solution cost [steps]</text>',
    ]
    for k, (planner, profile) in enumerate(sorted(curves.items())):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(t):.2f},{sy(c):.2f}" for t, c, _ in profile)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2" '
            f'data-planner="{planner}"/>'
        )
        prev_cost = None
        for idx, (t, c, eps) in enumerate(profile):
            parts.append(f'<circle cx="{sx(t):.2f}" cy="{sy(c):.2f}" r="3" fill="{color}"/>')
            # annotate where the curve moves (and at its end) to keep labels legible
            if eps is not None and (c != prev_cost or idx == len(profile) - 1):
                parts.append(
                    f'<text x="{sx(t) + 5:.2f}" y="{sy(c) - 5:.2f}" font-size="10" '
                    f'fill="{color}">eps={eps:.2f}</text>'
                )
            prev_cost = c
        parts.append(
            f'<text x="{width - mr - 5}" y="{mt + 16 * (k + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{planner}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# entry point used by the CLI


def run_bench(config_path) -> dict[str, str]:
    """Load config + scenario + library, run the experiment, emit files."""
    cfg = load_experiment_config(config_path)
    scenario = cspace.load_scenario(cfg.scenario)
    library = load_library(cfg.library, scenario)
    if cfg.mode == "single":
        records, stats = run_single_experiment(scenario, library, cfg)
    else:
        records, stats = run_sequential_experiment(scenario, library, cfg)
    return emit_results(records, stats, cfg.outdir)
