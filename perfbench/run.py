#!/usr/bin/env python3
"""Wall-clock benchmark for coverplan.

    python3 perfbench/run.py --workload online --seed 1 --seconds 20 --trace 0

Runs one workload (see perfbench/README.md) against the coverplan sources in
``src/`` of the checkout this file sits in, from one process and one thread,
as a closed loop with a single caller. Prints a line of run metadata and
workload-specific figures, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, and the spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``. Exits 2 without a
result when the coverplan sources are missing.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
# Times are reported in reference units: wall time scaled by
# REFERENCE_NS / (time of the calibration task measured next to it).
REFERENCE_NS = 1_000_000
CALIBRATION_WINDOW_NS = 250_000_000  # recalibrate between ops this often
# Share of --seconds a traced run spends on its untraced reference passes;
# the traced replay of the same passes takes that times the tracing overhead.
REFERENCE_SHARE = 0.25
MAX_REPORTED_ERRORS = 5


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import coverplan from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coverplan
    except ImportError as exc:
        raise ProgramMissing(f"cannot import coverplan from {src}: {exc}") from exc
    if Path(coverplan.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissing(f"coverplan was imported from {coverplan.__file__}, not {src}")
    return coverplan


# ---------------------------------------------------------------------------
# exact-count metrics of a traced run

COUNT_METRICS = (
    ("cspace.checks_per_query", "count"),
    ("search.expansions_per_query", "count"),
    ("online.steps_per_query", "count"),
    ("search.refine_iterations_per_query", "count"),
    ("search.expansion_yield", "ratio"),
    ("cover.library_bytes", "bytes"),
    ("cover.entries", "count"),
)


# ---------------------------------------------------------------------------
# calibration


def calibration_task() -> float:
    """Fixed pure-Python work of the same kind as coverplan's: A* on a 12x12
    grid whose walls are rectangles checked by linear scan, with tuple
    states, dict g-values, a heap and square roots. It never changes, so its
    duration measures how fast this machine runs such code at the moment.
    It imports nothing from coverplan, so no change to the program moves it."""
    n = 12
    walls = [(x, y, x + 1.0, y + 1.0) for x in range(3, n - 2, 5) for y in range(n - 3)]
    goal = (n - 1, 0)
    g = {(0, 0): 0}
    heap = [(0.0, (0, 0))]
    closed = set()
    while heap:
        _, cell = heapq.heappop(heap)
        if cell == goal:
            break
        if cell in closed:
            continue
        closed.add(cell)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (cell[0] + dx, cell[1] + dy)
            if not (0 <= nb[0] < n and 0 <= nb[1] < n) or nb in closed:
                continue
            px, py = nb[0] + 0.5, nb[1] + 0.5
            if any(x0 <= px <= x1 and y0 <= py <= y1 for x0, y0, x1, y1 in walls):
                continue
            g2 = g[cell] + 1
            if g2 < g.get(nb, n * n):
                g[nb] = g2
                heapq.heappush(heap, (g2 + math.sqrt((goal[0] - nb[0]) ** 2 + nb[1] ** 2), nb))
    return g[goal]


def calibrate() -> int:
    """Median of five timings of the calibration task, in ns."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        calibration_task()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[2]


def timed_setup(wl, seed: int) -> tuple[float, float]:
    """Run wl.setup(seed): (reference seconds, reference/wall scale)."""
    c0 = calibrate()
    t0 = time.perf_counter_ns()
    wl.setup(seed)
    wall = time.perf_counter_ns() - t0
    scale = 2 * REFERENCE_NS / (c0 + calibrate())
    return wall * scale / 1e9, scale


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Loop:
    ops: int = 0
    failed: int = 0
    busy_ns: float = 0  # reference ns inside op(), checks excluded
    wall_busy_ns: int = 0  # the same in wall ns
    latencies_ns: list[float] = field(default_factory=list)  # reference ns, completed ops
    ks: list[int] = field(default_factory=list)
    kept: list = field(default_factory=list)  # (k, outcome) of the first `keep` ops
    errors: list[str] = field(default_factory=list)
    calibrations_ns: list[int] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)


def run_loop(op, check, *, seconds=None, max_ops=None, keep=0) -> Loop:
    """Call op(0), op(1), ... until max_ops ops ran or `seconds` passed.
    check(k, outcome) runs between ops, outside
    the timed region; pass None to check the kept outcomes later.

    The calibration task runs at the start, at the end and between ops every
    CALIBRATION_WINDOW_NS. An op's times are scaled by the mean of the two
    calibrations around it."""
    loop = Loop()
    clock = time.perf_counter_ns
    deadline = None if seconds is None else clock() + int(seconds * 1e9)
    cals = [calibrate()]
    last_cal = clock()
    window = []  # (latency ns, busy ns, is a completed op) since the last calibration

    def close_window():
        nonlocal last_cal
        cals.append(calibrate())
        last_cal = clock()
        scale = 2 * REFERENCE_NS / (cals[-2] + cals[-1])
        for latency, busy, completed in window:
            loop.busy_ns += busy * scale
            if completed:
                loop.latencies_ns.append(latency * scale)
        window.clear()

    k = 0
    while True:
        if max_ops is not None and k >= max_ops:
            break
        if deadline is not None and clock() >= deadline:
            break
        t0 = clock()
        try:
            outcome = op(k)
        except Exception:  # a failed operation is counted, the run goes on
            busy = clock() - t0
            window.append((0, busy, False))
            loop.fail(f"op {k}: {traceback.format_exc(limit=4)}")
        else:
            busy = clock() - t0
            window.append((outcome.latency_ns, busy, True))
            loop.ks.append(k)
            if k < keep:
                loop.kept.append((k, outcome))
            if check is not None:
                error = check(k, outcome)
                if error:
                    loop.fail(f"op {k}: {error}")
        loop.wall_busy_ns += busy
        k += 1
        if clock() - last_cal >= CALIBRATION_WINDOW_NS:
            close_window()
    close_window()
    loop.ops = k
    loop.calibrations_ns = cals
    return loop


def percentile(values, q: int) -> float:
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def scenario_percentile(wl, loop: Loop, q: int) -> float:
    """Geometric mean over the workload's scenarios of each one's q-th
    latency percentile, in ms. Pooled, the three scenarios' latencies form
    separate clusters: the pooled median sat in a sparse gap between two of
    them and moved with each seed's mix, and a change to the fastest or the
    slowest scenario alone could not move it. Each scenario's samples are
    cut to whole passes over its inputs, so every input weighs the same
    whatever the seed's order."""
    by_scenario = {}
    for k, latency in zip(loop.ks, loop.latencies_ns):
        by_scenario.setdefault(wl.scenario_of(k), []).append(latency / 1e6)
    logs = []
    for s, xs in by_scenario.items():
        cycle = wl.inputs_per_pass(s)
        if len(xs) >= cycle:
            xs = xs[: len(xs) - len(xs) % cycle]
        logs.append(math.log(percentile(xs, q)))
    return math.exp(sum(logs) / len(logs))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(wl, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS):
    setups = [timed_setup(wl, seed) for _ in range(setup_repeats)]
    warm = run_loop(wl.op, wl.check, max_ops=wl.warmup_ops)
    main = run_loop(wl.op, wl.check, seconds=seconds)
    if not main.latencies_ns:
        raise RuntimeError("no operation completed: " + "; ".join(main.errors))
    metrics = {
        "setup_s": metric(statistics.median(ref for ref, _ in setups), "s"),
        "op_p50_ms": metric(scenario_percentile(wl, main, 50), "ms"),
        "op_p90_ms": metric(scenario_percentile(wl, main, 90), "ms"),
        "ops_per_s": metric(len(main.latencies_ns) / (main.busy_ns / 1e9), "1/s"),
    }
    result = Result(wl, (warm, main), metrics, main)
    named = result.named
    p50 = metrics["op_p50_ms"]["value"]
    if wl.name == "online":
        named["query_p50_us"] = metric(p50 * 1e3, "us")
        named["query_p99_us"] = metric(scenario_percentile(wl, main, 99) * 1e3, "us")
        named["queries_per_s"] = metrics["ops_per_s"]
    elif wl.name == "refine":
        named["refine_p50_ms"] = metrics["op_p50_ms"]
        named["refine_p90_ms"] = metrics["op_p90_ms"]
    elif wl.name == "offline":
        named["preprocess_s"] = metric(sum(wl.preprocess_s.values()) * setups[-1][1], "s")
        named["library_load_ms"] = metrics["op_p50_ms"]
    elif wl.name == "baselines":
        named["bench_trials_per_s"] = metric(metrics["ops_per_s"]["value"] * wl.trials, "1/s")
    named["setup_s"] = metrics["setup_s"]
    return result


class Result:
    """A run's metrics, its failure count over every op, and what went wrong."""

    def __init__(self, wl, loops, metrics, main):
        self.metrics = metrics
        self.attempted = sum(lp.ops for lp in loops) + len(wl.setup_errors)
        self.failed = sum(lp.failed for lp in loops) + len(wl.setup_errors)
        self.errors = wl.setup_errors + [e for lp in loops for e in lp.errors]
        self.named = {"error_rate": metric(self.failed / self.attempted, "ratio")}
        self.info = {
            "timed_ops": main.ops,
            "calibration_ns_median": statistics.median(main.calibrations_ns),
            "wall_busy_s": main.wall_busy_ns / 1e9,
        }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def exact_counts(wl, kept) -> dict:
    """Per-query counts from OpCounters over one untraced pass."""
    queries = [o for _, o in kept] if wl.name in ("online", "refine") else []
    n = len(queries) or 1
    selections = sum(o.refine[2] for o in queries)
    return {
        "cspace.checks_per_query": sum(o.ops[0] for o in queries) / n,
        "search.expansions_per_query": sum(o.ops[1] for o in queries) / n,
        "online.steps_per_query": sum(o.ops[2] for o in queries) / n,
        "search.refine_iterations_per_query": sum(o.refine[0] for o in queries) / n,
        "search.expansion_yield": sum(o.refine[1] for o in queries) / selections if selections else 0,
        "cover.library_bytes": wl.library_bytes,
        "cover.entries": wl.entries,
    }


def run_traced(wl, seed: int, seconds: float, trace_path, meta: dict):
    """Replays the workload's first trace_ops ops in whole passes: untraced
    (the first pass gives the exact counts), then the same passes with every
    layer wrapped. Identical passes make calls per op exact. Times are in
    reference units, like the untraced run's."""
    setup_s, setup_scale = timed_setup(wl, seed)
    ops = wl.trace_ops
    op = wl.trace_op

    def replay(k):
        return op(k % ops)

    warm = run_loop(op, wl.check, max_ops=wl.warmup_ops)
    first = run_loop(op, wl.check, max_ops=ops, keep=ops)
    passes = max(1, round(seconds * REFERENCE_SHARE * 1e9 / first.wall_busy_ns))
    n = ops * passes
    ref = run_loop(replay, wl.check, max_ops=n)

    tracer = tracing.Tracer()
    root = tracer.root(f"{wl.name}.op", replay)
    c0 = wl.counters()
    tracer.install()
    try:
        traced = run_loop(root, None, max_ops=n, keep=n)
        c1 = wl.counters()
    finally:
        tracer.uninstall()
    for k, outcome in traced.kept:  # checks run untraced
        error = wl.check(k, outcome)
        if error:
            traced.fail(f"traced op {k}: {error}")
    totals = tracer.layer_totals()
    checks_seen = c1[0] - c0[0]
    if not wl.counters_reset_per_op and totals["cspace.is_valid"][0] != checks_seen:
        traced.fail(
            f"wrapped is_valid saw {totals['cspace.is_valid'][0]} calls, "
            f"OpCounters counted {checks_seen} collision checks"
        )

    metrics = {}
    scale = traced.busy_ns / traced.wall_busy_ns  # reference ns per wall ns
    for layer, (calls, self_ns) in totals.items():
        metrics[f"{layer}.calls"] = metric(calls / n, "calls/op")
        metrics[f"{layer}.self_ms"] = metric(self_ns * scale / 1e6 / n, "ms/op")
        metrics[f"{layer}.ns_per_call"] = metric(self_ns * scale / calls if calls else 0, "ns")
    units = dict(COUNT_METRICS)
    for name, value in exact_counts(wl, first.kept).items():
        metrics[name] = metric(value, units[name])
    by_scenario = {}
    for k, lat in zip(ref.ks, ref.latencies_ns):
        by_scenario.setdefault(wl.scenario_names[wl.scenario_of(k % ops)], []).append(lat / 1e3)
    import workloads  # importable once coverplan is

    for name in workloads.Online.scenario_names:
        lats = by_scenario.get(name) if wl.name == "online" else None
        metrics[f"online.query.{name}.p50_us"] = metric(statistics.median(lats) if lats else 0, "us")
    for name in workloads.Offline.scenario_names:
        value = wl.preprocess_s.get(name, 0) * setup_scale if wl.name == "offline" else 0
        metrics[f"cover.preprocess.{name}_s"] = metric(value, "s")
    metrics["trace_overhead"] = metric(traced.busy_ns / ref.busy_ns, "x")

    result = Result(wl, (warm, first, ref, traced), metrics, traced)
    result.named["setup_s"] = metric(setup_s, "s")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(
        trace_path,
        {
            "meta": meta,
            "workload": wl.name,
            "traced_ops": n,
            "passes": passes,
            "untraced_ms": ref.busy_ns / 1e6,
            "traced_ms": traced.busy_ns / 1e6,
            "collision_checks": checks_seen,
            "failed": result.failed,
        },
    )
    return result


# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": git_commit(ROOT),
        "started_unix": time.time(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("online", "refine", "offline", "baselines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    meta = metadata(args)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](str(workdir))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            meta["trace_file"] = str(trace_path.relative_to(ROOT))
            result = run_traced(wl, args.seed, args.seconds, trace_path, meta)
        else:
            result = run_untraced(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in result.errors:
        print(f"check failed: {error}", file=sys.stderr)
    meta.update(result.info)
    print(json.dumps({"meta": meta, "named_metrics": result.named}))
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
