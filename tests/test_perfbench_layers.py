"""The benchmark's per-layer tracer must still find every layer it names,
and see every counted collision check.

``perfbench/tracing.py`` rebinds coverplan functions by module and
attribute name; a rename in the package would otherwise only show up when
someone runs the benchmark with ``--trace 1``. A traced run also fails any
operation whose counted checks differ from its wrapped ``is_valid`` calls,
so a hot path that charged checks without calling ``is_valid`` would
break it. The module is loaded from its file, unedited and without putting
``perfbench/`` on ``sys.path``.
"""

import importlib
import importlib.util
from pathlib import Path

from coverplan import CoverPlanner, bench, corpus
from coverplan import cover as pre

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    assert tracing.LAYERS
    for layer, module_name, attr in tracing.LAYERS:
        owner = importlib.import_module(f"{tracing.Tracer.package}.{module_name}")
        if "." in attr:  # a method: the tracer rebinds it on its class
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), layer
        else:
            assert callable(getattr(owner, attr, None)), layer


def test_traced_is_valid_calls_equal_counted_checks(tmp_path, monkeypatch):
    """Around preprocess, load_library, a refine sweep and one sequential
    bench experiment, the tracer's wrapped ``is_valid`` calls equal the
    collision checks that the scenario's counters charge. A bench trial
    resets the counters, so each reset adds the checks it clears."""
    sc = corpus.make_ladder_grid(21, (5, 10, 15))
    counters = sc.counters
    cleared = [0]
    reset = counters.reset

    def tallying_reset():
        cleared[0] += counters.collision_checks
        reset()

    monkeypatch.setattr(counters, "reset", tallying_reset)

    def checks():
        return cleared[0] + counters.collision_checks

    path = tmp_path / "lib.json"
    planner = CoverPlanner(seed=0)
    cfg = bench.ExperimentConfig(
        scenario="grid21_ladder",
        library="grid21_ladder",
        mode="sequential",
        trials=2,
        budget_ms=2000.0,
        planners=bench.KNOWN_PLANNERS,
        seed=3,
    )

    def sweep():
        planner.fit(sc)
        for q in sorted(q for rc in planner.library_.regions for q in rc.covered):
            assert planner.plan(q, budget_ms=1e7).optimal_flag

    runs = {
        "preprocess": lambda: pre.save_library(pre.preprocess(sc, seed=0), path),
        "load_library": lambda: pre.load_library(path, sc),
        "refine sweep": sweep,
        "sequential experiment": lambda: bench.run_sequential_experiment(
            sc, pre.load_library(path, sc), cfg
        ),
    }
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for name, run in runs.items():
            calls0, checks0 = tracer.layer_totals()["cspace.is_valid"][0], checks()
            run()
            calls = tracer.layer_totals()["cspace.is_valid"][0] - calls0
            assert calls == checks() - checks0 > 0, name
    finally:
        tracer.uninstall()
