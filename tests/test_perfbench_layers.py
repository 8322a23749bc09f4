"""The benchmark's per-layer tracer must still find every layer it names.

``perfbench/tracing.py`` rebinds coverplan functions by module and
attribute name; a rename in the package would otherwise only show up when
someone runs the benchmark with ``--trace 1``. The module is loaded from
its file, unedited and without putting ``perfbench/`` on ``sys.path``.
"""

import importlib
import importlib.util
from pathlib import Path

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
