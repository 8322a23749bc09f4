"""The benchmark's workloads must still drive the package.

``perfbench/workloads.py`` calls coverplan's public functions and reads
its records (``Path.cost``, ``QueryResult.final_cost``, library payloads,
the potential-state index). An API change that breaks one of them would
otherwise only show when the benchmark runs. For each workload, set-up
runs at one seed, then one op per scenario, and ``check`` must pass each
outcome. The module is loaded from its file, unedited and without putting
``perfbench/`` on ``sys.path``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["online", "refine", "offline", "baselines"])
def test_workload_runs_and_checks(tmp_path, name):
    workload = load_workloads().WORKLOADS[name](str(tmp_path))
    workload.setup(seed=0)
    assert workload.setup_errors == []
    scenarios = {workload.scenario_of(k) for k in range(len(workload.scenario_names))}
    assert scenarios == set(range(len(workload.scenario_names)))
    for k in range(len(workload.scenario_names)):
        outcome = workload.op(k)
        assert workload.check(k, outcome) is None, (name, k)
