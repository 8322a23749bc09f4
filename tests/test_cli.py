import dataclasses
import json

import pytest

from conftest import v3_projection
from coverplan import bench, cli, corpus, cover, cspace


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    sc = corpus.make_grid(8, 0.0, seed=1)
    path = d / "scenario.json"
    cspace.save_scenario(sc, path)
    return d, sc, str(path)


def test_preprocess_then_query_smoke(scenario_file, capsys):
    d, sc, spath = scenario_file
    lpath = str(d / "library.json")
    assert cli.main(["preprocess", "--scenario", spath, "--out", lpath, "--seed", "2"]) == 0
    out = capsys.readouterr().out
    library = cover.load_library(lpath, sc)
    entries = sum(len(rc.entries) for rc in library.regions)
    covered = sum(len(rc.covered) for rc in library.regions)
    states = sum(len(cspace.region_configs(sc, region)) for region in sc.regions)
    assert out == (
        f"library written to {lpath}: 2 regions, {entries} entries, "
        f"{covered} covered states, {states - covered} excluded states\n"
    )

    goal = "6,1"
    code = cli.main(
        ["query", "--scenario", spath, "--library", lpath, "--goal", goal, "--budget-ms", "200"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "(6,1)" in out
    assert "cost:" in out


def test_query_no_refine_flag(scenario_file, capsys):
    d, sc, spath = scenario_file
    lpath = str(d / "library.json")
    cli.main(["preprocess", "--scenario", spath, "--out", lpath])
    capsys.readouterr()
    code = cli.main(
        ["query", "--scenario", spath, "--library", lpath, "--goal", "6,6", "--no-refine"]
    )
    assert code == 0
    assert "refine 0.000 ms" in capsys.readouterr().out


def test_unknown_flag_exits_2(scenario_file):
    d, sc, spath = scenario_file
    with pytest.raises(SystemExit) as exc:
        cli.main(["preprocess", "--scenario", spath, "--frobnicate"])
    assert exc.value.code == 2


def test_goal_uncovered_exits_1(scenario_file, capsys):
    d, sc, spath = scenario_file
    lpath = str(d / "library.json")
    cli.main(["preprocess", "--scenario", spath, "--out", lpath])
    capsys.readouterr()
    code = cli.main(["query", "--scenario", spath, "--library", lpath, "--goal", "0,7"])
    assert code == 1
    assert "GoalUncovered" in capsys.readouterr().err


def test_version_prints_format_versions(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "scenario format 1" in out
    assert "library format 4" in out


def test_query_on_an_older_library_names_the_rebuild(scenario_file, capsys):
    """A format-3 library file is refused: exit 1, with the command that
    rebuilds it in the error."""
    d, sc, spath = scenario_file
    lpath = d / "library_v3.json"
    payload = cover.library_to_payload(cover.preprocess(sc, seed=0))
    lpath.write_text(json.dumps(v3_projection(payload, sc)))
    code = cli.main(["query", "--scenario", spath, "--library", str(lpath), "--goal", "6,1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "LibraryVersionError" in err and "format_version 3" in err
    assert "coverplan preprocess --scenario" in err and "--out" in err


def test_bench_subcommand(scenario_file, capsys):
    d, sc, spath = scenario_file
    lpath = str(d / "library.json")
    cli.main(["preprocess", "--scenario", spath, "--out", lpath])
    cfg = bench.ExperimentConfig(
        scenario=spath,
        library=lpath,
        trials=3,
        planners=("ctmp", "ctmp+refine"),
        outdir=str(d / "bench_out"),
    )
    cpath = d / "cfg.json"
    bench.save_experiment_config(cfg, cpath)
    capsys.readouterr()
    assert cli.main(["bench", "--config", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "trials.csv" in out
    assert (d / "bench_out" / "anytime_profile.svg").exists()


def test_missing_scenario_file_exits_1(capsys):
    code = cli.main(["preprocess", "--scenario", "/nonexistent.json", "--out", "/tmp/x.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_query_on_a_file_nested_too_deep_exits_1(scenario_file, tmp_path, capsys):
    """A 100,000-deep JSON array, read as the scenario or the library, is
    an error line, not a traceback."""
    d, sc, spath = scenario_file
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    for scenario, library in ((deep, "l.json"), (spath, deep)):
        argv = ["query", "--scenario", str(scenario), "--library", str(library), "--goal", "6,1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot read" in err and "Traceback" not in err


def test_bad_config_exits_1(scenario_file, tmp_path, capsys):
    d, sc, spath = scenario_file
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 1, "scenario": spath}))
    code = cli.main(["bench", "--config", str(bad)])
    assert code == 1


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "not a JSON object"),
        ({"planners": 5}, "'planners'"),
        ({"trials": None}, "'trials'"),
        ({"budget_ms": float("nan")}, "'budget_ms': nan is not a finite number"),
        ({"mode": "sequential", "budget_range_ms": [500]}, "budget_range_ms"),
        ({"mode": "sequential", "budget_range_ms": [3000, 500]}, "budget_range_ms"),
        ({"mode": "sequential", "budget_range_ms": [0, 500]}, "budget_range_ms"),
        ({"mode": "sequential", "budget_range_ms": ["a", "b"]}, "budget_range_ms"),
        ({"mode": "sequential", "budget_range_ms": 5}, "'budget_range_ms'"),
        ({"budget_range_ms": [500, 3000]}, "sequential mode only"),
        ({"scenario": 0}, "scenario must be a path string"),
        ({"outdir": 5}, "outdir must be a path string"),
        ({"trials": 2.7}, "'trials' must be an int"),
        ({"trials": True}, "'trials' must be an int"),
        ({"seed": True}, "'seed' must be an int"),
        ({"seed": 1.5}, "'seed' must be an int"),
        ({"wastar_weight": 3.0}, "unknown keys 'wastar_weight'"),
        ({"ara_w0": 50.0}, "unknown keys 'ara_w0'"),
        ({"ara_dw": 5.0}, "unknown keys 'ara_dw'"),
        ({"trails": 3}, "unknown keys 'trails'"),
        ({"ara_w0": 50.0, "trails": 3, "trials": 3}, "unknown keys 'ara_w0', 'trails'"),
        ({"planners": []}, "planners must name at least one planner"),
        ({"planners": ["ctmp", "ctmp"]}, "planner 'ctmp' is listed twice"),
        # numbers follow the scenario file's rule: no bool, string or non-finite value
        ({"budget_ms": True}, "'budget_ms': True is not a finite number"),
        ({"budget_ms": "500"}, "'budget_ms': '500' is not a finite number"),
        ({"budget_ms": "inf"}, "'budget_ms': 'inf' is not a finite number"),
        ({"budget_ms": float("inf")}, "'budget_ms': inf is not a finite number"),
        ({"mode": "sequential", "budget_range_ms": [1, float("inf")]}, "inf is not a finite"),
        # raw file bytes: not UTF-8, and an array nested too deep to parse
        pytest.param(b'{"scenario": "\xff"}', "cannot read experiment config", id="not-utf-8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "cannot read", id="nested-too-deep"),
    ],
)
def test_bad_config_values_exit_1(scenario_file, tmp_path, capsys, payload, message):
    """A config the loader or ExperimentConfig refuses is an error line, not a traceback."""
    d, sc, spath = scenario_file
    if isinstance(payload, dict):
        payload = {"format_version": 1, "scenario": spath, "library": "l.json", **payload}
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    assert cli.main(["bench", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cross_process_determinism(scenario_file, tmp_path):
    """Separate interpreter runs (different hash seeds) produce identical bytes."""
    import os
    import subprocess
    import sys

    import coverplan

    d, sc, spath = scenario_file
    # the child imports the package from the source tree this test imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(coverplan.__file__)))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    blobs = {}
    for run, hashseed in ((0, "1"), (1, "31337")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=pythonpath)
        lib = tmp_path / f"lib_{run}.json"
        out = subprocess.run(
            [sys.executable, "-m", "coverplan", "preprocess", "--scenario", spath,
             "--out", str(lib), "--seed", "5"],
            env=env,
            capture_output=True,
        )
        assert out.returncode == 0, out.stderr
        cfg = bench.ExperimentConfig(
            scenario=spath,
            library=str(lib),
            trials=4,
            planners=("ctmp", "ctmp+refine", "arastar"),
            seed=2,
            outdir=str(tmp_path / f"out_{run}"),
        )
        cpath = tmp_path / f"cfg_{run}.json"
        bench.save_experiment_config(cfg, cpath)
        out = subprocess.run(
            [sys.executable, "-m", "coverplan", "bench", "--config", str(cpath)],
            env=env,
            capture_output=True,
        )
        assert out.returncode == 0, out.stderr
        blobs[run] = (
            lib.read_bytes(),
            (tmp_path / f"out_{run}" / "trials.csv").read_bytes(),
        )
    assert blobs[0] == blobs[1]


def test_shipped_scenarios_load(tmp_path, capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    for name in ("grid12_demo.json", "arm16_demo.json"):
        scenario = cspace.load_scenario(root / "scenarios" / name)
        assert cspace.is_valid(scenario, scenario.s_home)
    demo = root / "scenarios" / "bench_demo.json"
    bench.load_experiment_config(demo)
    # the shipped example sets every field, and nothing else
    fields = {f.name for f in dataclasses.fields(bench.ExperimentConfig)}
    assert json.loads(demo.read_text()).keys() == fields | {"format_version"}
    spath = str(root / "scenarios" / "grid12_demo.json")
    lpath = str(tmp_path / "demo_lib.json")
    assert cli.main(["preprocess", "--scenario", spath, "--out", lpath]) == 0
    assert (
        cli.main(["query", "--scenario", spath, "--library", lpath, "--goal", "10,10"]) == 0
    )
