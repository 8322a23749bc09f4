"""The package's public surface."""

import coverplan

PUBLIC = [
    "ArmModel",
    "Circle",
    "Config",
    "CoverEntry",
    "CoverPlanner",
    "LIBRARY_FORMAT_VERSION",
    "Library",
    "OpCounters",
    "Path",
    "PotentialStateIndex",
    "QueryResult",
    "Rect",
    "RefineReport",
    "RegionCover",
    "RegionSpec",
    "SCENARIO_FORMAT_VERSION",
    "Scenario",
    "anytime_refine",
    "ara_star",
    "astar",
    "connect",
    "errors",
    "find_rep_path",
    "forward_kinematics",
    "heuristic",
    "is_valid",
    "load_library",
    "load_scenario",
    "path_home_to",
    "path_is_valid",
    "preprocess",
    "save_library",
    "save_scenario",
    "shortcut_path",
    "successors",
    "update_potential_index",
]


def test_exported_names_resolve_once():
    """Every name in ``coverplan.__all__`` exists, and none is listed twice."""
    names = coverplan.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(coverplan, name)]
    assert not missing


def test_public_surface_is_pinned():
    """``coverplan.__all__`` is exactly this list, so a change to the public
    surface shows in review."""
    assert sorted(coverplan.__all__) == PUBLIC
