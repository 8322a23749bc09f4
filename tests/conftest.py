import pytest

from coverplan import ArmModel, Circle, RegionSpec, Rect, Scenario
from coverplan import cover


def cell_rect(i, j):
    """A rectangle obstacle occupying exactly grid cell (i, j)."""
    return Rect((float(i), float(j), float(i + 1), float(j + 1)))


def grid(size, obstacles=(), home=(0, 0), regions=None):
    if regions is None:
        regions = (RegionSpec("goal", (size - 2.0, size - 2.0, float(size), float(size))),)
    return Scenario(
        kind="grid",
        grid_dims=(size, size),
        s_home=home,
        regions=tuple(regions),
        obstacles=tuple(obstacles),
    )


def arm3_s16():
    """The benchmark's 3-link arm: 16 joint steps per revolution, two discs."""
    reach = 2.4
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 0.8, 0.6), joints_per_rev=16),
        s_home=(0, 0, 0),
        regions=(
            RegionSpec("pick", (0.55 * reach, 0.15 * reach, 1.0 * reach, 0.65 * reach)),
            RegionSpec("place", (-1.0 * reach, 0.15 * reach, -0.55 * reach, 0.65 * reach)),
        ),
        obstacles=(Circle((0.0, 1.7), 0.25), Circle((0.3, -1.5), 0.3)),
    )


@pytest.fixture
def empty8():
    return grid(8)


@pytest.fixture
def two_region_grid12():
    return grid(
        12,
        home=(0, 6),
        regions=(
            RegionSpec("pick", (9.0, 0.0, 12.0, 3.0)),
            RegionSpec("place", (9.0, 9.0, 12.0, 12.0)),
        ),
    )


@pytest.fixture
def unit_arm():
    return Scenario(
        kind="arm",
        arm=ArmModel(link_lengths=(1.0, 1.0), joints_per_rev=16),
        s_home=(0, 0),
        regions=(RegionSpec("reach", (1.9, -0.1, 2.1, 0.1)),),
    )


def v1_projection(payload):
    """A library payload in format 1: no descent moves, ``rep_paths`` a list.

    Format 2 added one descent move per member and stored the single
    representative path as ``rep_path``; everything else is unchanged, so
    the projection of a format-2 file serializes to the format-1 bytes.
    """
    regions = []
    for rc in payload["regions"]:
        entries = []
        for e in rc["entries"]:
            v1 = {k: v for k, v in e.items() if k not in ("moves", "rep_path")}
            entries.append(dict(v1, rep_paths=[e["rep_path"]]))
        regions.append(dict(rc, entries=entries))
    return dict(payload, format_version=1, regions=regions)


def v2_projection(payload, scenario):
    """A format-3 library payload in format 2: the derived fields put back.

    Format 3 stores the cover alone and derives each region's ``covered``
    and ``excluded`` sets and each entry's ``rep_path`` from the scenario
    at load. The projection loads the payload and writes those fields as
    format 2 did (sorted lattice ranks, delta encoded; the path's states),
    so a library whose projection serializes to the format-2 bytes lost
    nothing but fields that the loader derives back unchanged.
    """
    library = cover.library_from_payload(payload, scenario)

    def ranks(configs):
        return cover._deltas(sorted(cover._ranks(configs, library.dims)))

    regions = []
    for rc, loaded in zip(payload["regions"], library.regions):
        entries = [
            dict(e, rep_path=[list(q) for q in entry.rep_path.configs])
            for e, entry in zip(rc["entries"], loaded.entries)
        ]
        covered, excluded = ranks(loaded.covered), ranks(loaded.excluded)
        regions.append(dict(rc, entries=entries, covered=covered, excluded=excluded))
    return dict(payload, format_version=2, regions=regions)
