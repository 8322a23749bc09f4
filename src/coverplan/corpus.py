"""Deterministic scenario corpus: seeded grids and planar arms.

Generators retry with derived seeds until the scenario is usable (home
valid, every region keeps at least one state reachable from home), so a
fixed (kind, size, density, seed) always yields the same scenario.
"""

from __future__ import annotations

import math
import random

from .cspace import ArmModel, Circle, Rect, RegionSpec, Scenario


def _regions_served(scenario: Scenario) -> bool:
    """Every region holds a state reachable from home (so home is valid)."""
    return all(reached for reached, _ in scenario.region_reach.values())


def make_grid(size: int, density: float, seed: int) -> Scenario:
    """Random-clutter grid: home mid-left edge, regions on the right corners."""
    home = (0, size // 2)
    regions = (
        RegionSpec("pick", (float(size - 3), 0.0, float(size), 3.0)),
        RegionSpec("place", (float(size - 3), float(size - 3), float(size), float(size))),
    )
    for attempt in range(200):
        rng = random.Random(seed * 1009 + attempt)
        obstacles = []
        for i in range(size):
            for j in range(size):
                if (i, j) == home:
                    continue
                if rng.random() < density:
                    obstacles.append(Rect((float(i), float(j), float(i + 1), float(j + 1))))
        scenario = Scenario(
            kind="grid",
            grid_dims=(size, size),
            s_home=home,
            regions=regions,
            obstacles=tuple(obstacles),
        )
        if _regions_served(scenario):
            return scenario
    raise RuntimeError(f"no usable {size}x{size} grid at density {density} from seed {seed}")


def make_arm(
    joints_per_rev: int,
    n_obstacles: int,
    seed: int,
    link_lengths: tuple[float, ...] = (1.0, 0.8),
) -> Scenario:
    """Planar arm (2 links by default) with seeded disc clutter; regions are EE boxes."""
    reach = sum(link_lengths)
    regions = (
        RegionSpec("pick", (0.55 * reach, 0.15 * reach, 1.0 * reach, 0.65 * reach)),
        RegionSpec("place", (-1.0 * reach, 0.15 * reach, -0.55 * reach, 0.65 * reach)),
    )
    home = (0,) * len(link_lengths)
    for attempt in range(200):
        rng = random.Random(seed * 2003 + attempt)
        obstacles = []
        for _ in range(n_obstacles):
            angle = rng.uniform(0.6, 2.5) * (1 if rng.random() < 0.5 else -1)
            radius = rng.uniform(0.45, 0.9) * reach
            obstacles.append(
                Circle(
                    center=(radius * math.cos(angle), radius * math.sin(angle)),
                    radius=rng.uniform(0.08, 0.16) * reach,
                )
            )
        scenario = Scenario(
            kind="arm",
            arm=ArmModel(link_lengths=link_lengths, joints_per_rev=joints_per_rev),
            s_home=home,
            regions=regions,
            obstacles=tuple(obstacles),
        )
        if _regions_served(scenario):
            return scenario
    raise RuntimeError(f"no usable arm scenario at {joints_per_rev} steps from seed {seed}")


def make_ladder_grid(size: int, wall_xs: tuple[int, ...]) -> Scenario:
    """Staggered-gap wall maze: the adversarial layout for fixed-schedule
    anytime baselines (every weight step flips the preferred gap, forcing
    repeated re-expansion waves)."""
    obstacles = []
    for k, x in enumerate(wall_xs):
        gap = size - 1 if k % 2 == 0 else 0
        for y in range(size):
            if y != gap:
                obstacles.append(Rect((float(x), float(y), float(x + 1), float(y + 1))))
    scenario = Scenario(
        kind="grid",
        grid_dims=(size, size),
        s_home=(0, size // 2),
        regions=(
            RegionSpec("pick", (float(size - 3), 0.0, float(size), 3.0)),
            RegionSpec("place", (float(size - 3), float(size - 3), float(size), float(size))),
        ),
        obstacles=tuple(obstacles),
    )
    if not _regions_served(scenario):
        raise RuntimeError("ladder layout must keep both regions reachable")
    return scenario


def corpus() -> list[tuple[str, Scenario]]:
    """The test corpus: >= 20 scenarios spanning sizes and clutter levels."""
    out: list[tuple[str, Scenario]] = []
    for size in (8, 12, 16, 24):
        for density in (0.0, 0.1, 0.2, 0.3):
            name = f"grid{size}_d{int(density * 100):02d}"
            out.append((name, make_grid(size, density, seed=size * 31 + int(density * 100))))
    for steps in (16, 24, 32):
        for n_obs in (0, 2):
            name = f"arm{steps}_o{n_obs}"
            out.append((name, make_arm(steps, n_obs, seed=steps * 7 + n_obs)))
    out.append(("grid21_ladder", make_ladder_grid(21, (5, 10, 15))))
    return out


def hard_scenarios() -> list[tuple[str, Scenario]]:
    """The toughest corpus members; used to stress from-scratch baselines."""
    keep = ("grid21_ladder", "grid24_d30", "arm32_o2")
    named = dict(corpus())
    return [(name, named[name]) for name in keep]
