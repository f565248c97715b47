"""Deterministic synthetic scenes for exercising fusion and registration.

A scene is a flat ground plane with rectangular building prisms stamped on
it, returned as a truth DSM plus the matching intensity orthophoto.
``degrade`` then simulates per-pair matching artifacts: Gaussian height
noise, salt-and-pepper spikes, and holes without a sample.

All randomness flows through numpy SeedSequence spawning with one child
stream per purpose (noise, spikes, holes), so outputs are bit-reproducible
across runs and worker counts, and the streams stay aligned when a rate is
zero.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .raster import GridGeometry, RasterGrid, key_value_lines


def _require_finite(spec, *names: str) -> None:
    if bad := [name for name in names if not math.isfinite(getattr(spec, name))]:
        raise ValueError(f"{bad[0]} must be finite, got {getattr(spec, bad[0])}")


@dataclass(frozen=True)
class Building:
    """Axis-aligned footprint in cell coordinates; rows count from the top."""

    col: int
    row: int
    n_cols: int
    n_rows: int
    height: float
    intensity: float

    def __post_init__(self):
        _require_finite(self, "height", "intensity")


@dataclass(frozen=True)
class SceneSpec:
    """Scene layout.  Generation is purely geometric; the seed is carried
    so that derived products (degraded layers) can key off it."""

    seed: int
    width: int
    height: int
    cell_size: float = 1.0
    ground_height: float = 0.0
    ground_intensity: float = 60.0
    buildings: tuple[Building, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.seed < 0:  # SeedSequence's rule, checked before anything is written
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.width < 1 or self.height < 1:
            raise ValueError("scene must be at least 1x1 cells")
        _require_finite(self, "cell_size", "ground_height", "ground_intensity")
        for b in self.buildings:
            if b.height < 0:
                raise ValueError(f"building height must be >= 0, got {b.height}")
            if (
                b.col < 0
                or b.row < 0
                or b.col + b.n_cols > self.width
                or b.row + b.n_rows > self.height
            ):
                raise ValueError(f"building footprint {b} outside the scene")


@dataclass(frozen=True)
class DegradeSpec:
    seed: int
    gaussian_sigma: float = 0.0
    spike_prob: float = 0.0
    spike_amp: float = 0.0
    hole_prob: float = 0.0

    def __post_init__(self):
        if self.seed < 0:  # SeedSequence's rule, checked before anything is written
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _require_finite(self, "gaussian_sigma", "spike_amp")
        if self.gaussian_sigma < 0:
            raise ValueError("gaussian_sigma must be >= 0")
        for name in ("spike_prob", "hole_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


def read_scene(path, error: type[Exception]) -> SceneSpec:
    """The ``SceneSpec`` of a UTF-8 scene file's ``key=value`` lines: one per int or float
    field of ``SceneSpec``, required if it has no default, and ``building=`` lines of
    ``Building``'s fields, comma-separated.  A bad line or a missing key raises ``error``."""
    types, part_types = get_type_hints(SceneSpec), get_type_hints(Building)
    scalars, buildings = {}, []
    for lineno, key, value in key_value_lines(path, "=", error, "utf-8-sig", {"building"}):
        try:
            if key == "building":
                parts = value.split(",")
                if len(parts) != len(part_types):
                    names = ",".join(name.replace("_", "") for name in part_types)
                    raise ValueError(f"building needs {names}")
                buildings.append(Building(*(t(part) for t, part in zip(part_types.values(), parts))))
            elif types.get(key) in (int, float):
                scalars[key] = types[key](value)
            else:
                raise ValueError(f"unknown scene key {key!r}")
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
    for f in fields(SceneSpec):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in scalars:
            raise error(f"{path}: missing scene key {f.name!r}")
    return SceneSpec(buildings=tuple(buildings), **scalars)


def gen_scene(spec: SceneSpec) -> tuple[RasterGrid, RasterGrid]:
    """Truth DSM and orthophoto for a scene.

    Building prisms sit on the ground plane; where footprints overlap the
    later building in the list wins.
    """
    geom = GridGeometry(0.0, 0.0, spec.cell_size, spec.width, spec.height)
    dsm = np.full((spec.height, spec.width), spec.ground_height, dtype=np.float64)
    ortho = np.full((spec.height, spec.width), spec.ground_intensity, dtype=np.float64)
    for b in spec.buildings:
        rows = slice(b.row, b.row + b.n_rows)
        cols = slice(b.col, b.col + b.n_cols)
        dsm[rows, cols] = spec.ground_height + b.height
        ortho[rows, cols] = b.intensity
    return RasterGrid(geom, dsm), RasterGrid(geom, ortho)


def degrade(truth: RasterGrid, spec: DegradeSpec) -> RasterGrid:
    """Noisy copy of a truth grid: Gaussian noise, then a spike_prob fraction
    bumped by +-spike_amp (sign seeded), then a hole_prob fraction knocked
    out to NaN; a NaN cell of the truth stays NaN."""
    noise_rng, spike_rng, hole_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(3)
    )
    shape = truth.values.shape
    out = truth.values.copy()

    if spec.gaussian_sigma > 0:
        out += noise_rng.normal(0.0, spec.gaussian_sigma, size=shape)

    if spec.spike_prob > 0:
        hit = spike_rng.random(size=shape) < spec.spike_prob
        down = spike_rng.random(size=shape) < 0.5  # x - amp is x + (-amp), bit for bit
        np.subtract(out, spec.spike_amp, out=out, where=hit & down)
        np.add(out, spec.spike_amp, out=out, where=hit & ~down)

    if spec.hole_prob > 0:
        out[hole_rng.random(size=shape) < spec.hole_prob] = np.nan

    return RasterGrid(truth.geometry, out, truth.nodata)
