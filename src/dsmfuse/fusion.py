"""Fuse a stack of co-registered 2.5D depth grids into one surface.

Two fusion operators:

* ``median_fuse``: per-cell median of the valid layer heights.  Robust only
  when many layers overlap; with 2-3 layers single-cell outliers survive as
  salt-and-pepper noise.
* ``adaptive_median_fuse``: per cell, a bilateral weight against the
  reference orthophoto selects an irregular window of similar nearby cells,

      W(x) = exp(-(|x - x0|^2 / (2 delta_s^2) + (I(x) - I(x0))^2 / (2 delta_i^2)))

  and the window is the set of cells with W(x) > gamma (strictly).  The
  median is then taken over every valid height of every layer at every
  window cell, which multiplies the candidate count without pulling values
  across intensity edges, so depth boundaries stay sharp while flat areas
  smooth out.

W(x0) = 1 is the maximum of W, so weights need no further normalization.
The median of an even candidate count is the average of the two middle
values.  Output cells are mutually independent, so the adaptive kernel runs
cell-major on row blocks sized by a fixed candidate-byte budget: blocks stay
cache-sized and memory is bounded for any grid width.  ``jobs`` > 1 gives
each worker one contiguous span of rows, with bit-identical results for any
block height and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .raster import CellIndex, GeometryMismatchError, RasterGrid

_BLOCK_BYTES = 8 << 20  # candidate bytes per row block of the adaptive kernel


@dataclass(frozen=True)
class FusionConfig:
    """Adaptive-window parameters.

    delta_s is in cells, delta_i in gray levels on a 0-255 intensity scale,
    gamma in (0, 1], radius in cells (half-width of the square search
    window).  Only the average-of-two-middles median tie rule is supported.
    """

    delta_s: float = 2.5
    delta_i: float = 15.0
    gamma: float = 0.5
    radius: int = 3

    def __post_init__(self):
        if not self.delta_s > 0:
            raise ValueError(f"delta_s must be > 0, got {self.delta_s}")
        if not self.delta_i > 0:
            raise ValueError(f"delta_i must be > 0, got {self.delta_i}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")


@dataclass
class DepthStack:
    """Ordered depth layers sharing a single grid geometry."""

    layers: list[RasterGrid]
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a depth stack needs at least one layer")
        geom = self.layers[0].geometry
        for i, layer in enumerate(self.layers[1:], start=1):
            if layer.geometry != geom:
                raise GeometryMismatchError(
                    f"layer {i} geometry differs from layer 0"
                )
        if not self.ids:
            self.ids = [f"layer-{i}" for i in range(len(self.layers))]
        if len(self.ids) != len(self.layers):
            raise ValueError("ids and layers must have the same length")

    @property
    def geometry(self):
        return self.layers[0].geometry


@dataclass(frozen=True)
class WeightKernel:
    """Evaluation context of the bilateral weight: the window's center.

    center_intensity None means the orthophoto has no data at the center;
    the kernel then degenerates to the spatial term only.
    """

    center: CellIndex
    center_intensity: float | None


@dataclass(frozen=True)
class AdaptiveWindow:
    members: frozenset[CellIndex]

    def __contains__(self, cell: CellIndex) -> bool:
        return cell in self.members

    def __len__(self) -> int:
        return len(self.members)


def weight(
    kernel: WeightKernel,
    x: CellIndex,
    intensity_at_x: float | None,
    cfg: FusionConfig,
) -> float:
    """Bilateral weight of cell x relative to the kernel center, in (0, 1]."""
    dc = x.col - kernel.center.col
    dr = x.row - kernel.center.row
    spatial = (dc * dc + dr * dr) / (2.0 * cfg.delta_s * cfg.delta_s)
    if kernel.center_intensity is None:
        return math.exp(-spatial)
    if intensity_at_x is None:
        raise ValueError("cell intensity required when the center has one")
    di = intensity_at_x - kernel.center_intensity
    return math.exp(-(spatial + di * di / (2.0 * cfg.delta_i * cfg.delta_i)))


def adaptive_window(
    ortho: RasterGrid, center: CellIndex, cfg: FusionConfig
) -> AdaptiveWindow:
    """Irregular window around a cell: all in-bounds cells of the square
    search window whose weight strictly exceeds gamma.

    With a valid center intensity, cells where the orthophoto has no data
    are excluded; with a nodata center the kernel is spatial-only and
    member intensities are irrelevant.
    """
    geom = ortho.geometry
    if not (0 <= center.col < geom.n_cols and 0 <= center.row < geom.n_rows):
        raise ValueError(f"center {center} out of bounds")
    valid = ortho.valid_mask()
    center_intensity = (
        float(ortho.values[center.row, center.col])
        if valid[center.row, center.col]
        else None
    )
    kernel = WeightKernel(center=center, center_intensity=center_intensity)
    members = []
    for row in range(
        max(0, center.row - cfg.radius), min(geom.n_rows, center.row + cfg.radius + 1)
    ):
        for col in range(
            max(0, center.col - cfg.radius), min(geom.n_cols, center.col + cfg.radius + 1)
        ):
            cell = CellIndex(col, row)
            if center_intensity is None:
                w = weight(kernel, cell, None, cfg)
            elif not valid[row, col]:
                continue
            else:
                w = weight(kernel, cell, float(ortho.values[row, col]), cfg)
            if w > cfg.gamma:
                members.append(cell)
    return AdaptiveWindow(members=frozenset(members))


def _nan_median(a: np.ndarray) -> np.ndarray:
    """Median over the last axis ignoring NaN; all-NaN rows give NaN.

    Sorts ``a`` in place.  Even counts average the two middle order
    statistics.  Sort-based so the result is deterministic and independent
    of candidate ordering.
    """
    a.sort(axis=-1)  # NaN sorts to the end
    n = np.count_nonzero(~np.isnan(a), axis=-1)
    safe = np.maximum(n, 1)
    lo = np.take_along_axis(a, ((safe - 1) // 2)[..., None], axis=-1)[..., 0]
    hi = np.take_along_axis(a, (safe // 2)[..., None], axis=-1)[..., 0]
    med = 0.5 * (lo + hi)
    med[n == 0] = np.nan
    return med


def median_fuse(stack: DepthStack) -> RasterGrid:
    """Per-cell median across layers; cells with no valid height get nodata."""
    arr = np.stack([layer.nan_values() for layer in stack.layers], axis=-1)
    med = _nan_median(arr)
    first = stack.layers[0]
    return RasterGrid.from_nan(stack.geometry, med, first.nodata)


def _window_offsets(cfg: FusionConfig):
    """(drow, dcol, spatial exponent) for offsets that can pass the gate.

    An offset whose pure spatial weight is already <= gamma can never
    produce a member (the intensity factor only shrinks the weight), so it
    is dropped up front.
    """
    out = []
    for di in range(-cfg.radius, cfg.radius + 1):
        for dj in range(-cfg.radius, cfg.radius + 1):
            spatial = (di * di + dj * dj) / (2.0 * cfg.delta_s * cfg.delta_s)
            if math.exp(-spatial) > cfg.gamma:
                out.append((di, dj, spatial))
    return out


def _fuse_block(hpad, opad, offsets, cfg: FusionConfig) -> np.ndarray:
    """Fuse one padded row block; hpad is (rows+2r, cols+2r, layers)."""
    rad = cfg.radius
    n_rows = opad.shape[0] - 2 * rad
    n_cols = opad.shape[1] - 2 * rad
    i0 = opad[rad : rad + n_rows, rad : rad + n_cols]
    i0_nan = np.isnan(i0)
    member = np.empty((n_rows, n_cols, len(offsets)), dtype=bool)
    cands = np.empty((n_rows, n_cols, len(offsets), hpad.shape[2]))
    for k, (di, dj, spatial) in enumerate(offsets):
        rows = slice(rad + di, rad + di + n_rows)
        cols = slice(rad + dj, rad + dj + n_cols)
        d = opad[rows, cols] - i0
        w = np.exp(-(spatial + d * d / (2.0 * cfg.delta_i * cfg.delta_i)))
        # NaN weights compare False; nodata-center cells fall back to the
        # spatial-only gate, which is True for every offset kept
        np.logical_or(i0_nan, w > cfg.gamma, out=member[:, :, k])
        cands[:, :, k, :] = hpad[rows, cols]
    np.copyto(cands, np.nan, where=~member[..., None])
    return _nan_median(cands.reshape(n_rows, n_cols, -1))


def _fuse_span(span, offsets, cfg: FusionConfig, block_rows: int) -> np.ndarray:
    """Fuse a padded (heights, ortho) span of rows, block_rows output rows at a time."""
    blocks = _row_blocks(*span, block_rows, cfg.radius)
    return np.concatenate([_fuse_block(h, o, offsets, cfg) for h, o in blocks])


def _row_blocks(hpad, opad, rows: int, rad: int):
    """Padded (heights, ortho) slices of ``rows`` output rows; the last may be short."""
    starts = range(0, len(opad) - 2 * rad, rows)
    return [(hpad[r0 : r0 + rows + 2 * rad], opad[r0 : r0 + rows + 2 * rad]) for r0 in starts]


def adaptive_median_fuse(
    stack: DepthStack,
    ortho: RasterGrid,
    cfg: FusionConfig | None = None,
    jobs: int = 1,
) -> RasterGrid:
    """Adaptive bilateral-weighted median fusion.

    Per output cell, the candidate multiset is every valid height of every
    layer at every member cell of the cell's adaptive window computed on
    ``ortho``; the output is the candidates' median, or nodata when there
    are none.  ``jobs`` > 1 splits the rows into at most that many contiguous
    spans fused in parallel processes, with bit-identical results.
    """
    if cfg is None:
        cfg = FusionConfig()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if ortho.geometry != stack.geometry:
        raise GeometryMismatchError("orthophoto geometry differs from the stack")
    geom = stack.geometry
    nodata = stack.layers[0].nodata
    offsets = _window_offsets(cfg)
    if not offsets:  # gamma = 1 exactly: the strict gate admits no cell
        return RasterGrid(geom, np.full((geom.n_rows, geom.n_cols), nodata), nodata)
    rad = cfg.radius
    n_layers = len(stack.layers)
    hpad = np.full((geom.n_rows + 2 * rad, geom.n_cols + 2 * rad, n_layers), np.nan)
    for li, layer in enumerate(stack.layers):
        hpad[rad : rad + geom.n_rows, rad : rad + geom.n_cols, li] = layer.nan_values()
    opad = np.pad(ortho.nan_values(), rad, constant_values=np.nan)

    block_rows = max(1, _BLOCK_BYTES // (geom.n_cols * len(offsets) * n_layers * hpad.itemsize))
    spans = _row_blocks(hpad, opad, math.ceil(geom.n_rows / jobs), rad)
    fuse = partial(_fuse_span, offsets=offsets, cfg=cfg, block_rows=block_rows)
    if len(spans) > 1:
        # imported here: loading multiprocessing costs every command ~6 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            fused = list(pool.map(fuse, spans))
    else:
        fused = [fuse(spans[0])]
    return RasterGrid.from_nan(geom, np.concatenate(fused), nodata)
