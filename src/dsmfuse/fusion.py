"""Fuse a stack of co-registered 2.5D depth grids into one surface.

Two fusion operators:

* ``median_fuse``: per-cell median of the valid layer heights.  Robust only
  when many layers overlap; with 2-3 layers single-cell outliers survive as
  salt-and-pepper noise.
* ``adaptive_median_fuse``: per cell, a bilateral weight against the
  reference orthophoto selects an irregular window of similar nearby cells,

      W(x) = exp(-(|x - x0|^2 / (2 delta_s^2) + (I(x) - I(x0))^2 / (2 delta_i^2)))

  and the window is the set of cells with W(x) > gamma (strictly).
  ``window_weights`` is the one gate: it computes W at every window offset
  of every cell of a block.  The median is then taken over every valid
  height of every layer at every window cell, which multiplies the
  candidate count without pulling values across intensity edges, so depth
  boundaries stay sharp while flat areas smooth out.

W(x0) = 1 is the maximum of W, so weights need no further normalization.
The median of an even candidate count is the average of the two middle
values.  Fusion streams: ``read_strips`` reads the grids in lockstep, a row
strip at a time within one byte budget, and ``fuse_strips`` fuses each strip
for every layer count in ``ks`` with one gate and one gather per row block of
at most ``_BLOCK_BYTES`` candidate bytes, carrying a radius-row halo to the
next; ``jobs`` > 1 fuses a strip's blocks on that many threads (numpy's
sorts, ``exp`` and copies release the GIL).  Results are bit-identical for
any strip height, block height, thread count and ``ks``.

The block budget is 2 MiB per thread.  A block's candidates, weights and
masks are the adaptive fuse's largest allocation, so the budget sets its
peak memory, while the kernel's time barely depends on it.  On the benchmark
scene of seed 401 with 5 layers, on a 2-core AMD EPYC with 1 MiB of L2 per
core, the kernel takes 0.113 s at 2 MiB against 0.108 s at 4 MiB on 640x640
cells, and 1.22 s (one-row blocks) against 1.19 s at 8 MiB on 2048x2048.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .raster import GeometryMismatchError, RasterGrid, strip_rows, valid

_BLOCK_BYTES = 2 << 20  # candidate bytes per row block of the adaptive kernel; see above


@dataclass(frozen=True)
class FusionConfig:
    """Adaptive-window parameters.

    delta_s is in cells, delta_i in gray levels on a 0-255 intensity scale,
    gamma in (0, 1), radius in cells (half-width of the square search
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
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")


@dataclass
class DepthStack:
    """Ordered depth layers sharing a single grid geometry."""

    layers: list[RasterGrid]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a depth stack needs at least one layer")
        geom = self.layers[0].geometry
        for i, layer in enumerate(self.layers[1:], start=1):
            if layer.geometry != geom:
                raise GeometryMismatchError(
                    f"layer {i} geometry differs from layer 0"
                )

    @property
    def geometry(self):
        return self.layers[0].geometry


def _nan_median(a: np.ndarray) -> np.ndarray:
    """Median over the last axis ignoring NaN; all-NaN rows give NaN.

    Sorts ``a`` in place if it is C-contiguous, else a copy (a prefix of more grids).
    Even counts average the two middle order statistics.  Sort-based so the
    result is deterministic and independent of candidate ordering.
    """
    a = np.ascontiguousarray(a)
    a.sort(axis=-1)  # NaN sorts to the end
    n = np.count_nonzero(~np.isnan(a), axis=-1)
    safe = np.maximum(n, 1)
    lo = np.take_along_axis(a, ((safe - 1) // 2)[..., None], axis=-1)[..., 0]
    hi = np.take_along_axis(a, (safe // 2)[..., None], axis=-1)[..., 0]
    med = 0.5 * (lo + hi)
    med[n == 0] = np.nan
    return med


def read_strips(grids):
    """(rows, cols, grids) NaN strips, top to bottom, of grids on one geometry
    read in lockstep; each is a ``RasterGrid`` or a fresh ``GridReader``."""
    geom = grids[0].geometry
    rows = strip_rows(geom.n_cols, len(grids))
    for r0 in range(0, geom.n_rows, rows):
        strip = np.empty((min(rows, geom.n_rows - r0), geom.n_cols, len(grids)))
        for k, grid in enumerate(grids):
            part = grid.values[r0 : r0 + rows] if isinstance(grid, RasterGrid) else grid.read(rows)
            strip[..., k] = np.where(valid(part, grid.nodata), part, np.nan)
        yield strip


def fuse_strips(strips, cfg: FusionConfig | None = None, jobs: int = 1, ks=None):
    """Fused NaN rows of ``read_strips`` strips, (len(ks), rows, cols) at a time: for each
    ascending k in ``ks`` (default: all layers), the median of the first k grids or, with
    ``cfg``, their adaptive median (the ortho is the last grid; radius rows wait a strip)."""
    if cfg is None:
        yield from (np.stack([_nan_median(s[..., :k]) for k in ks or [s.shape[2]]]) for s in strips)
        return
    offsets = _window_offsets(cfg)  # the center always passes a gamma below 1
    rad = cfg.radius
    strips = iter(strips)
    ahead = next(strips)  # read one strip ahead: the last one takes the bottom padding
    n_cols, n_layers = ahead.shape[1], ahead.shape[2] - 1
    width = n_cols + 2 * rad
    rows = max(1, _BLOCK_BYTES // (n_cols * len(offsets) * n_layers * 8))
    fuse = partial(_fuse_block, offsets=offsets, cfg=cfg, ks=ks or [n_layers])
    # padded heights and ortho not yet fused, under the halo above them
    held = np.full((rad, width, n_layers), np.nan), np.full((rad, width), np.nan)
    with ThreadPoolExecutor(jobs) as pool:  # a thread starts only when a block is queued
        run = pool.map if jobs > 1 else map  # a one-thread pool is slower than map
        while ahead is not None:
            strip, ahead = ahead, next(strips, None)
            k, n = len(held[0]), len(strip)
            n_pad = k + n + (rad if ahead is None else 0)
            # one padded window per strip, heights and ortho apart: C-ordered, faster
            hpad = np.full((n_pad, width, n_layers), np.nan)
            opad = np.full((n_pad, width), np.nan)
            hpad[:k], opad[:k] = held
            hpad[k : k + n, rad : rad + n_cols] = strip[..., :-1]
            opad[k : k + n, rad : rad + n_cols] = strip[..., -1]
            del strip  # the window holds it now
            n_out = max(0, n_pad - 2 * rad)
            held = hpad[n_out:], opad[n_out:]
            if n_out:
                hpads = [hpad[r : r + rows + 2 * rad] for r in range(0, n_out, rows)]
                opads = [opad[r : r + rows + 2 * rad] for r in range(0, n_out, rows)]
                yield np.concatenate(list(run(fuse, hpads, opads)), axis=1)


def _fuse_grids(grids, cfg: FusionConfig | None, jobs: int) -> RasterGrid:
    (fused,) = np.concatenate(list(fuse_strips(read_strips(grids), cfg, jobs)), axis=1)
    return RasterGrid.from_nan(grids[0].geometry, fused, grids[0].nodata)


def median_fuse(stack: DepthStack) -> RasterGrid:
    """Per-cell median across layers; cells with no valid height get nodata."""
    return _fuse_grids(stack.layers, None, 1)


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


def window_weights(opad, offsets, cfg: FusionConfig) -> np.ndarray:
    """Bilateral weight W of every window offset of every cell: the one gate.

    ``opad`` is an orthophoto block NaN-padded by ``cfg.radius`` cells on
    each side and ``offsets`` are ``_window_offsets(cfg)``; the result is
    (rows, cols, offsets) in that order, and a cell's window is where it
    exceeds gamma.  A nodata neighbour of a valid center, the padding
    included, gets NaN, which fails the gate.  A nodata center gets the
    spatial-only weight, which passes at every kept offset, padding included;
    heights there are NaN, so no candidate comes from outside the grid.
    """
    rad = cfg.radius
    i0 = opad[rad : opad.shape[0] - rad, rad : opad.shape[1] - rad, None]
    w = _gather(opad, offsets, rad)
    w -= i0  # W = exp(-(spatial + d * d / (2 delta_i^2))), d the intensity step
    w *= w
    w /= 2.0 * cfg.delta_i * cfg.delta_i
    w += [spatial for _, _, spatial in offsets]
    np.exp(np.negative(w, out=w), out=w)
    # math.exp, as in _window_offsets: np.exp may differ by an ulp and
    # flip a kept offset out of the gate
    w[np.isnan(i0[..., 0])] = [math.exp(-spatial) for _, _, spatial in offsets]
    return w


def _gather(a, offsets, rad) -> np.ndarray:
    """(rows, cols, offsets, ...) values at every window offset of every cell of
    ``a``, a block padded by ``rad`` on each side.  One window row's offsets are
    consecutive with consecutive columns, so each window row is one slice of a
    strided view, and each cell copies one contiguous run of its values."""
    n_rows, n_cols, side = a.shape[0] - 2 * rad, a.shape[1] - 2 * rad, 2 * rad + 1
    win = as_strided(a, (n_rows, n_cols, side, side) + a.shape[2:], a.strides[:2] * 2 + a.strides[2:])
    out = np.empty((n_rows, n_cols, len(offsets)) + a.shape[2:])
    k = 0
    for di, row in groupby(offsets, key=itemgetter(0)):
        n, dj = len(list(row)), offsets[k][1]
        out[:, :, k : k + n] = win[:, :, rad + di, rad + dj : rad + dj + n]
        k += n
    return out


def _fuse_block(hpad, opad, offsets, cfg: FusionConfig, ks) -> np.ndarray:
    """Fuse one padded row block, hpad (rows+2r, cols+2r, layers), for each layer
    count in ``ks``, ascending: a count of all layers sorts the candidates in place."""
    member = window_weights(opad, offsets, cfg) > cfg.gamma
    n_rows, n_cols = member.shape[:2]
    cands = _gather(hpad, offsets, cfg.radius)
    cands.reshape(-1, hpad.shape[2])[np.flatnonzero(~member)] = np.nan  # every layer at a non-member offset
    return np.stack([_nan_median(cands[..., :k].reshape(n_rows, n_cols, -1)) for k in ks])


def adaptive_median_fuse(
    stack: DepthStack,
    ortho: RasterGrid,
    cfg: FusionConfig = FusionConfig(),
    jobs: int = 1,
) -> RasterGrid:
    """Adaptive bilateral-weighted median fusion.

    Per output cell, the candidate multiset is every valid height of every
    layer at every member cell of the cell's adaptive window computed on
    ``ortho``; the output is the candidates' median, or nodata when there
    are none.  ``jobs`` > 1 fuses each strip's row blocks on that many
    threads, with bit-identical results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if ortho.geometry != stack.geometry:
        raise GeometryMismatchError("orthophoto geometry differs from the stack")
    return _fuse_grids(stack.layers + [ortho], cfg, jobs)
