"""Fuse a stack of co-registered 2.5D depth grids into one surface.

Two fusion operators:

* ``median_fuse``: per-cell median of the valid layer heights.  Robust only
  when many layers overlap; with 2-3 layers single-cell outliers survive as
  salt-and-pepper noise.
* ``adaptive_median_fuse``: per cell, a bilateral weight against the
  reference orthophoto selects an irregular window of similar nearby cells,

      W(x) = exp(-(|x - x0|^2 / (2 delta_s^2) + (I(x) - I(x0))^2 / (2 delta_i^2)))

  and the window is the set of cells with W(x) > gamma (strictly).
  ``_weight`` states W once, in scalar ``math.exp``.  The kernel's gate,
  ``window_members``, takes its decisions without ``exp``: at each offset W
  falls as |I(x) - I(x0)| grows, so W > gamma is |I(x) - I(x0)| <= D_k for
  one bound per offset, bisected through ``_weight`` once per fuse and
  handed to each block, so the gate is the brute-force definition's.  The
  median is then taken over every valid height of every layer at every
  window cell, which multiplies the candidate count without pulling values
  across intensity edges, so depth boundaries stay sharp while flat areas
  smooth out.

W(x0) = 1 is the maximum of W, so weights need no further normalization.
The median of an even candidate count is the average of the two middle
values.  Fusion streams: ``read_strips`` reads the grids in lockstep, a row
strip at a time within one byte budget, and ``fuse_strips`` fuses each strip
for every layer count in ``ks`` with one gate and one gather per row block of
at most ``_BLOCK_BYTES`` candidate bytes, carrying a halo as deep as the
window reaches to the next; ``jobs`` > 1 fuses a strip's blocks on that many
threads (numpy's sorts, comparisons and copies release the GIL).  Results
are bit-identical for any strip height, block height, thread count and ``ks``.

The block budget is 2 MiB per thread.  A block's candidates, intensity steps
and masks are the adaptive fuse's largest allocation, so the budget sets its
peak memory, while the kernel's time barely depends on it.  On the benchmark
scene of seed 401 with 5 layers, on a 2-core Intel Xeon with 2 MiB of L2 per
core, the kernel takes 0.39 s at 2 MiB against 0.38 s at 4 MiB on 640x640
cells (medians of 11 alternating runs), and 4.2 s (one-row blocks) against
5.0 s at 8 MiB on 2048x2048.
"""

from __future__ import annotations

import logging
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .raster import GeometryMismatchError, RasterGrid, strip_rows

_BLOCK_BYTES = 2 << 20  # candidate bytes per row block of the adaptive kernel; see above

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FusionConfig:
    """Adaptive-window parameters.

    delta_s is in cells, delta_i in gray levels on a 0-255 intensity scale,
    both finite and > 0, gamma in (0, 1), radius in cells (half-width of the
    square search window).
    """

    delta_s: float = 2.5
    delta_i: float = 15.0
    gamma: float = 0.5
    radius: int = 3

    def __post_init__(self):
        for name in ("delta_s", "delta_i"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")


def _nan_median(a: np.ndarray) -> np.ndarray:
    """Median over the last axis ignoring NaN; all-NaN rows give NaN.

    Sorts ``a`` in place if it is C-contiguous, else a copy (a prefix of more grids).
    Even counts average the two middle order statistics, ``0.5 * (lo + hi)``, or
    ``0.5 * lo + 0.5 * hi`` where that sum overflows.  Sort-based so the
    result is deterministic and independent of candidate ordering.
    """
    a = np.ascontiguousarray(a)
    a.sort(axis=-1)  # NaN sorts to the end
    size = a.shape[-1]
    # one byte sum counts a row's NaNs, in a type that holds the row's length
    n = size - np.isnan(a).view(np.uint8).sum(axis=-1, dtype=np.min_scalar_type(size))
    safe = np.maximum(n, 1)  # an all-NaN row picks its first slot, a NaN
    first = np.arange(0, a.size, size).reshape(n.shape)  # flat index of each row's first slot
    lo, hi = a.reshape(-1).take(first + (safe - 1) // 2), a.reshape(-1).take(first + safe // 2)
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    if np.isinf(mid).any():  # where lo or hi is infinite the halves' sum is the same
        mid = np.where(np.isinf(mid), 0.5 * lo + 0.5 * hi, mid)
    # -0.0 and 0.0 sort as equal, so which lands in the middle follows the
    # layer order; + 0.0 makes every zero median +0.0 and changes nothing else
    return mid + 0.0


def read_strips(grids):
    """(rows, cols, grids) strips, top to bottom, of grids read in lockstep, NaN where a
    cell holds no sample as in each grid; each is a ``RasterGrid`` or a fresh
    ``GridReader``, all on the first one's geometry."""
    geom = grids[0].geometry
    for k, grid in enumerate(grids):
        if grid.geometry != geom:
            raise GeometryMismatchError(f"grid {k} geometry differs from grid 0")
    rows = strip_rows(geom.n_cols, len(grids))
    for r0 in range(0, geom.n_rows, rows):
        strip = np.empty((min(rows, geom.n_rows - r0), geom.n_cols, len(grids)))
        for k, grid in enumerate(grids):
            strip[..., k] = grid.values[r0 : r0 + rows] if isinstance(grid, RasterGrid) else grid.read(rows)
        yield strip


def fuse_strips(strips, cfg: FusionConfig | None = None, jobs: int = 1, ks=None):
    """Fused NaN rows of ``read_strips`` strips, (len(ks), rows, cols) at a time: for each
    ascending k in ``ks`` (default: all layers), the median of the first k grids or, with
    ``cfg``, their adaptive median (the ortho is the last grid; as many rows as the window
    reaches wait a strip).  An ortho outside [0, 255], the gray scale ``delta_i`` is
    calibrated on, warns once."""
    if cfg is None:
        yield from (np.stack([_nan_median(s[..., :k]) for k in ks or [s.shape[2]]]) for s in strips)
        return
    offsets = _window_offsets(cfg)  # the center always passes a gamma below 1
    bounds = _intensity_bounds(cfg)  # bisected once per fuse, before the first read
    rad = max(di for di, _, _ in offsets)  # the window's reach: rows and columns of padding
    strips = iter(strips)
    ahead = next(strips)  # read one strip ahead: the last one takes the bottom padding
    n_cols, n_layers = ahead.shape[1], ahead.shape[2] - 1
    width = n_cols + 2 * rad
    rows = max(1, _BLOCK_BYTES // (n_cols * len(offsets) * n_layers * 8))
    fuse = partial(_fuse_block, offsets=offsets, bounds=bounds, rad=rad, ks=ks or [n_layers])
    # padded heights and ortho not yet fused, under the halo above them
    held = np.full((rad, width, n_layers), np.nan), np.full((rad, width), np.nan)
    in_scale = True
    with ThreadPoolExecutor(jobs) as pool:  # a thread starts only when a block is queued
        run = pool.map if jobs > 1 else map  # a one-thread pool is slower than map
        while ahead is not None:
            strip, ahead = ahead, next(strips, None)
            if in_scale and ((strip[..., -1] < 0.0) | (strip[..., -1] > 255.0)).any():
                in_scale = False
                log.warning("ortho intensities outside [0, 255]; "
                            "delta-i is calibrated for a 0-255 gray scale")
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


def _fuse_grids(layers, cfg: FusionConfig | None, jobs: int, *ortho) -> RasterGrid:
    if not layers:
        raise ValueError("fusion needs at least one layer")
    (fused,) = np.concatenate(list(fuse_strips(read_strips([*layers, *ortho]), cfg, jobs)), axis=1)
    fused.flags.writeable = False  # the grid shares it
    return RasterGrid(layers[0].geometry, fused, layers[0].nodata)


def median_fuse(layers: list[RasterGrid]) -> RasterGrid:
    """Per-cell median across layers on one geometry; a cell with no valid height is NaN."""
    return _fuse_grids(layers, None, 1)


def _window_offsets(cfg: FusionConfig):
    """(drow, dcol, spatial exponent) for offsets that can pass the gate.

    An offset whose pure spatial weight, W at d = 0, is already <= gamma can
    never produce a member (the intensity factor only shrinks the weight),
    so it is dropped up front.  W falls with distance, so no offset of a
    ring past the first whose on-axis offset fails can pass: the loops stop
    at the window's reach, however large the radius.
    """
    def spatial(di, dj):
        return (di * di + dj * dj) / (2.0 * cfg.delta_s * cfg.delta_s)

    reach = 0
    while reach < cfg.radius and _weight(0.0, spatial(reach + 1, 0), cfg) > cfg.gamma:
        reach += 1
    out = []
    for di in range(-reach, reach + 1):
        for dj in range(-reach, reach + 1):
            if _weight(0.0, spatial(di, dj), cfg) > cfg.gamma:
                out.append((di, dj, spatial(di, dj)))
    return out


def _weight(d, spatial, cfg: FusionConfig) -> float:
    """W at intensity step d and spatial exponent ``spatial``: its arithmetic, stated once."""
    return math.exp(-(spatial + d * d / (2.0 * cfg.delta_i * cfg.delta_i)))


def window_members(opad, offsets, bounds, rad) -> np.ndarray:
    """The gate, W > gamma, of every offset of every cell, (rows, cols, offsets), of an
    ortho block NaN-padded by ``rad``: decided as |I(x) - I(x0)| <= D_k with ``bounds``,
    ``_intensity_bounds(cfg)``.  A nodata neighbour, the padding included, fails; a
    nodata center passes every kept offset, where W is the spatial weight."""
    i0 = opad[rad : opad.shape[0] - rad, rad : opad.shape[1] - rad, None]
    d = _gather(opad, offsets, rad)
    d -= i0
    member = np.abs(d, out=d) <= bounds  # NaN, a nodata neighbour, fails
    member[np.isnan(i0[..., 0])] = True
    return member


def _intensity_bounds(cfg: FusionConfig) -> np.ndarray:
    """D_k per ``_window_offsets`` offset: the largest |I(x) - I(x0)| that passes
    the gate at a valid center, >= 0 as every kept offset passes at d = 0.

    W's exponent rises with |d| through every rounding of ``d * d``, ``/`` and
    ``+``, so the gate is one step in |d| if ``math.exp`` steps once at gamma;
    that is checked over 4096 ulps of the exponent either side.  Each D_k is
    then bisected through ``_weight``, once per distinct spatial exponent.
    """
    t_max = _last_passing(lambda t: math.exp(-t) > cfg.gamma)
    ulps = np.arange(-4096, 4097)
    t = (np.float64(t_max).view(np.int64) + ulps).view(np.float64)
    if [math.exp(-x) > cfg.gamma for x in t.tolist()] != (ulps <= 0).tolist():
        raise ArithmeticError(f"math.exp does not step once at the gate of {cfg}")
    spatials = [spatial for _, _, spatial in _window_offsets(cfg)]
    bound = {s: _last_passing(lambda d: _weight(d, s, cfg) > cfg.gamma) for s in set(spatials)}
    return np.array([bound[s] for s in spatials])


def _last_passing(passes) -> float:
    """The largest float x >= 0 that ``passes``, a test that holds from 0 up to a point
    and fails at inf; bisected over bits, which order such floats as integers."""
    def as_float(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi = 0, 0x7FF0_0000_0000_0000  # the bits of 0.0 and inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(as_float(mid)) else (lo, mid)
    return as_float(lo)


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


def _fuse_block(hpad, opad, offsets, bounds, rad, ks) -> np.ndarray:
    """Fuse one padded row block, hpad (rows+2r, cols+2r, layers), for each layer
    count in ``ks``, ascending: a count of all layers sorts the candidates in place."""
    member = window_members(opad, offsets, bounds, rad)
    n_rows, n_cols = member.shape[:2]
    cands = _gather(hpad, offsets, rad)
    cands.reshape(-1, hpad.shape[2])[np.flatnonzero(~member)] = np.nan  # every layer at a non-member offset
    return np.stack([_nan_median(cands[..., :k].reshape(n_rows, n_cols, -1)) for k in ks])


def adaptive_median_fuse(
    layers: list[RasterGrid],
    ortho: RasterGrid,
    cfg: FusionConfig = FusionConfig(),
    jobs: int = 1,
) -> RasterGrid:
    """Adaptive bilateral-weighted median fusion.

    Per output cell, the candidate multiset is every valid height of every
    layer at every member cell of the cell's adaptive window computed on
    ``ortho``, whose geometry the layers share; the output is the
    candidates' median, or NaN when there are none.  ``jobs`` > 1 fuses
    each strip's row blocks on that many threads, with bit-identical results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return _fuse_grids(layers, cfg, jobs, ortho)
