"""DSM-to-DSM alignment and the RMSE evaluation protocol.

The alignment model is a pure 3-parameter translation (dx, dy, dz): the
rotational differences between DSM pairs of the same scene are ignorable,
so a shift absorbs essentially all of the systematic orientation error.
``AlignmentResult.shift`` is the correction to apply to the moving grid:
translating its content by (+dx east, +dy north) and raising heights by
+dz best aligns it to the reference, i.e.

    aligned(x, y) = moving(x - dx, y - dy) + dz

Estimation is coarse-to-fine.  An integer search picks the basin (plain
least squares alone can miss it when the misalignment exceeds a few
cells), then Gauss-Newton refines to sub-cell precision with
central-difference height gradients and bilinear interpolation.  The
integer search runs on a pyramid of 2x2 block means of the finite cells
(NaN only where all four cells are: were any NaN to propagate, 4 %
scattered holes would leave under a tenth of an 8x8-block level finite).
The grids are halved while the next level still has a search reach,
ceil(max_search / 2**level), of at least 2 cells and a short side of at
least 32 cells.  The coarsest level scores every shift within its reach;
each finer level doubles the best shift and scores the 3x3 shifts around
it, clipped to the reach of that level, so the full-resolution shift
never exceeds max_search.  Of equal scores, the shift nearest the
level's center (in |du| + |dv|) wins, so a flat grid aligns to itself at
zero.  At every level a shift is scored only when its window, where the
shifted grids overlap, holds at least half of that level's unshifted
overlap (the cells finite in both): a shift that leaves a sliver of a
few cells could otherwise score lowest.  Both the interpolation and the
gradients live on the reference side: each moving cell keeps its raw
height and is compared to the reference sampled at the inversely shifted
position.  Blunders in the moving grid (the noisy one, in this protocol)
therefore stay unblended and the threshold gate removes them cleanly
instead of letting diluted fractions of them leak into the fit.  What
depends on the reference alone (its NaN grid, pyramid and gradients) is
a ``Reference``, built whole up front, so no align changes it.  The
vertical offset has a closed form (the mean inlier height difference)
and is recomputed every iteration, as is the inlier set: cells whose
dz-corrected difference exceeds the blunder threshold (vegetation
growth, seasonal change) drop out of the fit.

Candidate shifts, in the integer search and in the choice of the best
Gauss-Newton state, are scored by the truncated quadratic
mean(min((d + dz)**2, T**2)) over every mutually valid cell, with T the
blunder threshold (Black & Rangarajan, IJCV 1996).  A cell that the gate
drops still costs T**2, so a shift cannot win by pushing building edges
out of the inlier set, as it could under an inlier-only RMS.  A best
integer shift on the +-max_search boundary is logged as a warning: the
true shift may lie beyond the search.

Evaluation is two-stage: minimize on inliers only, then report the RMSE
of every mutually valid cell, blunders included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .raster import GeometryMismatchError, RasterGrid, resample

log = logging.getLogger(__name__)

_MIN_OVERLAP_CELLS = 100
_DZ_FIXED_POINT_ROUNDS = 2
_MAX_ITERATIONS = 50  # Gauss-Newton steps
_CONVERGENCE_TOL = 1e-4  # cells: a step below it has converged
_PYRAMID_MIN_REACH = 2  # cells of search reach a coarser level must keep
_PYRAMID_MIN_SIDE = 32  # cells on the short side of the coarsest level


class InsufficientOverlapError(ValueError):
    """Too few mutually valid cells to constrain the alignment."""


@dataclass(frozen=True)
class AlignConfig:
    blunder_threshold: float = 6.0
    max_search: int = 10

    def __post_init__(self):
        if not self.blunder_threshold > 0:
            raise ValueError("blunder_threshold must be > 0")
        if self.max_search < 0:
            raise ValueError("max_search must be >= 0")


@dataclass(frozen=True)
class AlignmentResult:
    shift: tuple[float, float, float]
    rmse_inliers: float
    rmse_all: float
    n_inliers: int
    n_total: int
    converged: bool


def rmse(a: RasterGrid, b: RasterGrid) -> tuple[float, int]:
    """Root mean square height difference over mutually valid cells, blunders
    included, and the number of those cells."""
    if a.geometry != b.geometry:
        raise GeometryMismatchError("rmse needs a common geometry")
    d = _residuals(a.values, b.values, 0, 0)[1]
    if d.size == 0:
        raise InsufficientOverlapError("no mutually valid cells")
    return _rms(d), d.size


def _sample(a: np.ndarray, dr: float, dc: float):
    """Bilinear sample of a at (r + dr, c + dc) on the window of cells whose
    support lies inside a: the window's (row, column) slices and the samples.

    The offset is uniform, so the sample is a fixed-weight blend of four
    shifted views of a, summed in place in the order of the bilinear formula;
    NaN neighbors propagate.  Near-integer offsets snap so integer shifts stay
    exact and read one view.
    """
    if abs(dr - round(dr)) < 1e-12:
        dr = round(dr)
    if abs(dc - round(dc)) < 1e-12:
        dc = round(dc)
    r0, c0 = math.floor(dr), math.floor(dc)
    fr, fc = dr - r0, dc - c0
    ext = int(fr != 0 or fc != 0)  # a blend also reads the next row and column
    (r1, r2), (c1, c2) = (
        (max(0, -o), max(0, -o, min(n, n - o - ext))) for n, o in zip(a.shape, (r0, c0))
    )
    def view(i, j):
        return a[r1 + r0 + i : r2 + r0 + i, c1 + c0 + j : c2 + c0 + j]

    win = (slice(r1, r2), slice(c1, c2))
    if not ext:
        return win, view(0, 0)
    out = (1 - fr) * (1 - fc) * view(0, 0)
    for w, i, j in (((1 - fr) * fc, 0, 1), (fr * (1 - fc), 1, 0), (fr * fc, 1, 1)):
        out += w * view(i, j)
    return win, out


def _residuals(mov: np.ndarray, ref: np.ndarray, dr: float, dc: float):
    """The finite d = mov - ref(r + dr, c + dc), row-major, and their mask on
    ``_sample``'s window: the cells that are NaN in the full-grid difference
    are exactly the ones left out, so sums see the same sequence."""
    win, sample = _sample(ref, dr, dc)
    d = mov[win] - sample
    finite = np.isfinite(d)
    return finite, d[finite]


def _median(x: np.ndarray, out: np.ndarray) -> float:
    """np.nanmedian of the non-empty finite vector x, from one partition of
    its copy in the scratch ``out``: the same order statistics and the same
    average of the middle two.

    Which of +-0 lands in the middle follows the partition, but no output
    sees it: a zero median gates the cells equal to it in, so the reported
    dz is always a mean of the gate.
    """
    k = x.size
    np.copyto(out, x)
    out.partition(k // 2)
    return float(out[k // 2] if k % 2 else 0.5 * (out[: k // 2].max() + out[k // 2]))


def _fit(x: np.ndarray, threshold: float):
    """Vertical offset, blunder gate and truncated score of the finite
    differences x, for the model x + dz = 0.

    dz is seeded with the median for robustness, then a couple of fixed-point
    rounds of (gate, mean); the gate returned is the last round's.  The score
    is mean(min((x + dz)**2, threshold**2)), inf when x is empty.  Means are
    sum / size: np.mean's pairwise sum and division without its wrapper.  The
    median's partition, each gate's |x + dz| and the score's terms share one
    scratch array.
    """
    if x.size == 0:
        return 0.0, np.zeros(0, bool), math.inf
    buf = np.empty_like(x)
    dz = -_median(x, buf)
    for _ in range(_DZ_FIXED_POINT_ROUNDS):
        gate = np.abs(np.add(x, dz, out=buf), out=buf) <= threshold
        if not gate.any():
            break
        inl = x[gate]
        dz = -float(inl.sum() / inl.size)
    r = np.add(x, dz, out=buf)
    r *= r
    # + 0.0: a zero offset is +0.0, where the negated median or mean gives -0.0
    return dz + 0.0, gate, float(np.minimum(r, threshold * threshold, out=r).sum() / r.size)


def _rms(r: np.ndarray) -> float:
    """RMS of the residuals r; inf when there are none."""
    return float(np.sqrt((r * r).sum() / r.size)) if r.size else math.inf


def _halve(a: np.ndarray) -> np.ndarray:
    """2x2 block means of the finite cells; NaN where a block has none.

    An odd last row or column is dropped.
    """
    h, w = a.shape[0] // 2, a.shape[1] // 2
    blocks = a[: 2 * h, : 2 * w].reshape(h, 2, w, 2)
    finite = np.isfinite(blocks)
    total = np.where(finite, blocks, 0.0).sum(axis=(1, 3))
    f = finite.view(np.uint8)  # exact counts of 0..4 from four byte adds
    count = f[:, 0, :, 0] + f[:, 0, :, 1] + f[:, 1, :, 0] + f[:, 1, :, 1]
    return np.divide(total, count, out=np.full((h, w), np.nan), where=count > 0)


def _reach(max_search: int, level: int) -> int:
    """Search bound at a pyramid level: ceil(max_search / 2**level)."""
    return -(-max_search // 2**level)


class Reference:
    """A reference grid prepared once for any number of ``align`` calls: its
    NaN grid, its central-difference height gradients (NaN on the border)
    and its pyramid of 2x2 block means down to a short side of 32 cells,
    all built here, so no ``AlignConfig`` is built in and no align changes it."""

    def __init__(self, grid: RasterGrid):
        self.geometry = grid.geometry
        ref = grid.values
        self.levels = [ref]  # level 0 is the NaN grid
        while min(self.levels[-1].shape) // 2 >= _PYRAMID_MIN_SIDE:
            self.levels.append(_halve(self.levels[-1]))
        self.grad_col = np.full_like(ref, np.nan)
        self.grad_col[:, 1:-1] = (ref[:, 2:] - ref[:, :-2]) * 0.5
        self.grad_row = np.full_like(ref, np.nan)
        self.grad_row[1:-1, :] = (ref[2:, :] - ref[:-2, :]) * 0.5


def _integer_search(mov: np.ndarray, reference: Reference, cfg: AlignConfig) -> tuple[int, int]:
    """Best integer shift (u east, v north) within +-max_search cells."""
    levels = [mov]
    for _ in reference.levels[1:]:  # no deeper than the reference's pyramid
        if _reach(cfg.max_search, len(levels)) < _PYRAMID_MIN_REACH:
            break
        levels.append(_halve(levels[-1]))

    top = len(levels) - 1
    u = v = 0
    for level in range(top, -1, -1):
        m, r = levels[level], reference.levels[level]
        lim = _reach(cfg.max_search, level)
        rad = lim if level == top else 1
        u, v = 2 * u, 2 * v
        # a window of (h - |cv|) x (w - |cu|) cells is scored only if twice it is at
        # least the unshifted overlap (and 1): |cv| <= span_v, then |cu| <= span_u
        (h, w), need = m.shape, max(1, np.count_nonzero(np.isfinite(m) & np.isfinite(r)))
        span_v = h - -(-need // (2 * w))
        # least (score, |cu - u| + |cv - v|, cu, cv): equal scores keep the shift
        # nearest the center, and a level with nothing to score keeps the center
        best = (math.inf, 0, u, v)
        for cv in range(max(v - rad, -lim, -span_v), min(v + rad, lim, span_v) + 1):
            span_u = w - -(-need // (2 * (h - abs(cv))))
            for cu in range(max(u - rad, -lim, -span_u), min(u + rad, lim, span_u) + 1):
                score = _fit(_residuals(m, r, -cv, cu)[1], cfg.blunder_threshold)[2]
                best = min(best, (score, abs(cu - u) + abs(cv - v), cu, cv))
        _, _, u, v = best
    return u, v


def _gauss_newton(mov, reference: Reference, u: float, v: float, threshold: float):
    """Score and dz at the shift (u, v), and the Gauss-Newton step from it:
    None when under 3 cells constrain it or the normal equations are singular.
    Its arrays die on return, so the caller holds none of them."""
    finite, d = _residuals(mov, reference.levels[0], -v, u)
    dz, inl, score = _fit(d, threshold)
    # the gradients on the residuals' window, at their finite cells
    gc = _sample(reference.grad_col, -v, u)[1][finite]
    gr = _sample(reference.grad_row, -v, u)[1][finite]
    use = inl & np.isfinite(gc) & np.isfinite(gr)
    if np.count_nonzero(use) < 3:
        return score, dz, None
    # residual = mov + dz - ref(r - v, c + u): d/du = -gc, d/dv = +gr; each
    # array is let go as its used cells are taken, so two never coexist
    res, d = d[use] + dz, None
    ju, gc = -gc[use], None
    jv, gr = gr[use], None
    ata = np.array([[np.dot(ju, ju), np.dot(ju, jv)], [np.dot(ju, jv), np.dot(jv, jv)]])
    atb = -np.array([np.dot(ju, res), np.dot(jv, res)])
    try:
        return score, dz, np.linalg.solve(ata, atb)
    except np.linalg.LinAlgError:
        return score, dz, None


def align(
    moving: RasterGrid, reference: RasterGrid | Reference, cfg: AlignConfig = AlignConfig()
) -> AlignmentResult:
    """Estimate the translation aligning a moving DSM to a reference.

    Many grids aligned to one reference share its work: pass the
    ``Reference(grid)`` prepared once in place of the grid, same results.
    """
    if isinstance(reference, RasterGrid):
        reference = Reference(reference)
    cell = reference.geometry.cell_size
    mov = resample(moving, reference.geometry).values
    ref = reference.levels[0]

    n_overlap = np.count_nonzero(np.isfinite(mov) & np.isfinite(ref))
    if n_overlap < _MIN_OVERLAP_CELLS:
        raise InsufficientOverlapError(
            f"only {n_overlap} mutually valid cells, need {_MIN_OVERLAP_CELLS}"
        )

    # Residuals compare each moving cell to the reference sampled at the
    # inversely shifted position: d = mov - ref(r - v, c + u), where u
    # counts cells east and v cells north.
    iu, iv = _integer_search(mov, reference, cfg)
    if cfg.max_search > 0 and max(abs(iu), abs(iv)) == cfg.max_search:
        log.warning(
            "best integer shift (%d, %d) cells lies on the +-%d search boundary; "
            "the true shift may lie beyond it",
            iu, iv, cfg.max_search,
        )
    u, v = float(iu), float(iv)

    # sub-cell Gauss-Newton on (u, v), dz closed-form per iteration
    converged = False
    best_state = None
    for _ in range(_MAX_ITERATIONS):
        score, dz, step = _gauss_newton(mov, reference, u, v, cfg.blunder_threshold)
        if best_state is None or score < best_state[0]:
            best_state = (score, u, v, dz)
        if step is None:
            break
        u += float(step[0])
        v += float(step[1])
        if max(abs(step[0]), abs(step[1])) < _CONVERGENCE_TOL:
            converged = True
            break

    # final statistics at the best state seen
    if not converged:
        _, u, v, dz = best_state
    d = _residuals(mov, ref, -v, u)[1]
    if converged:
        dz, inl, _ = _fit(d, cfg.blunder_threshold)
    else:
        inl = np.abs(d + dz) <= cfg.blunder_threshold

    return AlignmentResult(
        shift=(u * cell, v * cell, dz),
        rmse_inliers=_rms(d[inl] + dz),
        rmse_all=_rms(d + dz),
        n_inliers=int(np.count_nonzero(inl)),
        n_total=d.size,
        converged=converged,
    )
