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
it, clipped to the reach of that level, so the full-resolution shift never
exceeds max_search.  Both the interpolation and the gradients live on the
reference side: each moving cell keeps its raw height and is compared to
the reference sampled at the inversely shifted position.  Blunders in the
moving grid (the noisy one, in this protocol) therefore stay unblended
and the threshold gate removes them cleanly instead of letting diluted
fractions of them leak into the fit.  The vertical offset has a closed
form (the mean inlier height difference) and is recomputed every
iteration, as is the inlier set: cells whose dz-corrected difference
exceeds the blunder threshold (vegetation growth, seasonal change) drop
out of the fit.

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
    d = a.nan_values() - b.nan_values()
    d = d[np.isfinite(d)]
    if d.size == 0:
        raise InsufficientOverlapError("no mutually valid cells")
    return float(np.sqrt(np.mean(d * d))), int(d.size)


def _int_shift(a: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """Array sampled at (r + dr, c + dc); out-of-range becomes NaN."""
    n_rows, n_cols = a.shape
    out = np.full_like(a, np.nan)
    rd0, rd1 = max(0, -dr), min(n_rows, n_rows - dr)
    cd0, cd1 = max(0, -dc), min(n_cols, n_cols - dc)
    if rd0 < rd1 and cd0 < cd1:
        out[rd0:rd1, cd0:cd1] = a[rd0 + dr : rd1 + dr, cd0 + dc : cd1 + dc]
    return out


def _sample_at_offset(a: np.ndarray, dr: float, dc: float) -> np.ndarray:
    """Bilinear sample of the whole array at (r + dr, c + dc).

    The offset is uniform, so the sample is a fixed-weight blend of four
    integer-shifted copies; NaN neighbors propagate.  Near-integer offsets
    snap so integer shifts stay exact.
    """
    if abs(dr - round(dr)) < 1e-12:
        dr = round(dr)
    if abs(dc - round(dc)) < 1e-12:
        dc = round(dc)
    r0 = math.floor(dr)
    c0 = math.floor(dc)
    fr = dr - r0
    fc = dc - c0
    if fr == 0 and fc == 0:
        return _int_shift(a, int(r0), int(c0))
    v00 = _int_shift(a, r0, c0)
    v01 = _int_shift(a, r0, c0 + 1)
    v10 = _int_shift(a, r0 + 1, c0)
    v11 = _int_shift(a, r0 + 1, c0 + 1)
    return (
        (1 - fr) * (1 - fc) * v00
        + (1 - fr) * fc * v01
        + fr * (1 - fc) * v10
        + fr * fc * v11
    )


def _dz_and_inliers(d: np.ndarray, threshold: float):
    """Closed-form vertical offset and blunder gate for a difference map.

    d holds aligned-minus-reference differences (NaN where invalid); the
    model is d + dz = 0.  Seeded with the median for robustness, then a
    couple of fixed-point rounds of (gate, mean).
    """
    finite = np.isfinite(d)
    if not finite.any():
        return 0.0, finite
    dz = -float(np.nanmedian(d))
    inliers = finite
    for _ in range(_DZ_FIXED_POINT_ROUNDS):
        inliers = finite & (np.abs(d + dz) <= threshold)
        if not inliers.any():
            return dz, inliers
        dz = -float(np.mean(d[inliers]))
    return dz, inliers


def _rms(d: np.ndarray, dz: float, cells: np.ndarray) -> float:
    """RMS of d + dz over the masked cells; inf when there are none."""
    if not cells.any():
        return math.inf
    r = d[cells] + dz
    return float(np.sqrt(np.mean(r * r)))


def _truncated_score(d: np.ndarray, dz: float, threshold: float) -> float:
    """mean(min((d + dz)**2, threshold**2)) over the finite cells of d."""
    r = d[np.isfinite(d)] + dz
    if r.size == 0:
        return math.inf
    return float(np.mean(np.minimum(r * r, threshold * threshold)))


def _halve(a: np.ndarray) -> np.ndarray:
    """2x2 block means of the finite cells; NaN where a block has none.

    An odd last row or column is dropped.
    """
    h, w = a.shape[0] // 2, a.shape[1] // 2
    blocks = a[: 2 * h, : 2 * w].reshape(h, 2, w, 2)
    finite = np.isfinite(blocks)
    total = np.where(finite, blocks, 0.0).sum(axis=(1, 3))
    count = finite.sum(axis=(1, 3))
    return np.divide(total, count, out=np.full((h, w), np.nan), where=count > 0)


def _reach(max_search: int, level: int) -> int:
    """Search bound at a pyramid level: ceil(max_search / 2**level)."""
    return -(-max_search // 2**level)


def _integer_search(mov: np.ndarray, ref: np.ndarray, cfg: AlignConfig) -> tuple[int, int]:
    """Best integer shift (u east, v north) within +-max_search cells."""
    levels = [(mov, ref)]
    while (
        _reach(cfg.max_search, len(levels)) >= _PYRAMID_MIN_REACH
        and min(levels[-1][0].shape) // 2 >= _PYRAMID_MIN_SIDE
    ):
        levels.append((_halve(levels[-1][0]), _halve(levels[-1][1])))

    top = len(levels) - 1
    u = v = 0
    for level in range(top, -1, -1):
        m, r = levels[level]
        lim = _reach(cfg.max_search, level)
        rad = lim if level == top else 1
        u, v = 2 * u, 2 * v
        # strict improvement only: ties and an all-NaN level keep the center
        best = (math.inf, u, v)
        for cv in range(max(v - rad, -lim), min(v + rad, lim) + 1):
            for cu in range(max(u - rad, -lim), min(u + rad, lim) + 1):
                d = m - _int_shift(r, -cv, cu)
                dz, _ = _dz_and_inliers(d, cfg.blunder_threshold)
                score = _truncated_score(d, dz, cfg.blunder_threshold)
                if score < best[0]:
                    best = (score, cu, cv)
        _, u, v = best
    return u, v


def align(
    moving: RasterGrid, reference: RasterGrid, cfg: AlignConfig = AlignConfig()
) -> AlignmentResult:
    """Estimate the translation aligning a moving DSM to a reference."""
    cell = reference.geometry.cell_size
    mov = resample(moving, reference.geometry, "bilinear").nan_values()
    ref = reference.nan_values()

    overlap = np.isfinite(mov) & np.isfinite(ref)
    if np.count_nonzero(overlap) < _MIN_OVERLAP_CELLS:
        raise InsufficientOverlapError(
            f"only {np.count_nonzero(overlap)} mutually valid cells, "
            f"need {_MIN_OVERLAP_CELLS}"
        )

    # Residuals compare each moving cell to the reference sampled at the
    # inversely shifted position: d = mov - ref(r - v, c + u), where u
    # counts cells east and v cells north.
    iu, iv = _integer_search(mov, ref, cfg)
    if cfg.max_search > 0 and max(abs(iu), abs(iv)) == cfg.max_search:
        log.warning(
            "best integer shift (%d, %d) cells lies on the +-%d search boundary; "
            "the true shift may lie beyond it",
            iu, iv, cfg.max_search,
        )
    u = float(iu)
    v = float(iv)

    # sub-cell Gauss-Newton on (u, v), dz closed-form per iteration;
    # gradients are central differences of the reference, per cell
    grad_col = np.full_like(ref, np.nan)
    grad_col[:, 1:-1] = (ref[:, 2:] - ref[:, :-2]) * 0.5
    grad_row = np.full_like(ref, np.nan)
    grad_row[1:-1, :] = (ref[2:, :] - ref[:-2, :]) * 0.5

    converged = False
    best_state = None
    for _ in range(_MAX_ITERATIONS):
        d = mov - _sample_at_offset(ref, -v, u)
        dz, inl = _dz_and_inliers(d, cfg.blunder_threshold)
        score = _truncated_score(d, dz, cfg.blunder_threshold)
        if best_state is None or score < best_state[0]:
            best_state = (score, u, v, dz)

        gc = _sample_at_offset(grad_col, -v, u)
        gr = _sample_at_offset(grad_row, -v, u)
        use = inl & np.isfinite(gc) & np.isfinite(gr)
        if np.count_nonzero(use) < 3:
            break
        res = d[use] + dz
        # residual = mov + dz - ref(r - v, c + u): d/du = -gc, d/dv = +gr
        ju = -gc[use]
        jv = gr[use]
        ata = np.array(
            [[np.dot(ju, ju), np.dot(ju, jv)], [np.dot(ju, jv), np.dot(jv, jv)]]
        )
        atb = -np.array([np.dot(ju, res), np.dot(jv, res)])
        try:
            step = np.linalg.solve(ata, atb)
        except np.linalg.LinAlgError:
            break
        u += float(step[0])
        v += float(step[1])
        if max(abs(step[0]), abs(step[1])) < _CONVERGENCE_TOL:
            converged = True
            break

    # final statistics at the best state seen
    if converged:
        d = mov - _sample_at_offset(ref, -v, u)
        dz, inl = _dz_and_inliers(d, cfg.blunder_threshold)
    else:
        _, u, v, dz = best_state
        d = mov - _sample_at_offset(ref, -v, u)
        inl = np.isfinite(d) & (np.abs(d + dz) <= cfg.blunder_threshold)

    finite = np.isfinite(d)
    return AlignmentResult(
        shift=(u * cell, v * cell, dz),
        rmse_inliers=_rms(d, dz, inl),
        rmse_all=_rms(d, dz, finite),
        n_inliers=int(np.count_nonzero(inl)),
        n_total=int(np.count_nonzero(finite)),
        converged=converged,
    )
