import logging
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from dsmfuse import register
from dsmfuse.fusion import adaptive_median_fuse
from dsmfuse.raster import GeometryMismatchError, GridGeometry, RasterGrid, resample
from dsmfuse.register import (
    AlignConfig,
    AlignmentResult,
    InsufficientOverlapError,
    align,
    rmse,
)
from dsmfuse.synth import Building, DegradeSpec, SceneSpec, degrade, gen_scene

from conftest import grid_of


def hill_surface(geom, cx, cy, amplitude=30.0, sigma=18.0, shift=(0.0, 0.0, 0.0)):
    """Gaussian hill sampled at cell centers, translated by (dx, dy, dz)."""
    dx, dy, dz = shift
    xs = geom.origin_x + (np.arange(geom.n_cols) + 0.5) * geom.cell_size
    ys = geom.origin_y + (geom.n_rows - np.arange(geom.n_rows) - 0.5) * geom.cell_size
    X, Y = np.meshgrid(xs, ys)
    h = amplitude * np.exp(-(((X - dx) - cx) ** 2 + ((Y - dy) - cy) ** 2) / (2 * sigma**2))
    return RasterGrid(geom, h + dz)


TEST_CFG = AlignConfig(max_search=5)


def readme_scene(size, seed):
    """README walkthrough scene (80 x 60, two buildings) stretched to size^2."""
    sx, sy = size / 80, size / 60
    buildings = tuple(
        Building(round(c * sx), round(r * sy), round(w * sx), round(h * sy), z, i)
        for c, r, w, h, z, i in ((10, 12, 16, 12, 25.0, 170), (45, 30, 14, 16, 12.0, 210))
    )
    truth, _ = gen_scene(SceneSpec(seed=seed, width=size, height=size, buildings=buildings))
    return truth


def readme_layer(truth, seed, sigma):
    """A layer degraded as in the README: noise, 5 % +-10 m spikes, 4 % holes."""
    return degrade(
        truth,
        DegradeSpec(seed=seed, gaussian_sigma=sigma, spike_prob=0.05, spike_amp=10.0, hole_prob=0.04),
    )


def move_content(grid, east, north):
    """Grid whose content is translated by whole cells; vacated cells are NaN."""
    v = grid.values
    out = np.full_like(v, np.nan)
    rows, cols = v.shape
    # new(r, c) = old(r + north, c - east)
    src_r = slice(max(0, north), rows + min(0, north))
    dst_r = slice(max(0, -north), rows + min(0, -north))
    src_c = slice(max(0, -east), cols + min(0, -east))
    dst_c = slice(max(0, east), cols + min(0, east))
    out[dst_r, dst_c] = v[src_r, src_c]
    return RasterGrid(grid.geometry, out, grid.nodata)


class TestRmse:
    def test_identical_grids(self, rng):
        g = grid_of(rng.normal(10, 3, size=(8, 8)))
        val, n = rmse(g, g)
        assert val == 0.0
        assert n == 64

    def test_constant_offset(self):
        a = grid_of(np.full((5, 5), 3.0))
        b = grid_of(np.full((5, 5), 2.0))
        val, n = rmse(a, b)
        assert val == pytest.approx(1.0)
        assert n == 25

    def test_hand_computed_rms(self):
        # half the cells differ by +1, half by +3: RMS = sqrt((1+9)/2) = sqrt(5)
        a = np.zeros((2, 4))
        b = np.zeros((2, 4))
        a[0, :] = 1.0
        a[1, :] = 3.0
        val, _ = rmse(grid_of(a), grid_of(b))
        assert val == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_symmetry(self, rng):
        a = grid_of(rng.normal(0, 2, size=(6, 6)))
        b = grid_of(rng.normal(0, 2, size=(6, 6)))
        assert rmse(a, b) == rmse(b, a)

    def test_zero_if_and_only_if_equal(self, rng):
        vals = rng.normal(5, 2, size=(6, 6))
        a = grid_of(vals)
        almost = vals.copy()
        almost[2, 2] += 0.5
        assert rmse(a, grid_of(almost))[0] > 0.0

    def test_geometry_mismatch(self):
        a = grid_of(np.zeros((3, 3)))
        b = grid_of(np.zeros((3, 3)), origin=(5.0, 0.0))
        with pytest.raises(GeometryMismatchError):
            rmse(a, b)

    def test_no_overlap(self):
        a = grid_of(np.full((3, 3), -9999.0))
        b = grid_of(np.zeros((3, 3)))
        with pytest.raises(InsufficientOverlapError):
            rmse(a, b)


class TestAlign:
    def test_identical_grids_zero_shift(self):
        geom = GridGeometry(0, 0, 1.0, 60, 60)
        ref = hill_surface(geom, 30.0, 30.0)
        res = align(ref, ref, TEST_CFG)
        assert res.converged
        assert res.shift[0] == pytest.approx(0.0, abs=1e-6)
        assert res.shift[1] == pytest.approx(0.0, abs=1e-6)
        assert res.shift[2] == pytest.approx(0.0, abs=1e-9)
        assert res.rmse_inliers == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_grid_aligns_to_itself_at_zero(self, data):
        # a flat or few-valued grid ties many shifts with the center at score 0, and
        # of equal scores the center wins at every level of the search
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rows, cols = data.draw(st.integers(10, 70)), data.draw(st.integers(10, 70))
        palette = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
        vals = rng.choice(np.array(palette, float), size=(rows, cols))
        if data.draw(st.booleans()):
            vals += rng.normal(0, data.draw(st.sampled_from([0.01, 1.0, 10.0])), vals.shape)
        vals[rng.random(vals.shape) < data.draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
        assume(np.count_nonzero(~np.isnan(vals)) >= 100)
        grid = grid_of(vals, origin=(3.0, -7.0), cell=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
        res = align(grid, grid, AlignConfig(max_search=data.draw(st.integers(0, 12))))
        assert res.shift == (0.0, 0.0, 0.0)
        assert res.rmse_all == 0.0 and res.n_inliers == res.n_total

    def test_known_shift_recovery(self):
        geom = GridGeometry(0, 0, 1.0, 100, 100)
        injected = (2.3, -1.7, 0.4)
        ref = hill_surface(geom, 50.0, 50.0)
        moving = hill_surface(geom, 50.0, 50.0, shift=injected)
        res = align(moving, ref, TEST_CFG)
        assert res.converged
        # the correction undoes the injected translation
        assert res.shift[0] == pytest.approx(-injected[0], abs=0.1)
        assert res.shift[1] == pytest.approx(-injected[1], abs=0.1)
        assert res.shift[2] == pytest.approx(-injected[2], abs=0.01)

    def test_known_shift_with_blunders(self, rng):
        geom = GridGeometry(0, 0, 1.0, 100, 100)
        injected = (2.3, -1.7, 0.4)
        ref = hill_surface(geom, 50.0, 50.0)
        moving = hill_surface(geom, 50.0, 50.0, shift=injected)
        vals = moving.values.copy()
        raised = rng.random(vals.shape) < 0.05
        vals[raised] += 20.0  # seasonal-change surrogate, beyond the 6 m gate
        moving = RasterGrid(geom, vals)
        res = align(moving, ref, TEST_CFG)
        assert res.shift[0] == pytest.approx(-injected[0], abs=0.1)
        assert res.shift[1] == pytest.approx(-injected[1], abs=0.1)
        assert res.shift[2] == pytest.approx(-injected[2], abs=0.01)
        assert res.n_inliers < res.n_total

    def test_translation_equivariance(self):
        geom = GridGeometry(0, 0, 1.0, 90, 90)
        ref = hill_surface(geom, 45.0, 45.0)
        base = (1.2, -0.8, 0.2)
        extra = (1.0, 1.5, -0.3)
        m1 = hill_surface(geom, 45.0, 45.0, shift=base)
        m2 = hill_surface(
            geom, 45.0, 45.0,
            shift=(base[0] + extra[0], base[1] + extra[1], base[2] + extra[2]),
        )
        r1 = align(m1, ref, TEST_CFG)
        r2 = align(m2, ref, TEST_CFG)
        for i in range(3):
            assert r2.shift[i] - r1.shift[i] == pytest.approx(-extra[i], abs=0.05)

    def test_insufficient_overlap(self):
        vals = np.full((20, 20), -9999.0)
        vals[:3, :3] = 1.0
        a = grid_of(vals)
        with pytest.raises(InsufficientOverlapError):
            align(a, a, TEST_CFG)

    def test_resamples_moving_to_reference_geometry(self):
        # moving grid at half the cell size, same surface
        ref_geom = GridGeometry(0, 0, 1.0, 80, 80)
        mov_geom = GridGeometry(0, 0, 0.5, 160, 160)
        ref = hill_surface(ref_geom, 40.0, 40.0)
        moving = hill_surface(mov_geom, 40.0, 40.0, shift=(1.5, 0.5, 0.1))
        res = align(moving, ref, TEST_CFG)
        assert res.shift[0] == pytest.approx(-1.5, abs=0.1)
        assert res.shift[1] == pytest.approx(-0.5, abs=0.1)
        assert res.shift[2] == pytest.approx(-0.1, abs=0.02)


class TestFlatGroundBuildings:
    """Relief only at building edges: the integer search must not trade
    edge cells out of the inlier set for a lower score."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_known_integer_shift_at_default_search(self, seed):
        truth = readme_scene(256, seed=seed)
        moving = move_content(readme_layer(truth, seed * 1000, 0.5), -3, 4)
        res = align(moving, truth)
        assert res.converged
        # the correction undoes the content move
        assert res.shift[0] == pytest.approx(3.0, abs=0.05)
        assert res.shift[1] == pytest.approx(-4.0, abs=0.05)

    def test_shared_grid_stack_aligns_at_zero(self):
        truth = readme_scene(128, seed=402)
        for i in range(15):
            layer = readme_layer(truth, 402 * 1000 + i, 0.1 + 1.4 * i / 14)
            res = align(layer, truth)
            assert abs(res.shift[0]) < 0.05 and abs(res.shift[1]) < 0.05, (i, res.shift)


def hill_and_buildings(geom, east, north):
    """Gaussian hill plus two box buildings, content moved by whole cells.

    The buildings stay more than 14 cells from the border, where the hill
    is below 1 mm, so a move of up to 6 cells only trades flat ground.
    """
    c = np.arange(geom.n_cols) - east
    r = np.arange(geom.n_rows) + north
    C, R = np.meshgrid(c, r)
    h = 20.0 * np.exp(-((C - 40.0) ** 2 + (R - 44.0) ** 2) / (2 * 9.0**2))
    h += np.where((C >= 26) & (C < 38) & (R >= 22) & (R < 30), 15.0, 0.0)
    h += np.where((C >= 46) & (C < 56) & (R >= 50) & (R < 62), 9.0, 0.0)
    return RasterGrid(geom, h)


class TestShiftEquivariance:
    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(-4, 4), b=st.integers(-4, 4))
    def test_integer_content_shift_moves_result(self, a, b):
        geom = GridGeometry(0, 0, 2.0, 84, 84)
        ref = hill_and_buildings(geom, 0, 0)
        base = align(hill_and_buildings(geom, 1, -2), ref)
        moved = align(hill_and_buildings(geom, 1 + a, -2 + b), ref)
        assert moved.shift[0] - base.shift[0] == pytest.approx(-a * 2.0, abs=0.05 * 2.0)
        assert moved.shift[1] - base.shift[1] == pytest.approx(-b * 2.0, abs=0.05 * 2.0)


class TestSearchBoundary:
    def test_boundary_optimum_warns(self, caplog):
        geom = GridGeometry(0, 0, 1.0, 100, 100)
        ref = hill_surface(geom, 50.0, 50.0)
        moving = hill_surface(geom, 50.0, 50.0, shift=(6.0, 0.0, 0.0))
        with caplog.at_level(logging.WARNING, logger="dsmfuse.register"):
            align(moving, ref, AlignConfig(max_search=3))
        assert any("search boundary" in r.getMessage() for r in caplog.records)

    def test_interior_optimum_is_silent(self, caplog):
        geom = GridGeometry(0, 0, 1.0, 100, 100)
        ref = hill_surface(geom, 50.0, 50.0)
        moving = hill_surface(geom, 50.0, 50.0, shift=(2.0, -1.0, 0.0))
        with caplog.at_level(logging.WARNING, logger="dsmfuse.register"):
            align(moving, ref, TEST_CFG)
        assert not caplog.records


class TestAlignConfig:
    def test_threshold_positive(self):
        with pytest.raises(ValueError):
            AlignConfig(blunder_threshold=0.0)

    def test_search_nonnegative(self):
        with pytest.raises(ValueError):
            AlignConfig(max_search=-1)

    def test_defaults_match_protocol(self):
        cfg = AlignConfig()
        assert cfg.blunder_threshold == 6.0
        assert cfg.max_search == 10
        assert register._MAX_ITERATIONS == 50
        assert register._CONVERGENCE_TOL == 1e-4


# The full-grid alignment that the windowed one replaced, kept verbatim as an
# oracle: every shifted or sampled array is a NaN-filled copy of the whole
# grid, the median is np.nanmedian and every mean is np.mean.


def _oracle_int_shift(a, dr, dc):
    n_rows, n_cols = a.shape
    out = np.full_like(a, np.nan)
    rd0, rd1 = max(0, -dr), min(n_rows, n_rows - dr)
    cd0, cd1 = max(0, -dc), min(n_cols, n_cols - dc)
    if rd0 < rd1 and cd0 < cd1:
        out[rd0:rd1, cd0:cd1] = a[rd0 + dr : rd1 + dr, cd0 + dc : cd1 + dc]
    return out


def _oracle_sample_at_offset(a, dr, dc):
    if abs(dr - round(dr)) < 1e-12:
        dr = round(dr)
    if abs(dc - round(dc)) < 1e-12:
        dc = round(dc)
    r0 = math.floor(dr)
    c0 = math.floor(dc)
    fr = dr - r0
    fc = dc - c0
    if fr == 0 and fc == 0:
        return _oracle_int_shift(a, int(r0), int(c0))
    v00 = _oracle_int_shift(a, r0, c0)
    v01 = _oracle_int_shift(a, r0, c0 + 1)
    v10 = _oracle_int_shift(a, r0 + 1, c0)
    v11 = _oracle_int_shift(a, r0 + 1, c0 + 1)
    return (
        (1 - fr) * (1 - fc) * v00
        + (1 - fr) * fc * v01
        + fr * (1 - fc) * v10
        + fr * fc * v11
    )


def _oracle_dz_and_inliers(d, threshold):
    finite = np.isfinite(d)
    if not finite.any():
        return 0.0, finite
    dz = -float(np.nanmedian(d))
    inliers = finite
    for _ in range(2):
        inliers = finite & (np.abs(d + dz) <= threshold)
        if not inliers.any():
            return dz, inliers
        dz = -float(np.mean(d[inliers]))
    return dz, inliers


def _oracle_rms(d, dz, cells):
    if not cells.any():
        return math.inf
    r = d[cells] + dz
    return float(np.sqrt(np.mean(r * r)))


def _oracle_truncated_score(d, dz, threshold):
    r = d[np.isfinite(d)] + dz
    if r.size == 0:
        return math.inf
    return float(np.mean(np.minimum(r * r, threshold * threshold)))


def _oracle_halve(a):
    h, w = a.shape[0] // 2, a.shape[1] // 2
    blocks = a[: 2 * h, : 2 * w].reshape(h, 2, w, 2)
    finite = np.isfinite(blocks)
    total = np.where(finite, blocks, 0.0).sum(axis=(1, 3))
    count = finite.sum(axis=(1, 3))
    return np.divide(total, count, out=np.full((h, w), np.nan), where=count > 0)


def _oracle_integer_search(mov, ref, cfg):
    def reach(level):
        return -(-cfg.max_search // 2**level)

    levels = [(mov, ref)]
    while reach(len(levels)) >= 2 and min(levels[-1][0].shape) // 2 >= 32:
        levels.append((_oracle_halve(levels[-1][0]), _oracle_halve(levels[-1][1])))
    top = len(levels) - 1
    u = v = 0
    for level in range(top, -1, -1):
        m, r = levels[level]
        lim = reach(level)
        rad = lim if level == top else 1
        u, v = 2 * u, 2 * v
        # the least (score, |cu - u| + |cv - v|, cu, cv): of equal scores, the shift
        # nearest the center wins, and a level that scores nothing keeps the center
        best = (math.inf, 0, u, v)
        overlap = np.count_nonzero(np.isfinite(m) & np.isfinite(r))
        for cv in range(max(v - rad, -lim), min(v + rad, lim) + 1):
            for cu in range(max(u - rad, -lim), min(u + rad, lim) + 1):
                window = max(0, m.shape[0] - abs(cv)) * max(0, m.shape[1] - abs(cu))
                if 2 * window < overlap:  # a sliver of the overlap is not scored
                    continue
                d = m - _oracle_int_shift(r, -cv, cu)
                dz, _ = _oracle_dz_and_inliers(d, cfg.blunder_threshold)
                score = _oracle_truncated_score(d, dz, cfg.blunder_threshold)
                key = (score, abs(cu - u) + abs(cv - v), cu, cv)
                if key < best:
                    best = key
        _, _, u, v = best
    return u, v


def oracle_align(moving, reference, cfg):
    """The full-grid ``align``: its result and the best integer shift."""
    cell = reference.geometry.cell_size
    mov = resample(moving, reference.geometry).values
    ref = reference.values
    if np.count_nonzero(np.isfinite(mov) & np.isfinite(ref)) < 100:
        raise InsufficientOverlapError
    iu, iv = _oracle_integer_search(mov, ref, cfg)
    u, v = float(iu), float(iv)
    grad_col = np.full_like(ref, np.nan)
    grad_col[:, 1:-1] = (ref[:, 2:] - ref[:, :-2]) * 0.5
    grad_row = np.full_like(ref, np.nan)
    grad_row[1:-1, :] = (ref[2:, :] - ref[:-2, :]) * 0.5
    converged = False
    best_state = None
    for _ in range(50):
        d = mov - _oracle_sample_at_offset(ref, -v, u)
        dz, inl = _oracle_dz_and_inliers(d, cfg.blunder_threshold)
        score = _oracle_truncated_score(d, dz, cfg.blunder_threshold)
        if best_state is None or score < best_state[0]:
            best_state = (score, u, v, dz)
        gc = _oracle_sample_at_offset(grad_col, -v, u)
        gr = _oracle_sample_at_offset(grad_row, -v, u)
        use = inl & np.isfinite(gc) & np.isfinite(gr)
        if np.count_nonzero(use) < 3:
            break
        res = d[use] + dz
        ju = -gc[use]
        jv = gr[use]
        ata = np.array([[np.dot(ju, ju), np.dot(ju, jv)], [np.dot(ju, jv), np.dot(jv, jv)]])
        atb = -np.array([np.dot(ju, res), np.dot(jv, res)])
        try:
            step = np.linalg.solve(ata, atb)
        except np.linalg.LinAlgError:
            break
        u += float(step[0])
        v += float(step[1])
        if max(abs(step[0]), abs(step[1])) < 1e-4:
            converged = True
            break
    if converged:
        d = mov - _oracle_sample_at_offset(ref, -v, u)
        dz, inl = _oracle_dz_and_inliers(d, cfg.blunder_threshold)
    else:
        _, u, v, dz = best_state
        d = mov - _oracle_sample_at_offset(ref, -v, u)
        inl = np.isfinite(d) & (np.abs(d + dz) <= cfg.blunder_threshold)
    finite = np.isfinite(d)
    result = AlignmentResult(
        shift=(u * cell, v * cell, dz),
        rmse_inliers=_oracle_rms(d, dz, inl),
        rmse_all=_oracle_rms(d, dz, finite),
        n_inliers=int(np.count_nonzero(inl)),
        n_total=int(np.count_nonzero(finite)),
        converged=converged,
    )
    return result, (iu, iv)


def _bits(res):
    """Every field of an AlignmentResult, floats by bit pattern."""
    f = lambda x: np.float64(x).tobytes()  # noqa: E731
    return (tuple(map(f, res.shift)), f(res.rmse_inliers), f(res.rmse_all),
            res.n_inliers, res.n_total, res.converged)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def oracle_case(rows, cols, east, north, holes, spikes, flat, max_search, seed):
    """A hill and a box under a moving grid whose content is moved (east,
    north) cells, with noise, +-10 m spikes, blunders near the 6 m gate and
    holes; ``flat`` makes the reference constant, so Gauss-Newton has no
    gradient to follow."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:rows, 0:cols].astype(float)

    def surface(dx, dy):
        X, Y = x - dx, y + dy
        h = 20.0 * np.exp(-((X - cols / 2) ** 2 + (Y - rows / 2) ** 2) / (2 * (min(rows, cols) / 4) ** 2))
        return h + np.where((X > cols / 4) & (X < cols / 2) & (Y > rows / 4) & (Y < rows / 2), 8.0, 0.0)

    ref = np.full((rows, cols), 4.0) if flat else surface(0.0, 0.0)
    mov = surface(east, north) + rng.normal(0.0, 0.2, (rows, cols))
    hit = rng.random((rows, cols)) < spikes
    mov[hit] += rng.choice([-10.0, 10.0], int(hit.sum()))
    # as many again near the 6 m gate, where a small change of dz flips them
    hit = rng.random((rows, cols)) < spikes
    mov[hit] += rng.choice([-1.0, 1.0], int(hit.sum())) * rng.uniform(5.0, 7.0, int(hit.sum()))
    mov[rng.random((rows, cols)) < holes] = np.nan
    ref[rng.random((rows, cols)) < holes / 2] = np.nan
    geom = GridGeometry(0.0, 0.0, 0.5, cols, rows)
    return RasterGrid(geom, mov), RasterGrid(geom, ref), AlignConfig(max_search=max_search)


def check_against_oracle(moving, ref, cfg):
    """align equals the oracle field by field, bit for bit, and warns exactly
    when the oracle's integer shift lies on the search boundary."""
    try:
        want, (iu, iv) = oracle_align(moving, ref, cfg)
    except InsufficientOverlapError:
        with pytest.raises(InsufficientOverlapError):
            align(moving, ref, cfg)
        return None
    handler = _Warnings()
    register.log.addHandler(handler)
    try:
        got = align(moving, ref, cfg)
    finally:
        register.log.removeHandler(handler)
    assert _bits(got) == _bits(want), (got, want)
    on_boundary = cfg.max_search > 0 and max(abs(iu), abs(iv)) == cfg.max_search
    assert [("search boundary" in m) for m in handler.messages] == [True] * on_boundary
    return got


# a constant reference: singular normal equations stop Gauss-Newton at once
FLAT_NOT_CONVERGED = dict(rows=30, cols=41, east=1.5, north=-0.5, holes=0.1, spikes=0.05,
                          flat=True, max_search=3, seed=7)


@st.composite
def oracle_cases(draw):
    side = st.integers(12, 32) | st.integers(12, 96)
    rows, cols = draw(side), draw(side)
    step = st.integers(-4, 4) | st.floats(-4.0, 4.0, allow_nan=False)
    # up to past the short side, so some shifts leave no overlap at all (on
    # small grids only: the search scores (2 max_search + 1)**2 shifts)
    past = min(rows, cols) + draw(st.integers(0, 3))
    search = st.integers(0, 6) | st.just(past) if max(rows, cols) <= 32 else st.integers(0, 6)
    return dict(
        rows=rows, cols=cols, east=draw(step), north=draw(step),
        holes=draw(st.sampled_from([0.0, 0.05, 0.3])),
        spikes=draw(st.sampled_from([0.0, 0.05, 0.2])),
        flat=draw(st.booleans()),
        max_search=draw(search),
        seed=draw(st.integers(0, 2**16)),
    )


class TestMatchesFullGridOracle:
    """The windowed align does the full-grid one's float operations on the
    same cells in the same order, so every result field has the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(case=oracle_cases())
    @example(case=FLAT_NOT_CONVERGED)
    def test_bit_identical_results(self, case):
        res = check_against_oracle(*oracle_case(**case))
        event(f"converged: {res and res.converged}")
        event(f"searched past the grid: {case['max_search'] >= min(case['rows'], case['cols'])}")

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9),
           dr=st.integers(-10, 10) | st.floats(-10.0, 10.0), dc=st.integers(-10, 10) | st.floats(-10.0, 10.0))
    def test_sample_is_the_full_grid_sample_on_its_window(self, rows, cols, dr, dc):
        a = np.random.default_rng(rows * 10 + cols).normal(size=(rows, cols))
        a[0, 0] = np.nan
        want = _oracle_sample_at_offset(a, dr, dc)
        win, got = register._sample(a, dr, dc)
        assert got.tobytes() == want[win].tobytes()
        outside = np.ones_like(a, dtype=bool)
        outside[win] = False
        assert np.isnan(want[outside]).all()

    def test_flat_example_takes_the_non_converged_branch(self):
        res = check_against_oracle(*oracle_case(**FLAT_NOT_CONVERGED))
        assert not res.converged

    def test_search_past_the_grid_scores_empty_windows(self):
        # a 20-row grid searched 23 cells: shifts past 20 rows overlap nothing
        moving, ref, _ = oracle_case(20, 60, 2.0, 1.0, 0.05, 0.05, False, 0, 3)
        check_against_oracle(moving, ref, AlignConfig(max_search=23))
        mov, r = moving.values, ref.values
        assert register._fit(register._residuals(mov, r, -21, 0)[1], 6.0)[2] == math.inf
        assert register._fit(register._residuals(mov, r, 0.5, -61.5)[1], 6.0)[2] == math.inf

    def test_readme_patch_at_default_search(self):
        truth = readme_scene(128, seed=402)
        moving = move_content(readme_layer(truth, 402 * 1000 + 3, 0.5), -3, 4)
        check_against_oracle(moving, truth, AlignConfig())


@st.composite
def shared_reference_cases(draw):
    """An ``oracle_cases`` draw for the reference, then 2-4 moving grids on its
    grid, each with its own shift, holes, spikes, seed and max_search, drawn
    as ``oracle_cases`` draws them (past the short side on small grids)."""
    first = draw(oracle_cases())
    rows, cols = first["rows"], first["cols"]
    step = st.integers(-4, 4) | st.floats(-4.0, 4.0, allow_nan=False)
    search = st.integers(0, 6)
    if max(rows, cols) <= 32:
        search |= st.integers(min(rows, cols), min(rows, cols) + 3)
    movers = st.fixed_dictionaries(dict(
        east=step, north=step,
        holes=st.sampled_from([0.0, 0.05, 0.3]),
        spikes=st.sampled_from([0.0, 0.05, 0.2]),
        max_search=search,
        seed=st.integers(0, 2**16),
    ))
    return first, draw(st.lists(movers, min_size=2, max_size=4))


class TestPreparedReference:
    """One ``Reference`` serves any number of aligns, in any order of their
    searches: every result field has the bits of the oracle and of ``align``
    on the plain grid."""

    @settings(max_examples=15, deadline=None)
    @given(cases=shared_reference_cases())
    # a two-level pyramid, reached first to level 1, then not at all, then
    # extended to level 2, then reused
    @example(cases=(
        dict(rows=130, cols=130, east=0, north=0, holes=0.05, spikes=0.05, flat=False,
             max_search=0, seed=11),
        [dict(east=e, north=n, holes=0.05, spikes=0.05, max_search=m, seed=12 + i)
         for i, (e, n, m) in enumerate([(2.5, -1.0, 3), (0.0, 0.0, 0), (7, 3, 10), (-4.5, 2.0, 6)])],
    ))
    def test_aligns_against_one_reference_match_the_oracle(self, cases):
        first, movers = cases
        ref = oracle_case(**first)[1]
        reference = register.Reference(ref)
        for mover in movers:
            moving, _, cfg = oracle_case(**{**first, **mover})
            try:
                want = oracle_align(moving, ref, cfg)[0]
            except InsufficientOverlapError:
                for r in (reference, ref):
                    with pytest.raises(InsufficientOverlapError):
                        align(moving, r, cfg)
                continue
            assert _bits(align(moving, reference, cfg)) == _bits(want) == _bits(align(moving, ref, cfg))
        event(f"pyramid levels built: {len(reference._levels)}")

    def test_levels_are_built_on_demand(self):
        truth = readme_scene(128, seed=402)
        reference = register.Reference(truth)
        moving = move_content(readme_layer(truth, 402 * 1000 + 3, 0.5), -3, 4)
        align(moving, reference, AlignConfig(max_search=1))
        assert len(reference._levels) == 1
        align(moving, reference, AlignConfig(max_search=10))
        assert [a.shape for a in reference._levels] == [(128, 128), (64, 64), (32, 32)]


def readme_fused():
    """The README walkthrough's adaptive fuse of five layers, and its truth."""
    buildings = (Building(10, 12, 16, 12, 25.0, 170), Building(45, 30, 14, 16, 12.0, 210))
    truth, ortho = gen_scene(SceneSpec(seed=42, width=80, height=60, buildings=buildings))
    layers = [readme_layer(truth, 42 * 1000 + i, 0.2 + 1.3 * i / 4) for i in range(5)]
    return adaptive_median_fuse(layers, ortho), truth


class TestSearchKeepsHalfTheOverlap:
    """A shift is scored only when its window holds half the unshifted
    overlap: a window of one cell fits it exactly and would score 0."""

    @pytest.mark.parametrize("case,searches", [
        ("readme", [100]),
        ("patch", [100, 400]),  # the benchmark's seed-401 patch of pair ladder step 5
    ])
    def test_far_search_gives_the_default_answer(self, case, searches):
        if case == "readme":
            moving, truth = readme_fused()
        else:
            truth = readme_scene(128, seed=401)
            moving = readme_layer(truth, 401 * 1000 + 4, 0.1 + 1.4 * 4 / 14)
        want = align(moving, truth)
        assert want.converged and want.n_total > 4000
        for max_search in searches:
            assert _bits(align(moving, truth, AlignConfig(max_search=max_search))) == _bits(want)

    @settings(max_examples=40, deadline=None)
    @given(case=oracle_cases(), factor=st.floats(0.0, 3.0))
    def test_returned_shift_keeps_half_the_overlap(self, case, factor):
        moving, ref, _ = oracle_case(**case)
        rows, cols = ref.values.shape
        cfg = AlignConfig(max_search=int(factor * max(rows, cols)))
        u, v = register._integer_search(moving.values, register.Reference(ref), cfg)
        overlap = np.count_nonzero(np.isfinite(moving.values) & np.isfinite(ref.values))
        assert 2 * max(0, rows - abs(v)) * max(0, cols - abs(u)) >= overlap, (u, v)


class TestMedian:
    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.5, 2.0]),
                      min_size=1, max_size=60))
    def test_equals_nanmedian(self, x):
        x = np.array(x)
        # the same value; only the sign of a zero may follow the partition
        assert register._median(x, np.empty_like(x)) == np.nanmedian(np.append(x, np.nan))

    @pytest.mark.parametrize("x", [[3.0], [5.0, -1.0], [2.0, 2.0, 2.0, 1.0], [0.0, -0.0, 7.0],
                                   [1.0, 1.0, 2.0, 2.0, 2.0, 9.0], list(range(101))])
    def test_odd_even_one_and_duplicates(self, x):
        x = np.array(x, dtype=float)
        assert register._median(x, np.empty_like(x)) == np.nanmedian(x)

    def test_leaves_its_input_in_order(self):
        x = np.array([4.0, -2.0, 9.0, 0.5, 3.0, 3.0])
        register._median(x, np.empty_like(x))
        assert x.tolist() == [4.0, -2.0, 9.0, 0.5, 3.0, 3.0]


class TestAlignMemory:
    def test_peak_flat_in_grid_units(self):
        # numpy reports its buffers to tracemalloc.  The full-grid align
        # peaked at 24.7 grids at 128^2 and 16.1 at 512^2 on these inputs;
        # the windowed one at 8.9 and 8.3.
        import tracemalloc

        peaks = []
        for n, parent in ((128, 24.7), (512, 16.1)):
            truth = readme_scene(n, seed=5)
            moving = move_content(readme_layer(truth, 5000, 0.5), -3, 4)
            tracemalloc.start()
            try:
                assert align(moving, truth).converged
                peaks.append(tracemalloc.get_traced_memory()[1] / (n * n * 8))
            finally:
                tracemalloc.stop()
            assert peaks[-1] < parent - 2, peaks
        assert abs(peaks[1] - peaks[0]) < 1.0, peaks
