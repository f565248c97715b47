import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import register
from dsmfuse.raster import GeometryMismatchError, GridGeometry, RasterGrid
from dsmfuse.register import (
    AlignConfig,
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
    """Grid whose content is translated by whole cells; vacated cells are nodata."""
    v = grid.nan_values()
    out = np.full_like(v, np.nan)
    rows, cols = v.shape
    # new(r, c) = old(r + north, c - east)
    src_r = slice(max(0, north), rows + min(0, north))
    dst_r = slice(max(0, -north), rows + min(0, -north))
    src_c = slice(max(0, -east), cols + min(0, -east))
    dst_c = slice(max(0, east), cols + min(0, east))
    out[dst_r, dst_c] = v[src_r, src_c]
    return RasterGrid(grid.geometry, np.where(np.isnan(out), grid.nodata, out), grid.nodata)


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
