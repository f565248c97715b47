import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmfuse import fusion
from dsmfuse.fusion import (
    DepthStack,
    FusionConfig,
    WeightKernel,
    adaptive_median_fuse,
    adaptive_window,
    median_fuse,
    weight,
)
from dsmfuse.raster import CellIndex, GeometryMismatchError

from conftest import grid_of


def oracle_adaptive_fuse(layers, ortho, cfg):
    """Brute-force reference: triple loop over cells, window cells, layers.

    Implements the weight gate and candidate pooling directly from their
    definitions; shares no code with the vectorized implementation (the
    weight expression is spelled the same way so the strict gamma
    comparison sees identical floats).
    """
    geom = ortho.geometry
    rad = cfg.radius
    heights = [g.values for g in layers]
    hvalid = [g.valid_mask() for g in layers]
    ov = ortho.values
    ovalid = ortho.valid_mask()
    out = np.full((geom.n_rows, geom.n_cols), np.nan)
    for r in range(geom.n_rows):
        for c in range(geom.n_cols):
            i0 = float(ov[r, c]) if ovalid[r, c] else None
            cands = []
            for rr in range(max(0, r - rad), min(geom.n_rows, r + rad + 1)):
                for cc in range(max(0, c - rad), min(geom.n_cols, c + rad + 1)):
                    spatial = ((rr - r) ** 2 + (cc - c) ** 2) / (
                        2.0 * cfg.delta_s * cfg.delta_s
                    )
                    if i0 is None:
                        w = math.exp(-spatial)
                    elif not ovalid[rr, cc]:
                        continue
                    else:
                        d = float(ov[rr, cc]) - i0
                        w = math.exp(
                            -(spatial + d * d / (2.0 * cfg.delta_i * cfg.delta_i))
                        )
                    if w > cfg.gamma:
                        for li in range(len(layers)):
                            if hvalid[li][rr, cc]:
                                cands.append(heights[li][rr, cc])
            if cands:
                cands.sort()
                n = len(cands)
                out[r, c] = 0.5 * (cands[(n - 1) // 2] + cands[n // 2])
    return out


def random_stack(rng, n_rows, n_cols, n_layers, hole_frac=0.15):
    layers = []
    for _ in range(n_layers):
        vals = rng.normal(20.0, 8.0, size=(n_rows, n_cols))
        vals[rng.random((n_rows, n_cols)) < hole_frac] = -9999.0
        layers.append(grid_of(vals))
    ortho_vals = rng.uniform(0.0, 255.0, size=(n_rows, n_cols))
    ortho_vals[rng.random((n_rows, n_cols)) < 0.05] = -9999.0
    return DepthStack(layers=layers), grid_of(ortho_vals)


class TestWeight:
    def test_center_is_exactly_one(self):
        k = WeightKernel(CellIndex(3, 3), 120.0)
        assert weight(k, CellIndex(3, 3), 120.0, FusionConfig()) == 1.0

    def test_closed_form_e_minus_one(self):
        cfg = FusionConfig(delta_s=3.0, delta_i=12.0)
        k = WeightKernel(CellIndex(0, 0), 100.0)
        w = weight(k, CellIndex(3, 0), 112.0, cfg)
        assert w == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_gaussian_tail_negligible(self):
        cfg = FusionConfig(delta_i=15.0)
        k = WeightKernel(CellIndex(0, 0), 0.0)
        assert weight(k, CellIndex(0, 0), 150.0, cfg) < 1e-21

    def test_monotone_in_distance_and_intensity(self):
        cfg = FusionConfig()
        k = WeightKernel(CellIndex(0, 0), 100.0)
        prev = 1.0
        for d in range(0, 6):
            w = weight(k, CellIndex(d, 0), 100.0, cfg)
            assert w <= prev
            prev = w
        prev = 1.0
        for di in range(0, 60, 5):
            w = weight(k, CellIndex(0, 0), 100.0 + di, cfg)
            assert w <= prev
            prev = w

    def test_spatial_only_when_center_nodata(self):
        cfg = FusionConfig(delta_s=2.0)
        k = WeightKernel(CellIndex(0, 0), None)
        w = weight(k, CellIndex(2, 0), 999.0, cfg)
        assert w == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_intensity_required_when_center_valid(self):
        k = WeightKernel(CellIndex(0, 0), 10.0)
        with pytest.raises(ValueError):
            weight(k, CellIndex(1, 0), None, FusionConfig())


class TestAdaptiveWindow:
    def test_uniform_intensity_keeps_whole_square(self):
        cfg = FusionConfig(delta_s=10.0, gamma=0.5, radius=2)
        ortho = grid_of(np.full((7, 7), 80.0))
        win = adaptive_window(ortho, CellIndex(3, 3), cfg)
        assert len(win) == 25

    def test_step_edge_confines_window(self):
        cfg = FusionConfig(gamma=0.5, delta_i=15.0, radius=3)
        vals = np.full((9, 9), 50.0)
        vals[:, 5:] = 150.0
        ortho = grid_of(vals)
        win = adaptive_window(ortho, CellIndex(3, 4), cfg)
        assert all(cell.col < 5 for cell in win.members)
        assert CellIndex(3, 4) in win

    def test_gamma_near_one_collapses_to_center(self):
        cfg = FusionConfig(gamma=0.999999, radius=3)
        ortho = grid_of(np.full((9, 9), 80.0))
        win = adaptive_window(ortho, CellIndex(4, 4), cfg)
        assert win.members == frozenset([CellIndex(4, 4)])

    def test_nodata_member_excluded_when_center_valid(self):
        cfg = FusionConfig(delta_s=10.0, radius=1)
        vals = np.full((3, 3), 80.0)
        vals[0, 0] = -9999.0
        ortho = grid_of(vals)
        win = adaptive_window(ortho, CellIndex(1, 1), cfg)
        assert CellIndex(0, 0) not in win
        assert len(win) == 8

    def test_nodata_center_goes_spatial_only(self):
        cfg = FusionConfig(delta_s=10.0, radius=1)
        vals = np.full((3, 3), 80.0)
        vals[1, 1] = -9999.0
        ortho = grid_of(vals)
        win = adaptive_window(ortho, CellIndex(1, 1), cfg)
        assert len(win) == 9

    def test_window_clipped_at_grid_border(self):
        cfg = FusionConfig(delta_s=10.0, radius=2)
        ortho = grid_of(np.full((5, 5), 80.0))
        win = adaptive_window(ortho, CellIndex(0, 0), cfg)
        assert len(win) == 9


class TestMedianFuse:
    def test_single_layer_identity(self, rng):
        vals = rng.normal(10, 3, size=(6, 5))
        vals[0, 0] = -9999.0
        stack = DepthStack(layers=[grid_of(vals)])
        out = median_fuse(stack)
        assert np.array_equal(out.values, vals)

    def test_odd_count(self):
        stack = DepthStack(
            layers=[grid_of([[v]]) for v in (1.0, 2.0, 9.0)]
        )
        assert median_fuse(stack).values[0, 0] == 2.0

    def test_nodata_excluded_then_median(self):
        stack = DepthStack(
            layers=[grid_of([[v]]) for v in (10.0, -9999.0, 25.0, 20.0)]
        )
        assert median_fuse(stack).values[0, 0] == 20.0

    def test_even_count_averages_middles(self):
        stack = DepthStack(layers=[grid_of([[v]]) for v in (1.0, 2.0, 4.0, 9.0)])
        assert median_fuse(stack).values[0, 0] == 3.0

    def test_no_valid_heights_gives_nodata(self):
        stack = DepthStack(
            layers=[grid_of([[-9999.0]]), grid_of([[-9999.0]])]
        )
        assert median_fuse(stack).values[0, 0] == -9999.0


class TestAdaptiveMedianFuse:
    def test_matches_brute_force_oracle(self, rng):
        for _ in range(5):
            stack, ortho = random_stack(rng, 8, 8, 3)
            out = adaptive_median_fuse(stack, ortho, FusionConfig())
            want = oracle_adaptive_fuse(stack.layers, ortho, FusionConfig())
            got = out.nan_values()
            assert np.array_equal(got, want, equal_nan=True)

    def test_output_within_candidate_range(self, rng):
        stack, ortho = random_stack(rng, 10, 10, 3)
        out = adaptive_median_fuse(stack, ortho)
        arr = np.stack([g.nan_values() for g in stack.layers])
        lo, hi = np.nanmin(arr), np.nanmax(arr)
        valid = out.valid_mask()
        assert np.all(out.values[valid] >= lo)
        assert np.all(out.values[valid] <= hi)

    def test_degenerate_gamma_equals_plain_median(self, rng):
        stack, ortho = random_stack(rng, 9, 7, 4)
        cfg = FusionConfig(gamma=0.999999, radius=3)
        adaptive = adaptive_median_fuse(stack, ortho, cfg)
        plain = median_fuse(stack)
        assert np.array_equal(adaptive.values, plain.values)

    def test_radius_zero_equals_plain_median(self, rng):
        stack, ortho = random_stack(rng, 9, 7, 4)
        cfg = FusionConfig(radius=0)
        adaptive = adaptive_median_fuse(stack, ortho, cfg)
        plain = median_fuse(stack)
        assert np.array_equal(adaptive.values, plain.values)

    def test_layer_order_invariance(self, rng):
        stack, ortho = random_stack(rng, 8, 8, 4)
        out1 = adaptive_median_fuse(stack, ortho)
        shuffled = DepthStack(layers=list(reversed(stack.layers)))
        out2 = adaptive_median_fuse(shuffled, ortho)
        assert np.array_equal(out1.values, out2.values)

    def test_height_shift_equivariance(self, rng):
        stack, ortho = random_stack(rng, 8, 8, 3)
        out1 = adaptive_median_fuse(stack, ortho)
        h = 37.25
        shifted_layers = []
        for g in stack.layers:
            vals = g.values.copy()
            m = g.valid_mask()
            vals[m] = vals[m] + h
            shifted_layers.append(grid_of(vals))
        out2 = adaptive_median_fuse(DepthStack(layers=shifted_layers), ortho)
        m = out1.valid_mask()
        assert np.array_equal(m, out2.valid_mask())
        assert out2.values[m] == pytest.approx(out1.values[m] + h, rel=1e-12)

    def test_two_layer_spike_suppressed(self):
        base = np.full((7, 7), 10.0)
        spiked = base.copy()
        spiked[3, 3] = 25.0
        stack = DepthStack(layers=[grid_of(base), grid_of(spiked)])
        ortho = grid_of(np.full((7, 7), 100.0))

        plain = median_fuse(stack)
        assert plain.values[3, 3] == pytest.approx(17.5)

        fused = adaptive_median_fuse(stack, ortho, FusionConfig(radius=1))
        assert fused.values[3, 3] == pytest.approx(10.0)

    def test_gamma_exactly_one_gives_all_nodata(self, rng):
        # strict membership: nothing exceeds a threshold of 1, not even the
        # center, so no cell has candidates
        stack, ortho = random_stack(rng, 6, 6, 2)
        out = adaptive_median_fuse(stack, ortho, FusionConfig(gamma=1.0))
        assert not out.valid_mask().any()

    def test_geometry_mismatch_rejected(self, rng):
        stack, _ = random_stack(rng, 6, 6, 2)
        ortho = grid_of(np.zeros((6, 7)))
        with pytest.raises(GeometryMismatchError):
            adaptive_median_fuse(stack, ortho)

    def test_jobs_give_bit_identical_results(self, rng):
        # spans multiple row blocks so the parallel path actually splits
        stack, ortho = random_stack(rng, 150, 20, 3)
        serial = adaptive_median_fuse(stack, ortho, jobs=1)
        parallel = adaptive_median_fuse(stack, ortho, jobs=3)
        assert np.array_equal(serial.values, parallel.values)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, rng, jobs):
        stack, ortho = random_stack(rng, 6, 6, 2)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            adaptive_median_fuse(stack, ortho, jobs=jobs)


def _budget_for_rows(stack, cfg, rows):
    """Candidate-byte budget that yields blocks of ``rows`` output rows."""
    row_bytes = stack.geometry.n_cols * len(fusion._window_offsets(cfg)) * len(stack.layers) * 8
    return rows * row_bytes + row_bytes - 1


class TestBlockPartition:
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("shape", [(23, 9), (1, 11)])
    @pytest.mark.parametrize(
        "cfg", [FusionConfig(), FusionConfig(radius=0), FusionConfig(gamma=1.0)]
    )
    def test_any_block_height_is_bit_identical(self, rng, monkeypatch, cfg, shape, jobs):
        stack, ortho = random_stack(rng, *shape, 3)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 1 << 40)
        whole = adaptive_median_fuse(stack, ortho, cfg)
        budgets = [1]  # smaller than one row: blocks of one row
        if fusion._window_offsets(cfg):
            budgets += [_budget_for_rows(stack, cfg, rows) for rows in (1, 2, 7)]
        for budget in budgets:
            monkeypatch.setattr(fusion, "_BLOCK_BYTES", budget)
            out = adaptive_median_fuse(stack, ortho, cfg, jobs=jobs)
            assert np.array_equal(out.values, whole.values), budget

    def test_budget_sets_block_height(self, rng, monkeypatch):
        stack, ortho = random_stack(rng, 23, 9, 3)
        heights = []
        real = fusion._fuse_block

        def spy(hpad, opad, offsets, cfg):
            heights.append(opad.shape[0] - 2 * cfg.radius)
            return real(hpad, opad, offsets, cfg)

        monkeypatch.setattr(fusion, "_fuse_block", spy)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", _budget_for_rows(stack, FusionConfig(), 7))
        adaptive_median_fuse(stack, ortho)
        assert heights == [7, 7, 7, 2]


_heights = st.one_of(
    st.sampled_from([-9999.0, np.nan, 0.0, 2.5, 10.0]),
    st.floats(-50.0, 50.0, allow_nan=False),
)
_intensities = st.one_of(st.just(-9999.0), st.floats(0.0, 255.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_layer_permutation_property(data):
    n_rows = data.draw(st.integers(1, 6), label="rows")
    n_cols = data.draw(st.integers(1, 6), label="cols")
    n_layers = data.draw(st.integers(1, 4), label="layers")
    layers = [
        grid_of(data.draw(arrays(np.float64, (n_rows, n_cols), elements=_heights)))
        for _ in range(n_layers)
    ]
    ortho = grid_of(data.draw(arrays(np.float64, (n_rows, n_cols), elements=_intensities)))
    cfg = FusionConfig(
        radius=data.draw(st.integers(0, 2), label="radius"),
        gamma=data.draw(st.sampled_from([0.3, 0.5, 0.9, 1.0]), label="gamma"),
    )
    order = data.draw(st.permutations(range(n_layers)), label="order")
    out = adaptive_median_fuse(DepthStack(layers=layers), ortho, cfg)
    permuted = adaptive_median_fuse(DepthStack(layers=[layers[i] for i in order]), ortho, cfg)
    assert np.array_equal(out.values, permuted.values)


class TestConfigAndStack:
    def test_defaults(self):
        cfg = FusionConfig()
        assert cfg.delta_s == 2.5
        assert cfg.delta_i == 15.0
        assert cfg.gamma == 0.5
        assert cfg.radius == 3

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            FusionConfig(gamma=0.0)
        with pytest.raises(ValueError):
            FusionConfig(gamma=1.01)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            FusionConfig(radius=-1)

    def test_stack_needs_layers(self):
        with pytest.raises(ValueError):
            DepthStack(layers=[])

    def test_stack_geometry_checked(self):
        a = grid_of(np.zeros((3, 3)))
        b = grid_of(np.zeros((3, 4)))
        with pytest.raises(GeometryMismatchError):
            DepthStack(layers=[a, b])

    def test_default_ids_generated(self):
        stack = DepthStack(layers=[grid_of(np.zeros((2, 2)))] * 2)
        assert stack.ids == ["layer-0", "layer-1"]
