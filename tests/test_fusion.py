import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmfuse import fusion, raster
from dsmfuse.fusion import (
    DepthStack,
    FusionConfig,
    adaptive_median_fuse,
    median_fuse,
    window_weights,
)
from dsmfuse.raster import GeometryMismatchError

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


# windows whose rows differ in length: a disk cut by radius 5, and a cross
NON_SQUARE = [FusionConfig(delta_s=4.0, gamma=0.3, radius=5), FusionConfig(radius=1, gamma=0.9)]


def weights_of(ortho, cfg):
    """``window_weights`` over a whole orthophoto grid, and its offsets."""
    offsets = fusion._window_offsets(cfg)
    opad = np.pad(ortho.nan_values(), cfg.radius, constant_values=np.nan)
    return window_weights(opad, offsets, cfg), offsets


def weight_at(center_intensity, dcol, intensity, cfg):
    """W of the cell ``dcol`` columns east of a center, from ``window_weights``.

    None is nodata.  At dcol 0 the cell is the center itself, holding
    ``intensity``.
    """
    row = np.full((1, dcol + 1), -9999.0)
    for col, value in ((0, center_intensity), (dcol, intensity)):
        if value is not None:
            row[0, col] = value
    w, offsets = weights_of(grid_of(row), cfg)
    return w[0, 0, [(di, dj) for di, dj, _ in offsets].index((0, dcol))]


def window_of(ortho, center, cfg):
    """``(col, row)`` cells, the padding outside the grid included, whose
    weight around the ``(col, row)`` center passes the gate."""
    col, row = center
    w, offsets = weights_of(ortho, cfg)
    return frozenset(
        (col + dj, row + di)
        for k, (di, dj, _) in enumerate(offsets)
        if w[row, col, k] > cfg.gamma
    )


class TestWeight:
    def test_center_is_exactly_one(self):
        assert weight_at(120.0, 0, 120.0, FusionConfig()) == 1.0

    def test_closed_form_e_minus_one(self):
        cfg = FusionConfig(delta_s=3.0, delta_i=12.0)
        w = weight_at(100.0, 3, 112.0, cfg)
        assert w == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_gaussian_tail_negligible(self):
        cfg = FusionConfig(delta_i=15.0)
        assert weight_at(0.0, 1, 150.0, cfg) < 1e-21

    def test_monotone_in_distance_and_intensity(self):
        cfg = FusionConfig(gamma=1e-9, radius=7)  # every offset to 7 cells kept
        prev = 1.0
        for d in range(0, 6):
            w = weight_at(100.0, d, 100.0, cfg)
            assert w <= prev
            prev = w
        prev = 1.0
        for di in range(0, 60, 5):
            w = weight_at(100.0, 1, 100.0 + di, cfg)
            assert w <= prev
            prev = w

    def test_spatial_only_when_center_nodata(self):
        cfg = FusionConfig(delta_s=2.0)
        w = weight_at(None, 2, 999.0, cfg)
        assert w == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_nodata_neighbour_of_valid_center_fails_gate(self):
        cfg = FusionConfig()
        w = weight_at(10.0, 1, None, cfg)
        assert np.isnan(w)
        assert not w > cfg.gamma

    @pytest.mark.parametrize("cfg", [FusionConfig(), *NON_SQUARE, FusionConfig(delta_i=3.0, radius=4)])
    def test_matches_one_offset_at_a_time(self, rng, cfg):
        # the same float ops as a per-offset slice loop, so the same bits
        ortho = rng.uniform(0.0, 255.0, (13, 17))
        ortho[rng.random(ortho.shape) < 0.1] = -9999.0
        w, offsets = weights_of(grid_of(ortho), cfg)
        opad = np.pad(grid_of(ortho).nan_values(), cfg.radius, constant_values=np.nan)
        rad, (n_rows, n_cols) = cfg.radius, ortho.shape
        i0 = opad[rad : rad + n_rows, rad : rad + n_cols]
        for k, (di, dj, spatial) in enumerate(offsets):
            d = opad[rad + di : rad + di + n_rows, rad + dj : rad + dj + n_cols] - i0
            want = np.exp(-(spatial + d * d / (2.0 * cfg.delta_i * cfg.delta_i)))
            want[np.isnan(i0)] = math.exp(-spatial)
            assert w[:, :, k].tobytes() == want.tobytes(), (di, dj)


class TestAdaptiveWindow:
    def test_uniform_intensity_keeps_whole_square(self):
        cfg = FusionConfig(delta_s=10.0, gamma=0.5, radius=2)
        ortho = grid_of(np.full((7, 7), 80.0))
        win = window_of(ortho, (3, 3), cfg)
        assert len(win) == 25

    def test_step_edge_confines_window(self):
        cfg = FusionConfig(gamma=0.5, delta_i=15.0, radius=3)
        vals = np.full((9, 9), 50.0)
        vals[:, 5:] = 150.0
        ortho = grid_of(vals)
        win = window_of(ortho, (3, 4), cfg)
        assert all(col < 5 for col, _ in win)
        assert (3, 4) in win

    def test_gamma_near_one_collapses_to_center(self):
        cfg = FusionConfig(gamma=0.999999, radius=3)
        ortho = grid_of(np.full((9, 9), 80.0))
        win = window_of(ortho, (4, 4), cfg)
        assert win == frozenset([(4, 4)])

    def test_nodata_member_excluded_when_center_valid(self):
        cfg = FusionConfig(delta_s=10.0, radius=1)
        vals = np.full((3, 3), 80.0)
        vals[0, 0] = -9999.0
        ortho = grid_of(vals)
        win = window_of(ortho, (1, 1), cfg)
        assert (0, 0) not in win
        assert len(win) == 8

    def test_nodata_center_goes_spatial_only(self):
        cfg = FusionConfig(delta_s=10.0, radius=1)
        vals = np.full((3, 3), 80.0)
        vals[1, 1] = -9999.0
        ortho = grid_of(vals)
        win = window_of(ortho, (1, 1), cfg)
        assert len(win) == 9

    def test_window_clipped_at_grid_border(self):
        cfg = FusionConfig(delta_s=10.0, radius=2)
        ortho = grid_of(np.full((5, 5), 80.0))
        win = window_of(ortho, (0, 0), cfg)
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

    def test_gamma_exactly_one_rejected(self):
        # strict membership: nothing exceeds a threshold of 1, not even the
        # center, so every cell would be nodata; such a config is refused
        with pytest.raises(ValueError, match=r"gamma must be in \(0, 1\), got 1.0"):
            FusionConfig(gamma=1.0)

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

    def test_jobs_start_no_more_threads_than_blocks(self, rng, monkeypatch):
        # one strip of 6 one-row blocks; a pool of 64 starts a thread per queued block
        stack, ortho = random_stack(rng, 6, 8, 2)
        serial = adaptive_median_fuse(stack, ortho)
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(threading.Thread, "start", spy)
        parallel = adaptive_median_fuse(stack, ortho, jobs=64)
        assert 1 <= len(started) <= 6
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
    @pytest.mark.parametrize("cfg", [
        FusionConfig(), FusionConfig(radius=0), FusionConfig(delta_s=4.0, gamma=0.1, radius=5),
    ])
    def test_any_block_height_is_bit_identical(self, rng, monkeypatch, cfg, shape, jobs):
        stack, ortho = random_stack(rng, *shape, 3)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 1 << 40)
        whole = adaptive_median_fuse(stack, ortho, cfg)
        # 1 is smaller than one row: blocks of one row
        for budget in [1] + [_budget_for_rows(stack, cfg, rows) for rows in (1, 2, 7)]:
            monkeypatch.setattr(fusion, "_BLOCK_BYTES", budget)
            out = adaptive_median_fuse(stack, ortho, cfg, jobs=jobs)
            assert np.array_equal(out.values, whole.values), budget

    def test_budget_sets_block_height(self, rng, monkeypatch):
        stack, ortho = random_stack(rng, 23, 9, 3)
        heights = []
        real = fusion._fuse_block

        def spy(hpad, opad, offsets, cfg, ks):
            heights.append(opad.shape[0] - 2 * cfg.radius)
            return real(hpad, opad, offsets, cfg, ks)

        monkeypatch.setattr(fusion, "_fuse_block", spy)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", _budget_for_rows(stack, FusionConfig(), 7))
        adaptive_median_fuse(stack, ortho)
        assert heights == [7, 7, 7, 2]


class TestGather:
    """``_gather`` copies each window row of offsets as one run per cell."""

    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 5, 8])
    def test_window_rows_are_runs_of_consecutive_columns(self, radius):
        for delta_s, gamma in itertools.product([0.5, 1.0, 2.5, 4.0, 10.0], [0.01, 0.3, 0.5, 0.9, 0.999999]):
            offsets = fusion._window_offsets(FusionConfig(delta_s=delta_s, gamma=gamma, radius=radius))
            rows = [(di, [dj for _, dj, _ in row]) for di, row in itertools.groupby(offsets, key=lambda o: o[0])]
            assert len({di for di, _ in rows}) == len(rows)  # each window row is one run
            for di, djs in rows:
                assert djs == list(range(djs[0], djs[0] + len(djs))), (delta_s, gamma, di)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cfg", NON_SQUARE, ids=["disk", "cross"])
    def test_prefixes_match_oracle_on_non_square_windows(self, rng, monkeypatch, cfg, jobs):
        lengths = {sum(1 for _ in row) for _, row in itertools.groupby(fusion._window_offsets(cfg), key=lambda o: o[0])}
        assert len(lengths) > 1
        stack, ortho = random_stack(rng, 14, 11, 4)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", _budget_for_rows(stack, cfg, 3))
        strips = fusion.read_strips(stack.layers + [ortho])
        fused = np.concatenate(list(fusion.fuse_strips(strips, cfg, jobs, ks=range(1, 5))), axis=1)
        for k in range(1, 5):
            want = oracle_adaptive_fuse(stack.layers[:k], ortho, cfg)
            # bit patterns: array_equal would not tell -0.0 from 0.0
            assert fused[k - 1].view(np.int64).tolist() == want.view(np.int64).tolist(), k

    def test_one_block_gathers_twice(self, rng, monkeypatch):
        # the ortho for the gate, then the heights: no per-offset loop of copies
        gathers, per_block = [], []
        real_gather, real_block = fusion._gather, fusion._fuse_block

        def gather(*args):
            gathers.append(args[0].ndim)
            return real_gather(*args)

        def block(*args, **kwargs):
            gathers.clear()
            out = real_block(*args, **kwargs)
            per_block.append(list(gathers))
            return out

        monkeypatch.setattr(fusion, "_gather", gather)
        monkeypatch.setattr(fusion, "_fuse_block", block)
        for cfg in [FusionConfig(), *NON_SQUARE]:
            stack, ortho = random_stack(rng, 12, 9, 3)
            monkeypatch.setattr(fusion, "_BLOCK_BYTES", _budget_for_rows(stack, cfg, 4))
            adaptive_median_fuse(stack, ortho, cfg)
        assert per_block == [[2, 3]] * 9


class TestStripPartition:
    """Strips of any height, the radius-row halo carried between them, give
    the bits of one strip over the whole grid."""

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize(
        "cfg",
        # gamma1: gamma just below 1, the center-only window under a 3-row halo
        [None, FusionConfig(), FusionConfig(radius=0), FusionConfig(radius=5),
         FusionConfig(gamma=0.999999)],
        ids=["median", "default", "radius0", "radius5", "gamma1"],
    )
    def test_any_strip_height_is_bit_identical(self, rng, monkeypatch, cfg, jobs):
        stack, ortho = random_stack(rng, 23, 9, 3)
        n_grids = 3 if cfg is None else 4

        def fuse():
            if cfg is None:
                return median_fuse(stack)
            return adaptive_median_fuse(stack, ortho, cfg, jobs=jobs)

        monkeypatch.setattr(raster, "_STRIP_BYTES", 1 << 40)
        whole = fuse()
        for rows in (1, 2, 7):
            monkeypatch.setattr(raster, "_STRIP_BYTES", rows * 9 * n_grids * 8)
            assert raster.strip_rows(9, n_grids) == rows
            assert whole.values.tobytes() == fuse().values.tobytes(), rows

    def test_strips_read_in_lockstep(self, monkeypatch):
        monkeypatch.setattr(raster, "_STRIP_BYTES", 2 * 2 * 2 * 8)  # two rows
        calls = []

        class Reader:
            geometry = raster.GridGeometry(0.0, 0.0, 1.0, 2, 5)
            nodata = -9999.0

            def __init__(self, name):
                self.name, self.served = name, 0

            def read(self, n):
                calls.append((self.name, n))
                n = min(n, 5 - self.served)
                self.served += n
                return np.full((n, 2), 1.0 if self.served <= 2 else -9999.0)

        strips = list(fusion.read_strips([Reader("a"), Reader("b")]))
        assert calls == [("a", 2), ("b", 2)] * 3
        assert [s.shape for s in strips] == [(2, 2, 2), (2, 2, 2), (1, 2, 2)]
        assert (strips[0] == 1.0).all() and np.isnan(strips[1]).all()


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
        gamma=data.draw(st.sampled_from([0.3, 0.5, 0.9, 0.999999]), label="gamma"),
    )
    order = data.draw(st.permutations(range(n_layers)), label="order")
    out = adaptive_median_fuse(DepthStack(layers=layers), ortho, cfg)
    permuted = adaptive_median_fuse(DepthStack(layers=[layers[i] for i in order]), ortho, cfg)
    assert np.array_equal(out.values, permuted.values)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_layer_prefixes_match_fusing_them_alone_property(data):
    """Each prefix of one ``fuse_strips(..., ks=range(1, K + 1))`` pass has the
    bits of a pass over its first k layers alone (plus the ortho), for any
    strip heights and block budget, in both modes."""
    n_rows = data.draw(st.integers(1, 9), label="rows")
    n_cols = data.draw(st.integers(1, 6), label="cols")
    n_layers = data.draw(st.integers(1, 5), label="layers")
    layers = [
        grid_of(data.draw(arrays(np.float64, (n_rows, n_cols), elements=_heights)))
        for _ in range(n_layers)
    ]
    cfg = data.draw(st.sampled_from(
        [None, FusionConfig(), FusionConfig(radius=1), FusionConfig(delta_s=4.0, gamma=0.1)]
    ), label="cfg")
    ortho = [] if cfg is None else [
        grid_of(data.draw(arrays(np.float64, (n_rows, n_cols), elements=_intensities)))
    ]
    cuts = sorted(data.draw(st.sets(st.integers(1, n_rows - 1)), label="cuts")) if n_rows > 1 else []

    def fused(grids, cuts, **kwargs):
        strips = np.split(np.concatenate(list(fusion.read_strips(grids))), cuts)
        return np.concatenate(list(fusion.fuse_strips(strips, cfg, **kwargs)), axis=1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_BLOCK_BYTES", data.draw(st.integers(1, 5000), label="block bytes"))
        every = fused(layers + ortho, cuts, ks=range(1, n_layers + 1))
    for k in range(1, n_layers + 1):
        (alone,) = fused(layers[:k] + ortho, [])
        assert every[k - 1].tobytes() == alone.tobytes(), k


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gate_matches_per_cell_window_property(data):
    # criterion 01 compares fused medians only, which a flipped member can
    # leave unchanged; this compares membership itself, offset by offset
    n_rows = data.draw(st.integers(1, 8), label="rows")
    n_cols = data.draw(st.integers(1, 8), label="cols")
    ortho = grid_of(data.draw(arrays(np.float64, (n_rows, n_cols), elements=_intensities)))
    cfg = FusionConfig(
        delta_s=data.draw(st.sampled_from([1.5, 2.5, 4.0]), label="delta_s"),
        delta_i=data.draw(st.sampled_from([10.0, 15.0, 25.0]), label="delta_i"),
        gamma=data.draw(st.sampled_from([0.3, 0.5, 0.9, 0.999999]), label="gamma"),
        radius=data.draw(st.integers(0, 3), label="radius"),
    )
    w, offsets = weights_of(ortho, cfg)
    slot = {(di, dj): k for k, (di, dj, _) in enumerate(offsets)}
    ov, valid = ortho.values, ortho.valid_mask()
    rad = cfg.radius
    for r in range(n_rows):
        for c in range(n_cols):
            i0 = float(ov[r, c]) if valid[r, c] else None
            for di in range(-rad, rad + 1):
                for dj in range(-rad, rad + 1):
                    rr, cc = r + di, c + dj
                    spatial = (di * di + dj * dj) / (2.0 * cfg.delta_s * cfg.delta_s)
                    if i0 is None:
                        # spatial-only, also outside the grid, where heights are NaN
                        want = math.exp(-spatial) > cfg.gamma
                    elif not (0 <= rr < n_rows and 0 <= cc < n_cols and valid[rr, cc]):
                        want = False
                    else:
                        d = float(ov[rr, cc]) - i0
                        want = math.exp(
                            -(spatial + d * d / (2.0 * cfg.delta_i * cfg.delta_i))
                        ) > cfg.gamma
                    k = slot.get((di, dj))
                    got = k is not None and bool(w[r, c, k] > cfg.gamma)
                    assert got == want, (r, c, di, dj)


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
        with pytest.raises(ValueError):
            FusionConfig(gamma=1.0)

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
