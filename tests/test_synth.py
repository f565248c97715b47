import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmfuse.raster import RasterGrid
from dsmfuse.synth import Building, DegradeSpec, SceneSpec, degrade, gen_scene

from conftest import grid_of


class TestGenScene:
    def test_no_buildings_constant_ground(self):
        dsm, ortho = gen_scene(SceneSpec(seed=1, width=12, height=8, ground_height=5.0))
        assert np.all(dsm.values == 5.0)
        assert np.all(ortho.values == 60.0)

    def test_single_building_histogram(self):
        spec = SceneSpec(
            seed=1,
            width=30,
            height=30,
            ground_height=0.0,
            buildings=(Building(col=5, row=7, n_cols=10, n_rows=10, height=20.0, intensity=180.0),),
        )
        dsm, ortho = gen_scene(spec)
        vals, counts = np.unique(dsm.values, return_counts=True)
        assert list(vals) == [0.0, 20.0]
        assert counts[1] == 100
        assert np.count_nonzero(ortho.values == 180.0) == 100

    def test_later_building_wins_overlap(self):
        spec = SceneSpec(
            seed=1,
            width=10,
            height=10,
            buildings=(
                Building(0, 0, 5, 5, 10.0, 100.0),
                Building(2, 2, 5, 5, 30.0, 200.0),
            ),
        )
        dsm, _ = gen_scene(spec)
        assert dsm.values[3, 3] == 30.0

    def test_deterministic(self):
        spec = SceneSpec(
            seed=9,
            width=20,
            height=15,
            buildings=(Building(1, 2, 3, 4, 12.0, 90.0),),
        )
        a_dsm, a_ortho = gen_scene(spec)
        b_dsm, b_ortho = gen_scene(spec)
        assert np.array_equal(a_dsm.values, b_dsm.values)
        assert np.array_equal(a_ortho.values, b_ortho.values)

    def test_footprint_bounds_checked(self):
        with pytest.raises(ValueError):
            SceneSpec(
                seed=1, width=10, height=10,
                buildings=(Building(8, 8, 5, 5, 10.0, 100.0),),
            )

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(
                seed=1, width=10, height=10,
                buildings=(Building(0, 0, 2, 2, -1.0, 100.0),),
            )


def _degrade_oracle(truth: RasterGrid, spec: DegradeSpec) -> RasterGrid:
    """``degrade`` written with boolean-mask indexing, the reference it must match."""
    noise_rng, spike_rng, hole_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(3)
    )
    shape = truth.values.shape
    valid = truth.valid_mask()
    out = truth.values.copy()
    if spec.gaussian_sigma > 0:
        noise = noise_rng.normal(0.0, spec.gaussian_sigma, size=shape)
        out[valid] += noise[valid]
    if spec.spike_prob > 0:
        hit = spike_rng.random(size=shape) < spec.spike_prob
        sign = np.where(spike_rng.random(size=shape) < 0.5, -1.0, 1.0)
        sel = hit & valid
        out[sel] += sign[sel] * spec.spike_amp
    if spec.hole_prob > 0:
        holes = hole_rng.random(size=shape) < spec.hole_prob
        out[holes & valid] = np.nan
    out[~valid] = np.nan
    return RasterGrid(truth.geometry, out, truth.nodata)


class TestDegrade:
    def test_all_rates_zero_identity(self):
        truth = grid_of(np.full((10, 10), 7.0))
        out = degrade(truth, DegradeSpec(seed=3))
        assert np.array_equal(out.values, truth.values)

    def test_hole_count_within_binomial_bound(self):
        truth = grid_of(np.full((100, 100), 7.0))
        out = degrade(truth, DegradeSpec(seed=5, hole_prob=0.1))
        n_holes = np.count_nonzero(np.isnan(out.values))
        # 3 sigma of Binomial(10000, 0.1)
        assert abs(n_holes - 1000) <= 90

    def test_different_seeds_differ(self):
        truth = grid_of(np.full((30, 30), 7.0))
        a = degrade(truth, DegradeSpec(seed=1, gaussian_sigma=0.5))
        b = degrade(truth, DegradeSpec(seed=2, gaussian_sigma=0.5))
        assert not np.array_equal(a.values, b.values)

    def test_same_seed_bit_identical(self):
        truth = grid_of(np.full((30, 30), 7.0))
        spec = DegradeSpec(seed=4, gaussian_sigma=0.5, spike_prob=0.05, spike_amp=10.0, hole_prob=0.1)
        a = degrade(truth, spec)
        b = degrade(truth, spec)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_gaussian_only_preserves_valid_mask(self):
        vals = np.full((20, 20), 7.0)
        vals[3:6, 3:6] = -9999.0
        truth = grid_of(vals)
        out = degrade(truth, DegradeSpec(seed=8, gaussian_sigma=1.0))
        assert np.array_equal(out.valid_mask(), truth.valid_mask())

    def test_spikes_offset_by_amplitude(self):
        truth = grid_of(np.full((50, 50), 10.0))
        out = degrade(truth, DegradeSpec(seed=6, spike_prob=0.2, spike_amp=15.0))
        changed = out.values[out.values != 10.0]
        assert changed.size > 0
        assert set(np.unique(changed)) <= {-5.0, 25.0}

    def test_input_nodata_never_revived(self):
        vals = np.full((20, 20), 7.0)
        vals[0, :] = -9999.0
        truth = grid_of(vals)
        out = degrade(truth, DegradeSpec(seed=7, gaussian_sigma=2.0, spike_prob=0.3, spike_amp=5.0))
        assert np.all(np.isnan(out.values[0, :]))

    @settings(max_examples=150, deadline=None)
    @given(
        vals=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=(
            st.floats(-1e4, 1e4) | st.sampled_from([-9999.0, np.nan, np.inf, -np.inf])
        )),
        seed=st.integers(0, 2**32),
        sigma=st.sampled_from([0.0, 0.3]) | st.floats(0.0, 5.0),
        spike_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        spike_amp=st.floats(0.0, 50.0),
        hole_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_matches_boolean_mask_oracle_bit_for_bit(
        self, vals, seed, sigma, spike_prob, spike_amp, hole_prob
    ):
        truth = grid_of(vals)
        spec = DegradeSpec(seed=seed, gaussian_sigma=sigma, spike_prob=spike_prob,
                           spike_amp=spike_amp, hole_prob=hole_prob)
        got, want = degrade(truth, spec).values, _degrade_oracle(truth, spec).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_negative_seed_rejected(self):
        for cls in (SceneSpec, DegradeSpec):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                cls(**{**_VALID[cls], "seed": -5})

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DegradeSpec(seed=1, spike_prob=1.5)
        with pytest.raises(ValueError):
            DegradeSpec(seed=1, gaussian_sigma=-0.1)


_VALID = {
    Building: dict(col=0, row=0, n_cols=2, n_rows=2, height=10.0, intensity=100.0),
    SceneSpec: dict(seed=1, width=4, height=4),
    DegradeSpec: dict(seed=1),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", [
    (Building, "height"), (Building, "intensity"),
    (SceneSpec, "cell_size"), (SceneSpec, "ground_height"), (SceneSpec, "ground_intensity"),
    (DegradeSpec, "gaussian_sigma"), (DegradeSpec, "spike_amp"),
])
def test_non_finite_parameter_rejected(cls, name, bad):
    cls(**_VALID[cls])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{**_VALID[cls], name: bad})
