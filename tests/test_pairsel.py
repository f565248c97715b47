import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import pairsel
from dsmfuse.pairsel import (
    ManifestError,
    PairGate,
    PairRecord,
    gate_pairs,
    rank_pairs,
    read_pair_manifest,
)
from dsmfuse.raster import GridGeometry, RasterGrid, write_asc
from dsmfuse.register import AlignConfig
from dsmfuse.rpc import DEFAULT_METERS_PER_UNIT, GroundPoint, intersection_angle, viewing_ray
from dsmfuse.synth import DegradeSpec, degrade

from conftest import linear_ray_model

ORIGIN = GroundPoint(0.0, 0.0, 0.0)
RANK_CFG = AlignConfig(max_search=3)


def ray_model(theta_deg, azimuth_deg=0.0):
    t = np.tan(np.radians(theta_deg))
    phi = np.radians(azimuth_deg)
    return linear_ray_model(t * np.cos(phi), t * np.sin(phi))


def every_pair(models):
    """Every unordered pair of the models' ids, each with a DSM path named after it."""
    return {(a, b): f"{a}-{b}.asc" for a, b in itertools.combinations(dict(models), 2)}


def gate_at(models, gate=PairGate()):
    return gate_pairs(models, ORIGIN, every_pair(models), gate, meters_per_unit=1.0)


def truth_hill(n=30, cell=1.0):
    geom = GridGeometry(0, 0, cell, n, n)
    xs = (np.arange(n) + 0.5) * cell
    ys = (n - np.arange(n) - 0.5) * cell
    X, Y = np.meshgrid(xs, ys)
    c = n * cell / 2
    h = 25.0 * np.exp(-((X - c) ** 2 + (Y - c) ** 2) / (2 * (n * cell / 4) ** 2))
    return RasterGrid(geom, h)


class TestPairGate:
    def test_bounds_are_inclusive(self):
        gate = PairGate(min_angle=10.0, max_angle=30.0)
        assert gate.admits(10.0)
        assert gate.admits(30.0)
        assert not gate.admits(9.999)
        assert not gate.admits(30.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            PairGate(min_angle=30.0, max_angle=10.0)
        with pytest.raises(ValueError):
            PairGate(min_angle=-1.0, max_angle=30.0)


class TestGatePairs:
    def test_20_degrees_kept_8_rejected(self):
        models = [("m00", ray_model(0.0)), ("m08", ray_model(8.0)), ("m20", ray_model(20.0))]
        records = gate_at(models)
        kept = {(r.id_a, r.id_b) for r in records}
        # m00-m08 is 8 deg (rejected); m00-m20 is 20 (kept); m08-m20 is 12 (kept)
        assert kept == {("m00", "m20"), ("m08", "m20")}

    def test_four_mutually_admissible_models_give_six_pairs(self):
        # nadir plus a 15-degree cone at three azimuths: nadir pairs at 15,
        # cone pairs at ~25.9 degrees, all inside [10, 30]
        models = [("m0", ray_model(0.0))] + [
            (f"m{i}", ray_model(15.0, azi)) for i, azi in ((1, 0.0), (2, 120.0), (3, 240.0))
        ]
        records = gate_at(models)
        assert len(records) == 6

    def test_sorted_by_angle_ascending(self):
        models = [("a", ray_model(0.0)), ("b", ray_model(12.0)), ("c", ray_model(28.0))]
        records = gate_at(models)
        angles = [r.angle_deg for r in records]
        assert angles == sorted(angles)

    def test_invariant_to_input_order(self):
        models = [("a", ray_model(0.0)), ("b", ray_model(12.0)), ("c", ray_model(28.0))]
        fwd = gate_at(models)
        rev = gate_at(list(reversed(models)))
        assert [(r.id_a, r.id_b) for r in fwd] == [(r.id_a, r.id_b) for r in rev]

    def test_angle_failure_drops_pair_not_fatal(self, caplog):
        # constant sample numerator: at a point with nonzero line residual
        # the Newton Jacobian is singular, so inversion (and the angle) fails
        const = np.zeros(20)
        const[0] = 1.0
        broken = dataclasses.replace(linear_ray_model(), num_s=const)
        models = [("ok1", ray_model(0.0)), ("ok2", ray_model(15.0)), ("bad", broken)]
        with caplog.at_level("WARNING"):
            records = gate_pairs(
                models, GroundPoint(0.1, 0.2, 0.0), every_pair(models), meters_per_unit=1.0
            )
        assert [(r.id_a, r.id_b) for r in records] == [("ok1", "ok2")]
        assert "bad" in caplog.text

    @pytest.mark.parametrize("at, meters_per_unit, message", [
        (GroundPoint(0.0, 0.0, float("nan")), 1.0, "height must be finite, got nan"),
        (ORIGIN, 0.0, "meters_per_unit must be finite and > 0, got 0.0"),
    ], ids=["non-finite-height", "zero-meters-per-unit"])
    def test_errors_that_are_not_a_missing_ray_raise(self, at, meters_per_unit, message):
        models = [("a", ray_model(0.0)), ("b", ray_model(15.0))]
        with pytest.raises(ValueError, match=f"^{message}$"):
            gate_pairs(models, at, every_pair(models), meters_per_unit=meters_per_unit)

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            gate_at([("only", ray_model(0.0))])

    def test_one_ray_per_model_and_listed_pairs_only(self, monkeypatch):
        rays = []

        def counted(model, *args, **kwargs):
            rays.append(model)
            return viewing_ray(model, *args, **kwargs)

        monkeypatch.setattr(pairsel, "viewing_ray", counted)
        models = [(f"m{i}", ray_model(10.0 * i)) for i in range(4)]
        assert len(gate_at(models, PairGate(0.0, 180.0))) == 6
        assert len(rays) == 4  # not one per model and pair
        rays.clear()
        # a listed pair in either order; m3 is in no pair, so it gets no ray
        records = gate_pairs(models, ORIGIN, {("m1", "m0"): "m1-m0.asc", ("m1", "m2"): "m1-m2.asc"},
                             PairGate(0.0, 180.0), meters_per_unit=1.0)
        assert [(r.id_a, r.id_b, r.dsm_path) for r in records] \
            == [("m0", "m1", "m1-m0.asc"), ("m1", "m2", "m1-m2.asc")]
        assert sorted(id(m) for m in rays) == sorted(id(dict(models)[i]) for i in ("m0", "m1", "m2"))

    @settings(max_examples=60, deadline=None)
    @given(
        tans=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=2, max_size=6),
        at=st.tuples(*[st.floats(-1.5, 1.5)] * 3),  # inside the validity cube: no warning
        meters_per_unit=st.sampled_from([1.0, 0.3, DEFAULT_METERS_PER_UNIT]),
        listed=st.data(),
    )
    def test_angles_are_intersection_angle_bit_for_bit(self, tans, at, meters_per_unit, listed):
        models = [(f"m{i}", linear_ray_model(tu, tv)) for i, (tu, tv) in enumerate(tans)]
        by_id, at = dict(models), GroundPoint(*at)
        every = list(itertools.combinations(by_id, 2))
        chosen = listed.draw(st.lists(st.sampled_from(every), unique=True))
        # each listed in a drawn order, with its DSM named after the canonical pair
        pairs = {(p if listed.draw(st.booleans()) else p[::-1]): "-".join(p) for p in chosen}
        records = gate_pairs(models, at, pairs, PairGate(0.0, 180.0), meters_per_unit=meters_per_unit)
        assert sorted((r.id_a, r.id_b) for r in records) == sorted(chosen)
        for r in records:
            assert r.dsm_path == f"{r.id_a}-{r.id_b}"
            want = intersection_angle(by_id[r.id_a], by_id[r.id_b], at, meters_per_unit=meters_per_unit)
            assert r.angle_deg.hex() == want.hex()


class TestRankPairs:
    def write_candidates(self, tmp_path, grids):
        records = []
        for i, grid in enumerate(grids):
            p = tmp_path / f"cand_{i}.asc"
            write_asc(grid, p)
            records.append(
                PairRecord(id_a=f"a{i}", id_b=f"b{i}", angle_deg=20.0, dsm_path=str(p))
            )
        return records

    def test_identical_candidate_ranks_first_with_zero(self, tmp_path):
        truth = truth_hill()
        noisy = degrade(truth, DegradeSpec(seed=1, gaussian_sigma=1.0))
        records = self.write_candidates(tmp_path, [noisy, truth])
        ranked = rank_pairs(records, truth, RANK_CFG)
        assert ranked[0].id_a == "a1"
        # the file round trip quantizes to 6 decimals, hence the tolerance
        assert ranked[0].rank_rmse == pytest.approx(0.0, abs=1e-5)

    def test_sigma_ladder_ranked_in_order(self, tmp_path):
        truth = truth_hill()
        sigmas = [0.2, 0.5, 1.0]
        for seed in (3, 4, 5):
            grids = [
                degrade(truth, DegradeSpec(seed=seed + 10 * i, gaussian_sigma=s))
                for i, s in enumerate(sigmas)
            ]
            records = self.write_candidates(tmp_path, grids)
            ranked = rank_pairs(records, truth, RANK_CFG)
            assert [r.id_a for r in ranked] == ["a0", "a1", "a2"]

    def test_top_k_truncation(self, tmp_path):
        truth = truth_hill()
        grids = [
            degrade(truth, DegradeSpec(seed=i, gaussian_sigma=0.1 + 0.1 * i))
            for i in range(12)
        ]
        records = self.write_candidates(tmp_path, grids)
        ranked = rank_pairs(records, truth, RANK_CFG, PairGate(top_k=10))
        assert sum(r.selected for r in ranked) == 10
        assert all(r.selected for r in ranked[:10])
        assert not any(r.selected for r in ranked[10:])

    def test_constant_offset_does_not_change_ranking(self, tmp_path):
        truth = truth_hill()
        sigmas = [0.3, 0.8]
        grids = [
            degrade(truth, DegradeSpec(seed=7 + i, gaussian_sigma=s))
            for i, s in enumerate(sigmas)
        ]
        lifted = [RasterGrid(g.geometry, g.values + 12.0, g.nodata) for g in grids]
        base = rank_pairs(self.write_candidates(tmp_path / "a", grids), truth, RANK_CFG)
        offs = rank_pairs(self.write_candidates(tmp_path / "b", lifted), truth, RANK_CFG)
        assert [r.id_a for r in base] == [r.id_a for r in offs]

    def test_insufficient_overlap_ranked_last_with_flag(self, tmp_path):
        truth = truth_hill()
        ok = degrade(truth, DegradeSpec(seed=2, gaussian_sigma=0.5))
        hollow_vals = np.full_like(truth.values, -9999.0)
        hollow = RasterGrid(truth.geometry, hollow_vals)
        records = self.write_candidates(tmp_path, [hollow, ok])
        ranked = rank_pairs(records, truth, RANK_CFG)
        assert ranked[-1].id_a == "a0"
        assert ranked[-1].rank_rmse is None
        assert not ranked[-1].selected
        assert ranked[0].id_a == "a1" and ranked[0].rank_rmse is not None

    @pytest.fixture(autouse=True)
    def _mkdirs(self, tmp_path):
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)


class TestRankMonotonicity:
    def test_more_noise_never_ranks_better(self, tmp_path):
        # statistical: over 20 seeds, the noisier of two candidates loses
        # in at least 19
        truth = truth_hill()
        correct = 0
        for seed in range(20):
            records = []
            for i, sigma in enumerate((0.4, 0.8)):
                g = degrade(truth, DegradeSpec(seed=seed * 7 + i, gaussian_sigma=sigma))
                p = tmp_path / f"m{seed}_{i}.asc"
                write_asc(g, p)
                records.append(
                    PairRecord(id_a=f"a{i}", id_b=f"b{i}", angle_deg=20.0, dsm_path=str(p))
                )
            ranked = rank_pairs(records, truth, RANK_CFG)
            correct += ranked[0].id_a == "a0"
        assert correct >= 19


class TestDefaults:
    def test_gate_defaults_match_protocol(self):
        gate = PairGate()
        assert gate.min_angle == 10.0
        assert gate.max_angle == 30.0
        assert gate.top_k == 10


class TestPairRecordValidation:
    def test_distinct_ids(self):
        with pytest.raises(ValueError):
            PairRecord(id_a="x", id_b="x", angle_deg=20.0, dsm_path="xx.asc")

    def test_angle_range(self):
        with pytest.raises(ValueError):
            PairRecord(id_a="x", id_b="y", angle_deg=200.0, dsm_path="xy.asc")


class TestManifest:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text(
            "id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\n"
            "img1,img2,a.rpc,b.rpc,pair12.asc\n"
            "img1,img3,a.rpc,c.rpc,pair13.asc\n"
        )
        rpc_paths, pairs = read_pair_manifest(p)
        assert list(rpc_paths.items()) == [("img1", "a.rpc"), ("img2", "b.rpc"), ("img3", "c.rpc")]
        assert pairs == {("img1", "img2"): "pair12.asc", ("img1", "img3"): "pair13.asc"}

    def test_pair_keys_in_ascending_id_order(self, tmp_path):
        # the ids as gate_pairs canonicalizes them; RPC files in order of first mention
        p = tmp_path / "pairs.csv"
        p.write_text("id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\nimg3,img1,c.rpc,a.rpc,pair31.asc\n")
        rpc_paths, pairs = read_pair_manifest(p)
        assert list(rpc_paths.items()) == [("img3", "c.rpc"), ("img1", "a.rpc")]
        assert pairs == {("img1", "img3"): "pair31.asc"}

    def test_missing_column(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id_a,id_b,rpc_a_path\nimg1,img2,a.rpc\n")
        with pytest.raises(ManifestError):
            read_pair_manifest(p)

    def test_incomplete_row(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text(
            "id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\n"
            "img1,img2,a.rpc,,pair.asc\n"
        )
        with pytest.raises(ManifestError):
            read_pair_manifest(p)

    @pytest.mark.parametrize("rows, error", [
        ("img1,img2,a.rpc,b.rpc,p12.asc\n\nimg1,img3,a.rpc,,p13.asc\n", ":4: incomplete row"),
        ("img1,img2,a.rpc,b.rpc,sigma01.asc\nimg1,img2,a.rpc,b.rpc,sigma10.asc\n",
         ":3: pair (img1, img2) is already on line 2"),
        ("img1,img2,a.rpc,b.rpc,sigma01.asc\nimg2,img1,b.rpc,a.rpc,sigma10.asc\n",
         ":3: pair (img2, img1) is already on line 2"),
        ("img1,img2,a.rpc,b.rpc,p12.asc\nimg1,img1,a.rpc,a.rpc,p11.asc\n",
         ":3: pair (img1, img1) names one id twice"),
        ("img1,img2,a.rpc,b.rpc,p12.asc\nimg3,img1,c.rpc,other.rpc,p13.asc\n",
         ":3: id img1 has RPC files a.rpc and other.rpc"),
    ], ids=["blank-line", "repeated-pair", "reversed-pair", "one-id", "second-rpc-file"])
    def test_error_names_file_and_line(self, tmp_path, rows, error):
        p = tmp_path / "pairs.csv"
        p.write_text("id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\n" + rows)
        with pytest.raises(ManifestError) as err:
            read_pair_manifest(p)
        assert str(err.value) == f"{p}{error}"

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\n")
        with pytest.raises(ManifestError):
            read_pair_manifest(p)
