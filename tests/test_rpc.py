import numpy as np
import pytest

from dsmfuse.rpc import (
    DegenerateModelError,
    GroundPoint,
    ImagePoint,
    InversionError,
    RpcDomainWarning,
    RpcFileError,
    apply_bias,
    intersection_angle,
    invert,
    project,
    read_rpc,
    write_rpc,
)

from conftest import identity_model, linear_ray_model, random_rpc_model

# exponents (i, j, k) of U^i V^j Z^k for each coefficient slot, used as an
# independent brute-force oracle for the polynomial evaluation
TERM_EXPONENTS = [
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0),
    (0, 2, 0), (0, 0, 2), (1, 1, 1), (3, 0, 0),
    (1, 2, 0), (1, 0, 2), (2, 1, 0), (0, 3, 0),
    (0, 1, 2), (2, 0, 1), (0, 2, 1), (0, 0, 3),
]


def oracle_project(model, p):
    """Term-by-term monomial-sum projection, independent of eval_poly."""
    un = (p.u - model.u_off) / model.u_scale
    vn = (p.v - model.v_off) / model.v_scale
    zn = (p.z - model.z_off) / model.z_scale

    def poly(coeff):
        return sum(
            c * un**i * vn**j * zn**k
            for c, (i, j, k) in zip(coeff, TERM_EXPONENTS)
        )

    s = model.s_scale * poly(model.num_s) / poly(model.den_s) + model.s_off
    l = model.l_scale * poly(model.num_l) / poly(model.den_l) + model.l_off
    return ImagePoint(s, l)


class TestProject:
    def test_identity_like_model(self):
        ip = project(identity_model(), GroundPoint(0.3, -0.2, 0.0))
        assert ip.s == pytest.approx(0.3, abs=1e-15)
        assert ip.l == pytest.approx(-0.2, abs=1e-15)

    def test_normalized_origin_isolates_constant_terms(self, rng):
        model = random_rpc_model(rng)
        ip = project(model, GroundPoint(model.u_off, model.v_off, model.z_off))
        expect_s = model.s_scale * (model.num_s[0] / model.den_s[0]) + model.s_off
        expect_l = model.l_scale * (model.num_l[0] / model.den_l[0]) + model.l_off
        assert ip.s == pytest.approx(expect_s, rel=1e-14)
        assert ip.l == pytest.approx(expect_l, rel=1e-14)

    def test_matches_monomial_oracle(self, rng):
        for _ in range(20):
            model = random_rpc_model(rng)
            for _ in range(10):
                p = GroundPoint(
                    u=model.u_off + model.u_scale * rng.uniform(-1, 1),
                    v=model.v_off + model.v_scale * rng.uniform(-1, 1),
                    z=model.z_off + model.z_scale * rng.uniform(-1, 1),
                )
                got = project(model, p)
                want = oracle_project(model, p)
                assert got.s == pytest.approx(want.s, rel=1e-12)
                assert got.l == pytest.approx(want.l, rel=1e-12)

    def test_warns_outside_validity_cube(self):
        model = identity_model()
        with pytest.warns(RpcDomainWarning):
            ip = project(model, GroundPoint(2.0, 0.0, 0.0))
        assert ip.s == pytest.approx(2.0)

    def test_degenerate_denominator(self):
        den = np.zeros(20)
        den[0] = 1.0
        den[1] = -1.0  # vanishes at normalized u = 1
        model = identity_model(den_s=den)
        with pytest.raises(DegenerateModelError):
            project(model, GroundPoint(1.0, 0.0, 0.0))


class TestInvert:
    def test_identity_round_trip(self):
        model = identity_model()
        p = GroundPoint(0.25, -0.4, 0.0)
        back = invert(model, project(model, p), p.z)
        assert back.u == pytest.approx(p.u, abs=1e-6)
        assert back.v == pytest.approx(p.v, abs=1e-6)
        assert back.z == p.z

    def test_seeded_round_trips(self, rng):
        for _ in range(10):
            model = random_rpc_model(rng)
            for _ in range(10):
                p = GroundPoint(
                    u=model.u_off + model.u_scale * rng.uniform(-0.9, 0.9),
                    v=model.v_off + model.v_scale * rng.uniform(-0.9, 0.9),
                    z=model.z_off + model.z_scale * rng.uniform(-0.9, 0.9),
                )
                back = invert(model, project(model, p), p.z)
                assert abs(back.u - p.u) < 1e-6
                assert abs(back.v - p.v) < 1e-6

    def test_reprojection_residual(self, rng):
        model = random_rpc_model(rng)
        ip = ImagePoint(model.s_off + 0.3 * model.s_scale,
                        model.l_off - 0.2 * model.l_scale)
        g = invert(model, ip, model.z_off + 50.0)
        rp = project(model, g)
        assert abs(rp.s - ip.s) < 1e-8 * max(1.0, model.s_scale)
        assert abs(rp.l - ip.l) < 1e-8 * max(1.0, model.l_scale)

    def test_constant_numerators_fail(self):
        const = np.zeros(20)
        const[0] = 1.0
        model = identity_model(num_s=const, num_l=const)
        with pytest.raises(InversionError) as err:
            invert(model, ImagePoint(0.5, 0.5), 0.0)
        assert np.isfinite(err.value.last_residual)

    def test_nonfinite_height_rejected(self):
        with pytest.raises(ValueError):
            invert(identity_model(), ImagePoint(0, 0), float("nan"))


class TestApplyBias:
    def test_zero_shift_bit_identical(self, rng):
        model = random_rpc_model(rng)
        biased = apply_bias(model, (0.0, 0.0, 0.0))
        for _ in range(20):
            p = GroundPoint(
                u=model.u_off + model.u_scale * rng.uniform(-1, 1),
                v=model.v_off + model.v_scale * rng.uniform(-1, 1),
                z=model.z_off + model.z_scale * rng.uniform(-1, 1),
            )
            assert project(biased, p) == project(model, p)

    def test_substitution_identity(self, rng):
        for _ in range(5):
            model = random_rpc_model(rng)
            shift = tuple(rng.normal(0, 0.01, 3))
            biased = apply_bias(model, shift)
            for _ in range(20):
                p = GroundPoint(
                    u=model.u_off + model.u_scale * rng.uniform(-0.9, 0.9),
                    v=model.v_off + model.v_scale * rng.uniform(-0.9, 0.9),
                    z=model.z_off + model.z_scale * rng.uniform(-0.9, 0.9),
                )
                moved = GroundPoint(p.u + shift[0], p.v + shift[1], p.z + shift[2])
                got = project(biased, p)
                want = project(model, moved)
                assert abs(got.s - want.s) < 1e-10
                assert abs(got.l - want.l) < 1e-10

    def test_linear_model_closed_form(self):
        model = identity_model(s_scale=250.0)
        biased = apply_bias(model, (0.1, 0.0, 0.0))
        p = GroundPoint(0.2, 0.3, 0.0)
        assert project(biased, p).s - project(model, p).s == pytest.approx(
            0.1 * 250.0, abs=1e-12
        )


class TestIntersectionAngle:
    def test_same_model_zero_angle(self):
        m = linear_ray_model(np.tan(np.radians(15.0)))
        p = GroundPoint(0.0, 0.0, 0.0)
        assert intersection_angle(m, m, p, meters_per_unit=1.0) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_nadir_vs_20_degrees(self):
        nadir = linear_ray_model(0.0)
        off = linear_ray_model(np.tan(np.radians(20.0)))
        got = intersection_angle(nadir, off, GroundPoint(0, 0, 0), meters_per_unit=1.0)
        assert got == pytest.approx(20.0, abs=0.1)

    def test_symmetric_pair_sums(self):
        a = linear_ray_model(np.tan(np.radians(10.0)))
        b = linear_ray_model(-np.tan(np.radians(10.0)))
        got = intersection_angle(a, b, GroundPoint(0, 0, 0), meters_per_unit=1.0)
        assert got == pytest.approx(20.0, abs=0.1)

    def test_symmetry_in_arguments(self):
        a = linear_ray_model(np.tan(np.radians(12.0)), 0.1)
        b = linear_ray_model(-0.05, np.tan(np.radians(7.0)))
        p = GroundPoint(0.4, -0.3, 0.2)
        ab = intersection_angle(a, b, p, meters_per_unit=1.0)
        ba = intersection_angle(b, a, p, meters_per_unit=1.0)
        assert abs(ab - ba) < 1e-9

    def test_rejects_bad_probe(self):
        m = linear_ray_model()
        with pytest.raises(ValueError):
            intersection_angle(m, m, GroundPoint(0, 0, 0), dz_probe=0.0)


class TestRpcFile:
    def test_round_trip(self, rng, tmp_path):
        model = random_rpc_model(rng)
        p = tmp_path / "model.rpc"
        write_rpc(model, p)
        back = read_rpc(p)
        assert np.array_equal(back.num_s, model.num_s)
        assert np.array_equal(back.den_l, model.den_l)
        assert back.s_off == model.s_off
        assert back.z_scale == model.z_scale

    def test_order_insensitive(self, tmp_path):
        model = identity_model()
        p = tmp_path / "model.rpc"
        write_rpc(model, p)
        lines = p.read_text().splitlines()
        (tmp_path / "shuffled.rpc").write_text("\n".join(reversed(lines)) + "\n")
        back = read_rpc(tmp_path / "shuffled.rpc")
        assert np.array_equal(back.num_s, model.num_s)

    def test_missing_key(self, tmp_path):
        model = identity_model()
        p = tmp_path / "model.rpc"
        write_rpc(model, p)
        kept = [ln for ln in p.read_text().splitlines() if not ln.startswith("Z_SCALE")]
        (tmp_path / "broken.rpc").write_text("\n".join(kept) + "\n")
        with pytest.raises(RpcFileError):
            read_rpc(tmp_path / "broken.rpc")

    def test_layout(self, rng, tmp_path):
        model = random_rpc_model(rng)
        p = tmp_path / "model.rpc"
        write_rpc(model, p)
        lines = p.read_text().splitlines()
        scalars = ["SAMP_OFF", "SAMP_SCALE", "LINE_OFF", "LINE_SCALE",
                   "U_OFF", "U_SCALE", "V_OFF", "V_SCALE", "Z_OFF", "Z_SCALE"]
        coeffs = [f"{prefix}_COEFF_{i}" for prefix in ("SAMP_NUM", "SAMP_DEN", "LINE_NUM", "LINE_DEN")
                  for i in range(1, 21)]
        assert len(lines) == 90
        assert [ln.split(":")[0] for ln in lines] == scalars + coeffs
        assert lines[0] == f"SAMP_OFF: {model.s_off:.17g}"
        assert lines[-1] == f"LINE_DEN_COEFF_20: {model.den_l[19]:.17g}"

    @pytest.mark.parametrize("dropped, named", [
        (("Z_SCALE", "SAMP_NUM_COEFF_3"), "SAMP_NUM_COEFF_3"),
        (("LINE_OFF", "LINE_DEN_COEFF_20"), "LINE_DEN_COEFF_20"),
        (("U_OFF", "SAMP_SCALE"), "SAMP_SCALE"),
    ])
    def test_first_missing_key_named(self, tmp_path, dropped, named):
        # the coefficients are looked up first, then the scalars in file order
        p = tmp_path / "model.rpc"
        write_rpc(identity_model(), p)
        kept = [ln for ln in p.read_text().splitlines() if ln.split(":")[0] not in dropped]
        p.write_text("\n".join(kept) + "\n")
        with pytest.raises(RpcFileError, match=f"missing key {named}$"):
            read_rpc(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value(self, tmp_path, token):
        p = tmp_path / "model.rpc"
        write_rpc(identity_model(), p)
        lines = p.read_text().splitlines()
        lines[5] = f"U_SCALE: {token}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(RpcFileError, match=f":6: U_SCALE is not finite: '{token}'$"):
            read_rpc(p)

    def test_unparseable_value(self, tmp_path):
        p = tmp_path / "bad.rpc"
        p.write_text("SAMP_OFF: abc\n")
        with pytest.raises(RpcFileError):
            read_rpc(p)


class TestModelValidation:
    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            identity_model(num_s=np.zeros(19))

    def test_zero_denominator_constant(self):
        bad = np.zeros(20)
        bad[1] = 1.0
        with pytest.raises(ValueError):
            identity_model(den_s=bad)

    def test_zero_scale(self):
        with pytest.raises(ValueError):
            identity_model(u_scale=0.0)

    def test_nan_scale_named(self):
        with pytest.raises(ValueError, match="^u_scale must be finite$"):
            identity_model(u_scale=float("nan"))

    def test_inf_coefficient_named(self):
        coeff = np.zeros(20)
        coeff[0], coeff[7] = 1.0, np.inf
        with pytest.raises(ValueError, match="^den_l must be finite$"):
            identity_model(den_l=coeff)

    def test_non_finite_offset_named(self):
        with pytest.raises(ValueError, match="^z_off must be finite$"):
            identity_model(z_off=-np.inf)
