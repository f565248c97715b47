"""Rational polynomial sensor model.

Forward projection maps a ground point (u, v, z) to image (sample, line)
through a ratio of two cubic polynomials per image axis, evaluated on
normalized coordinates:

    s = s_scale * num_s(n) / den_s(n) + s_off,   n = ((u - u_off) / u_scale,
                                                      (v - v_off) / v_scale,
                                                      (z - z_off) / z_scale)

and analogously for the line coordinate.  Each polynomial has 20
coefficients over the cubic monomials of (U, V, Z), ordered:

    1, U, V, Z, UV, UZ, VZ, U^2, V^2, Z^2,
    UVZ, U^3, UV^2, UZ^2, U^2V, V^3, VZ^2, U^2Z, V^2Z, Z^3

which matches the common satellite RPC file convention, so real
coefficient files load without permutation.

Ground-to-image is closed form; image-to-ground at a fixed height needs an
iterative solution (Newton on the two horizontal coordinates).  A constant
object-space shift (bias compensation) folds exactly into the normalization
offsets, so a bias-corrected model is again an ordinary model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .raster import key_value_lines

#: soft validity bound on normalized coordinates; beyond it the model is
#: extrapolating and results degrade, but evaluation still proceeds
NORMALIZED_DOMAIN = 1.5

_DEGENERATE_DEN = 1e-12
_NEWTON_STEP = 1e-6        # central-difference step, normalized units
_NEWTON_TOL = 1e-9         # residual convergence, normalized units
_NEWTON_MAX_ITER = 50

#: meters per ground unit when ground coordinates are geographic degrees
DEFAULT_METERS_PER_UNIT = 111320.0

_DZ_PROBE = 100.0  # height step, m, between the two inversions that give a viewing ray


class DegenerateModelError(ValueError):
    """A rational-polynomial denominator vanished at the evaluation point."""


class InversionError(RuntimeError):
    """Image-to-ground iteration failed to converge."""

    def __init__(self, message: str, last_residual: float):
        super().__init__(f"{message} (last residual {last_residual:.3e})")
        self.last_residual = last_residual


class RpcFileError(Exception):
    """RPC text file missing keys or carrying unparseable values."""


class RpcDomainWarning(UserWarning):
    """Evaluation outside the model's normalized validity cube."""


class GroundPoint(NamedTuple):
    u: float
    v: float
    z: float


class ImagePoint(NamedTuple):
    s: float
    l: float


@dataclass(frozen=True, eq=False)
class RpcModel:
    """80 rational-polynomial coefficients (read-only copies) plus 10 normalization parameters."""

    num_s: np.ndarray
    den_s: np.ndarray
    num_l: np.ndarray
    den_l: np.ndarray
    s_off: float
    s_scale: float
    l_off: float
    l_scale: float
    u_off: float
    u_scale: float
    v_off: float
    v_scale: float
    z_off: float
    z_scale: float

    def __post_init__(self):
        for name in ("num_s", "den_s", "num_l", "den_l"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != (20,):
                raise ValueError(f"{name} must have exactly 20 coefficients")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for field in fields(self):
            if not np.isfinite(getattr(self, field.name)).all():
                raise ValueError(f"{field.name} must be finite")
        if abs(self.den_s[0]) == 0.0 or abs(self.den_l[0]) == 0.0:
            raise ValueError("denominator constant terms must be nonzero")
        for name in ("s_scale", "l_scale", "u_scale", "v_scale", "z_scale"):
            if getattr(self, name) == 0.0:
                raise ValueError(f"{name} must be nonzero")


def eval_poly(coeff: np.ndarray, u: float, v: float, z: float) -> float:
    """Evaluate a 20-term cubic polynomial at a normalized point."""
    uu = u * u
    vv = v * v
    zz = z * z
    return (
        coeff[0]
        + coeff[1] * u
        + coeff[2] * v
        + coeff[3] * z
        + coeff[4] * u * v
        + coeff[5] * u * z
        + coeff[6] * v * z
        + coeff[7] * uu
        + coeff[8] * vv
        + coeff[9] * zz
        + coeff[10] * u * v * z
        + coeff[11] * uu * u
        + coeff[12] * u * vv
        + coeff[13] * u * zz
        + coeff[14] * uu * v
        + coeff[15] * vv * v
        + coeff[16] * v * zz
        + coeff[17] * uu * z
        + coeff[18] * vv * z
        + coeff[19] * zz * z
    )


def _normalize(model: RpcModel, p: GroundPoint) -> tuple[float, float, float]:
    return (
        (p.u - model.u_off) / model.u_scale,
        (p.v - model.v_off) / model.v_scale,
        (p.z - model.z_off) / model.z_scale,
    )


def _project_normalized(model: RpcModel, un: float, vn: float, zn: float) -> tuple[float, float]:
    """Normalized image coordinates (sn, ln) at a normalized ground point."""
    den_s = eval_poly(model.den_s, un, vn, zn)
    den_l = eval_poly(model.den_l, un, vn, zn)
    if abs(den_s) < _DEGENERATE_DEN or abs(den_l) < _DEGENERATE_DEN:
        raise DegenerateModelError(
            f"denominator vanished at normalized point ({un:.4g}, {vn:.4g}, {zn:.4g})"
        )
    return (
        eval_poly(model.num_s, un, vn, zn) / den_s,
        eval_poly(model.num_l, un, vn, zn) / den_l,
    )


def project(model: RpcModel, p: GroundPoint) -> ImagePoint:
    """Ground-to-image projection.

    Points whose normalized coordinates leave the +-1.5 validity cube are
    still computed but emit an RpcDomainWarning; a non-finite point raises ``ValueError``.
    """
    if not np.isfinite(p).all():
        raise ValueError(f"ground point must be finite, got {tuple(p)}")
    un, vn, zn = _normalize(model, p)
    if max(abs(un), abs(vn), abs(zn)) > NORMALIZED_DOMAIN:
        warnings.warn(
            f"ground point {tuple(p)} is outside the model's normalized "
            f"validity cube (|coord| > {NORMALIZED_DOMAIN})",
            RpcDomainWarning,
            stacklevel=2,
        )
    sn, ln = _project_normalized(model, un, vn, zn)
    return ImagePoint(
        s=sn * model.s_scale + model.s_off,
        l=ln * model.l_scale + model.l_off,
    )


def invert(model: RpcModel, ip: ImagePoint, z: float) -> GroundPoint:
    """Image-to-ground at a fixed height, by Newton iteration.

    Solves the 2x2 system for the two horizontal ground coordinates, with a
    central-difference Jacobian.  Raises InversionError when the residual
    has not dropped below tolerance after the iteration cap, or when the
    Jacobian is singular (e.g. constant numerators).
    """
    if not np.isfinite(z):
        raise ValueError(f"height must be finite, got {z}")
    sn_t = (ip.s - model.s_off) / model.s_scale
    ln_t = (ip.l - model.l_off) / model.l_scale
    zn = (z - model.z_off) / model.z_scale

    un, vn = 0.0, 0.0
    h = _NEWTON_STEP
    residual = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        sn, ln = _project_normalized(model, un, vn, zn)
        ru = sn - sn_t
        rv = ln - ln_t
        residual = max(abs(ru), abs(rv))
        if residual < _NEWTON_TOL:
            return GroundPoint(
                u=un * model.u_scale + model.u_off,
                v=vn * model.v_scale + model.v_off,
                z=z,
            )
        s_pu, l_pu = _project_normalized(model, un + h, vn, zn)
        s_mu, l_mu = _project_normalized(model, un - h, vn, zn)
        s_pv, l_pv = _project_normalized(model, un, vn + h, zn)
        s_mv, l_mv = _project_normalized(model, un, vn - h, zn)
        jac = np.array(
            [
                [(s_pu - s_mu) / (2 * h), (s_pv - s_mv) / (2 * h)],
                [(l_pu - l_mu) / (2 * h), (l_pv - l_mv) / (2 * h)],
            ]
        )
        try:
            step = np.linalg.solve(jac, [-ru, -rv])
        except np.linalg.LinAlgError:
            raise InversionError("singular Jacobian", residual) from None
        if not np.all(np.isfinite(step)):
            raise InversionError("non-finite Newton step", residual)
        un += step[0]
        vn += step[1]
    raise InversionError(
        f"no convergence after {_NEWTON_MAX_ITER} iterations", residual
    )


def apply_bias(model: RpcModel, shift: tuple[float, float, float]) -> RpcModel:
    """Model that sees every ground point shifted by (du, dv, dz).

    The constant shift folds into the normalization offsets, so this is an
    exact algebraic substitution: projecting p through the result equals
    projecting (p.u + du, p.v + dv, p.z + dz) through the original.
    """
    du, dv, dz = shift
    if not all(np.isfinite([du, dv, dz])):
        raise ValueError(f"shift must be finite, got {shift}")
    return replace(
        model,
        u_off=model.u_off - du,
        v_off=model.v_off - dv,
        z_off=model.z_off - dz,
    )


def check_probe(meters_per_unit: float) -> None:
    """Raise ``ValueError`` unless the ray probe's ``meters_per_unit`` is finite and > 0."""
    if not 0 < meters_per_unit < np.inf:
        raise ValueError(f"meters_per_unit must be finite and > 0, got {meters_per_unit}")


def viewing_ray(
    model: RpcModel, at: GroundPoint, meters_per_unit: float = DEFAULT_METERS_PER_UNIT
) -> np.ndarray:
    """Local viewing-ray direction at a ground point, in meters (unnormalized).

    The ray is the secant between the inversions of the point's image
    coordinates at heights z and z + 100 m, with the horizontal ground
    axes converted to meters by ``meters_per_unit``.
    """
    check_probe(meters_per_unit)
    ip = project(model, at)
    g0 = invert(model, ip, at.z)
    g1 = invert(model, ip, at.z + _DZ_PROBE)
    return np.array(
        [
            (g1.u - g0.u) * meters_per_unit,
            (g1.v - g0.v) * meters_per_unit,
            g1.z - g0.z,
        ]
    )


def intersection_angle(
    a: RpcModel, b: RpcModel, at: GroundPoint, meters_per_unit: float = DEFAULT_METERS_PER_UNIT
) -> float:
    """Angle in degrees between the two models' viewing rays at a point."""
    return ray_angle(viewing_ray(a, at, meters_per_unit), viewing_ray(b, at, meters_per_unit))


def ray_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    """Angle in degrees between two viewing rays."""
    cosang = np.dot(ra, rb) / (np.linalg.norm(ra) * np.linalg.norm(rb))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


# each RpcModel field's key in the RPC file, in file order; a ``_COEFF`` key
# is the prefix of the field's 20 numbered keys
_KEYS = {
    "s_off": "SAMP_OFF", "s_scale": "SAMP_SCALE",
    "l_off": "LINE_OFF", "l_scale": "LINE_SCALE",
    "u_off": "U_OFF", "u_scale": "U_SCALE",
    "v_off": "V_OFF", "v_scale": "V_SCALE",
    "z_off": "Z_OFF", "z_scale": "Z_SCALE",
    "num_s": "SAMP_NUM_COEFF", "den_s": "SAMP_DEN_COEFF",
    "num_l": "LINE_NUM_COEFF", "den_l": "LINE_DEN_COEFF",
}


def _file_keys(key: str) -> list[str]:
    """The file keys of a ``_KEYS`` value."""
    return [f"{key}_{i}" for i in range(1, 21)] if key.endswith("_COEFF") else [key]


def read_rpc(path) -> RpcModel:
    """Read a `KEY: value` RPC text file: 90 mandatory finite keys that make a valid model."""
    entries: dict[str, float] = {}
    for lineno, key, value in key_value_lines(path, ":", RpcFileError, "ascii"):
        key = key.upper()
        try:
            entries[key] = float(value.split()[0])
        except (ValueError, IndexError):
            raise RpcFileError(f"{path}:{lineno}: unparseable value for {key}: {value!r}") from None
        if not np.isfinite(entries[key]):
            raise RpcFileError(f"{path}:{lineno}: {key} is not finite: {value!r}")

    def lookup(key):
        if key not in entries:
            raise RpcFileError(f"{path}: missing key {key}")
        return entries[key]

    values = {}
    # in RpcModel's field order, coefficients first, which fixes the missing key named first
    for field in fields(RpcModel):
        vals = [lookup(k) for k in _file_keys(_KEYS[field.name])]
        values[field.name] = vals if len(vals) > 1 else vals[0]
    try:
        return RpcModel(**values)
    except ValueError as exc:
        raise RpcFileError(f"{path}: {exc}") from None


def write_rpc(model: RpcModel, path) -> None:
    """Write the `KEY: value` RPC text format (full float precision)."""
    with open(path, "w", encoding="ascii") as f:
        for name, key in _KEYS.items():
            vals = np.atleast_1d(getattr(model, name)).tolist()
            for file_key, val in zip(_file_keys(key), vals):
                f.write(f"{file_key}: {val:.17g}\n")
