import numpy as np
import pytest

from dsmfuse.raster import GridGeometry, RasterGrid
from dsmfuse.rpc import RpcModel


def grid_of(values, origin=(0.0, 0.0), cell=1.0, nodata=-9999.0) -> RasterGrid:
    """A grid of ``values`` with each ``nodata`` or infinite cell missing (NaN), as
    reading a file with that ``NODATA_value`` would give."""
    arr = np.array(values, dtype=float)
    arr[np.isinf(arr) | (arr == nodata)] = np.nan
    geom = GridGeometry(origin[0], origin[1], cell, arr.shape[1], arr.shape[0])
    return RasterGrid(geom, arr, nodata)


def _unit_coeff(index: int) -> np.ndarray:
    c = np.zeros(20)
    c[index] = 1.0
    return c


def identity_model(**overrides) -> RpcModel:
    """s = u, l = v: pure first-order terms, unit scales, zero offsets."""
    params = dict(
        num_s=_unit_coeff(1),
        den_s=_unit_coeff(0),
        num_l=_unit_coeff(2),
        den_l=_unit_coeff(0),
        s_off=0.0, s_scale=1.0,
        l_off=0.0, l_scale=1.0,
        u_off=0.0, u_scale=1.0,
        v_off=0.0, v_scale=1.0,
        z_off=0.0, z_scale=1.0,
    )
    params.update(overrides)
    return RpcModel(**params)


def linear_ray_model(tan_u: float = 0.0, tan_v: float = 0.0) -> RpcModel:
    """Model whose viewing ray is (-tan_u, -tan_v, 1) everywhere.

    s = u + tan_u * z and l = v + tan_v * z, so inverting a fixed pixel at
    height z walks the ground point along that direction.  All scales stay
    at 1 so the coefficients act on unnormalized meters; pass
    meters_per_unit=1 when computing angles.
    """
    num_s = _unit_coeff(1)
    num_s[3] = tan_u
    num_l = _unit_coeff(2)
    num_l[3] = tan_v
    return identity_model(num_s=num_s, num_l=num_l)


def random_rpc_model(rng: np.random.Generator) -> RpcModel:
    """Well-conditioned random model: identity-like plus small cubic terms."""
    num_s = _unit_coeff(1) + rng.normal(0, 0.01, 20)
    num_l = _unit_coeff(2) + rng.normal(0, 0.01, 20)
    den_s = _unit_coeff(0) + np.concatenate([[0.0], rng.normal(0, 0.005, 19)])
    den_l = _unit_coeff(0) + np.concatenate([[0.0], rng.normal(0, 0.005, 19)])
    return RpcModel(
        num_s=num_s, den_s=den_s, num_l=num_l, den_l=den_l,
        s_off=float(rng.uniform(5000, 20000)),
        s_scale=float(rng.uniform(5000, 20000)),
        l_off=float(rng.uniform(5000, 20000)),
        l_scale=float(rng.uniform(5000, 20000)),
        u_off=float(rng.uniform(-100, 100)),
        u_scale=float(rng.uniform(0.05, 0.2)),
        v_off=float(rng.uniform(-50, 50)),
        v_scale=float(rng.uniform(0.05, 0.2)),
        z_off=float(rng.uniform(0, 500)),
        z_scale=float(rng.uniform(200, 800)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20170312)
