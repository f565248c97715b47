import numpy as np
import pytest

from dsmfuse.raster import (
    CellIndex,
    GridGeometry,
    MalformedHeaderError,
    RasterGrid,
    RowLengthError,
    UnparseableNumberError,
    _resample_bilinear,
    _resample_nearest,
    read_asc,
    resample,
    world_to_cell,
    write_asc,
    write_pgm,
)


def make_grid(values, origin=(0.0, 0.0), cell=1.0, nodata=-9999.0):
    arr = np.asarray(values, dtype=float)
    geom = GridGeometry(origin[0], origin[1], cell, arr.shape[1], arr.shape[0])
    return RasterGrid(geom, arr, nodata)


class TestWorldToCell:
    def test_origin_cell(self):
        geom = GridGeometry(0.0, 0.0, 1.0, 10, 10)
        assert world_to_cell(geom, 0.5, 0.5) == CellIndex(col=0, row=9)

    def test_right_edge_exclusive(self):
        geom = GridGeometry(0.0, 0.0, 1.0, 10, 10)
        assert world_to_cell(geom, 10.0, 0.5) is None
        assert world_to_cell(geom, 0.5, 10.0) is None

    def test_left_bottom_edge_inclusive(self):
        geom = GridGeometry(0.0, 0.0, 1.0, 10, 10)
        assert world_to_cell(geom, 0.0, 0.0) == CellIndex(col=0, row=9)

    def test_interior_point_floor_arithmetic(self):
        # floor(3.7)=3 cols in; floor(2.2)=2 rows up from bottom -> row 7
        geom = GridGeometry(0.0, 0.0, 1.0, 10, 10)
        assert world_to_cell(geom, 3.7, 2.2) == CellIndex(col=3, row=7)

    def test_cell_center_round_trip_all_cells(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            geom = GridGeometry(
                origin_x=float(rng.uniform(-1e4, 1e4)),
                origin_y=float(rng.uniform(-1e4, 1e4)),
                cell_size=float(rng.uniform(0.1, 30.0)),
                n_cols=int(rng.integers(1, 12)),
                n_rows=int(rng.integers(1, 12)),
            )
            for col in range(geom.n_cols):
                for row in range(geom.n_rows):
                    c = CellIndex(col, row)
                    x, y = geom.cell_center(c)
                    assert world_to_cell(geom, x, y) == c


class TestGeometryValidation:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 0.0, 4, 4)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 1.0, 0, 4)

    def test_values_shape_checked(self):
        geom = GridGeometry(0, 0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            RasterGrid(geom, np.zeros((3, 3)))

    def test_values_read_only(self):
        grid = make_grid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0


class TestResample:
    def test_identity_both_methods_bit_identical(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(10, 5, size=(9, 7))
        vals[rng.random((9, 7)) < 0.2] = -9999.0
        src = make_grid(vals, origin=(12.5, -33.25), cell=0.3)
        for method in ("nearest", "bilinear"):
            assert resample(src, src.geometry, method) is src
        # the interpolating paths are exact on the identity too
        for path in (_resample_nearest, _resample_bilinear):
            out = path(src, src.geometry)
            assert np.array_equal(out.values, src.values)

    def test_all_nodata_stays_all_nodata(self):
        src = make_grid(np.full((4, 4), -9999.0))
        for method in ("nearest", "bilinear"):
            out = resample(src, GridGeometry(0.5, 0.5, 1.0, 3, 3), method)
            assert np.all(out.values == -9999.0)

    def test_bilinear_ramp_half_cell_offset(self):
        # z = x on the source; at a half-cell x offset the columns with all
        # four neighbors in bounds must hit the exact midpoints of adjacent
        # samples, i.e. z = x again.  Top row and rightmost column lack a
        # full support square and take the fallback path instead.
        n = 6
        vals = np.tile(np.arange(n) + 0.5, (n, 1))
        src = make_grid(vals, origin=(0, 0), cell=1.0)
        target = GridGeometry(0.5, 0.0, 1.0, n - 1, n)
        out = resample(src, target, "bilinear")
        for c in range(n - 2):
            expect = target.origin_x + c + 0.5
            assert out.values[1:, c] == pytest.approx(expect, abs=1e-12)

    def test_bilinear_reproduces_affine_surface(self):
        rng = np.random.default_rng(11)
        a, b, c = 3.0, 0.25, -0.75
        geom = GridGeometry(-5.0, 2.0, 2.0, 12, 10)
        xs = geom.origin_x + (np.arange(geom.n_cols) + 0.5) * geom.cell_size
        ys = geom.origin_y + (geom.n_rows - np.arange(geom.n_rows) - 0.5) * geom.cell_size
        X, Y = np.meshgrid(xs, ys)
        src = RasterGrid(geom, a + b * X + c * Y)
        # random interior target that keeps all four neighbors in bounds
        tg = GridGeometry(
            geom.origin_x + 3.1, geom.origin_y + 2.7, 1.37, 8, 7
        )
        out = resample(src, tg, "bilinear")
        txs = tg.origin_x + (np.arange(tg.n_cols) + 0.5) * tg.cell_size
        tys = tg.origin_y + (tg.n_rows - np.arange(tg.n_rows) - 0.5) * tg.cell_size
        TX, TY = np.meshgrid(txs, tys)
        expect = a + b * TX + c * TY
        assert np.allclose(out.values, expect, rtol=1e-9)

    def test_bilinear_falls_back_to_nearest_valid_neighbor(self):
        vals = np.array([[1.0, -9999.0], [3.0, 4.0]])
        src = make_grid(vals, cell=1.0)
        # target point at (0.6, 1.4): support corners are all four cells,
        # top-right invalid -> nearest valid of the rest; distances to
        # (0.5,1.5)=0.14, (0.5,0.5)=0.9, (1.5,0.5)=1.27 -> picks 1.0
        tg = GridGeometry(0.1, 0.9, 1.0, 1, 1)
        out = resample(src, tg, "bilinear")
        assert out.values[0, 0] == 1.0

    def test_nearest_propagates_nodata(self):
        vals = np.array([[1.0, -9999.0], [3.0, 4.0]])
        src = make_grid(vals, cell=1.0)
        tg = GridGeometry(1.0, 1.0, 1.0, 1, 1)  # center (1.5, 1.5) = nodata cell
        out = resample(src, tg, "nearest")
        assert out.values[0, 0] == -9999.0

    def test_unknown_method_rejected(self):
        src = make_grid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            resample(src, src.geometry, "cubic")


class TestAsciiGrid:
    def test_round_trip_with_nodata(self, tmp_path):
        vals = np.array([[1.5, -9999.0], [2.25, 3.125]])
        src = make_grid(vals, origin=(100.0, 200.0), cell=2.5)
        p = tmp_path / "g.asc"
        write_asc(src, p)
        back = read_asc(p)
        assert back.geometry == src.geometry
        assert back.nodata == src.nodata
        assert np.array_equal(back.values, src.values)

    def test_round_trip_six_decimal_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        src = make_grid(rng.normal(100, 30, size=(5, 4)))
        p = tmp_path / "g.asc"
        write_asc(src, p)
        back = read_asc(p)
        assert np.max(np.abs(back.values - src.values)) <= 5e-7

    def test_missing_nodata_defaults_to_minus_9999(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "1 2\n3 4\n"
        )
        grid = read_asc(p)
        assert grid.nodata == -9999.0
        assert np.array_equal(grid.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(
            "ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "NODATA_value -9999\n1 2\n3 4\n"
        )
        with pytest.raises(RowLengthError):
            read_asc(p)

    def test_row_length_mismatch(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(
            "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "1 2 3\n4 5\n"
        )
        with pytest.raises(RowLengthError):
            read_asc(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text("ncols 2\nxllcorner 0\nnrows 2\nyllcorner 0\ncellsize 1\n1 2\n3 4\n")
        with pytest.raises(MalformedHeaderError):
            read_asc(p)

    def test_unparseable_number(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "1 2\n3 oops\n"
        )
        with pytest.raises(UnparseableNumberError):
            read_asc(p)

    def test_top_row_written_first(self, tmp_path):
        src = make_grid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        p = tmp_path / "g.asc"
        write_asc(src, p)
        data_lines = p.read_text().strip().splitlines()[6:]
        assert data_lines[0].split()[0] == "1.000000"
        assert data_lines[1].split()[0] == "3.000000"


class TestPgm:
    def test_stretch_and_nodata(self, tmp_path):
        src = make_grid(np.array([[0.0, 5.0], [10.0, -9999.0]]))
        p = tmp_path / "g.pgm"
        write_pgm(src, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["0", "128"]
        assert lines[4].split() == ["255", "0"]

    def test_constant_grid_renders_white(self, tmp_path):
        src = make_grid(np.full((2, 2), 7.0))
        p = tmp_path / "g.pgm"
        write_pgm(src, p)
        body = p.read_text().splitlines()[3:]
        assert all(tok == "255" for line in body for tok in line.split())
