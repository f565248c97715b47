import io
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsmfuse import raster
from dsmfuse.raster import (
    AsciiGridError,
    GridGeometry,
    GridReader,
    MalformedHeaderError,
    RasterGrid,
    RowLengthError,
    UnparseableNumberError,
    read_asc,
    resample,
    write_asc,
    write_pgm,
)

from conftest import grid_of


def pgm_of(grid, path, rows=None):
    """``write_pgm`` of a whole grid: the stretch over its valid cells, the
    rows cut into strips of ``rows`` (default: one strip)."""
    vals, ok = grid.values, grid.valid_mask()
    rows = rows or len(vals)
    strips = [vals[r : r + rows] for r in range(0, len(vals), rows)]
    lo, hi = vals.min(initial=np.inf, where=ok), vals.max(initial=-np.inf, where=ok)
    write_pgm(strips, path, grid.geometry, lo, hi)


def enlarged(geom, k):
    """``geom`` with ``k`` more cells on every side."""
    return GridGeometry(geom.origin_x - k * geom.cell_size, geom.origin_y - k * geom.cell_size,
                        geom.cell_size, geom.n_cols + 2 * k, geom.n_rows + 2 * k)


class TestGeometryValidation:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 0.0, 4, 4)

    @pytest.mark.parametrize("cell", [math.inf, math.nan])
    def test_rejects_non_finite_cell(self, cell):
        with pytest.raises(ValueError, match="cell_size must be finite"):
            GridGeometry(0, 0, cell, 4, 4)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GridGeometry(0, 0, 1.0, 0, 4)

    def test_values_shape_checked(self):
        geom = GridGeometry(0, 0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            RasterGrid(geom, np.zeros((3, 3)))

    def test_values_read_only(self):
        grid = grid_of(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0

    def test_constructor_shares_a_read_only_nan_grid(self):
        import tracemalloc

        vals = np.random.default_rng(3).normal(size=(512, 512))
        vals[::7, ::3] = np.nan
        vals.flags.writeable = False
        tracemalloc.start()
        try:
            grid = RasterGrid(GridGeometry(0, 0, 1.0, 512, 512), vals, -9999.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.values is vals
        assert peak < 0.1 * vals.nbytes, peak / vals.nbytes

    def test_constructor_keeps_a_height_equal_to_nodata(self):
        # only reading a file marks its sentinel: a height given in memory stays, in a
        # read-only copy of a writeable array
        vals = np.array([[0.0, 1.0]])
        grid = RasterGrid(GridGeometry(0, 0, 1.0, 2, 1), vals, nodata=0.0)
        vals[0, 0] = 7.0
        assert grid.values.tolist() == [[0.0, 1.0]] and not grid.values.flags.writeable
        assert grid.valid_mask().all()


class TestResample:
    def test_interpolants_equal_to_nodata_stay_heights(self, tmp_path):
        # +-1 columns half a cell east interpolate to exact zeros; a source read with
        # NODATA_value 0 resamples to the same heights as its -9999 twin
        out = {}
        for nodata in ("0", "-9999"):
            p = tmp_path / f"east{nodata}.asc"
            p.write_text("ncols 4\nnrows 3\nxllcorner 0.5\nyllcorner 0\ncellsize 1\n"
                         f"NODATA_value {nodata}\n" + "1 -1 1 -1\n" * 3)
            out[nodata] = resample(read_asc(p), GridGeometry(0, 0, 1.0, 4, 3)).values
        assert np.array_equal(out["0"], out["-9999"])
        assert not np.isnan(out["0"]).any()
        assert (out["0"] == 0.0).sum() == 6

    def test_identity_both_methods_bit_identical(self):
        # both ways onto a cell-aligned target are exact: the source's own
        # geometry returns ``src``, and the interpolating path reproduces its cells
        rng = np.random.default_rng(3)
        vals = rng.normal(10, 5, size=(9, 7))
        vals[rng.random((9, 7)) < 0.2] = -9999.0
        src = grid_of(vals, origin=(12.5, -33.25), cell=0.3)
        assert resample(src, src.geometry) is src
        # the cells around the source get no value
        out = resample(src, enlarged(src.geometry, 2)).values.copy()
        assert out[2:-2, 2:-2].tobytes() == src.values.tobytes()
        out[2:-2, 2:-2] = np.nan
        assert np.all(np.isnan(out))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_strip_height_does_not_change_bytes(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_rows, n_cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        vals = rng.choice([-9999.0, np.nan, -0.0, 0.0, 1.5], size=(n_rows, n_cols))
        vals = np.where(rng.random(vals.shape) < 0.5, rng.normal(0, 10, vals.shape), vals)
        src = grid_of(vals, origin=tuple(rng.uniform(-50, 50, 2)), cell=rng.uniform(0.1, 3))
        g = src.geometry
        ratio = data.draw(st.sampled_from([0.5, 1.0, 2.0, 1 / 3, 3.0]) | st.floats(0.2, 4.0))
        target = GridGeometry(
            g.origin_x + data.draw(st.floats(-3, 3)) * g.cell_size,
            g.origin_y + data.draw(st.floats(-3, 3)) * g.cell_size,
            g.cell_size * ratio, data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30)),
        )
        budget = data.draw(st.integers(1, 1 << 16))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "_STRIP_BYTES", 1 << 30)
            whole = resample(src, target).values
            mp.setattr(raster, "_STRIP_BYTES", budget)
            cut = resample(src, target).values
        assert cut.tobytes() == whole.tobytes()

    def test_peak_memory_is_the_output_and_a_strip(self):
        # numpy reports its buffers to tracemalloc, so the traced peak covers
        # every array the resample makes
        import tracemalloc

        n = 800
        src = grid_of(np.random.default_rng(2).normal(size=(n, n)))
        target = GridGeometry(0.5, 0.0, 1.0, n, n)
        tracemalloc.start()
        try:
            out = resample(src, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.geometry == target
        assert peak < n * n * 8 + 2 * 2**20, peak

    def test_all_nodata_stays_all_nodata(self):
        src = grid_of(np.full((4, 4), -9999.0))
        out = resample(src, GridGeometry(0.5, 0.5, 1.0, 3, 3))
        assert np.all(np.isnan(out.values))

    def test_bilinear_ramp_half_cell_offset(self):
        # z = x on the source; at a half-cell x offset the columns with all
        # four neighbors in bounds must hit the exact midpoints of adjacent
        # samples, i.e. z = x again.  Top row and rightmost column lack a
        # full support square and take the fallback path instead.
        n = 6
        vals = np.tile(np.arange(n) + 0.5, (n, 1))
        src = grid_of(vals, origin=(0, 0), cell=1.0)
        target = GridGeometry(0.5, 0.0, 1.0, n - 1, n)
        out = resample(src, target)
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
        out = resample(src, tg)
        txs = tg.origin_x + (np.arange(tg.n_cols) + 0.5) * tg.cell_size
        tys = tg.origin_y + (tg.n_rows - np.arange(tg.n_rows) - 0.5) * tg.cell_size
        TX, TY = np.meshgrid(txs, tys)
        expect = a + b * TX + c * TY
        assert np.allclose(out.values, expect, rtol=1e-9)

    def test_bilinear_falls_back_to_nearest_valid_neighbor(self):
        vals = np.array([[1.0, -9999.0], [3.0, 4.0]])
        src = grid_of(vals, cell=1.0)
        # target point at (0.6, 1.4): support corners are all four cells,
        # top-right invalid -> nearest valid of the rest; distances to
        # (0.5,1.5)=0.14, (0.5,0.5)=0.9, (1.5,0.5)=1.27 -> picks 1.0
        tg = GridGeometry(0.1, 0.9, 1.0, 1, 1)
        out = resample(src, tg)
        assert out.values[0, 0] == 1.0


class TestKeyValueLines:
    def test_line_ends_and_numbering(self, tmp_path):
        # lines end at \n, \r\n and \r only; \f, \v and \x1c stay inside a line
        p = tmp_path / "kv.txt"
        p.write_bytes(b"# c\r\n\na = 1\rb=2\x0cc=3\n \x0b\x1c\n d =4=5 \r\n")
        assert raster.key_value_lines(p, "=", ValueError, "ascii") == [
            (3, "a", "1"), (4, "b", "2\x0cc=3"), (6, "d", "4=5"),
        ]

    def test_line_without_separator_raises_the_given_error(self, tmp_path):
        p = tmp_path / "kv.txt"
        p.write_text("# c\n\nKEY: 1\nKEY 2\n")
        with pytest.raises(KeyError, match=re.escape(f"{p}:4: expected key:value, got 'KEY 2'")):
            raster.key_value_lines(p, ":", KeyError, "ascii")

    def test_key_given_twice_in_any_case_raises_naming_both_lines(self, tmp_path):
        p = tmp_path / "kv.txt"
        p.write_text("# c\nKEY: 1\nother: 2\n\nkey: 3\n")
        with pytest.raises(KeyError, match=re.escape(f"{p}:5: key 'key' was given on line 2 too")):
            raster.key_value_lines(p, ":", KeyError, "ascii")

    def test_repeatable_keys_repeat(self, tmp_path):
        p = tmp_path / "kv.txt"
        p.write_text("b=1\na=2\nb=3\n")
        assert raster.key_value_lines(p, "=", ValueError, "ascii", {"b"}) == [
            (1, "b", "1"), (2, "a", "2"), (3, "b", "3"),
        ]
        with pytest.raises(ValueError, match="kv.txt:3: key 'b' was given on line 1 too"):
            raster.key_value_lines(p, "=", ValueError, "ascii", {"a"})

    def test_undecodable_byte_raises_the_given_error(self, tmp_path):
        p = tmp_path / "kv.txt"
        p.write_bytes(b"a=1\nb=\xe9\n")
        with pytest.raises(LookupError, match="byte 0xe9 at offset 6 is not ascii"):
            raster.key_value_lines(p, "=", LookupError, "ascii")


class TestAsciiGrid:
    def test_round_trip_with_nodata(self, tmp_path):
        # the sentinel, NaN and infinities are all NaN in memory and nodata in the file
        vals = np.array([[1.5, -9999.0, np.nan], [2.25, 3.125, -np.inf], [np.inf, 0.5, -0.0]])
        src = grid_of(vals, origin=(100.0, 200.0), cell=2.5)
        p, again = tmp_path / "g.asc", tmp_path / "again.asc"
        write_asc(src, p)
        assert p.read_text().splitlines()[6:] == [
            "1.500000 -9999.000000 -9999.000000", "2.250000 3.125000 -9999.000000",
            "-9999.000000 0.500000 -0.000000",
        ]
        back = read_asc(p)
        assert back.geometry == src.geometry
        assert back.nodata == src.nodata
        assert np.array_equal(np.isnan(back.values), ~np.isfinite(vals) | (vals == -9999.0))
        assert np.array_equal(back.values, src.values, equal_nan=True)
        write_asc(back, again)
        assert again.read_bytes() == p.read_bytes()

    def test_round_trip_six_decimal_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        src = grid_of(rng.normal(100, 30, size=(5, 4)))
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

    @pytest.mark.parametrize("key, value", [
        ("ncols", "inf"), ("ncols", "nan"), ("nrows", "-inf"), ("nrows", "nan"),
        ("xllcorner", "nan"), ("yllcorner", "inf"), ("cellsize", "0"),
        ("cellsize", "-1"), ("cellsize", "nan"), ("cellsize", "inf"),
    ])
    def test_header_value_out_of_range(self, tmp_path, key, value):
        header = dict(ncols="2", nrows="2", xllcorner="0", yllcorner="0", cellsize="1")
        header[key] = value
        p = tmp_path / "g.asc"
        p.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n")
        with pytest.raises(MalformedHeaderError, match=f"header '{key}'"):
            read_asc(p)

    @pytest.mark.parametrize("nodata_line", ["NODATA_value -9999\n", ""])
    def test_empty_data_block(self, tmp_path, nodata_line):
        p = tmp_path / "g.asc"
        p.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            f"{nodata_line}\n \t\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RowLengthError, match="expected 2 data rows, found 0"):
                read_asc(p)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_one_row_or_one_column(self, tmp_path, shape):
        vals = np.arange(math.prod(shape), dtype=float).reshape(shape) - 1.5
        p = tmp_path / "g.asc"
        write_asc(grid_of(vals), p)
        back = read_asc(p)
        assert back.values.shape == shape
        assert np.array_equal(back.values, vals)

    def test_top_row_written_first(self, tmp_path):
        src = grid_of(np.array([[1.0, 2.0], [3.0, 4.0]]))
        p = tmp_path / "g.asc"
        write_asc(src, p)
        data_lines = p.read_text().strip().splitlines()[6:]
        assert data_lines[0].split()[0] == "1.000000"
        assert data_lines[1].split()[0] == "3.000000"

    def test_default_nodata_header_bytes(self, tmp_path):
        p = tmp_path / "g.asc"
        write_asc(grid_of(np.array([[1.0, -9999.0]])), p)
        assert p.read_text().splitlines()[5] == "NODATA_value -9999"

    @pytest.mark.parametrize("nodata", [-3.4028234663852886e38, 123456.789])
    def test_nodata_survives_round_trip(self, tmp_path, nodata):
        # ':g' keeps 6 significant digits: these came back as -3.40282e+38
        # and 123457, turning every nodata cell into a valid height
        src = grid_of(np.array([[1.0, nodata, 2.0]]), nodata=nodata)
        p = tmp_path / "g.asc"
        write_asc(src, p)
        back = read_asc(p)
        assert back.nodata == nodata
        assert back.valid_mask().tolist() == [[True, False, True]]

    def test_geographic_header_bytes(self, tmp_path):
        # 1 m cells in degrees: %.6f would write 0.000009 and -58.123457
        src = grid_of(np.array([[1.0, 2.0]]), origin=(-58.123456789, -34.5),
                        cell=8.983152841195214e-06)
        p = tmp_path / "g.asc"
        write_asc(src, p)
        assert p.read_text().splitlines()[2:5] == [
            "xllcorner -58.123456789", "yllcorner -34.500000", "cellsize 8.983152841195214e-06"
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
        cell=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        # a nodata whose cell token reads back as itself, the ones write_asc accepts
        nodata=st.integers(-10**12, 10**12).map(lambda i: i / 1000) | st.floats(allow_nan=False)
        .filter(lambda v: float("%.6f" % v) == v),
    )
    def test_header_round_trips_exactly_property(self, tmp_path_factory, origin, cell, nodata):
        src = grid_of(np.array([[1.0, nodata]]), origin=origin, cell=cell, nodata=nodata)
        p = tmp_path_factory.mktemp("hdr") / "g.asc"
        write_asc(src, p)
        back = read_asc(p)
        assert back.geometry == src.geometry
        assert back.nodata == nodata
        assert back.valid_mask().tolist() == src.valid_mask().tolist()

    def test_nodata_lost_by_cell_format_raises(self, tmp_path):
        # -1e-7 is written to its cells as -0.000000, which reads back as 0
        p = tmp_path / "g.asc"
        with pytest.raises(ValueError):
            write_asc(grid_of(np.array([[1.0, -1e-7]]), nodata=-1e-7), p)
        assert not p.exists()


_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
    1e300, -1e300, 0.0078125, -0.0078125, 0.0000005, 2.5e-6, 1.0000005,
]
_fixture_ok = settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_grids = st.tuples(st.integers(1, 4), st.integers(1, 6))
_names = itertools.count()


def _fresh(tmp_path, suffix):
    """A new file per example: truncating a file is slow on some filesystems."""
    return tmp_path / f"g{next(_names)}{suffix}"


def _same_bits(a, b) -> bool:
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


def _read_as(got, parsed, nodata=-9999.0) -> bool:
    """Whether ``got``, a read grid, is NaN exactly where the ``parsed`` tokens are
    ``nodata`` or not finite, and has the parsed bits everywhere else."""
    got, parsed = np.asarray(got, np.float64), np.asarray(parsed, np.float64)
    missing = ~np.isfinite(parsed) | (parsed == nodata)
    return np.array_equal(np.isnan(got), missing) and _same_bits(got[~missing], parsed[~missing])


_BAD_TOKENS = ["oops", "1__0", "nan(1)", "1,0", "0x10", "--1"]
_SPELLINGS = [repr, "{:.6f}".format, "{:g}".format, lambda v: repr(v).upper()]


@st.composite
def _asc_texts(draw):
    """An ASCII grid with a random layout and at most one fault.

    Returns (text, n_rows, n_cols, header line count).  The faults are a
    ragged row, a missing or extra row, a bad token and ``1_0``, which only
    ``float()`` reads.
    """
    n_rows, n_cols = draw(_grids)
    vals = draw(arrays(np.float64, (n_rows, n_cols),
                       elements=st.floats() | st.sampled_from(_EDGE_FLOATS + [-9999.0])))
    rows = [[draw(st.sampled_from(_SPELLINGS))(v) for v in row] for row in vals.tolist()]
    fault = draw(st.sampled_from(["none", "ragged", "rows", "token", "underscore"]))
    r = draw(st.integers(0, n_rows - 1))
    c = draw(st.integers(0, n_cols - 1))
    if fault == "ragged":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    elif fault == "rows":
        rows = rows[:r] + rows[r + 1:] if draw(st.booleans()) else rows + [rows[r]]
    elif fault == "token":
        rows[r][c] = draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "underscore":
        rows[r][c] = "1_0"

    blank = st.text(alphabet=" \t", max_size=3)
    sep = st.text(alphabet=" \t", min_size=1, max_size=3)
    header = [f"ncols {n_cols}", f"nrows {n_rows}", "xllcorner 0", "yllcorner 0", "cellsize 1"]
    if draw(st.booleans()):
        header.append("NODATA_value -9999")
    lines = list(header)
    for tokens in rows:
        lines += draw(st.lists(blank, max_size=2))
        line = draw(blank) + "".join((draw(sep) if i else "") + t for i, t in enumerate(tokens))
        lines.append(line + draw(blank))
    lines += draw(st.lists(blank, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, n_rows, n_cols, len(header)


def _reference_values(path, n_rows, n_cols, n_header):
    """Per-row parse with ``float()``: the values or the error read_asc gives."""
    with open(path, encoding="ascii") as f:
        lines = [ln for ln in (raw.strip() for raw in f) if ln][n_header:]
    if len(lines) != n_rows:
        raise RowLengthError(f"{path}: expected {n_rows} data rows, found {len(lines)}")
    values = []
    for r, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != n_cols:
            raise RowLengthError(f"{path}: row {r} has {len(tokens)} values, expected {n_cols}")
        for t in tokens:
            try:
                values.append(float(t))
            except ValueError:
                raise UnparseableNumberError(
                    f"{path}: row {r} contains unparseable value {t!r}"
                ) from None
    return np.array(values).reshape(n_rows, n_cols)


class TestCodecByteParity:
    """The codecs keep the bytes and grammar of per-value ``f"{v:.6f}"`` /
    ``str(v)`` formatting and per-token ``float()``."""

    def test_binary_ties_round_half_even(self, tmp_path):
        p = tmp_path / "g.asc"
        write_asc(grid_of(np.array([[0.0078125, -0.0078125, 0.0234375, -0.0]])), p)
        assert p.read_text().splitlines()[6] == "0.007812 -0.007812 0.023438 -0.000000"

    @_fixture_ok
    @given(vals=arrays(np.float64, _grids, elements=st.floats() | st.sampled_from(_EDGE_FLOATS)))
    def test_write_asc_tokens_match_fstring(self, tmp_path, vals):
        # write_rows prints non-finite values as nodata, NaN here, as % does
        f = io.BytesIO()
        raster.write_rows(f, vals, np.nan)
        printed = np.where(np.isfinite(vals), vals, np.nan)
        assert f.getvalue().decode() == "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in printed)
        p = _fresh(tmp_path, ".asc")
        write_asc(grid_of(vals), p)
        rows = p.read_text().split("\n")[6:]
        assert rows[-1] == ""
        written = np.where(np.isfinite(vals), vals, -9999.0)
        assert [r.split(" ") for r in rows[:-1]] == [[f"{v:.6f}" for v in row] for row in written]

    def _assert_tokens_match_fstring(self, tmp_path, values, n_cols, nodata=np.nan):
        vals = np.asarray(values, np.float64).reshape(-1, n_cols)
        f = io.BytesIO()
        raster.write_rows(f, vals, nodata)
        rows = f.getvalue().decode().split("\n")
        assert rows[-1] == ""
        got = [tok for row in rows[:-1] for tok in row.split(" ")]
        expected = [f"{v:.6f}" for v in np.where(np.isfinite(vals), vals, nodata).ravel().tolist()]
        assert len(got) == len(expected)
        bad = [(v, g, e) for v, g, e in zip(vals.ravel().tolist(), got, expected) if g != e]
        assert not bad, bad[:5]

    def test_binary_fractions_match_fstring(self, tmp_path):
        k = np.arange(-20000, 20000, dtype=np.float64)
        self._assert_tokens_match_fstring(tmp_path, np.concatenate([k / 128, k / 2**20]), 400)

    def test_neighbours_of_six_decimal_halves_match_fstring(self, tmp_path):
        rng = np.random.default_rng(7)
        k = np.concatenate([np.arange(-5000, 5000), rng.integers(-10**15, 10**15, 10000)])
        halves = (k + 0.5) / 1e6
        values = [halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf)]
        self._assert_tokens_match_fstring(tmp_path, np.concatenate(values), 300)

    def test_large_non_finite_and_signed_zero_match_fstring(self, tmp_path):
        values = [1e9, -1e9, 1e300, -1e300, np.nextafter(1e9, 0), 999999999.9999996,
                  np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, -1e-9, -4e-7, 1e15]
        for nodata in (np.nan, np.inf, -np.inf, -9999.0):
            self._assert_tokens_match_fstring(tmp_path, values, 4, nodata)

    def test_log_uniform_sweep_matches_fstring(self, tmp_path):
        rng = np.random.default_rng(11)
        magnitude = np.exp(rng.uniform(np.log(1e-17), np.log(1e12), 10**5))
        self._assert_tokens_match_fstring(tmp_path, magnitude * rng.choice([-1, 1], 10**5), 500)

    def test_six_decimal_halves_match_fstring(self, tmp_path):
        # where v * 1e6 rounds to a half, the side comes from the sign of the
        # product's rounding error; both kinds of tie must be present
        rng = np.random.default_rng(13)
        odd = 2 * np.arange(-3000, 3000) + 1.0
        near = [(2 * (c + np.arange(-500, 500)) + 1) / 2e6 for c in (5 * 10**8, 5 * 10**13)]
        near = np.concatenate([*near, *(-h for h in near)])
        a, b = (np.round(rng.normal(20.0, 8.0, 20000), 6) for _ in range(2))
        values = np.concatenate([
            odd / 128, odd / 2**20, [-0.0, 0.0, -5e-7, 5e-7, -1.5e-6],
            near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
            0.5 * (a + b),  # a fused median of an even count of 6-decimal heights
        ])
        x = values * 1e6
        half = values[np.abs(x - np.rint(x)) == 0.5]
        exact = [Fraction(v) * 10**6 == Fraction(v * 1e6) for v in half.tolist()]
        assert sum(exact) > 1000 and len(exact) - sum(exact) > 1000
        self._assert_tokens_match_fstring(tmp_path, values, 5)

    def test_chunk_boundaries_do_not_show(self, tmp_path, monkeypatch):
        # fallback tokens of different widths in different rows: a chunk's
        # slots widen to fit its own tokens only
        vals = np.random.default_rng(3).normal(0.0, 100.0, (9, 7))
        vals[[1, 4, 6], [2, 0, 6]] = [1e300, np.nan, 0.0078125]
        whole, cut = tmp_path / "whole.asc", tmp_path / "cut.asc"
        monkeypatch.setattr(raster, "_STRIP_BYTES", 1 << 30)
        write_asc(grid_of(vals), whole)
        monkeypatch.setattr(raster, "_STRIP_BYTES", 1)  # one row per chunk
        write_asc(grid_of(vals), cut)
        assert cut.read_bytes() == whole.read_bytes()

    def test_write_asc_peak_memory_is_a_chunk(self, tmp_path):
        # numpy reports its buffers to tracemalloc, so the traced peak covers
        # every array the writer makes
        import tracemalloc

        grid = grid_of(np.random.default_rng(5).normal(50.0, 20.0, (2048, 2048)))
        tracemalloc.start()
        try:
            write_asc(grid, tmp_path / "big.asc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_write_pgm_peak_memory_is_a_chunk(self, tmp_path):
        import tracemalloc

        # strips as ``fuse`` passes them: the preview's share of the strip budget
        vals = np.random.default_rng(5).normal(50.0, 20.0, (2048, 2048))
        rows = raster.strip_rows(2048, 8)
        strips = (vals[r : r + rows] for r in range(0, 2048, rows))
        geom = GridGeometry(0.0, 0.0, 1.0, 2048, 2048)
        tracemalloc.start()
        try:
            write_pgm(strips, tmp_path / "big.pgm", geom, vals.min(), vals.max())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    @_fixture_ok
    @given(gray=arrays(np.int64, _grids, elements=st.integers(0, 255)), data=st.data())
    def test_write_pgm_rows_match_str_join(self, tmp_path, gray, data):
        # pin the stretch to the identity: min 0 and max 255 are valid cells
        gray.flat[0] = 0
        gray.flat[-1] = 255
        hole = data.draw(arrays(np.bool_, gray.shape), label="hole")
        hole.flat[0] = hole.flat[-1] = False
        vals = np.where(hole, -9999.0, gray.astype(float))
        p = _fresh(tmp_path, ".pgm")
        pgm_of(grid_of(vals), p)
        expected = np.where(hole, 0, gray)
        assert p.read_text().split("\n")[3:] == [
            " ".join(str(v) for v in row) for row in expected
        ] + [""]

    def _read_row(self, tmp_path, tokens):
        p = _fresh(tmp_path, ".asc")
        p.write_text(
            f"ncols {len(tokens)}\nnrows 1\nxllcorner 0\nyllcorner 0\n"
            f"cellsize 1\n{' '.join(tokens)}\n"
        )
        return read_asc(p).values[0]

    def test_read_asc_grammar_matches_float(self, tmp_path):
        tokens = ["1_0", "Infinity", "+NaN", "-nan", "1e999", "-1e999", "-0", "1e-400", ".5", "1.", "iNf",
                  "-9999", "-9999.000000", "-9.999e3"]
        assert _read_as(self._read_row(tmp_path, tokens), [float(t) for t in tokens])

    @pytest.mark.parametrize("bad", ["nan(1)", "1__0", "0x10", "1,0", "1.5e", "--1", "oops"])
    def test_read_asc_bad_token_named(self, tmp_path, bad):
        with pytest.raises(UnparseableNumberError, match=re.escape(repr(bad))):
            self._read_row(tmp_path, ["1.5", bad, "2"])

    @_fixture_ok
    @given(token=st.text(alphabet="0123456789_.eE+-nafityNAFITY", min_size=1, max_size=8)
           | st.floats().map(repr))
    def test_read_asc_token_property(self, tmp_path, token):
        try:
            expected = float(token)
        except ValueError:
            with pytest.raises(UnparseableNumberError, match=re.escape(repr(token))):
                self._read_row(tmp_path, ["0", token])
        else:
            assert _read_as(self._read_row(tmp_path, ["0", token]), [0.0, expected])

    @_fixture_ok
    @given(case=_asc_texts(), rows=st.integers(1, 5))
    def test_read_asc_matches_per_row_reference(self, tmp_path, case, rows):
        text, n_rows, n_cols, n_header = case
        p = _fresh(tmp_path, ".asc")
        p.write_bytes(text.encode("ascii"))

        def in_strips():  # GridReader's strips of ``rows`` rows, joined
            with GridReader(p) as reader:
                return np.concatenate([reader.read(rows) for _ in range(0, n_rows, rows)])

        try:
            expected = _reference_values(p, n_rows, n_cols, n_header)
        except AsciiGridError as exc:
            for read in (lambda: read_asc(p).values, in_strips):
                with pytest.raises(AsciiGridError) as got:
                    read()
                assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            assert _read_as(read_asc(p).values, expected)
            assert _read_as(in_strips(), expected)
            assert np.array_equal(in_strips(), read_asc(p).values, equal_nan=True)

    def test_strips_read_forward_in_bounded_memory(self, tmp_path):
        # the last row's ``1_0`` is parsed again with float(), that strip alone
        import tracemalloc

        n = 1024
        vals = np.zeros((n, n))
        vals[-1, 0] = 10.0
        p = tmp_path / "g.asc"
        write_asc(grid_of(vals), p)
        p.write_bytes(p.read_bytes().replace(b"10.000000", b"1_0.000000"))
        rows = raster.strip_rows(n, 1)
        with GridReader(p) as reader:
            tracemalloc.start()
            try:
                for _ in range(0, n, rows):
                    strip = reader.read(rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert strip[-1, 0] == 10.0 and not strip[:, 1:].any()
        assert peak < 5 * strip.nbytes, peak / strip.nbytes


class TestPgm:
    def test_stretch_and_nodata(self, tmp_path):
        src = grid_of(np.array([[0.0, 5.0], [10.0, -9999.0]]))
        p = tmp_path / "g.pgm"
        pgm_of(src, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["0", "128"]
        assert lines[4].split() == ["255", "0"]

    def test_constant_grid_renders_white(self, tmp_path):
        src = grid_of(np.full((2, 2), 7.0))
        p = tmp_path / "g.pgm"
        pgm_of(src, p)
        body = p.read_text().splitlines()[3:]
        assert all(tok == "255" for line in body for tok in line.split())

    @_fixture_ok
    @given(vals=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 5)),
                       elements=st.sampled_from([-9999.0, np.nan, -0.0, 0.0, 0.5, 3.25, 1e9])),
           rows=st.integers(1, 9))
    def test_strip_height_does_not_change_bytes(self, tmp_path, vals, rows):
        whole, cut = _fresh(tmp_path, ".pgm"), _fresh(tmp_path, ".pgm")
        pgm_of(grid_of(vals), whole)
        pgm_of(grid_of(vals), cut, rows)
        assert cut.read_bytes() == whole.read_bytes()
