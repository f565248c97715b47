"""Georeferenced 2.5D grid container, resampling, and ASCII-grid / PGM I/O.

Conventions (stated once, used everywhere):

* World origin is the lower-left corner of the lower-left cell
  (``origin_x``, ``origin_y``); cells are square.
* Values are stored row-major, top row first: ``values[0, :]`` is the
  northernmost row, and rows count from the top.
* A point belongs to the cell whose left/bottom edges it lies on; the
  right and top edges of the grid are exclusive.
* The nodata sentinel (default -9999) marks cells without a valid sample
  and never participates in arithmetic.  Non-finite values are treated as
  invalid as well.

Grids are immutable after construction (the value array is a read-only
copy), so any number of concurrent readers is safe.  ``GridReader`` parses
an ASCII grid a strip of rows at a time, ``write_rows`` writes rows, so a
caller can stream a grid through either without holding it whole.  Cells
print as ``%.6f`` from digit tables in numpy, exactly (see ``write_rows``).
"""

from __future__ import annotations

import math
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

DEFAULT_NODATA = -9999.0

# fractional source indices this close to an integer are snapped, so that
# resampling onto a cell-aligned geometry is exact despite float rounding
_SNAP_EPS = 1e-9

_STRIP_BYTES = 1 << 20  # float64 bytes per row strip, over every grid read in lockstep


def strip_rows(n_cols: int, n_grids: int) -> int:
    """Rows per strip when ``n_grids`` grids of ``n_cols`` columns are read in lockstep."""
    return max(1, _STRIP_BYTES // (n_cols * n_grids * 8))


def valid(values, nodata: float) -> np.ndarray:
    """Cells that hold a sample: finite and not the nodata sentinel."""
    return np.isfinite(values) & (values != nodata)


class AsciiGridError(Exception):
    """Base error for ASCII-grid parsing."""


class MalformedHeaderError(AsciiGridError):
    """Header line missing, mis-ordered, not 'key value', or out of range."""


class RowLengthError(AsciiGridError):
    """Wrong number of values in a data row, or wrong number of rows."""


class UnparseableNumberError(AsciiGridError):
    """A data token could not be parsed as a number."""


class GeometryMismatchError(ValueError):
    """Two grids were expected to share a geometry but do not."""


@contextmanager
def decode_errors_as(error: type[Exception], path, encoding: str):
    """Raise ``error`` naming ``path`` and the first undecodable byte's offset
    in place of a ``UnicodeDecodeError`` (whose offset is per decoded chunk)."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            data = f.read()
        try:
            data.decode(encoding)
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}: byte {data[exc.start]:#04x} at offset {exc.start} is not {encoding}"
            ) from None
        raise


@dataclass(frozen=True)
class GridGeometry:
    """Placement of a regular square-celled grid in world coordinates."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        if not 0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be finite and > 0, got {self.cell_size}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError(
                f"grid must be at least 1x1, got {self.n_cols}x{self.n_rows}"
            )

    def center_point(self) -> tuple[float, float]:
        """World coordinates of the grid's midpoint."""
        return (
            self.origin_x + 0.5 * self.n_cols * self.cell_size,
            self.origin_y + 0.5 * self.n_rows * self.cell_size,
        )


class RasterGrid:
    """A georeferenced grid of heights (meters) or intensities (gray levels).

    ``values`` is a read-only float64 array of shape (n_rows, n_cols): a copy
    of the given values, unless they already are such an array.
    """

    def __init__(self, geometry: GridGeometry, values, nodata: float = DEFAULT_NODATA):
        shared = isinstance(values, np.ndarray) and not values.flags.writeable
        arr = np.array(values, dtype=np.float64, order="C", copy=None if shared else True)
        if arr.shape != (geometry.n_rows, geometry.n_cols):
            raise ValueError(
                f"values shape {arr.shape} does not match geometry "
                f"({geometry.n_rows}, {geometry.n_cols})"
            )
        arr.flags.writeable = False
        self.geometry = geometry
        self.values = arr
        self.nodata = float(nodata)

    @classmethod
    def from_nan(cls, geometry: GridGeometry, values, nodata: float = DEFAULT_NODATA) -> "RasterGrid":
        """Build a grid from an array that uses NaN to mark invalid cells."""
        arr = np.array(values, dtype=np.float64, copy=True)
        arr[~np.isfinite(arr)] = nodata
        return cls(geometry, arr, nodata)

    def valid_mask(self) -> np.ndarray:
        return valid(self.values, self.nodata)

    def nan_values(self) -> np.ndarray:
        """Float copy with every invalid cell replaced by NaN."""
        return np.where(self.valid_mask(), self.values, np.nan)

    def __repr__(self):
        g = self.geometry
        return (
            f"RasterGrid({g.n_cols}x{g.n_rows} cells of {g.cell_size} at "
            f"({g.origin_x}, {g.origin_y}), nodata={self.nodata})"
        )


def _snap(a: np.ndarray) -> np.ndarray:
    near = np.rint(a)
    return np.where(np.abs(a - near) < _SNAP_EPS, near, a)


def _cell_centers(geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """World x of each column's cell centers, and y of each row's, top row first."""
    xs = geom.origin_x + (np.arange(geom.n_cols) + 0.5) * geom.cell_size
    ys = geom.origin_y + (geom.n_rows - np.arange(geom.n_rows) - 0.5) * geom.cell_size
    return xs, ys


def _at(src: RasterGrid, rb: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``src``'s values at integer rows-from-bottom ``rb`` and columns ``c``, broadcast
    against each other and clamped onto the grid, and whether each lies on it."""
    g = src.geometry
    on = (rb >= 0) & (rb < g.n_rows) & (c >= 0) & (c < g.n_cols)
    r = g.n_rows - 1 - np.clip(rb, 0, g.n_rows - 1)
    return src.values[r, np.clip(c, 0, g.n_cols - 1)], on


def resample(src: RasterGrid, target: GridGeometry, method: str = "bilinear") -> RasterGrid:
    """Resample a grid onto a target geometry.

    ``nearest`` takes the value of the containing source cell, propagating
    nodata directly.  ``bilinear`` interpolates the four surrounding cell
    centers; when any of the four is invalid it falls back to the nearest
    valid one of the four, and to nodata when none is valid.  Onto the
    source's own geometry both are exact, so ``src`` itself is returned.

    ``src`` is held whole, but the output is filled a strip of rows at a time
    within the ``strip_rows`` budget and is the only whole-grid array made:
    at 2048x2048 a resample holds 34 MB beyond ``src``, 33.5 MB of it output.
    """
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resampling method {method!r}")
    if target == src.geometry:
        return src
    g, nodata = src.geometry, src.nodata
    xs, ys = _cell_centers(target)
    # per-axis source coordinates; integer k is column/row k's left/bottom edge ...
    u, v = (xs - g.origin_x) / g.cell_size, ((ys - g.origin_y) / g.cell_size)[:, None]
    if method == "bilinear":  # ... and here its center
        u, v = _snap(u - 0.5), _snap(v - 0.5)
    c0, rb0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
    fx, fy = u - c0, v - rb0
    wx, wy = (1 - fx, fx), (1 - fy, fy)  # bilinear weights of corner offsets 0 and 1
    out = np.empty((target.n_rows, target.n_cols))
    rows = strip_rows(target.n_cols, 16)  # a bilinear strip's temporaries share one budget
    for s in (slice(r, r + rows) for r in range(0, target.n_rows, rows)):
        if method == "nearest":
            vals, on = _at(src, rb0[s], c0)
            out[s] = np.where(on, vals, nodata)
            continue
        # fallback: the first nearest valid support corner strictly within one
        # cell of the sample point.  The strict bound keeps identity resampling
        # exact: a point on an invalid cell's center has no eligible neighbor (the
        # others sit at distance >= 1) and stays nodata.  Exact hits (fx=fy=0)
        # route here too, resolving to the hit corner at distance zero.
        near, best, all4 = nodata, np.inf, True
        for dc, drb in ((0, 0), (1, 0), (0, 1), (1, 1)):
            vals, on = _at(src, rb0[s] + drb, c0 + dc)
            ok = on & valid(vals, nodata)
            term = wx[dc] * wy[drb][s] * vals
            bil = term if dc + drb == 0 else bil + term
            d = wx[1 - dc] ** 2 + wy[1 - drb][s] ** 2
            take = ok & (d < 1.0) & (d < best)
            near, best, all4 = np.where(take, vals, near), np.where(take, d, best), all4 & ok
        out[s] = np.where(all4 & ~((fx == 0) & (fy[s] == 0)), bil, near)
    out.flags.writeable = False
    return RasterGrid(target, out, nodata)


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


class GridReader(AbstractContextManager):
    """An ASCII-grid file, open for reading its data rows in order.

    Header lines must appear in order: ncols, nrows, xllcorner, yllcorner,
    cellsize, then an optional NODATA_value line (default -9999), then
    nrows rows of ncols whitespace-separated numbers, top row first.  Blank
    lines are skipped.  Header values must be finite, and cellsize > 0.

    Opening checks the header (``geometry``, ``nodata``); ``read(n)`` parses
    the next n rows with numpy's C text reader.  A strip it rejects, one of
    the wrong shape, or lines after the last row send the reader back to the
    data block for ``_read_rows``, which parses it all with ``float()`` (so
    ``1_0`` too), names the bad token or row, and serves the rows left.
    """

    def __init__(self, path):
        self.path = path
        self._f = open(path, "r", encoding="ascii")
        try:
            with decode_errors_as(AsciiGridError, path, "ascii"):
                self.geometry, self.nodata = _read_header(self._f, path)
        except BaseException:
            self._f.close()
            raise
        self._data_start = self._f.tell()
        self._lines = filter(None, map(str.strip, self._f))
        self._next, self._block = 0, None  # rows served; the block if _read_rows parsed it

    def read(self, n: int) -> np.ndarray:
        g, r0 = self.geometry, self._next
        self._next = min(r0 + n, g.n_rows)
        n = self._next - r0
        if self._block is None:
            with decode_errors_as(AsciiGridError, self.path, "ascii"):
                lines = list(islice(self._lines, n))
                try:  # a short strip, an empty one included, goes to _read_rows unparsed
                    strip = np.loadtxt(lines, comments=None, ndmin=2) if len(lines) == n else None
                except ValueError:
                    strip = None
                trailing = self._next == g.n_rows and next(self._lines, None)
                if strip is not None and strip.shape == (n, g.n_cols) and not trailing:
                    return strip
                self._f.seek(self._data_start)
                self._block = _read_rows(self._f, self.path, g.n_rows, g.n_cols)
        return self._block[r0 : self._next]

    def __exit__(self, *exc) -> None:
        self._f.close()


def read_asc(path) -> RasterGrid:
    """Read a whole ASCII-grid file (format and errors as ``GridReader``)."""
    with GridReader(path) as grid:
        return RasterGrid(grid.geometry, grid.read(grid.geometry.n_rows), grid.nodata)


def _read_header(f, path) -> tuple[GridGeometry, float]:
    """Parse the header from ``f``'s start, leaving ``f`` at the data block."""
    header: dict[str, float] = {}
    for key in _HEADER_KEYS:
        line = _next_line(f)
        if not line:
            raise MalformedHeaderError(f"{path}: missing header line {key!r}")
        parts = line.split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise MalformedHeaderError(
                f"{path}: expected header {key!r}, got {line!r}"
            )
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise MalformedHeaderError(
                f"{path}: header {key!r} has non-numeric value {parts[1]!r}"
            ) from None
        if not math.isfinite(header[key]) or (key == "cellsize" and header[key] <= 0):
            raise MalformedHeaderError(
                f"{path}: header {key!r} out of range: {parts[1]!r}"
            )

    nodata = DEFAULT_NODATA
    data_start = f.tell()
    parts = _next_line(f).split()
    if len(parts) == 2 and parts[0].lower() == "nodata_value":
        try:
            nodata = float(parts[1])
        except ValueError:
            raise MalformedHeaderError(
                f"{path}: NODATA_value not numeric: {parts[1]!r}"
            ) from None
    else:
        f.seek(data_start)

    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])
    if n_cols != header["ncols"] or n_rows != header["nrows"] or n_cols < 1 or n_rows < 1:
        raise MalformedHeaderError(
            f"{path}: ncols/nrows must be positive integers, got "
            f"{header['ncols']}, {header['nrows']}"
        )
    geom = GridGeometry(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        n_cols=n_cols,
        n_rows=n_rows,
    )
    return geom, nodata


def _next_line(f) -> str:
    """The next non-blank line of ``f``, stripped; ``""`` at end of file."""
    for raw in iter(f.readline, ""):
        line = raw.strip()
        if line:
            return line
    return ""


def _read_rows(f, path, n_rows: int, n_cols: int) -> np.ndarray:
    """Parse the data block from ``f``'s position one row at a time."""
    data_lines = [ln for ln in (raw.strip() for raw in f) if ln]
    if len(data_lines) != n_rows:
        raise RowLengthError(
            f"{path}: expected {n_rows} data rows, found {len(data_lines)}"
        )
    values = np.empty((n_rows, n_cols), dtype=np.float64)
    for r, line in enumerate(data_lines):
        tokens = line.split()
        if len(tokens) != n_cols:
            raise RowLengthError(
                f"{path}: row {r} has {len(tokens)} values, expected {n_cols}"
            )
        try:
            values[r, :] = np.array(tokens, dtype=np.float64)
        except ValueError:
            bad = next(t for t in tokens if not _is_number(t))
            raise UnparseableNumberError(
                f"{path}: row {r} contains unparseable value {bad!r}"
            ) from None
    return values


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def asc_header(geometry: GridGeometry, nodata: float) -> str:
    """The header lines of an ASCII grid.  NODATA_value is written ``:g`` when
    that reads back exactly, else as ``repr``; a nodata whose ``%.6f`` cell
    token reads back as another value (``-1e-7``) raises ``ValueError``."""
    if float("%.6f" % nodata) != nodata and not math.isnan(nodata):
        raise ValueError(f"nodata {nodata!r} would be written as {'%.6f' % nodata}")
    g_token = f"{nodata:g}"
    nodata_token = g_token if float(g_token) == nodata else repr(nodata)
    g = geometry
    return (
        f"ncols {g.n_cols}\nnrows {g.n_rows}\nxllcorner {g.origin_x:.6f}\n"
        f"yllcorner {g.origin_y:.6f}\ncellsize {g.cell_size:.6f}\nNODATA_value {nodata_token}\n"
    )


# 3-digit groups: k zero-padded, 1000 + k with leading zeros NUL, 2000 + k the
# same but 0 as 0.  A slot: sign, 9 digits, [dot, 6 digits,] separator.
_DIGITS = np.array([b"%03d" % k for k in range(1000)]
                   + [(b"%3d" % k).replace(b" ", b"\0") if k else b"" for k in range(1000)]
                   + [(b"%3d" % k).replace(b" ", b"\0") for k in range(1000)], "S3")
_INT_SLOT = np.dtype([("sign", "u1"), ("g0", "S3"), ("g1", "S3"), ("g2", "S3"), ("sep", "u1")])
_FLOAT_SLOT = np.dtype(_INT_SLOT.descr[:-1] + [("dot", "u1"), ("g3", "S3"), ("g4", "S3"), ("sep", "u1")])


def _tokens(rows: np.ndarray) -> np.ndarray:
    """The bytes ``write_rows`` prints for ``rows``, as uint8."""
    if np.issubdtype(rows.dtype, np.integer):
        v = rows.reshape(-1)
        fits = (v > -(10**9)) & (v < 10**9)
        m, neg, slot, token, scale = np.where(fits, np.abs(v), 0), v < 0, _INT_SLOT, b"%d", 1
    else:
        v = rows.reshape(-1).astype(np.float64, copy=False)
        with np.errstate(over="ignore", invalid="ignore"):
            x = v * 1e6
            n = np.rint(x)
            fits = np.abs(n) < 1e15
            half = np.flatnonzero(np.abs(x - n) == 0.5)  # x - n is exact
        vh, xh = v[half], x[half]
        hi = vh * 134217729.0  # Veltkamp split: hi has 26 bits and 1e6 14, so hi * 1e6 is exact
        hi -= hi - vh
        err = (hi * 1e6 - xh) + (vh - hi) * 1e6  # v * 1e6 - x, exactly (Dekker)
        n[half] = np.where(err == 0, n[half], xh + np.copysign(0.5, err))
        m = np.where(fits, np.abs(n), 0).astype(np.int64)
        neg, slot, token, scale = np.signbit(v), _FLOAT_SLOT, b"%.6f", 10**6
    slow = np.flatnonzero(~fits)
    fallback = [token % t for t in v[slow].tolist()]
    width = max([slot.itemsize, *(len(t) + 1 for t in fallback)])
    u8 = np.zeros((v.size, width), np.uint8)
    rec = u8[:, width - slot.itemsize :].view(slot)[:, 0]
    rec["sign"], rec["sep"] = np.where(neg, ord("-"), 0), ord(" ")
    ints = m // scale
    offsets = [(ints < 1000) * 2000, (ints < 10**6) * 1000, 1000]  # least significant group first
    if scale > 1:
        rec["dot"], offsets = ord("."), [0, 0, *offsets]
    for k, offset in enumerate(offsets):
        q = m // 1000
        rec[f"g{len(offsets) - 1 - k}"] = _DIGITS.take(m - q * 1000 + offset)
        m = q
    u8.reshape(*rows.shape, width)[:, -1, -1] = ord("\n")
    padded = b"".join(t.rjust(width - 1, b"\0") for t in fallback)
    u8[slow, :-1] = np.frombuffer(padded, np.uint8).reshape(len(slow), width - 1)
    return u8[u8 != 0]


def write_rows(f, rows: np.ndarray) -> None:
    """Write 2-D ``rows`` to binary file ``f`` as ASCII-grid lines, integers as
    ``%d`` and others as ``%.6f``, with the bytes ``%`` gives, a chunk of rows at
    a time: in numpy, ``x = v * 1e6`` is rounded to an integer ``n`` cut into
    3-digit groups printed from ``_DIGITS``.  ``x`` is the double nearest the
    exact product and every half below 2**52 is a double, so ``rint(x)`` is right
    unless ``x`` is itself a half; there the sign of the product's rounding
    error, exact by Dekker's product, picks the side, and half-even stands when
    it is 0.  Non-finite values and ``|n| >= 1e15`` are printed by ``%``."""
    step = strip_rows(rows.shape[1], 16)  # a chunk's temporaries share one budget
    for r in range(0, len(rows), step):
        f.write(_tokens(rows[r : r + step]))


def write_asc(grid: RasterGrid, path) -> None:
    """Write in ASCII-grid format (``asc_header``), values printed with 6 decimals."""
    header = asc_header(grid.geometry, grid.nodata)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        write_rows(f, grid.values)


def write_pgm(strips, path, geometry: GridGeometry, nodata: float, vmin, vmax) -> None:
    """Write an 8-bit P2 PGM preview of a grid given as row strips, top first.

    ``vmin`` and ``vmax`` are the least and greatest valid values of the
    whole grid (``inf`` and ``-inf`` when none is valid), so the caller can
    find them while the rows stream past and the grid is never held whole.
    Valid cells get a linear min-max stretch to 0-255, rounded half to even;
    invalid ones get 0.  When ``vmax`` is not above ``vmin`` every valid
    cell renders as 255, so a constant grid stays distinguishable from
    nodata.  Each strip is scaled and written on its own, so the output
    does not depend on how the rows are cut into strips.
    """
    with open(path, "wb") as f:
        f.write(b"P2\n%d %d\n255\n" % (geometry.n_cols, geometry.n_rows))
        for vals in strips:
            scaled = np.rint((vals - vmin) / (vmax - vmin) * 255.0) if vmax > vmin else 255
            write_rows(f, np.where(valid(vals, nodata), scaled, 0).astype(np.int64))
