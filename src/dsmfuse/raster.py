"""Georeferenced 2.5D grid container, resampling, and ASCII-grid / PGM I/O.

Conventions (stated once, used everywhere):

* World origin is the lower-left corner of the lower-left cell
  (``origin_x``, ``origin_y``); cells are square.
* Values are stored row-major, top row first: ``values[0, :]`` is the
  northernmost row, and rows count from the top.
* In memory a cell without a valid sample is NaN, in every grid and strip.
  The nodata sentinel (default -9999) marks such cells in files only:
  ``GridReader.read`` alone turns it, and any infinite token, into NaN, and
  ``write_rows`` alone turns every non-finite value back into it.  A height
  computed in memory is kept as it is, even when it equals a sentinel.

Grids are immutable after construction (the value array is read-only), so
any number of concurrent readers is safe.  ``GridReader`` parses
an ASCII grid a strip of rows at a time, ``write_rows`` writes rows, so a
caller can stream a grid through either without holding it whole.  Cells
print as ``%.6f`` from a table of 4-byte words in numpy, exactly (see ``write_rows``).
"""

from __future__ import annotations

import math
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

DEFAULT_NODATA = -9999.0

# fractional source indices this close to an integer are snapped, so that
# resampling onto a cell-aligned geometry is exact despite float rounding
_SNAP_EPS = 1e-9

_STRIP_BYTES = 1 << 20  # float64 bytes per row strip, over every grid read in lockstep


def strip_rows(n_cols: int, n_grids: int) -> int:
    """Rows per strip when ``n_grids`` grids of ``n_cols`` columns are read in lockstep."""
    return max(1, _STRIP_BYTES // (n_cols * n_grids * 8))


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
    in place of a ``UnicodeDecodeError`` (whose offset is per decoded chunk, and
    after the byte-order mark a ``-sig`` encoding skips: this one counts it)."""
    encoding = encoding.removesuffix("-sig")
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


def key_value_lines(path, sep: str, error: type[Exception], encoding: str,
                    repeatable=()) -> list[tuple[int, str, str]]:
    """``(lineno, key, value)``, both stripped, per ``key<sep>value`` line of a text
    file.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r``; blank and ``#`` lines are
    skipped but counted.  A line without ``sep``, a key given twice in any letter case
    (unless ``repeatable`` names it) or an undecodable byte raises ``error``."""
    out, seen = [], {}
    with open(path, encoding=encoding) as f, decode_errors_as(error, path, encoding):
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if sep not in line:
                raise error(f"{path}:{lineno}: expected key{sep}value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition(sep))
            if key not in repeatable and seen.setdefault(key.upper(), lineno) != lineno:
                raise error(f"{path}:{lineno}: key {key!r} was given on line {seen[key.upper()]} too")
            out.append((lineno, key, value))
    return out


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

    ``values`` is a read-only float64 array of shape (n_rows, n_cols), NaN
    where a cell holds no sample: the given values as they are, in a copy
    unless they already are such an array.  ``nodata`` is only what a writer
    prints for NaN; no value is compared with it.
    """

    def __init__(self, geometry: GridGeometry, values, nodata: float = DEFAULT_NODATA):
        shared = isinstance(values, np.ndarray) and not values.flags.writeable
        arr = (np.asarray if shared else np.array)(values, dtype=np.float64, order="C")
        if arr.shape != (geometry.n_rows, geometry.n_cols):
            raise ValueError(
                f"values shape {arr.shape} does not match geometry "
                f"({geometry.n_rows}, {geometry.n_cols})"
            )
        arr.flags.writeable = False
        self.geometry = geometry
        self.values = arr
        self.nodata = float(nodata)

    def valid_mask(self) -> np.ndarray:
        """Cells that hold a sample."""
        return ~np.isnan(self.values)

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


def resample(src: RasterGrid, target: GridGeometry) -> RasterGrid:
    """Resample a grid onto a target geometry.

    Each target cell center interpolates the four surrounding source cell
    centers bilinearly; when any of the four is NaN it falls back to the
    nearest valid one of the four, and to NaN when none is valid.  Cells off
    the source are NaN.  Onto the source's own geometry this is exact, so
    ``src`` itself is returned.

    ``src`` is held whole, but the output is filled a strip of rows at a time
    within the ``strip_rows`` budget and is the only whole-grid array made:
    at 2048x2048 a resample holds 34 MB beyond ``src``, 33.5 MB of it output.
    """
    if target == src.geometry:
        return src
    g = src.geometry
    xs, ys = _cell_centers(target)
    # per-axis source coordinates; integer k is column/row k's center
    u = _snap((xs - g.origin_x) / g.cell_size - 0.5)
    v = _snap(((ys - g.origin_y) / g.cell_size)[:, None] - 0.5)
    c0, rb0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
    fx, fy = u - c0, v - rb0
    wx, wy = (1 - fx, fx), (1 - fy, fy)  # bilinear weights of corner offsets 0 and 1
    out = np.empty((target.n_rows, target.n_cols))
    rows = strip_rows(target.n_cols, 16)  # a strip's temporaries share one budget
    for s in (slice(r, r + rows) for r in range(0, target.n_rows, rows)):
        # fallback: the first nearest valid support corner strictly within one
        # cell of the sample point.  The strict bound keeps identity resampling
        # exact: a point on an invalid cell's center has no eligible neighbor (the
        # others sit at distance >= 1) and stays NaN.  Exact hits (fx=fy=0)
        # route here too, resolving to the hit corner at distance zero.
        near, best, all4 = np.nan, np.inf, True
        for dc, drb in ((0, 0), (1, 0), (0, 1), (1, 1)):
            vals, on = _at(src, rb0[s] + drb, c0 + dc)
            ok = on & ~np.isnan(vals)
            term = wx[dc] * wy[drb][s] * vals
            bil = term if dc + drb == 0 else bil + term
            d = wx[1 - dc] ** 2 + wy[1 - drb][s] ** 2
            take = ok & (d < 1.0) & (d < best)
            near, best, all4 = np.where(take, vals, near), np.where(take, d, best), all4 & ok
        out[s] = np.where(all4 & ~((fx == 0) & (fy[s] == 0)), bil, near)
    out.flags.writeable = False
    return RasterGrid(target, out, src.nodata)


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


class GridReader(AbstractContextManager):
    """An ASCII-grid file, open for reading its data rows in order.

    Header lines must appear in order: ncols, nrows, xllcorner, yllcorner,
    cellsize, then an optional NODATA_value line (default -9999), then
    nrows rows of ncols whitespace-separated numbers, top row first.  Blank
    lines are skipped.  The five geometry values must be finite, and cellsize
    > 0; NODATA_value may be any float, nan and inf too.

    Opening checks the header (``geometry``, ``nodata``); ``read(n)`` parses
    the next n rows with numpy's C text reader, NaN where a token is
    ``nodata`` or not finite.  A strip it rejects, or one of
    the wrong shape, is parsed again by ``_parse_rows`` with ``float()`` (so
    ``1_0`` too), which names the bad token or row.  The row count is checked
    as the strips go past: a short last strip, or a line after the last row,
    is a ``RowLengthError``.  The file is read forward only, a strip at a time.
    """

    def __init__(self, path):
        self.path = path
        self._f = open(path, "r", encoding="ascii")
        lines = filter(None, map(str.strip, self._f))
        try:
            with decode_errors_as(AsciiGridError, path, "ascii"):
                self.geometry, self.nodata, self._lines = _read_header(lines, path)
        except BaseException:
            self._f.close()
            raise
        self._next = 0  # rows served

    def read(self, n: int) -> np.ndarray:
        g, r0 = self.geometry, self._next
        self._next = min(r0 + n, g.n_rows)
        n = self._next - r0
        with decode_errors_as(AsciiGridError, self.path, "ascii"):
            lines = list(islice(self._lines, n))
            found = r0 + len(lines)
            if found == g.n_rows:  # count any lines after the last row
                found += sum(1 for _ in self._lines)
        if found != self._next:
            raise RowLengthError(f"{self.path}: expected {g.n_rows} data rows, found {found}")
        try:
            strip = np.loadtxt(lines, comments=None, ndmin=2)
        except ValueError:
            strip = None
        if strip is None or strip.shape != (n, g.n_cols):
            strip = _parse_rows(lines, self.path, r0, g.n_cols)
        rows = strip_rows(g.n_cols, 8)  # an eighth of the strip budget: small boolean masks
        for s in (strip[r : r + rows] for r in range(0, n, rows)):
            s[np.isinf(s) | (s == self.nodata)] = np.nan
        return strip

    def grid(self) -> RasterGrid:
        """Every row, read from a reader none has been read from, as a ``RasterGrid``."""
        values = self.read(self.geometry.n_rows)
        values.flags.writeable = False  # marked already: the grid shares it
        return RasterGrid(self.geometry, values, self.nodata)

    def __exit__(self, *exc) -> None:
        self._f.close()


def read_asc(path) -> RasterGrid:
    """Read a whole ASCII-grid file (format and errors as ``GridReader``)."""
    with GridReader(path) as reader:
        return reader.grid()


def _read_header(lines, path):
    """Geometry, nodata and the data rows of a grid file's stripped non-blank ``lines``."""
    header: dict[str, float] = {}
    for key in _HEADER_KEYS:
        line = next(lines, "")
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
    line = next(lines, "")  # NODATA_value, else the first data row, handed back
    parts = line.split()
    if len(parts) == 2 and parts[0].lower() == "nodata_value":
        try:
            nodata = float(parts[1])
        except ValueError:
            raise MalformedHeaderError(
                f"{path}: NODATA_value not numeric: {parts[1]!r}"
            ) from None
    elif line:
        lines = chain([line], lines)

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
    return geom, nodata, lines


def _parse_rows(lines, path, r0: int, n_cols: int) -> np.ndarray:
    """Parse data ``lines``, rows ``r0`` on, one row at a time."""
    values = np.empty((len(lines), n_cols), dtype=np.float64)
    for r, line in enumerate(lines, start=r0):
        tokens = line.split()
        if len(tokens) != n_cols:
            raise RowLengthError(
                f"{path}: row {r} has {len(tokens)} values, expected {n_cols}"
            )
        try:
            values[r - r0, :] = np.array(tokens, dtype=np.float64)
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
    """The header lines of an ASCII grid.  Each value is written ``%.6f``
    (NODATA_value ``%g``) when that reads back exactly, else as ``repr``; a
    nodata whose ``%.6f`` cell token reads back as another value (``-1e-7``)
    raises ``ValueError``."""
    if float("%.6f" % nodata) != nodata and not math.isnan(nodata):
        raise ValueError(f"nodata {nodata!r} would be written as {'%.6f' % nodata}")

    def exact(value: float, fmt: str = "%.6f") -> str:
        return fmt % value if float(fmt % value) == value else repr(value)
    g = geometry
    values = (g.n_cols, g.n_rows, exact(g.origin_x), exact(g.origin_y), exact(g.cell_size))
    lines = [*zip(_HEADER_KEYS, values), ("NODATA_value", exact(nodata, "%g"))]
    return "".join(f"{key} {value}\n" for key, value in lines)


# Little-endian words: NUL and k's 3 digits at k, with leading zeros NUL at 1000 + k, the same
# but 0 as 0 at 2000 + k; ['.'|k] at 3000 + k and [k|' '] at 4000 + k.
_GROUPS = [b"%03d" % k for k in range(1000)]
_WORDS = np.frombuffer(b"".join(
    [b"\0" + g for g in _GROUPS] + [b"\0" + g.lstrip(b"0").rjust(3, b"\0") for g in _GROUPS]
    + [b"\0" + (g[:2].lstrip(b"0") + g[2:]).rjust(3, b"\0") for g in _GROUPS]
    + [b"." + g for g in _GROUPS] + [g + b" " for g in _GROUPS]), "<u4")


def _tokens(rows: np.ndarray) -> bytes:
    """The bytes ``write_rows`` prints for ``rows``."""
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
    q = m // 1000
    ints = q // 1000
    g0, g1 = ints // 10**6, ints // 1000
    slot = [g0 + 1000, g1 - g0 * 1000 + (ints < 10**6) * 1000, ints - g1 * 1000 + (ints < 1000) * 2000,
            q - ints * 1000 + 3000, m - q * 1000 + 4000]  # table indices of a slot's words
    top = ints.max(initial=0)
    del slot[: int(top < 10**6) + int(top < 1000)]  # leading words NUL in every slot
    slow = np.flatnonzero(~fits)
    fallback = [b"%.6f" % t for t in v[slow].tolist()]
    width = max([len(slot), *(-(-(len(t) + 1) // 4) for t in fallback)])
    lead = width - len(slot)  # a slot widened for a fallback token starts with NUL words
    idx = np.empty((v.size, width), np.intp)
    idx[:, :lead] = 1000
    for k, w in enumerate(slot, start=lead):
        idx[:, k] = w
    u8 = _WORDS.take(idx).view(np.uint8)
    u8[:, 4 * lead] += np.signbit(v) * np.uint8(ord("-"))  # the first word's low byte is NUL
    u8.reshape(*rows.shape, 4 * width)[:, -1, -1] = ord("\n")
    padded = b"".join(t.rjust(4 * width - 1, b"\0") for t in fallback)
    u8[slow, :-1] = np.frombuffer(padded, np.uint8).reshape(-1, 4 * width - 1)
    return u8.tobytes().translate(None, b"\0")


def write_rows(f, rows: np.ndarray, nodata: float) -> None:
    """Write 2-D float ``rows`` to binary file ``f`` as ASCII-grid lines of ``%.6f``
    tokens, each non-finite value as ``nodata``,
    with the bytes ``%`` gives, a chunk of rows at a time: in
    numpy, ``x = v * 1e6`` is rounded to an integer ``n``.  ``x`` is the double nearest
    the exact product and every half below 2**52 is a double, so ``rint(x)`` is right
    unless ``x`` is a half; there the sign of the product's error, exact by Dekker,
    picks the side (half-even if 0).  One ``take`` from ``_WORDS`` fills each slot of
    words, ``[sign|g0] [NUL|g1] [NUL|g2] ['.'|f_hi] [f_lo|sep]`` for ``n``'s 3-digit
    groups, less the leading words NUL in every slot of a chunk (integer parts all
    below 10**6 or 1000); ``bytes.translate`` drops NULs.
    ``%`` prints a non-finite ``nodata`` and ``|n| >= 1e15``, widening their chunk's slots."""
    step = strip_rows(rows.shape[1], 16)  # a chunk's temporaries share one budget
    for r in range(0, len(rows), step):
        chunk = rows[r : r + step]
        f.write(_tokens(np.where(np.isfinite(chunk), chunk, nodata)))


def write_asc(grid: RasterGrid, path) -> None:
    """Write in ASCII-grid format (``asc_header``), values printed with 6 decimals
    and NaN as the grid's ``nodata``."""
    header = asc_header(grid.geometry, grid.nodata)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        write_rows(f, grid.values, grid.nodata)


# gray level g's digits and a space, right-aligned in a 4-byte word: ['0' ' '] is [NUL NUL '0' ' ']
_GRAY_WORDS = np.frombuffer(b"".join((b"%d " % g).rjust(4, b"\0") for g in range(256)), "<u4")


def write_pgm(strips, path, geometry: GridGeometry, vmin, vmax) -> None:
    """Write an 8-bit P2 PGM preview of a grid given as row strips, top first.

    ``vmin`` and ``vmax`` are the least and greatest finite values of the
    whole grid (``inf`` and ``-inf`` when none is finite), so the caller can
    find them while the rows stream past and the grid is never held whole.
    Finite cells get a linear min-max stretch to 0-255, rounded half to even,
    on halved values when ``vmax - vmin`` exceeds the largest double; the
    others get 0.  When ``vmax`` is not above ``vmin`` every finite
    cell renders as 255, so a constant grid stays distinguishable from
    nodata.  Each strip is scaled and written on its own, so the output
    does not depend on how the rows are cut into strips.  Each pixel is a word
    of ``_GRAY_WORDS``, a row's last ending in a newline; ``bytes.translate`` drops NULs.
    """
    if float(vmax) - float(vmin) == math.inf:  # halving is exact but for subnormals
        strips, vmin, vmax = (vals / 2 for vals in strips), vmin / 2, vmax / 2
    with open(path, "wb") as f:
        f.write(b"P2\n%d %d\n255\n" % (geometry.n_cols, geometry.n_rows))
        for vals in strips:
            scaled = np.rint((vals - vmin) / (vmax - vmin) * 255.0) if vmax > vmin else 255
            gray = np.where(np.isfinite(vals), scaled, 0).astype(np.intp)
            u8 = _GRAY_WORDS.take(gray).view(np.uint8)
            u8[:, -1] = ord("\n")
            f.write(u8.tobytes().translate(None, b"\0"))
