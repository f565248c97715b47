"""Georeferenced 2.5D grid container, resampling, and ASCII-grid / PGM I/O.

Conventions (stated once, used everywhere):

* World origin is the lower-left corner of the lower-left cell
  (``origin_x``, ``origin_y``); cells are square.
* Values are stored row-major, top row first: ``values[0, :]`` is the
  northernmost row.  ``CellIndex.row`` counts from the top.
* A point belongs to the cell whose left/bottom edges it lies on; the
  right and top edges of the grid are exclusive.
* The nodata sentinel (default -9999) marks cells without a valid sample
  and never participates in arithmetic.  Non-finite values are treated as
  invalid as well.

Grids are immutable after construction (the value array is a read-only
copy), so any number of concurrent readers is safe.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_NODATA = -9999.0

# fractional source indices this close to an integer are snapped, so that
# resampling onto a cell-aligned geometry is exact despite float rounding
_SNAP_EPS = 1e-9


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


class CellIndex(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True)
class GridGeometry:
    """Placement of a regular square-celled grid in world coordinates."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")
        if self.n_cols < 1 or self.n_rows < 1:
            raise ValueError(
                f"grid must be at least 1x1, got {self.n_cols}x{self.n_rows}"
            )

    def cell_center(self, cell: CellIndex) -> tuple[float, float]:
        """World coordinates of a cell's center."""
        x = self.origin_x + (cell.col + 0.5) * self.cell_size
        y = self.origin_y + (self.n_rows - cell.row - 0.5) * self.cell_size
        return x, y

    def center_point(self) -> tuple[float, float]:
        """World coordinates of the grid's midpoint."""
        return (
            self.origin_x + 0.5 * self.n_cols * self.cell_size,
            self.origin_y + 0.5 * self.n_rows * self.cell_size,
        )


def world_to_cell(geom: GridGeometry, x: float, y: float) -> CellIndex | None:
    """Cell containing world point (x, y), or None when out of bounds.

    Left/bottom edges are inclusive, right/top edges exclusive; out of
    bounds is a regular result, never clamped.
    """
    u = (x - geom.origin_x) / geom.cell_size
    v = (y - geom.origin_y) / geom.cell_size
    col = math.floor(u)
    row_b = math.floor(v)
    if col < 0 or col >= geom.n_cols or row_b < 0 or row_b >= geom.n_rows:
        return None
    return CellIndex(col=col, row=geom.n_rows - 1 - row_b)


class RasterGrid:
    """A georeferenced grid of heights (meters) or intensities (gray levels).

    ``values`` is a read-only float64 array of shape (n_rows, n_cols).
    """

    def __init__(self, geometry: GridGeometry, values, nodata: float = DEFAULT_NODATA):
        arr = np.array(values, dtype=np.float64, order="C", copy=True)
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
        return np.isfinite(self.values) & (self.values != self.nodata)

    def nan_values(self) -> np.ndarray:
        """Float copy with every invalid cell replaced by NaN."""
        out = self.values.copy()
        out[~self.valid_mask()] = np.nan
        return out

    def __repr__(self):
        g = self.geometry
        return (
            f"RasterGrid({g.n_cols}x{g.n_rows} cells of {g.cell_size} at "
            f"({g.origin_x}, {g.origin_y}), nodata={self.nodata})"
        )


def _snap(a: np.ndarray) -> np.ndarray:
    near = np.rint(a)
    return np.where(np.abs(a - near) < _SNAP_EPS, near, a)


def _source_indices(src_geom: GridGeometry, target: GridGeometry):
    """Fractional (col, row-from-bottom) coords of target cell centers in src.

    Integer coordinate k means the center of source column/row k.
    """
    xs = target.origin_x + (np.arange(target.n_cols) + 0.5) * target.cell_size
    ys = target.origin_y + (target.n_rows - np.arange(target.n_rows) - 0.5) * target.cell_size
    gx = _snap((xs - src_geom.origin_x) / src_geom.cell_size - 0.5)
    gyb = _snap((ys - src_geom.origin_y) / src_geom.cell_size - 0.5)
    return np.meshgrid(gx, gyb)  # each (n_rows_t, n_cols_t)


def resample(src: RasterGrid, target: GridGeometry, method: str = "bilinear") -> RasterGrid:
    """Resample a grid onto a target geometry.

    ``nearest`` takes the value of the containing source cell, propagating
    nodata directly.  ``bilinear`` interpolates the four surrounding cell
    centers; when any of the four is invalid it falls back to the nearest
    valid one of the four, and to nodata when none is valid.  Onto the
    source's own geometry both are exact, so ``src`` itself is returned.
    """
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resampling method {method!r}")
    if target == src.geometry:
        return src
    if method == "nearest":
        return _resample_nearest(src, target)
    return _resample_bilinear(src, target)


def _resample_nearest(src: RasterGrid, target: GridGeometry) -> RasterGrid:
    g = src.geometry
    xs = target.origin_x + (np.arange(target.n_cols) + 0.5) * target.cell_size
    ys = target.origin_y + (target.n_rows - np.arange(target.n_rows) - 0.5) * target.cell_size
    u, v = np.meshgrid((xs - g.origin_x) / g.cell_size, (ys - g.origin_y) / g.cell_size)
    col = np.floor(u).astype(np.int64)
    row_b = np.floor(v).astype(np.int64)
    inside = (col >= 0) & (col < g.n_cols) & (row_b >= 0) & (row_b < g.n_rows)
    row = g.n_rows - 1 - np.clip(row_b, 0, g.n_rows - 1)
    col_c = np.clip(col, 0, g.n_cols - 1)
    out = np.where(inside, src.values[row, col_c], src.nodata)
    return RasterGrid(target, out, src.nodata)


def _resample_bilinear(src: RasterGrid, target: GridGeometry) -> RasterGrid:
    g = src.geometry
    vals = src.values
    valid = src.valid_mask()
    gx, gyb = _source_indices(g, target)
    c0 = np.floor(gx).astype(np.int64)
    rb0 = np.floor(gyb).astype(np.int64)
    fx = gx - c0
    fy = gyb - rb0

    def corner(dc, drb):
        c = c0 + dc
        rb = rb0 + drb
        inb = (c >= 0) & (c < g.n_cols) & (rb >= 0) & (rb < g.n_rows)
        cc = np.clip(c, 0, g.n_cols - 1)
        r = g.n_rows - 1 - np.clip(rb, 0, g.n_rows - 1)
        v = vals[r, cc]
        ok = inb & valid[r, cc]
        return v, ok

    v00, ok00 = corner(0, 0)
    v10, ok10 = corner(1, 0)
    v01, ok01 = corner(0, 1)
    v11, ok11 = corner(1, 1)

    all4 = ok00 & ok10 & ok01 & ok11
    bil = (
        (1 - fx) * (1 - fy) * v00
        + fx * (1 - fy) * v10
        + (1 - fx) * fy * v01
        + fx * fy * v11
    )

    # fallback: nearest valid support corner strictly within one cell of
    # the sample point.  The strict bound keeps identity resampling exact:
    # a point on an invalid cell's center has no eligible neighbor (the
    # others sit at distance >= 1) and stays nodata.  Exact hits (fx=fy=0)
    # route here too, resolving to the hit corner at distance zero.
    cand_v = np.stack([v00, v10, v01, v11])
    cand_d = np.stack(
        [
            fx**2 + fy**2,
            (1 - fx) ** 2 + fy**2,
            fx**2 + (1 - fy) ** 2,
            (1 - fx) ** 2 + (1 - fy) ** 2,
        ]
    )
    cand_ok = np.stack([ok00, ok10, ok01, ok11]) & (cand_d < 1.0)
    cand_d = np.where(cand_ok, cand_d, np.inf)
    pick = np.argmin(cand_d, axis=0)
    near_v = np.take_along_axis(cand_v, pick[None], axis=0)[0]
    any_ok = cand_ok.any(axis=0)

    exact = (fx == 0) & (fy == 0)
    out = np.where(all4 & ~exact, bil, np.where(any_ok, near_v, src.nodata))
    return RasterGrid(target, out, src.nodata)


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


def read_asc(path) -> RasterGrid:
    """Read an ASCII-grid file.

    Header lines must appear in order: ncols, nrows, xllcorner, yllcorner,
    cellsize, then an optional NODATA_value line (default -9999), then
    nrows rows of ncols whitespace-separated numbers, top row first.  Blank
    lines are skipped.  Header values must be finite, and cellsize > 0.

    The data block is parsed by numpy's C text reader (``np.loadtxt``).
    A block it rejects, or whose shape is wrong, is parsed again row by row
    with ``float()``, which accepts spellings such as ``1_0`` and names the
    bad token or row in the error; both keep ``float()``'s token grammar.
    """
    with open(path, "r", encoding="ascii") as f, decode_errors_as(AsciiGridError, path, "ascii"):
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
        values = _read_block(f, path, n_rows, n_cols)

    geom = GridGeometry(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        n_cols=n_cols,
        n_rows=n_rows,
    )
    return RasterGrid(geom, values, nodata)


def _next_line(f) -> str:
    """The next non-blank line of ``f``, stripped; ``""`` at end of file."""
    for raw in iter(f.readline, ""):
        line = raw.strip()
        if line:
            return line
    return ""


def _read_block(f, path, n_rows: int, n_cols: int) -> np.ndarray:
    """Parse the data block from ``f``'s position with ``np.loadtxt``.

    An empty block (``loadtxt`` would warn), a rejected one and one of the
    wrong shape go to ``_read_rows``, which raises the error or parses what
    only ``float()`` accepts.
    """
    data_start = f.tell()
    if _next_line(f):
        f.seek(data_start)
        try:
            values = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (n_rows, n_cols):
                return values
    f.seek(data_start)
    return _read_rows(f, path, n_rows, n_cols)


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


def write_asc(grid: RasterGrid, path) -> None:
    """Write in ASCII-grid format, values printed with 6 decimals.

    Each row is one ``%`` of a ``%.6f`` row template, so every token is
    exactly ``f"{v:.6f}"``.  NODATA_value is written ``:g`` when that reads
    back exactly, else as ``repr``; a nodata whose ``%.6f`` cell token reads
    back as another value (``-1e-7``) raises ``ValueError``.
    """
    g = grid.geometry
    nodata = grid.nodata
    if float("%.6f" % nodata) != nodata and not math.isnan(nodata):
        raise ValueError(f"nodata {nodata!r} would be written as {'%.6f' % nodata}")
    g_token = f"{nodata:g}"
    nodata_token = g_token if float(g_token) == nodata else repr(nodata)
    row_fmt = " ".join(["%.6f"] * g.n_cols) + "\n"
    with open(path, "w", encoding="ascii") as f:
        f.write(f"ncols {g.n_cols}\n")
        f.write(f"nrows {g.n_rows}\n")
        f.write(f"xllcorner {g.origin_x:.6f}\n")
        f.write(f"yllcorner {g.origin_y:.6f}\n")
        f.write(f"cellsize {g.cell_size:.6f}\n")
        f.write(f"NODATA_value {nodata_token}\n")
        for row in grid.values:
            f.write(row_fmt % tuple(row.tolist()))


def write_pgm(grid: RasterGrid, path) -> None:
    """Write an 8-bit P2 PGM preview: linear min-max stretch, nodata as 0.

    A constant-valued grid renders its valid cells as 255 so they stay
    distinguishable from nodata.
    """
    valid = grid.valid_mask()
    gray = np.zeros(grid.values.shape, dtype=np.int64)
    if valid.any():
        vmin = grid.values[valid].min()
        vmax = grid.values[valid].max()
        if vmax > vmin:
            scaled = np.rint((grid.values - vmin) / (vmax - vmin) * 255.0)
            gray[valid] = scaled[valid].astype(np.int64)
        else:
            gray[valid] = 255
    row_fmt = " ".join(["%d"] * grid.geometry.n_cols) + "\n"
    with open(path, "w", encoding="ascii") as f:
        f.write("P2\n")
        f.write(f"{grid.geometry.n_cols} {grid.geometry.n_rows}\n")
        f.write("255\n")
        for row in gray:
            f.write(row_fmt % tuple(row.tolist()))
