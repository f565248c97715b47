import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from dsmfuse import cli, fusion, pairsel, raster
from dsmfuse.cli import main
from dsmfuse.fusion import FusionConfig, adaptive_median_fuse, median_fuse
from dsmfuse.pairsel import PairGate
from dsmfuse.raster import GridGeometry, RasterGrid, read_asc, resample, write_asc
from dsmfuse.register import AlignConfig, align
from dsmfuse.rpc import DEFAULT_METERS_PER_UNIT, ray_angle, viewing_ray, write_rpc
from dsmfuse.synth import Building, DegradeSpec, SceneSpec, degrade, gen_scene

from conftest import grid_of, linear_ray_model

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


def hill_grid(n=40, amplitude=20.0, offset=0.0, dx=0.0):
    geom = GridGeometry(0, 0, 1.0, n, n)
    xs = (np.arange(n) + 0.5)
    ys = (n - np.arange(n) - 0.5)
    X, Y = np.meshgrid(xs, ys)
    h = amplitude * np.exp(-((X - n / 2 - dx) ** 2 + (Y - n / 2) ** 2) / (2 * (n / 4) ** 2))
    return RasterGrid(geom, h + offset)


def write_text_grid(path, row, n_rows, xll=0.0, nodata="-9999"):
    """An ASCII grid of ``n_rows`` copies of the data line ``row``, unit cells, at (xll, 0)."""
    path.write_text(f"ncols {len(row.split())}\nnrows {n_rows}\nxllcorner {xll}\nyllcorner 0\n"
                    f"cellsize 1\nNODATA_value {nodata}\n" + f"{row}\n" * n_rows)


def run_interpreter(*args, cwd=None):
    """``python ARGS`` in a fresh interpreter that imports this dsmfuse, its
    stdout and stderr through pipes, buffered as by default, so an output
    the process fails to flush is lost."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def run_python(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter."""
    return run_interpreter("-c", f"import sys; {code}", *args)


def run_cli(*args, cwd=None):
    """``python -m dsmfuse.cli ARGS``: the process entry point, ``cli.run``."""
    return run_interpreter("-m", "dsmfuse.cli", *args, cwd=cwd)


def set_scene_line(scene, line):
    """Put ``key=value`` in the scene file in place of its key's line; a building is added."""
    key = line.partition("=")[0]
    kept = [ln for ln in scene.read_text().splitlines() if key == "building" or ln.partition("=")[0] != key]
    scene.write_text("\n".join([*kept, line]) + "\n")


def set_rpc_value(path, key, token):
    """Put ``key: token`` in the RPC file in place of its key's line; that line's number."""
    lines = path.read_text().splitlines()
    lineno = next(i for i, ln in enumerate(lines, start=1) if ln.startswith(key + ":"))
    lines[lineno - 1] = f"{key}: {token}"
    path.write_text("\n".join(lines) + "\n")
    return lineno


@pytest.fixture
def scene_dir(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(
        "seed=11\nwidth=40\nheight=30\ncell_size=1.0\n"
        "ground_height=0.0\nground_intensity=60\n"
        "building=6,5,10,8,22.0,170\n"
        "building=24,15,8,10,8.0,220\n"
    )
    return scene


class TestFuse:
    def test_median_single_layer_identity(self, tmp_path):
        src = hill_grid()
        layer = tmp_path / "layer.asc"
        write_asc(src, layer)
        out = tmp_path / "fused.asc"
        code = main(["fuse", "--layers", str(layer), "--mode", "median",
                     "--out", str(out)])
        assert code == 0
        assert np.array_equal(read_asc(out).values, read_asc(layer).values)
        assert out.with_suffix(".pgm").exists()
        assert (tmp_path / "fused.asc.manifest.json").exists()

    def test_degenerate_gamma_matches_median_bytes(self, tmp_path, rng):
        for i in range(3):
            vals = rng.normal(15, 4, size=(20, 20))
            vals[rng.random((20, 20)) < 0.1] = -9999.0
            write_asc(grid_of(vals), tmp_path / f"l{i}.asc")
        write_asc(grid_of(rng.uniform(0, 255, (20, 20))), tmp_path / "ortho.asc")
        layers = [str(tmp_path / f"l{i}.asc") for i in range(3)]

        out_m = tmp_path / "med.asc"
        out_a = tmp_path / "ada.asc"
        assert main(["fuse", "--layers", *layers, "--mode", "median",
                     "--out", str(out_m)]) == 0
        assert main(["fuse", "--layers", *layers, "--mode", "adaptive",
                     "--ortho", str(tmp_path / "ortho.asc"),
                     "--gamma", "0.999999", "--out", str(out_a)]) == 0
        assert out_m.read_bytes() == out_a.read_bytes()

    def test_adaptive_without_ortho_exit_4(self, tmp_path, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError(f"read {path} before checking --ortho")

        write_asc(hill_grid(), tmp_path / "l.asc")
        monkeypatch.setattr(cli, "read_asc", no_read)
        monkeypatch.setattr(cli, "GridReader", no_read)
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"),
                     "--mode", "adaptive", "--out", str(tmp_path / "o.asc")])
        assert code == 4
        assert "--ortho" in capsys.readouterr().err
        assert not (tmp_path / "o.asc").exists()

    def test_out_named_like_its_preview_exit_4(self, tmp_path, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError(f"read {path} before checking --out")

        write_asc(hill_grid(), tmp_path / "l.asc")
        monkeypatch.setattr(cli, "read_asc", no_read)
        monkeypatch.setattr(cli, "GridReader", no_read)
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"), "--mode", "median",
                     "--out", str(tmp_path / "fused.pgm")])
        assert code == 4
        assert "overwritten by its .pgm preview" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.asc"]

    def test_unreadable_layer_exit_2(self, tmp_path):
        code = main(["fuse", "--layers", str(tmp_path / "missing.asc"),
                     "--out", str(tmp_path / "o.asc")])
        assert code == 2

    def test_disjoint_geometry_exit_3(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "l.asc")
        far = RasterGrid(GridGeometry(5000.0, 5000.0, 1.0, 10, 10), np.zeros((10, 10)))
        write_asc(far, tmp_path / "far.asc")
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"), str(tmp_path / "far.asc"),
                     "--out", str(tmp_path / "o.asc")])
        assert code == 3
        assert not (tmp_path / "o.asc").exists()

    def test_heights_past_half_the_largest_double_stay_valid(self, tmp_path, capsys):
        # a one-layer median is 0.5 * (v + v), whose sum overflows at +-1e308
        write_asc(grid_of([[-1e308], [0.0], [1e308]]), tmp_path / "big.asc")
        out = tmp_path / "fused.asc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fuse", "--mode", "median", "--layers", str(tmp_path / "big.asc"),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = out.read_text().splitlines()[6:]
        assert rows == ["%.6f" % v for v in (-1e308, 0.0, 1e308)]
        # the stretch over a span past the largest double runs on halves: 0.5 * 255 rounds to 128
        assert out.with_suffix(".pgm").read_text() == "P2\n1 3\n255\n0\n128\n255\n"

    def test_zero_medians_print_alike_in_either_layer_order(self, tmp_path):
        # 0.0 and -0.0 sort as equal, so either may be the middle candidate
        for name, v in (("pos", 0.0), ("neg", -0.0), ("five", 5.0)):
            write_asc(grid_of(np.full((3, 1), v)), tmp_path / f"{name}.asc")
        fused = []
        for order in (("pos", "neg", "five"), ("neg", "pos", "five")):
            out = tmp_path / f"{'_'.join(order)}.asc"
            layers = [str(tmp_path / f"{name}.asc") for name in order]
            assert main(["fuse", "--mode", "median", "--layers", *layers, "--out", str(out)]) == 0
            fused.append(out.read_bytes())
        assert fused[0] == fused[1]
        assert fused[0].endswith(b"0.000000\n" * 3) and b"-0.000000" not in fused[0]

    def test_rerun_byte_identical(self, tmp_path, rng):
        vals = rng.normal(10, 3, size=(25, 25))
        write_asc(grid_of(vals), tmp_path / "l.asc")
        write_asc(grid_of(rng.uniform(0, 255, (25, 25))), tmp_path / "ortho.asc")
        args = ["fuse", "--layers", str(tmp_path / "l.asc"),
                "--mode", "adaptive", "--ortho", str(tmp_path / "ortho.asc")]
        assert main(args + ["--out", str(tmp_path / "a.asc")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.asc")]) == 0
        assert (tmp_path / "a.asc").read_bytes() == (tmp_path / "b.asc").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_nan_token_bytes_match_full_resampling(self, tmp_path, rng, mode):
        # an input on the target geometry is streamed as read, so a NaN cell
        # stays NaN where a full resampling would write nodata; the fused
        # bytes must not notice
        names = [f"l{i}.asc" for i in range(3)] + ["ortho.asc"]
        grids = []
        for i in range(3):
            vals = rng.normal(15, 4, size=(12, 10))
            vals[rng.random((12, 10)) < 0.1] = -9999.0
            vals[i, 2 * i] = np.nan
            grids.append(vals)
        ortho = rng.uniform(0, 255, (12, 10))
        ortho[5, 5] = np.nan
        grids.append(ortho)
        for kind in ("short", "full"):
            (tmp_path / kind).mkdir()
            for name, vals in zip(names, grids):
                if kind == "full":
                    write_asc(grid_of(vals), tmp_path / kind / name)
                    continue
                with open(tmp_path / kind / name, "wb") as f:  # NaN as a nan token
                    f.write(raster.asc_header(grid_of(vals).geometry, -9999.0).encode())
                    raster.write_rows(f, vals, np.nan)
            assert main(["fuse", "--layers", *(str(tmp_path / kind / n) for n in names[:3]),
                         "--mode", mode, "--ortho", str(tmp_path / kind / "ortho.asc"),
                         "--out", str(tmp_path / f"{kind}.asc")]) == 0
        assert "nan" in (tmp_path / "short" / "l0.asc").read_text().split()
        for ext in (".asc", ".pgm"):
            short = (tmp_path / "short").with_suffix(ext).read_bytes()
            assert short == (tmp_path / "full").with_suffix(ext).read_bytes()

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_off_grid_layer_fuses_alike_whatever_its_nodata(self, tmp_path, mode):
        # a layer half a cell east of alternating +-1 columns resamples to exact zeros
        # inside; with NODATA_value 0 they are heights all the same
        write_text_grid(tmp_path / "flat.asc", "5 5 5 5 5 5", 4)
        write_text_grid(tmp_path / "ortho.asc", "100 100 100 100 100 100", 4)
        rows = {}
        for nodata in ("0", "-9999"):
            write_text_grid(tmp_path / f"east{nodata}.asc", "1 -1 1 -1 1 -1", 4, 0.5, nodata)
            out = tmp_path / f"fused{nodata}.asc"
            assert main(["fuse", "--layers", str(tmp_path / "flat.asc"), str(tmp_path / f"east{nodata}.asc"),
                         "--mode", mode, "--ortho", str(tmp_path / "ortho.asc"), "--out", str(out)]) == 0
            rows[nodata] = out.read_text().splitlines()[6:]
        assert rows["0"] == rows["-9999"]
        if mode == "median":  # the median of 5 and an interpolated 0
            assert rows["0"][1:] == ["3.000000" + " 2.500000" * 5] * 3

    def test_jobs_zero_exit_4(self, tmp_path, capsys):
        write_asc(hill_grid(), tmp_path / "l.asc")
        write_asc(hill_grid(), tmp_path / "ortho.asc")
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"), "--mode", "adaptive",
                     "--ortho", str(tmp_path / "ortho.asc"), "--jobs", "0",
                     "--out", str(tmp_path / "o.asc")])
        assert code == 4
        assert "jobs" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.asc", "ortho.asc"]

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_empty_out_is_missing_exit_4(self, tmp_path, capsys, monkeypatch, via):
        def no_read(path):
            raise AssertionError(f"read {path} before checking --out")

        write_asc(hill_grid(), tmp_path / "l.asc")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("out=\n")
        monkeypatch.setattr(cli, "read_asc", no_read)
        monkeypatch.setattr(cli, "GridReader", no_read)
        extra = ["--config", str(cfg)] if via == "config" else ["--out", ""]
        assert main(["fuse", "--layers", str(tmp_path / "l.asc"), *extra]) == 4
        assert "--out is required" in capsys.readouterr().err

    def test_bad_mode_exit_4(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "l.asc")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mode=blend\n")
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"),
                     "--config", str(cfg), "--out", str(tmp_path / "o.asc")])
        assert code == 4


def _write_stack(tmp_path, rng, n_rows, n_cols, n_layers, shift_last=True):
    """Layer files with nodata cells and a NaN token, and an ortho file.

    With ``shift_last`` the last layer sits half a cell east of the others,
    so it is read whole and resampled while the other inputs are streamed.
    Returns the layer paths and the ortho path.
    """
    paths = []
    for i in range(n_layers):
        vals = rng.normal(15, 4, size=(n_rows, n_cols))
        vals[rng.random((n_rows, n_cols)) < 0.1] = -9999.0
        vals[i % n_rows, 0] = np.nan
        origin = (0.5, 0.0) if shift_last and i == n_layers - 1 else (0.0, 0.0)
        paths.append(str(tmp_path / f"l{i}.asc"))
        write_asc(grid_of(vals, origin=origin), paths[-1])
    ortho = rng.uniform(0, 255, (n_rows, n_cols))
    ortho[rng.random((n_rows, n_cols)) < 0.05] = -9999.0
    write_asc(grid_of(ortho), tmp_path / "ortho.asc")
    return paths, str(tmp_path / "ortho.asc")


def _no_fork(monkeypatch):
    def fork():
        raise OSError("fork called")

    monkeypatch.setattr(os, "fork", fork)


def _fuse_args(layers, ortho, mode, out, *extra):
    ortho_args = ["--ortho", ortho] if mode == "adaptive" else []
    return ["fuse", "--layers", *layers, "--mode", mode, *ortho_args, *extra, "--out", str(out)]


class TestFuseStream:
    """fuse reads, fuses and writes one row strip at a time."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_any_strip_height_gives_same_bytes(self, tmp_path, rng, monkeypatch, mode, jobs):
        n_rows, n_cols = 23, 9
        layers, ortho = _write_stack(tmp_path, rng, n_rows, n_cols, 3)
        n_grids = 4 if mode == "adaptive" else 3
        outputs = []
        for rows in (n_rows + 10, 1, 7):
            monkeypatch.setattr(raster, "_STRIP_BYTES", rows * n_cols * n_grids * 8)
            assert raster.strip_rows(n_cols, n_grids) == rows
            out = tmp_path / f"fused{rows}.asc"
            assert main(_fuse_args(layers, ortho, mode, out, "--jobs", jobs)) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".pgm").read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_jobs_fuse_in_process_same_bytes(self, tmp_path, rng, monkeypatch, mode):
        layers, ortho = _write_stack(tmp_path, rng, 23, 9, 3)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 1)  # one-row blocks: 23 per strip
        _no_fork(monkeypatch)
        outputs = []
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"fused{jobs}.asc"
            assert main(_fuse_args(layers, ortho, mode, out, "--jobs", jobs)) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".pgm").read_bytes()))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_peak_memory_flat_in_layer_count(self, tmp_path, rng, mode):
        # numpy reports its buffers to tracemalloc, so the traced peak
        # covers every array a fuse holds
        import tracemalloc

        n = 400
        layers, ortho = _write_stack(tmp_path, rng, n, n, 8, shift_last=False)
        peaks = []
        for n_layers in (2, 8):
            tracemalloc.start()
            try:
                out = tmp_path / f"fused{n_layers}.asc"
                assert main(_fuse_args(layers[:n_layers], ortho, mode, out)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < n * n * 8, peaks  # less than one grid

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_peak_memory_flat_in_grid_size(self, tmp_path, rng, mode):
        import tracemalloc

        peaks = []
        for n in (200, 800):
            (tmp_path / str(n)).mkdir()
            layers, ortho = _write_stack(tmp_path / str(n), rng, n, n, 5, shift_last=False)
            tracemalloc.start()
            try:
                out = tmp_path / str(n) / "fused.asc"
                assert main(_fuse_args(layers, ortho, mode, out)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 800 * 800 * 4, peaks  # less than half a fused grid

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    @pytest.mark.parametrize("fault", ["token", "extra_row"])
    def test_bad_row_mid_stream_exit_2_leaves_nothing(
        self, tmp_path, capsys, monkeypatch, rng, mode, fault
    ):
        n_rows, n_cols = 400, 6
        layers, ortho = _write_stack(tmp_path, rng, n_rows, n_cols, 5)
        bad = Path(layers[3])
        lines = bad.read_text().splitlines(keepends=True)
        if fault == "token":
            lines[6 + 390] = lines[6 + 390].replace(" ", " oops ", 1)
        else:
            lines.append(lines[-1])
        bad.write_text("".join(lines))
        with pytest.raises(raster.AsciiGridError) as expected:
            read_asc(bad)
        written = []

        def counting_write_rows(f, rows, *args):
            written.append(len(rows))
            raster.write_rows(f, rows, *args)

        monkeypatch.setattr(cli, "write_rows", counting_write_rows)
        monkeypatch.setattr(raster, "_STRIP_BYTES", 64 * n_cols * 6 * 8)
        before = sorted(tmp_path.iterdir())
        assert main(_fuse_args(layers, ortho, mode, tmp_path / "fused.asc")) == 2
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert sum(written) > 0  # the error came after the first strips were written
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_float_only_token_mid_stream(self, tmp_path, monkeypatch, rng, mode):
        # the reader falls back to float() for the whole block and serves
        # the remaining strips from it
        layers, ortho = _write_stack(tmp_path, rng, 200, 6, 3)
        monkeypatch.setattr(raster, "_STRIP_BYTES", 16 * 6 * 4 * 8)
        path = Path(layers[1])
        lines = path.read_text().splitlines(keepends=True)
        lines[6 + 150] = "10.0 1_0.5 " + lines[6 + 150].split(" ", 2)[2]
        path.write_text("".join(lines))
        assert main(_fuse_args(layers, ortho, mode, tmp_path / "underscore.asc")) == 0
        path.write_text("".join(lines).replace("1_0.5", "10.5"))
        assert main(_fuse_args(layers, ortho, mode, tmp_path / "plain.asc")) == 0
        for ext in (".asc", ".pgm"):
            got = (tmp_path / "underscore").with_suffix(ext).read_bytes()
            assert got == (tmp_path / "plain").with_suffix(ext).read_bytes()


def _preview(fused: RasterGrid) -> str:
    """The PGM text of a fused grid: a min-max stretch of its valid cells to
    0-255, rounded half to even, nodata black, a constant grid white."""
    vals, ok = fused.values, fused.valid_mask()
    gray = np.zeros(vals.shape, dtype=np.int64)
    if ok.any():
        lo, hi = vals[ok].min(), vals[ok].max()
        gray[ok] = 255 if hi == lo else np.rint((vals[ok] - lo) / (hi - lo) * 255.0)
    rows = "".join(" ".join(map(str, row)) + "\n" for row in gray.tolist())
    return f"P2\n{vals.shape[1]} {vals.shape[0]}\n255\n{rows}"


class TestFusePreview:
    """fuse's PGM preview stretches over the valid cells of the whole grid."""

    def fuse(self, tmp_path, mode, layers, ortho, nodata=-9999.0):
        """Write the grids, run fuse; the PGM text and the library's fused grid."""
        paths = []
        for i, vals in enumerate([*layers, ortho]):
            paths.append(str(tmp_path / f"g{i}.asc"))
            write_asc(grid_of(vals, nodata=nodata), paths[-1])
        out = tmp_path / "fused.asc"
        assert main(_fuse_args(paths[:-1], paths[-1], mode, out)) == 0
        stack = [read_asc(p) for p in paths[:-1]]
        fused = median_fuse(stack) if mode == "median" else \
            adaptive_median_fuse(stack, read_asc(paths[-1]))
        return out.with_suffix(".pgm").read_text(), fused

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_all_nodata_renders_black(self, tmp_path, rng, mode):
        layers = [np.full((9, 7), -9999.0) for _ in range(3)]
        layers[1][2, 3] = np.nan
        pgm, _ = self.fuse(tmp_path, mode, layers, rng.uniform(0, 255, (9, 7)))
        assert pgm == "P2\n7 9\n255\n" + "0 0 0 0 0 0 0\n" * 9

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_constant_renders_white(self, tmp_path, rng, mode):
        layers = [np.full((9, 7), 7.25) for _ in range(3)]
        layers[0][rng.random((9, 7)) < 0.3] = -9999.0  # the other layers fill the holes
        pgm, _ = self.fuse(tmp_path, mode, layers, rng.uniform(0, 255, (9, 7)))
        assert pgm == "P2\n7 9\n255\n" + "255 255 255 255 255 255 255\n" * 9

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_nan_nodata(self, tmp_path, rng, mode):
        layers = [rng.normal(15, 4, (12, 10)) for _ in range(3)]
        for vals in layers:
            vals[rng.random((12, 10)) < 0.2] = np.nan
            vals[0, :4] = np.nan  # no layer covers these cells
        ortho = rng.uniform(0, 255, (12, 10))
        pgm, fused = self.fuse(tmp_path, mode, layers, ortho, nodata=np.nan)
        assert "NODATA_value nan" in (tmp_path / "fused.asc").read_text()
        assert pgm == _preview(fused)
        assert pgm.splitlines()[3].startswith("0 0 0 0 ") == (mode == "median")

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_extremes_only_in_last_strip(self, tmp_path, rng, monkeypatch, mode):
        # one row per strip; the last row holds the lowest and the highest
        # height, on ortho intensities far from every other row's
        n_rows, n_cols = 10, 8
        layers = [rng.uniform(10, 20, (n_rows, n_cols)) for _ in range(3)]
        for vals in layers:
            vals[-1] = [0.0] * 4 + [100.0] * 4
            vals[rng.random((n_rows, n_cols)) < 0.1] = -9999.0
        ortho = rng.uniform(0, 50, (n_rows, n_cols))
        ortho[-1] = [250.0] * 4 + [150.0] * 4
        monkeypatch.setattr(raster, "_STRIP_BYTES", 1)
        assert raster.strip_rows(n_cols, 8) == 1
        pgm, fused = self.fuse(tmp_path, mode, layers, ortho)
        assert pgm == _preview(fused)
        ok = fused.valid_mask()
        assert fused.values[:-1][ok[:-1]].min() > 0.0
        assert fused.values[:-1][ok[:-1]].max() < 100.0
        assert pgm.splitlines()[-1].split().count("0") > 0
        assert pgm.splitlines()[-1].split().count("255") > 0


class TestConfigFile:
    def test_config_supplies_flags_and_flags_override(self, tmp_path, rng):
        vals = rng.normal(10, 3, size=(15, 15))
        write_asc(grid_of(vals), tmp_path / "l.asc")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            f"layers={tmp_path / 'l.asc'}\n"
            "mode=median\n"
            f"out={tmp_path / 'from_config.asc'}\n"
        )
        assert main(["fuse", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.asc").exists()
        # explicit flag beats the file
        assert main(["fuse", "--config", str(cfg),
                     "--out", str(tmp_path / "flag_wins.asc")]) == 0
        assert (tmp_path / "flag_wins.asc").exists()

    def test_unknown_config_key_exit_4(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("not_a_flag=1\n")
        assert main(["fuse", "--config", str(cfg)]) == 4

    def test_missing_required_exit_4(self, tmp_path):
        assert main(["fuse", "--out", str(tmp_path / "o.asc")]) == 4

    @pytest.mark.parametrize("command", ["rank", "rpc"])
    def test_dz_probe_is_not_a_key_exit_4(self, tmp_path, capsys, command):
        # the ray probe is a fixed 100 m of height, not a setting
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dz_probe=100\n")
        assert main([command, "--config", str(cfg)]) == 4
        assert capsys.readouterr().err \
            == f"error: config key 'dz_probe' is not a flag of 'dsmfuse {command}'\n"
        assert main([command, "--dz-probe=100"]) == 4
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --dz-probe=100\n")

    @pytest.mark.parametrize("command", ["fuse", "curve"])
    @pytest.mark.parametrize("line", ["resample_method=bilinear", "target_geometry=x.asc"])
    def test_removed_grid_keys_exit_4(self, tmp_path, capsys, command, line):
        # inputs are resampled bilinearly onto the first layer's grid, with no setting
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 4
        key, _, value = line.partition("=")
        assert capsys.readouterr().err \
            == f"error: config key '{key}' is not a flag of 'dsmfuse {command}'\n"
        flag = "--" + key.replace("_", "-")
        assert main([command, f"{flag}={value}"]) == 4
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag}={value}\n")

    def test_config_may_start_with_a_byte_order_mark(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "l.asc")
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(BOM + f"layers={tmp_path / 'l.asc'}\nout={tmp_path / 'c.asc'}\n".encode())
        assert main(["fuse", "--config", str(cfg)]) == 0
        assert main(["fuse", "--layers", str(tmp_path / "l.asc"), "--out", str(tmp_path / "f.asc")]) == 0
        assert (tmp_path / "c.asc").read_bytes() == (tmp_path / "f.asc").read_bytes()

    def test_crlf_comments_and_blank_lines(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "l.asc")
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(f"# fusion settings\r\nlayers={tmp_path / 'l.asc'}\r\n\r\n"
                        f"  # indented comment\r\nmode=median\r\nout={tmp_path / 'c.asc'}\r\n".encode())
        assert main(["fuse", "--config", str(cfg)]) == 0
        assert main(["fuse", "--layers", str(tmp_path / "l.asc"), "--out", str(tmp_path / "f.asc")]) == 0
        assert (tmp_path / "c.asc").read_bytes() == (tmp_path / "f.asc").read_bytes()

    def test_value_may_begin_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_asc(hill_grid(), tmp_path / "l.asc")
        (tmp_path / "cfg.txt").write_text("layers=l.asc\nout=-x.asc\n")
        assert main(["fuse", "--config", "cfg.txt"]) == 0
        assert read_asc(tmp_path / "-x.asc").geometry == hill_grid().geometry

    @pytest.mark.parametrize("value", ["a.asc, b.asc", "a.asc,b.asc", " a.asc  b.asc ", "a.asc ,,b.asc"])
    def test_list_value_splits_on_commas_and_whitespace(self, tmp_path, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"layers={value}\n")
        opts = cli._resolve(cli._build_parser().parse_args(["fuse", "--config", str(cfg)]), "fuse")
        assert opts.layers == ["a.asc", "b.asc"]

    def test_bad_value_names_key_and_argparse_reason(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# radius must be an int\nradius=2.5\n")
        assert main(["fuse", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: dsmfuse fuse ")
        assert err.endswith("\nerror: config key 'radius': argument --radius: invalid int value: '2.5'\n")

    @pytest.mark.parametrize("value, message", [
        ("a.asc, -h", "unrecognized arguments: -h"),
        ("a.asc --mode adaptive", "unrecognized arguments: --mode adaptive"),
        ("-a.asc", "argument --layers: expected at least one argument"),
    ], ids=["help", "other-flag", "first"])
    def test_list_token_beginning_with_dash_refused(self, tmp_path, capsys, monkeypatch, value, message):
        monkeypatch.setattr(cli, "GridReader", lambda path: pytest.fail(f"read {path}"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"layers={value}\nout={tmp_path / 'o.asc'}\n")
        assert main(["fuse", "--config", str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"\nerror: config key 'layers': {message}\n")


def _table_entries():
    return [(cmd, key) for cmd, (_, _, flags) in cli._COMMANDS.items() for key in flags]


def _valid_tokens(kwargs):
    """Values a flag accepts, as the strings given on the command line."""
    if "choices" in kwargs:
        return [kwargs["choices"][-1]]
    nargs = kwargs.get("nargs")
    count = nargs if isinstance(nargs, int) else 2 if nargs == "+" else 1
    floats = ["2.25", "-1.5", "3e2"]
    pool = {int: ["7", "-3", "12"], float: floats, cli.finite: floats,
            str: ["a.asc", "dir/b.asc", "c.asc"]}[kwargs.get("type", str)]
    return pool[:count]


def _bad_tokens(kwargs):
    """A config value the flag would reject, or None for a free string."""
    if "choices" in kwargs:
        return "bogus"
    if isinstance(kwargs.get("nargs"), int):
        return "1 2"
    if kwargs.get("nargs") == "+":
        return ""
    return {int: "2.5", float: "abc", cli.finite: "inf", str: None}[kwargs.get("type", str)]


class TestFlagTable:
    @pytest.mark.parametrize("command,key", _table_entries())
    def test_config_value_resolves_like_flag(self, tmp_path, command, key):
        kwargs = cli._COMMANDS[command][2][key][1]
        tokens = _valid_tokens(kwargs)
        parser = cli._build_parser()
        argv = [command, *tokens] if key == "action" else [command, cli._flag(key), *tokens]
        from_flag = cli._resolve(parser.parse_args(argv), command)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}={', '.join(tokens)}\n")
        from_cfg = cli._resolve(parser.parse_args([command, "--config", str(cfg)]), command)
        assert repr(getattr(from_cfg, key)) == repr(getattr(from_flag, key))
        assert vars(from_cfg) == vars(from_flag)

    @pytest.mark.parametrize("command,key", [
        (c, k) for c, k in _table_entries()
        if _bad_tokens(cli._COMMANDS[c][2][k][1]) is not None
    ])
    def test_bad_config_value_exit_4_before_reading(
        self, tmp_path, capsys, monkeypatch, command, key
    ):
        def no_read(*args):
            raise AssertionError("read an input before checking the config")

        for name in ("read_asc", "GridReader", "read_rpc", "read_pair_manifest",
                     "read_scene"):
            monkeypatch.setattr(cli, name, no_read)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}={_bad_tokens(cli._COMMANDS[command][2][key][1])}\n")
        assert main([command, "--config", str(cfg)]) == 4
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["fuse", "--mode", "median"],
        ["fuse", "--mode", "adaptive", "--ortho", "ortho.asc"],
        ["curve", "--ortho", "ortho.asc", "--truth", "truth.asc"],
    ], ids=["fuse-median", "fuse-adaptive", "curve"])
    def test_jobs_below_one_exit_4_before_reading(self, capsys, monkeypatch, argv, jobs):
        def no_read(path):
            raise AssertionError(f"read {path} before checking --jobs")

        monkeypatch.setattr(cli, "read_asc", no_read)
        monkeypatch.setattr(cli, "GridReader", no_read)
        code = main([*argv, "--layers", "l.asc", "--jobs", jobs, "--out", "o.asc"])
        assert code == 4
        assert "--jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fuse", "--mode", "adaptive", "--ortho", "ortho.asc"],
        ["curve", "--ortho", "ortho.asc", "--truth", "truth.asc"],
    ], ids=["fuse", "curve"])
    def test_gamma_one_exit_4_before_reading(self, capsys, monkeypatch, argv):
        def no_read(path):
            raise AssertionError(f"read {path} before checking --gamma")

        monkeypatch.setattr(cli, "read_asc", no_read)
        monkeypatch.setattr(cli, "GridReader", no_read)
        assert main([*argv, "--layers", "l.asc", "--gamma", "1", "--out", "o.asc"]) == 4
        assert "gamma must be in (0, 1), got 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--delta-s", "--delta-i"])
    @pytest.mark.parametrize("argv", [
        ["fuse", "--mode", "adaptive", "--ortho", "ortho.asc"],
        ["curve", "--ortho", "ortho.asc", "--truth", "truth.asc"],
    ], ids=["fuse", "curve"])
    def test_infinite_scale_exit_4_before_reading(self, capsys, monkeypatch, argv, flag):
        def no_read(path):
            raise AssertionError(f"read {path} before checking {flag}")

        monkeypatch.setattr(cli, "read_asc", no_read)
        monkeypatch.setattr(cli, "GridReader", no_read)
        assert main([*argv, "--layers", "l.asc", flag, "inf", "--out", "o.asc"]) == 4
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite and > 0, got inf\n"

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("argv, key, tokens", [
        (["rank", "--manifest", "pairs.csv", "--truth", "truth.asc", "--out", "o.csv"],
         "at", ["0", "0", "inf"]),
        (["rank", "--manifest", "pairs.csv", "--truth", "truth.asc", "--out", "o.csv"],
         "at", ["nan", "0", "0"]),
        *((["rpc", "project", "--rpc", "a.rpc"], key, ["nan"]) for key in "uvz"),
        *((["rpc", "invert", "--rpc", "a.rpc"], key, ["inf"]) for key in "sl"),
        (["rpc", "angle", "--rpc", "a.rpc", "--rpc-b", "b.rpc"], "u", ["inf"]),
    ])
    def test_non_finite_coordinate_exit_4_before_reading(
        self, tmp_path, capsys, monkeypatch, argv, key, tokens, given
    ):
        def no_read(*args):
            raise AssertionError("read an input before checking the coordinates")

        for name in ("read_asc", "GridReader", "read_rpc", "read_pair_manifest"):
            monkeypatch.setattr(cli, name, no_read)
        if given == "flag":
            argv, where = [*argv, f"--{key}", *tokens], ""
        else:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"{key}={', '.join(tokens)}\n")
            argv, where = [*argv, "--config", str(cfg)], f"config key {key!r}: "
        bad = next(t for t in tokens if t != "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.endswith(f"\nerror: {where}argument --{key}: invalid finite value: {bad!r}\n")

    @pytest.mark.parametrize("flag, message", [
        (["--threshold", "0"], "blunder_threshold must be > 0"),
        (["--max-search", "-1"], "max_search must be >= 0"),
    ], ids=["threshold", "max_search"])
    @pytest.mark.parametrize("argv", [
        ["rank", "--manifest", "pairs.csv", "--truth", "truth.asc"],
        ["eval", "--computed", "c.asc", "--truth", "truth.asc"],
        ["curve", "--layers", "l.asc", "--ortho", "ortho.asc", "--truth", "truth.asc"],
    ], ids=["rank", "eval", "curve"])
    def test_bad_align_flag_exit_4_before_reading(self, capsys, monkeypatch, argv, flag, message):
        def no_read(path):
            raise AssertionError(f"read {path} before checking the align flags")

        for name in ("read_asc", "GridReader", "read_pair_manifest"):
            monkeypatch.setattr(cli, name, no_read)
        assert main([*argv, *flag, "--out", "o.csv"]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["rank", "--manifest", "pairs.csv", "--truth", "truth.asc", "--out", "o.csv",
          "--top-k", "-1"], "top_k must be >= 0"),
        (["rank", "--manifest", "pairs.csv", "--truth", "truth.asc", "--out", "o.csv",
          "--min-angle", "40"], "need 0 <= min_angle < max_angle, got 40.0, 30.0"),
        (["rpc", "angle", "--rpc", "a.rpc", "--rpc-b", "b.rpc", "--u", "0", "--v", "0",
          "--z", "0", "--meters-per-unit", "0"], "meters_per_unit must be finite and > 0, got 0.0"),
    ], ids=["rank-top_k", "rank-min_angle", "angle-mpu"])
    def test_bad_gate_or_probe_flag_exit_4_before_reading(self, capsys, monkeypatch, argv, message):
        def no_read(path):
            raise AssertionError(f"read {path} before checking the gate and probe flags")

        for name in ("read_asc", "read_rpc", "read_pair_manifest"):
            monkeypatch.setattr(cli, name, no_read)
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["fuse", "--radius", "2.5"], "argument --radius: invalid int value: '2.5'"),
        (["fuse", "--layers", "l.asc", "--bogus"], "unrecognized arguments: --bogus"),
    ], ids=["bad-value", "unknown-flag"])
    def test_usage_error_exit_4(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "GridReader", lambda path: pytest.fail(f"read {path}"))
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: dsmfuse ")
        assert err.endswith(f"\nerror: {message}\n")

    @pytest.mark.parametrize("argv", [["--version"], ["fuse", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_defaults_come_from_the_library(self):
        fcfg, acfg, gate = FusionConfig(), AlignConfig(), PairGate()
        defaults = {c: {k: d for k, (d, _) in flags.items()}
                    for c, (_, _, flags) in cli._COMMANDS.items()}
        for command in ("fuse", "curve"):
            assert [defaults[command][k] for k in ("delta_s", "delta_i", "gamma", "radius")] \
                == [fcfg.delta_s, fcfg.delta_i, fcfg.gamma, fcfg.radius]
        for command in ("rank", "eval", "curve"):
            assert defaults[command]["threshold"] == acfg.blunder_threshold
            assert defaults[command]["max_search"] == acfg.max_search
        assert [defaults["rank"][k] for k in ("min_angle", "max_angle", "top_k")] \
            == [gate.min_angle, gate.max_angle, gate.top_k]
        for command in ("rank", "rpc"):
            assert defaults[command]["meters_per_unit"] == DEFAULT_METERS_PER_UNIT


class TestUndecodableInput:
    @pytest.mark.parametrize("kind,code", [
        ("asc", 2), ("rpc", 2), ("manifest", 2), ("config", 4), ("scene", 4),
    ])
    def test_exit_code_names_file_and_offset(self, tmp_path, capsys, scene_dir, kind, code):
        write_asc(hill_grid(), tmp_path / "truth.asc")
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        good = {
            "asc": (tmp_path / "truth.asc").read_bytes(),
            "rpc": (tmp_path / "a.rpc").read_bytes(),
            "manifest": b"id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\nA,B,a.rpc,a.rpc,x.asc\n",
            "config": b"mode=median\nout=o.asc\n",
            "scene": scene_dir.read_bytes(),
        }[kind]
        # the bad byte goes into the last line, past the first decoded chunk
        # of a large file, so a per-chunk offset would be wrong
        offset = good.rstrip(b"\n").rindex(b"\n") + 2
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(good[:offset] + b"\xe9" + good[offset + 1:])
        out = str(tmp_path / "out.csv")
        argv = {
            "asc": ["eval", "--computed", str(bad), "--truth", str(tmp_path / "truth.asc"),
                    "--out", out],
            "rpc": ["rpc", "project", "--rpc", str(bad), "--u", "0", "--v", "0", "--z", "0"],
            "manifest": ["rank", "--manifest", str(bad), "--truth", str(tmp_path / "truth.asc"),
                         "--out", out],
            "config": ["fuse", "--config", str(bad)],
            "scene": ["synth", "--scene", str(bad), "--out-dir", str(tmp_path / "o")],
        }[kind]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(bad) in err
        assert f"byte 0xe9 at offset {offset}" in err

    @pytest.mark.parametrize("kind,code", [("manifest", 2), ("config", 4), ("scene", 4)])
    def test_offset_after_a_byte_order_mark_counts_it(self, tmp_path, capsys, scene_dir, kind, code):
        # utf-8-sig decodes from past the mark: its own offset of the bad byte is 2, not 5
        good = {
            "manifest": b"id_a,id_b,rpc_a_path,rpc_b_path,dsm_path\n",
            "config": b"mode=median\n",
            "scene": scene_dir.read_bytes(),
        }[kind]
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(BOM + good[:2] + b"\xff" + good[2:])
        argv = {
            "manifest": ["rank", "--manifest", str(bad), "--truth", str(tmp_path / "t.asc"),
                         "--out", str(tmp_path / "o.csv")],
            "config": ["fuse", "--config", str(bad)],
            "scene": ["synth", "--scene", str(bad), "--out-dir", str(tmp_path / "o")],
        }[kind]
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {bad}: byte 0xff at offset 5 is not utf-8\n"


class TestRepeatedKey:
    """A key given twice in a key-value file is refused, naming both lines, before
    any grid is read or anything written: RPC files exit 2, config and scene files 4."""

    @pytest.mark.parametrize("kind,code", [("rpc", 2), ("rpc-case", 2), ("config", 4), ("scene", 4)])
    def test_exit_code_names_both_lines(self, tmp_path, capsys, monkeypatch, scene_dir, kind, code):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        bad = tmp_path / f"bad.{kind}"
        if kind.startswith("rpc"):  # the file's own SAMP_OFF is line 2
            first = "SAMP_OFF: 500" if kind == "rpc" else "samp_off: 500"
            bad.write_text(f"{first}\n" + (tmp_path / "a.rpc").read_text())
            argv = ["rpc", "project", "--rpc", str(bad), "--u", "0", "--v", "0", "--z", "0"]
            key, lines = "SAMP_OFF", (1, 2)
        elif kind == "config":
            bad.write_text("radius=1\nlayers=l.asc\nmode=median\nradius=5\nout=o.asc\n")
            argv, key, lines = ["fuse", "--config", str(bad)], "radius", (1, 4)
        else:
            bad.write_text(scene_dir.read_text() + "seed=12\n")
            argv = ["synth", "--scene", str(bad), "--out-dir", str(tmp_path / "o")]
            key, lines = "seed", (1, 9)

        def no_read(*args):
            raise AssertionError("read an input before refusing the repeated key")

        for name in ("read_asc", "GridReader", "read_pair_manifest"):
            monkeypatch.setattr(cli, name, no_read)
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bad}:{lines[1]}: key {key!r} was given on line {lines[0]} too\n"
        assert not (tmp_path / "o").exists()


class TestMissingOutDir:
    @pytest.mark.parametrize("argv", [
        ["fuse", "--layers", "l.asc", "--mode", "median"],
        ["rank", "--manifest", "pairs.csv", "--truth", "truth.asc"],
        ["eval", "--computed", "c.asc", "--truth", "truth.asc"],
        ["curve", "--layers", "l.asc", "--ortho", "ortho.asc", "--truth", "truth.asc"],
    ], ids=["fuse", "rank", "eval", "curve"])
    def test_exit_2_naming_it_before_reading(self, tmp_path, capsys, monkeypatch, argv):
        def no_read(*args):
            raise AssertionError("read an input before checking the --out directory")

        for name in ("read_asc", "GridReader", "read_rpc", "read_pair_manifest"):
            monkeypatch.setattr(cli, name, no_read)
        missing = tmp_path / "nodir"
        assert main([*argv, "--out", str(missing / "o.out")]) == 2
        assert capsys.readouterr().err == f"error: output directory {missing} does not exist\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["fuse", "--layers", "l.asc", "--mode", "median"],
        ["rank", "--manifest", "pairs.csv", "--truth", "truth.asc"],
        ["eval", "--computed", "c.asc", "--truth", "truth.asc"],
        ["curve", "--layers", "l.asc", "--ortho", "ortho.asc", "--truth", "truth.asc"],
    ], ids=["fuse", "rank", "eval", "curve"])
    def test_out_that_is_a_directory_exit_2_before_reading(self, tmp_path, capsys, monkeypatch, argv):
        def no_read(*args):
            raise AssertionError("read an input before checking --out")

        for name in ("read_asc", "GridReader", "read_rpc", "read_pair_manifest"):
            monkeypatch.setattr(cli, name, no_read)
        out = tmp_path / "outdir"
        out.mkdir()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


class TestEval:
    def test_identical_inputs_zero_rmse(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "a.asc")
        out = tmp_path / "m.csv"
        code = main(["eval", "--computed", str(tmp_path / "a.asc"),
                     "--truth", str(tmp_path / "a.asc"), "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert header.startswith("rmse_inliers_m,rmse_all_m")
        fields = row.split(",")
        assert float(fields[0]) == pytest.approx(0.0, abs=1e-9)
        assert float(fields[1]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("grid", [grid_of(np.full((20, 20), 5.0)), hill_grid()], ids=["flat", "hill"])
    def test_zero_offset_written_unsigned(self, tmp_path, grid):
        # dz is a negated median or mean, -0.0 where it is zero
        write_asc(grid, tmp_path / "a.asc")
        out = tmp_path / "m.csv"
        assert main(["eval", "--computed", str(tmp_path / "a.asc"),
                     "--truth", str(tmp_path / "a.asc"), "--out", str(out)]) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        assert (row["dx_m"], row["dy_m"], row["dz_m"]) == ("0.000000",) * 3, row

    def test_constant_offset_removed_and_recorded(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "truth.asc")
        write_asc(hill_grid(offset=1.0), tmp_path / "comp.asc")
        out = tmp_path / "m.csv"
        code = main(["eval", "--computed", str(tmp_path / "comp.asc"),
                     "--truth", str(tmp_path / "truth.asc"), "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        rmse_all = float(row[1])
        dz = float(row[4])
        assert rmse_all == pytest.approx(0.0, abs=1e-4)
        assert dz == pytest.approx(-1.0, abs=1e-3)

    def test_off_grid_dsm_evaluates_alike_whatever_its_nodata(self, tmp_path):
        # the DSM's +-1 columns lie half a cell east of the truth's grid, so align's
        # resample gives exact zeros; with NODATA_value 0 they are heights all the same
        write_text_grid(tmp_path / "truth.asc", " ".join(["0"] * 20), 20)
        out = {}
        for nodata in ("0", "-9999"):
            write_text_grid(tmp_path / f"dsm{nodata}.asc", " ".join(["1", "-1"] * 10), 20, 0.5, nodata)
            out[nodata] = tmp_path / f"eval{nodata}.csv"
            assert main(["eval", "--computed", str(tmp_path / f"dsm{nodata}.asc"),
                         "--truth", str(tmp_path / "truth.asc"), "--out", str(out[nodata])]) == 0
        assert out["0"].read_bytes() == out["-9999"].read_bytes()

    @pytest.mark.parametrize("header", ["ncols inf", "ncols nan", "cellsize 0"])
    def test_bad_header_value_exit_2(self, tmp_path, capsys, header):
        write_asc(hill_grid(), tmp_path / "a.asc")
        key = header.split()[0]
        lines = (tmp_path / "a.asc").read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.asc"
        bad.write_text("".join(f"{header}\n" if ln.startswith(key) else ln for ln in lines))
        code = main(["eval", "--computed", str(bad), "--truth", str(tmp_path / "a.asc"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert f"header {key!r}" in capsys.readouterr().err

    def test_boundary_warning_logged_with_level_and_name(self, tmp_path):
        write_asc(hill_grid(n=100), tmp_path / "truth.asc")
        write_asc(hill_grid(n=100, dx=6.0), tmp_path / "comp.asc")
        proc = run_cli("eval", "--computed", str(tmp_path / "comp.asc"),
                       "--truth", str(tmp_path / "truth.asc"), "--max-search", "3",
                       "--out", str(tmp_path / "m.csv"))
        assert proc.returncode == 0, proc.stderr
        assert "WARNING dsmfuse.register: best integer shift " in proc.stderr


class TestStartup:
    def test_cli_import_leaves_out_multiprocessing(self):
        proc = run_python("import dsmfuse.cli; print('multiprocessing' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestExitPath:
    """``python -m dsmfuse.cli`` ends through ``cli.run``, which skips the
    interpreter's teardown once ``main`` has returned."""

    def test_printed_line_arrives_through_a_pipe(self, tmp_path):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        proc = run_cli("rpc", "project", "--rpc", str(tmp_path / "a.rpc"),
                       "--u", "0.3", "--v", "-0.2", "--z", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "s=0.3 l=-0.2\n", "")

    @pytest.mark.parametrize("argv, code", [
        (["rpc", "project", "--rpc", "a.rpc", "--u", "0", "--v", "0", "--z", "0"], 0),
        (["rpc", "project", "--rpc", "missing.rpc", "--u", "0", "--v", "0", "--z", "0"], 2),
        (["fuse", "--layers", "l.asc", "far.asc", "--out", "o.asc"], 3),
        (["fuse", "--layers", "l.asc", "--radius", "2.5", "--out", "o.asc"], 4),
    ], ids=["ok", "io", "geometry", "usage"])
    def test_exit_code_and_streams_match_main(self, tmp_path, capsys, monkeypatch, argv, code):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        write_asc(hill_grid(), tmp_path / "l.asc")
        write_asc(RasterGrid(GridGeometry(5000.0, 5000.0, 1.0, 10, 10), np.zeros((10, 10))),
                  tmp_path / "far.asc")
        proc = run_cli(*argv, cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("mode", ["median", "adaptive"])
    def test_fuse_bytes_match_main_and_no_temp_left(self, tmp_path, rng, mode):
        layers, ortho = _write_stack(tmp_path, rng, 23, 9, 3)
        by_proc, by_main = tmp_path / "proc", tmp_path / "main"
        by_proc.mkdir()
        by_main.mkdir()
        proc = run_cli(*_fuse_args(layers, ortho, mode, by_proc / "f.asc", "--jobs", "2"))
        assert proc.returncode == 0, proc.stderr
        assert main(_fuse_args(layers, ortho, mode, by_main / "f.asc", "--jobs", "2")) == 0
        for name in ("f.asc", "f.pgm"):
            assert (by_proc / name).read_bytes() == (by_main / name).read_bytes()
        assert sorted(os.listdir(by_proc)) == ["f.asc", "f.asc.manifest.json", "f.pgm"]

    def test_profiler_still_writes_its_output(self, tmp_path):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        proc = run_interpreter("-m", "cProfile", "-o", str(tmp_path / "prof"), "-m", "dsmfuse.cli",
                               "rpc", "project", "--rpc", str(tmp_path / "a.rpc"),
                               "--u", "0.3", "--v", "-0.2", "--z", "0")
        assert (proc.returncode, proc.stdout) == (0, "s=0.3 l=-0.2\n"), proc.stderr
        assert (tmp_path / "prof").stat().st_size > 0

    def test_main_returns_with_no_thread_left(self, tmp_path, rng, monkeypatch):
        layers, ortho = _write_stack(tmp_path, rng, 23, 9, 3)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 1)  # one-row blocks, so both threads start
        before = threading.active_count()
        assert main(_fuse_args(layers, ortho, "adaptive", tmp_path / "f.asc", "--jobs", "2")) == 0
        assert threading.active_count() == before


class TestRank:
    def build_inputs(self, tmp_path):
        truth = hill_grid(30)
        write_asc(truth, tmp_path / "truth.asc")
        angles = {"imgA": 0.0, "imgB": 12.0, "imgC": 24.0}
        for name, theta in angles.items():
            write_rpc(linear_ray_model(np.tan(np.radians(theta))), tmp_path / f"{name}.rpc")
        rows = ["id_a,id_b,rpc_a_path,rpc_b_path,dsm_path"]
        sigmas = {"imgA,imgB": 0.3, "imgA,imgC": 1.2, "imgB,imgC": 0.7}
        for i, (pair, sigma) in enumerate(sigmas.items()):
            a, b = pair.split(",")
            dsm = degrade(truth, DegradeSpec(seed=40 + i, gaussian_sigma=sigma))
            path = tmp_path / f"pair_{a}_{b}.asc"
            write_asc(dsm, path)
            rows.append(f"{a},{b},{tmp_path / (a + '.rpc')},{tmp_path / (b + '.rpc')},{path}")
        (tmp_path / "pairs.csv").write_text("\n".join(rows) + "\n")

    def test_rank_pipeline(self, tmp_path):
        self.build_inputs(tmp_path)
        out = tmp_path / "ranked.csv"
        code = main(["rank", "--manifest", str(tmp_path / "pairs.csv"),
                     "--truth", str(tmp_path / "truth.asc"),
                     "--at", "0", "0", "0",
                     "--meters-per-unit", "1.0",
                     "--max-search", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id_a,id_b,angle_deg,rank_rmse_m,selected"
        # imgA-imgB pair sits at 12 degrees, imgA-imgC at 24, imgB-imgC at 12;
        # all inside [10, 30]; ranked by noise: 0.3 best
        assert len(lines) == 4
        first = lines[1].split(",")
        assert (first[0], first[1]) == ("imgA", "imgB")
        assert first[4] == "true"

    @pytest.mark.parametrize("mark", [b"", BOM], ids=["plain", "byte-order-mark"])
    def test_rank_csv_bytes_pinned(self, tmp_path, mark):
        # each pair has its own noise level, and imgA-imgC is listed as imgC,imgA:
        # each row's rank_rmse_m shows that its pair's own DSM was aligned
        self.build_inputs(tmp_path)
        manifest = tmp_path / "pairs.csv"
        rows = manifest.read_text().splitlines()
        a, b, rpc_a, rpc_b, dsm = rows[2].split(",")
        rows[2] = ",".join([b, a, rpc_b, rpc_a, dsm])
        manifest.write_bytes(mark + "".join(f"{row}\n" for row in rows).encode())
        out = tmp_path / "ranked.csv"
        assert main(["rank", "--manifest", str(manifest), "--truth", str(tmp_path / "truth.asc"),
                     "--at", "0", "0", "0", "--meters-per-unit", "1.0", "--max-search", "3",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"id_a,id_b,angle_deg,rank_rmse_m,selected\n"
            b"imgA,imgB,12.000000,0.297183,true\n"
            b"imgB,imgC,12.000000,0.678800,true\n"
            b"imgA,imgC,24.000000,1.223067,true\n"
        )

    def test_gates_only_the_listed_pairs(self, tmp_path, monkeypatch):
        # four ids, two listed pairs: the four unlisted pairs get no angle
        truth = hill_grid(30)
        write_asc(truth, tmp_path / "truth.asc")
        rows = ["id_a,id_b,rpc_a_path,rpc_b_path,dsm_path"]
        for k, (a, b) in enumerate([("A", "B"), ("C", "D")]):
            for ident, theta in ((a, 0.0), (b, 20.0)):
                write_rpc(linear_ray_model(np.tan(np.radians(theta))), tmp_path / f"{ident}.rpc")
            write_asc(degrade(truth, DegradeSpec(seed=k, gaussian_sigma=0.2)), tmp_path / f"{a}{b}.asc")
            rows.append(f"{a},{b},{tmp_path / (a + '.rpc')},{tmp_path / (b + '.rpc')},"
                        f"{tmp_path / (a + b + '.asc')}")
        (tmp_path / "pairs.csv").write_text("\n".join(rows) + "\n")
        calls, rays = [], []

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return ray_angle(*args, **kwargs)

        def counted_ray(*args, **kwargs):
            rays.append(args[0])
            return viewing_ray(*args, **kwargs)

        monkeypatch.setattr(pairsel, "ray_angle", counted)
        monkeypatch.setattr(pairsel, "viewing_ray", counted_ray)
        out = tmp_path / "ranked.csv"
        assert main(["rank", "--manifest", str(tmp_path / "pairs.csv"),
                     "--truth", str(tmp_path / "truth.asc"), "--at", "0", "0", "0",
                     "--meters-per-unit", "1.0", "--max-search", "2", "--out", str(out)]) == 0
        assert len(calls) == 2
        assert len(rays) == 4  # one per image
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] \
            in ([["A", "B"], ["C", "D"]], [["C", "D"], ["A", "B"]])

    def test_all_pairs_gated_out_warns_exit_0(self, tmp_path):
        self.build_inputs(tmp_path)
        out = tmp_path / "ranked.csv"
        proc = run_cli("rank", "--manifest", str(tmp_path / "pairs.csv"),
                       "--truth", str(tmp_path / "truth.asc"),
                       "--at", "0", "0", "0",
                       "--meters-per-unit", "1.0",
                       "--min-angle", "40", "--max-angle", "50",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "WARNING dsmfuse.cli: no pairs inside the intersection-angle gate" in proc.stderr
        assert out.read_text().strip().splitlines() == [
            "id_a,id_b,angle_deg,rank_rmse_m,selected"
        ]

    @pytest.mark.parametrize("mpu", ["0", "nan", "inf"])
    def test_meters_per_unit_out_of_range_exit_4(self, tmp_path, capsys, mpu):
        self.build_inputs(tmp_path)
        out = tmp_path / "ranked.csv"
        code = main(["rank", "--manifest", str(tmp_path / "pairs.csv"),
                     "--truth", str(tmp_path / "truth.asc"), "--at", "0", "0", "0",
                     "--meters-per-unit", mpu, "--out", str(out)])
        assert code == 4
        assert "meters_per_unit must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_conflict_exit_2(self, tmp_path, capsys):
        self.build_inputs(tmp_path)
        manifest = tmp_path / "pairs.csv"
        rows = manifest.read_text().splitlines()
        a, b, rpc_a, rpc_b, dsm = rows[1].split(",")
        manifest.write_text("\n".join([*rows, f"{b},{a},{rpc_b},{rpc_a},{dsm}"]) + "\n")
        out = tmp_path / "ranked.csv"
        code = main(["rank", "--manifest", str(manifest), "--truth", str(tmp_path / "truth.asc"),
                     "--at", "0", "0", "0", "--meters-per-unit", "1.0", "--out", str(out)])
        assert code == 2
        assert f"{manifest}:5: pair (imgB, imgA) is already on line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_rpc_file_that_makes_no_model_exit_2(self, tmp_path, capsys):
        self.build_inputs(tmp_path)
        set_rpc_value(tmp_path / "imgB.rpc", "LINE_DEN_COEFF_1", "0.0")
        out = tmp_path / "ranked.csv"
        code = main(["rank", "--manifest", str(tmp_path / "pairs.csv"), "--truth", str(tmp_path / "truth.asc"),
                     "--at", "0", "0", "0", "--meters-per-unit", "1.0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'imgB.rpc'}: denominator constant terms must be nonzero\n"
        )
        assert not out.exists()

    def test_unreadable_manifest_exit_2(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "truth.asc")
        code = main(["rank", "--manifest", str(tmp_path / "nope.csv"),
                     "--truth", str(tmp_path / "truth.asc"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_twelve_candidates_select_first_ten(self, tmp_path):
        # 12 disjoint image pairs, each constructed at a 20-degree
        # intersection angle; only manifest-listed pairs are candidates
        truth = hill_grid(30)
        write_asc(truth, tmp_path / "truth.asc")
        rows = ["id_a,id_b,rpc_a_path,rpc_b_path,dsm_path"]
        for i in range(12):
            azi = np.radians(i * 30.0)
            t0, t1 = np.tan(np.radians(5.0)), np.tan(np.radians(25.0))
            for tag, t in (("a", t0), ("b", t1)):
                write_rpc(
                    linear_ray_model(t * np.cos(azi), t * np.sin(azi)),
                    tmp_path / f"p{i:02d}{tag}.rpc",
                )
            dsm = degrade(truth, DegradeSpec(seed=70 + i, gaussian_sigma=0.1 + 0.1 * i))
            write_asc(dsm, tmp_path / f"p{i:02d}.asc")
            rows.append(
                f"p{i:02d}a,p{i:02d}b,{tmp_path / f'p{i:02d}a.rpc'},"
                f"{tmp_path / f'p{i:02d}b.rpc'},{tmp_path / f'p{i:02d}.asc'}"
            )
        (tmp_path / "pairs.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "ranked.csv"
        code = main(["rank", "--manifest", str(tmp_path / "pairs.csv"),
                     "--truth", str(tmp_path / "truth.asc"),
                     "--at", "0", "0", "0", "--meters-per-unit", "1.0",
                     "--max-search", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 12
        assert sum(line.endswith(",true") for line in lines) == 10
        assert all(line.endswith(",true") for line in lines[:10])


class TestCurve:
    def test_row_count_and_header(self, tmp_path):
        truth, ortho = gen_scene(SceneSpec(
            seed=5, width=30, height=30,
            buildings=(Building(8, 8, 10, 10, 15.0, 180.0),),
        ))
        write_asc(truth, tmp_path / "truth.asc")
        write_asc(ortho, tmp_path / "ortho.asc")
        layer_paths = []
        for i, sigma in enumerate((0.2, 0.6, 1.2)):
            layer = degrade(truth, DegradeSpec(seed=60 + i, gaussian_sigma=sigma))
            p = tmp_path / f"l{i}.asc"
            write_asc(layer, p)
            layer_paths.append(str(p))
        out = tmp_path / "curve.csv"
        code = main(["curve", "--layers", *layer_paths,
                     "--ortho", str(tmp_path / "ortho.asc"),
                     "--truth", str(tmp_path / "truth.asc"),
                     "--max-search", "2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,rmse_adaptive_m,rmse_median_m"
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]


    @staticmethod
    def _scene(tmp_path, n_layers, size=40):
        """size x size truth, layers with spikes and holes, and an ortho half a
        cell east of them; returns the layer paths."""
        truth, ortho = gen_scene(SceneSpec(seed=9, width=size, height=size, buildings=(
            Building(5, 6, 14, 10, 18.0, 190.0), Building(24, 20, 10, 14, 9.0, 120.0),
        )))
        write_asc(truth, tmp_path / "truth.asc")
        g = ortho.geometry
        east = GridGeometry(g.origin_x + 0.5, g.origin_y, g.cell_size, g.n_cols, g.n_rows)
        write_asc(RasterGrid(east, ortho.values), tmp_path / "ortho.asc")
        paths = []
        for i in range(n_layers):
            spec = DegradeSpec(seed=70 + i, gaussian_sigma=0.3 + 0.4 * i,
                               spike_prob=0.05, spike_amp=10.0, hole_prob=0.05)
            paths.append(str(tmp_path / f"l{i}.asc"))
            write_asc(degrade(truth, spec), paths[-1])
        return paths

    def _curve(self, tmp_path, paths, *extra):
        return main(["curve", "--layers", *paths, "--ortho", str(tmp_path / "ortho.asc"),
                     "--truth", str(tmp_path / "truth.asc"), "--max-search", "2", *extra,
                     "--out", str(tmp_path / "curve.csv")])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rows_match_fusing_each_prefix_alone(self, tmp_path, monkeypatch, jobs):
        paths = self._scene(tmp_path, 4)
        # strips of 9 rows and blocks of 7, so halos and row offsets cross both
        monkeypatch.setattr(raster, "_STRIP_BYTES", 9 * 40 * 5 * 8)
        n_offsets = len(fusion._window_offsets(FusionConfig()))
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 7 * 40 * n_offsets * 4 * 8)
        assert self._curve(tmp_path, paths, "--jobs", jobs) == 0
        monkeypatch.undo()
        layers = [read_asc(p) for p in paths]
        ortho = resample(read_asc(tmp_path / "ortho.asc"), layers[0].geometry)
        truth, acfg = read_asc(tmp_path / "truth.asc"), AlignConfig(max_search=2)
        want = ["k,rmse_adaptive_m,rmse_median_m"]
        for k in range(1, 5):
            top = layers[:k]
            a, m = (align(f, truth, acfg).rmse_all
                    for f in (adaptive_median_fuse(top, ortho, FusionConfig()), median_fuse(top)))
            want.append(f"{k},{a:.6f},{m:.6f}")
        assert (tmp_path / "curve.csv").read_text() == "\n".join(want) + "\n"

    def test_peak_memory_flat_in_layer_count(self, tmp_path):
        # numpy reports its buffers to tracemalloc.  Every k's fused rows wait
        # on disk, so one k's pair of grids is held while it is aligned; the
        # (2, K) stack this replaced held 12 more grids at 8 layers than at 2
        import tracemalloc

        n = 400  # the kernel's fixed block budget stays under the aligns' grids
        paths = self._scene(tmp_path, 8, size=n)
        peaks = []
        for n_layers in (2, 8):
            tracemalloc.start()
            try:
                assert self._curve(tmp_path, paths[:n_layers]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * n * n * 8, peaks  # less than two grids

    def test_jobs_fuse_in_process_same_bytes(self, tmp_path, monkeypatch):
        paths = self._scene(tmp_path, 3)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 1)  # one-row blocks
        _no_fork(monkeypatch)
        outputs = []
        for jobs in ("1", "2"):
            assert self._curve(tmp_path, paths, "--jobs", jobs) == 0
            outputs.append((tmp_path / "curve.csv").read_bytes())
        assert outputs[1] == outputs[0]

    def test_one_gate_per_block_for_every_k(self, tmp_path, monkeypatch):
        paths = self._scene(tmp_path, 3)
        calls = []

        def counted(*args, _real=fusion.window_members):
            calls.append(args[0].shape)
            return _real(*args)

        monkeypatch.setattr(fusion, "window_members", counted)
        n_offsets = len(fusion._window_offsets(FusionConfig()))
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 7 * 40 * n_offsets * 3 * 8)
        assert main(["fuse", "--layers", *paths, "--mode", "adaptive",
                     "--ortho", str(tmp_path / "ortho.asc"),
                     "--out", str(tmp_path / "fused.asc")]) == 0
        fuse_calls = calls[:]
        calls.clear()
        assert self._curve(tmp_path, paths) == 0
        assert len(fuse_calls) == 6 and calls == fuse_calls

    @pytest.mark.parametrize("truth", ["missing", "bad header"])
    def test_bad_truth_exit_2_before_fusing(self, tmp_path, capsys, monkeypatch, truth):
        paths = self._scene(tmp_path, 2)
        bad = tmp_path / "bad.asc"
        if truth == "bad header":
            bad.write_text("ncols 40\nnrows forty\n")

        def no_fuse(*args):
            raise AssertionError("fused a block before opening --truth")

        monkeypatch.setattr(fusion, "_nan_median", no_fuse)
        code = main(["curve", "--layers", *paths, "--ortho", str(tmp_path / "ortho.asc"),
                     "--truth", str(bad), "--out", str(tmp_path / "curve.csv")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("command", ["curve", "fuse"])
    def test_ortho_outside_gray_scale_warns(self, tmp_path, command):
        truth, ortho = gen_scene(SceneSpec(seed=5, width=20, height=20))
        write_asc(truth, tmp_path / "truth.asc")
        write_asc(RasterGrid(ortho.geometry, ortho.values + 300.0), tmp_path / "ortho.asc")
        write_asc(degrade(truth, DegradeSpec(seed=60)), tmp_path / "l.asc")
        extra = ["--truth", str(tmp_path / "truth.asc"), "--max-search", "2"] \
            if command == "curve" else ["--mode", "adaptive"]
        proc = run_cli(command, "--layers", str(tmp_path / "l.asc"),
                       "--ortho", str(tmp_path / "ortho.asc"), *extra,
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "WARNING dsmfuse.fusion: ortho intensities outside [0, 255]" in proc.stderr
        assert proc.stderr.count("ortho intensities") == 1


class TestManifest:
    """Each file-producing command writes one manifest, beside its first output,
    listing what it read and wrote; ``rpc`` only prints and writes none."""

    def _check(self, tmp_path, command, inputs, out):
        (path,) = tmp_path.glob("*.manifest.json")
        assert path.name == f"{out.name}.manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["command"] == command
        assert manifest["inputs"] == [str(p) for p in inputs]
        assert manifest["outputs"] == [str(out)]
        assert manifest["config"]["out"] == str(out) and manifest["seed"] is None

    def test_rank(self, tmp_path):
        TestRank().build_inputs(tmp_path)
        inputs, out = [tmp_path / "pairs.csv", tmp_path / "truth.asc"], tmp_path / "ranked.csv"
        assert main(["rank", "--manifest", str(inputs[0]), "--truth", str(inputs[1]),
                     "--at", "0", "0", "0", "--meters-per-unit", "1.0", "--max-search", "3",
                     "--out", str(out)]) == 0
        self._check(tmp_path, "rank", inputs, out)

    def test_eval(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "truth.asc")
        write_asc(hill_grid(offset=1.0), tmp_path / "comp.asc")
        inputs, out = [tmp_path / "comp.asc", tmp_path / "truth.asc"], tmp_path / "m.csv"
        assert main(["eval", "--computed", str(inputs[0]), "--truth", str(inputs[1]),
                     "--out", str(out)]) == 0
        self._check(tmp_path, "eval", inputs, out)

    def test_curve(self, tmp_path):
        layers = TestCurve._scene(tmp_path, 2)
        assert TestCurve()._curve(tmp_path, layers) == 0
        inputs = [*layers, tmp_path / "ortho.asc", tmp_path / "truth.asc"]
        self._check(tmp_path, "curve", inputs, tmp_path / "curve.csv")

    def test_rpc_writes_none(self, tmp_path, monkeypatch, capsys):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        monkeypatch.chdir(tmp_path)
        assert main(["rpc", "project", "--rpc", "a.rpc", "--u", "0", "--v", "0", "--z", "0"]) == 0
        assert capsys.readouterr().out == "s=0 l=0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.rpc"]


class TestRpcCommand:
    def test_project_invert_angle(self, tmp_path, capsys):
        write_rpc(linear_ray_model(0.0), tmp_path / "nadir.rpc")
        write_rpc(linear_ray_model(np.tan(np.radians(20.0))), tmp_path / "off.rpc")

        code = main(["rpc", "project", "--rpc", str(tmp_path / "nadir.rpc"),
                     "--u", "0.3", "--v", "-0.2", "--z", "0"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "s=0.3 l=-0.2"

        code = main(["rpc", "invert", "--rpc", str(tmp_path / "nadir.rpc"),
                     "--s", "0.3", "--l", "-0.2", "--z", "0"])
        assert code == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert float(fields["u"]) == pytest.approx(0.3, abs=1e-6)
        assert float(fields["v"]) == pytest.approx(-0.2, abs=1e-6)

        code = main(["rpc", "angle", "--rpc", str(tmp_path / "nadir.rpc"),
                     "--rpc-b", str(tmp_path / "off.rpc"),
                     "--u", "0", "--v", "0", "--z", "0",
                     "--meters-per-unit", "1.0"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out.split("=")[1]) == pytest.approx(20.0, abs=0.1)

    def test_domain_warning_logged_once(self, tmp_path):
        write_rpc(linear_ray_model(0.0), tmp_path / "img0.rpc")
        proc = run_cli("rpc", "project", "--rpc", str(tmp_path / "img0.rpc"),
                       "--u", "1e6", "--v", "0", "--z", "0")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("WARNING dsmfuse.rpc: ground point (1000000.0, 0.0, 0.0)")
        assert ".py:" not in proc.stderr

    def test_main_restores_the_callers_warning_hook(self, tmp_path, caplog):
        write_rpc(linear_ray_model(0.0), tmp_path / "img0.rpc")
        hook = warnings.showwarning
        assert main(["rpc", "project", "--rpc", str(tmp_path / "img0.rpc"),
                     "--u", "1e6", "--v", "0", "--z", "0"]) == 0
        assert warnings.showwarning is hook
        # inside main the warning still went to the log
        assert [r.name for r in caplog.records] == ["dsmfuse.rpc"]
        assert caplog.records[0].getMessage().startswith("ground point (1000000.0, 0.0, 0.0)")

    @pytest.mark.parametrize("ok", [True, False], ids=["success", "failure"])
    def test_main_leaves_the_root_logger_as_found(self, tmp_path, capsys, ok):
        # as in a program with no logging set up: main's stderr handler lives
        # for the call only, and the root level comes back
        write_rpc(linear_ray_model(0.0), tmp_path / "img0.rpc")
        argv = ["rpc", "project", "--rpc", str(tmp_path / "img0.rpc"), "--u", "1e6", "--v", "0", "--z", "0"]
        root = logging.getLogger()
        saved = root.handlers[:], root.level
        root.handlers.clear()  # pytest's capture handlers, put back below
        root.setLevel(logging.ERROR)
        try:
            code = main(argv if ok else ["rpc"])
            found = root.handlers[:], root.level
        finally:
            root.handlers[:] = saved[0]
            root.setLevel(saved[1])
        assert (code, found) == ((0 if ok else 4), ([], logging.ERROR))
        if ok:  # inside the call the warning reached stderr through that handler
            assert capsys.readouterr().err.startswith("WARNING dsmfuse.rpc: ground point (1000000.0")

    def test_missing_action_exit_4(self):
        assert main(["rpc"]) == 4

    @pytest.mark.parametrize("mpu", ["0", "nan", "inf"])
    def test_meters_per_unit_out_of_range_exit_4(self, tmp_path, capsys, mpu):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        write_rpc(linear_ray_model(0.3), tmp_path / "b.rpc")
        code = main(["rpc", "angle", "--rpc", str(tmp_path / "a.rpc"),
                     "--rpc-b", str(tmp_path / "b.rpc"), "--u", "0", "--v", "0", "--z", "0",
                     "--meters-per-unit", mpu])
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert f"meters_per_unit must be finite and > 0, got {float(mpu)}" in err

    @pytest.mark.parametrize("action, key, token", [
        ("project", "U_SCALE", "nan"), ("angle", "SAMP_NUM_COEFF_4", "inf"),
    ])
    def test_non_finite_value_exit_2(self, tmp_path, action, key, token):
        write_rpc(linear_ray_model(0.0), tmp_path / "a.rpc")
        write_rpc(linear_ray_model(0.3), tmp_path / "b.rpc")
        lineno = set_rpc_value(tmp_path / "b.rpc", key, token)
        rpcs = {"project": ["--rpc", str(tmp_path / "b.rpc")],
                "angle": ["--rpc", str(tmp_path / "a.rpc"), "--rpc-b", str(tmp_path / "b.rpc")]}
        proc = run_cli("rpc", action, *rpcs[action], "--u", "0", "--v", "0", "--z", "0")
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"error: {tmp_path / 'b.rpc'}:{lineno}: {key} is not finite: {token!r}\n"

    @pytest.mark.parametrize("key, message", [
        ("SAMP_SCALE", "s_scale must be nonzero"),
        ("SAMP_DEN_COEFF_1", "denominator constant terms must be nonzero"),
    ])
    def test_value_that_makes_no_model_exit_2(self, tmp_path, capsys, key, message):
        path = tmp_path / "a.rpc"
        write_rpc(linear_ray_model(0.0), path)
        set_rpc_value(path, key, "0")
        assert main(["rpc", "project", "--rpc", str(path), "--u", "0", "--v", "0", "--z", "0"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


class TestSynthCommand:
    def test_outputs_and_determinism(self, tmp_path, scene_dir):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        args = ["synth", "--scene", str(scene_dir), "--layers", "3",
                "--sigma-start", "0.2", "--sigma-end", "1.0",
                "--spike-prob", "0.02", "--spike-amp", "8", "--hole-prob", "0.05"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        for name in ("truth.asc", "ortho.asc", "layer_01.asc", "layer_02.asc", "layer_03.asc"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "truth.asc.manifest.json").exists()

    def test_readme_scene_bytes_pinned(self, tmp_path, monkeypatch):
        # sha256 of the README walkthrough's synth and fuse outputs, pinned so
        # that a change of bytes fails even when reruns agree with each other
        pinned = {
            "data/truth.asc": "4498eafbc811b8d16888fc748ba99f464da30976d751d2a114a68f89bf27c718",
            "data/ortho.asc": "0fad3942acb45bef1e41d3b78981088af06a309285aa397e39d9e48a820853ff",
            "data/layer_01.asc": "789a76b50dee6d19224c519bfe184913a66c6590463a9b1c2f6ed6e2a0d45a34",
            "data/layer_02.asc": "f2061a67326ac099093a8e16f1757a622806c42d343b0d843845636a141b2263",
            "data/layer_03.asc": "a761cd4c770c2ab61978ba730f85f46e279a56c5f9d4493a5da6dbce9e503e73",
            "data/layer_04.asc": "ee0ab95116cd2f5345670d47e7a7012dd8f177115e4ad538df3cb1f97145d02e",
            "data/layer_05.asc": "8c54bcf473a9be0a8bfab90238b033042c3b990896a812df7a7a46717f220800",
            "fused_median.asc": "7232226a471d2752a2282104bcf03e8643f827d2028b764999e90c250ccc942d",
            "fused_median.pgm": "1f1fd71d6c269e7853118103edd81473262d8366d2ecbb181f54b894f834635d",
            "fused.asc": "2135c633d21bb6c61d6f6e9a3e0b18eef784b0559fbce5e71bc710f0de2d2d6f",
            "fused.pgm": "ae181ea623653f7d2defd018ade5d0d66e9e1e7c0e5c5b80454b39ac5a963ab3",
        }
        monkeypatch.chdir(tmp_path)
        Path("scene.txt").write_text(
            "seed=42\nwidth=80\nheight=60\ncell_size=1.0\n"
            "ground_height=0.0\nground_intensity=60\n"
            "building=10,12,16,12,25.0,170\n"
            "building=45,30,14,16,12.0,210\n"
        )
        assert main(["synth", "--scene", "scene.txt", "--out-dir", "data", "--layers", "5",
                     "--sigma-start", "0.2", "--sigma-end", "1.5", "--spike-prob", "0.05",
                     "--spike-amp", "10", "--hole-prob", "0.04"]) == 0
        layers = [f"data/layer_0{i}.asc" for i in range(1, 6)]
        assert main(["fuse", "--layers", *layers, "--mode", "median",
                     "--out", "fused_median.asc"]) == 0
        assert main(["fuse", "--layers", *layers, "--mode", "adaptive",
                     "--ortho", "data/ortho.asc", "--out", "fused.asc"]) == 0
        for name, digest in pinned.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("flags, scene_line, name", [
        (["--sigma-start", "nan", "--sigma-end", "nan"], None, "gaussian_sigma"),
        (["--spike-amp", "inf"], None, "spike_amp"),
        ([], "ground_height=nan", "ground_height"),
        ([], "cell_size=inf", "cell_size"),
        ([], "cell_size=0", "cell_size"),
        ([], "building=6,5,10,8,-inf,170", "height"),
    ])
    def test_bad_parameter_exit_4_writes_nothing(
        self, tmp_path, capsys, scene_dir, flags, scene_line, name
    ):
        if scene_line:
            set_scene_line(scene_dir, scene_line)
        out_dir = tmp_path / "out"
        assert main(["synth", "--scene", str(scene_dir), "--layers", "3", *flags,
                     "--out-dir", str(out_dir)]) == 4
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, scene_line, message", [
        (["--layers", "-3"], None, "--layers must be >= 0, got -3"),
        ([], "seed=-5", "seed must be >= 0, got -5"),
    ])
    def test_out_of_range_count_or_seed_exit_4_writes_nothing(
        self, tmp_path, capsys, scene_dir, flags, scene_line, message
    ):
        if scene_line:
            set_scene_line(scene_dir, scene_line)
        out_dir = tmp_path / "out"
        assert main(["synth", "--scene", str(scene_dir), *flags, "--out-dir", str(out_dir)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_scene_may_start_with_a_byte_order_mark(self, tmp_path, scene_dir):
        marked = tmp_path / "marked.txt"
        marked.write_bytes(BOM + scene_dir.read_bytes())
        for scene, out_dir in ((scene_dir, "plain"), (marked, "marked")):
            assert main(["synth", "--scene", str(scene), "--layers", "1",
                         "--out-dir", str(tmp_path / out_dir)]) == 0
        for name in ("truth.asc", "ortho.asc", "layer_01.asc"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "marked" / name).read_bytes()

    def test_unknown_scene_key_exit_4(self, tmp_path):
        bad = tmp_path / "scene.txt"
        bad.write_text("seed=1\nwidth=10\nheight=10\nwibble=3\n")
        assert main(["synth", "--scene", str(bad), "--out-dir", str(tmp_path / "o")]) == 4

    def test_missing_scene_file_exit_2(self, tmp_path):
        assert main(["synth", "--scene", str(tmp_path / "none.txt"),
                     "--out-dir", str(tmp_path / "o")]) == 2
