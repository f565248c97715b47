import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsmfuse import cli, raster
from dsmfuse.cli import main
from dsmfuse.fusion import FusionConfig
from dsmfuse.pairsel import PairGate
from dsmfuse.raster import GridGeometry, RasterGrid, read_asc, write_asc
from dsmfuse.register import AlignConfig
from dsmfuse.rpc import DEFAULT_DZ_PROBE, DEFAULT_METERS_PER_UNIT, write_rpc
from dsmfuse.synth import Building, DegradeSpec, SceneSpec, degrade, gen_scene

from conftest import grid_of, linear_ray_model


def hill_grid(n=40, amplitude=20.0, offset=0.0, dx=0.0):
    geom = GridGeometry(0, 0, 1.0, n, n)
    xs = (np.arange(n) + 0.5)
    ys = (n - np.arange(n) - 0.5)
    X, Y = np.meshgrid(xs, ys)
    h = amplitude * np.exp(-((X - n / 2 - dx) ** 2 + (Y - n / 2) ** 2) / (2 * (n / 4) ** 2))
    return RasterGrid(geom, h + offset)


def run_python(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this dsmfuse."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-c", f"import sys; {code}", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"),
                     "--mode", "adaptive", "--out", str(tmp_path / "o.asc")])
        assert code == 4
        assert "--ortho" in capsys.readouterr().err
        assert not (tmp_path / "o.asc").exists()

    def test_unreadable_layer_exit_2(self, tmp_path):
        code = main(["fuse", "--layers", str(tmp_path / "missing.asc"),
                     "--out", str(tmp_path / "o.asc")])
        assert code == 2

    def test_disjoint_geometry_exit_3(self, tmp_path):
        write_asc(hill_grid(), tmp_path / "l.asc")
        far = RasterGrid(GridGeometry(5000.0, 5000.0, 1.0, 10, 10), np.zeros((10, 10)))
        write_asc(far, tmp_path / "far.asc")
        code = main(["fuse", "--layers", str(tmp_path / "l.asc"),
                     "--target-geometry", str(tmp_path / "far.asc"),
                     "--out", str(tmp_path / "o.asc")])
        assert code == 3
        assert not (tmp_path / "o.asc").exists()

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
    def test_nan_token_bytes_match_full_resampling(self, tmp_path, rng, monkeypatch, mode):
        # identity resampling returns the grid as read, so a NaN cell stays
        # NaN instead of becoming nodata; the fused bytes must not notice
        for i in range(3):
            vals = rng.normal(15, 4, size=(12, 10))
            vals[rng.random((12, 10)) < 0.1] = -9999.0
            vals[i, 2 * i] = np.nan
            write_asc(grid_of(vals), tmp_path / f"l{i}.asc")
        ortho = rng.uniform(0, 255, (12, 10))
        ortho[5, 5] = np.nan
        write_asc(grid_of(ortho), tmp_path / "ortho.asc")
        assert "nan" in (tmp_path / "l0.asc").read_text().split()
        args = ["fuse", "--layers", *(str(tmp_path / f"l{i}.asc") for i in range(3)),
                "--mode", mode, "--ortho", str(tmp_path / "ortho.asc")]
        assert main(args + ["--out", str(tmp_path / "short.asc")]) == 0
        full = {"nearest": raster._resample_nearest, "bilinear": raster._resample_bilinear}
        monkeypatch.setattr(cli, "resample", lambda src, target, method: full[method](src, target))
        assert main(args + ["--out", str(tmp_path / "full.asc")]) == 0
        for ext in (".asc", ".pgm"):
            short = (tmp_path / "short").with_suffix(ext).read_bytes()
            assert short == (tmp_path / "full").with_suffix(ext).read_bytes()

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


def _table_entries():
    return [(cmd, key) for cmd, (_, _, flags) in cli._COMMANDS.items() for key in flags]


def _valid_tokens(kwargs):
    """Values a flag accepts, as the strings given on the command line."""
    if "choices" in kwargs:
        return [kwargs["choices"][-1]]
    nargs = kwargs.get("nargs")
    count = nargs if isinstance(nargs, int) else 2 if nargs == "+" else 1
    pool = {int: ["7", "-3", "12"], float: ["2.25", "-1.5", "3e2"],
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
    return {int: "2.5", float: "abc", str: None}[kwargs.get("type", str)]


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

        for name in ("read_asc", "read_rpc", "read_pair_manifest", "_parse_scene_file"):
            monkeypatch.setattr(cli, name, no_read)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}={_bad_tokens(cli._COMMANDS[command][2][key][1])}\n")
        assert main([command, "--config", str(cfg)]) == 4
        assert f"config key {key!r}" in capsys.readouterr().err

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
            assert defaults[command]["dz_probe"] == DEFAULT_DZ_PROBE
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
        proc = run_python("from dsmfuse.cli import main; sys.exit(main())",
                          "eval", "--computed", str(tmp_path / "comp.asc"),
                          "--truth", str(tmp_path / "truth.asc"), "--max-search", "3",
                          "--out", str(tmp_path / "m.csv"))
        assert proc.returncode == 0, proc.stderr
        assert "WARNING dsmfuse.register: best integer shift " in proc.stderr


class TestStartup:
    def test_cli_import_leaves_out_multiprocessing(self):
        proc = run_python("import dsmfuse.cli; print('multiprocessing' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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

    def test_all_pairs_gated_out_warns_exit_0(self, tmp_path, capsys):
        self.build_inputs(tmp_path)
        out = tmp_path / "ranked.csv"
        code = main(["rank", "--manifest", str(tmp_path / "pairs.csv"),
                     "--truth", str(tmp_path / "truth.asc"),
                     "--at", "0", "0", "0",
                     "--meters-per-unit", "1.0",
                     "--min-angle", "40", "--max-angle", "50",
                     "--out", str(out)])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        assert out.read_text().strip().splitlines() == [
            "id_a,id_b,angle_deg,rank_rmse_m,selected"
        ]

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

    def test_missing_action_exit_4(self):
        assert main(["rpc"]) == 4


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
        # sha256 of the README walkthrough's synth and median-fuse outputs,
        # pinned so that a change of bytes fails even when reruns agree with
        # each other (adaptive is left out: np.exp may differ by one ulp
        # across CPU SIMD paths)
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
        for name, digest in pinned.items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name

    def test_unknown_scene_key_exit_4(self, tmp_path):
        bad = tmp_path / "scene.txt"
        bad.write_text("seed=1\nwidth=10\nheight=10\nwibble=3\n")
        assert main(["synth", "--scene", str(bad), "--out-dir", str(tmp_path / "o")]) == 4

    def test_missing_scene_file_exit_2(self, tmp_path):
        assert main(["synth", "--scene", str(tmp_path / "none.txt"),
                     "--out-dir", str(tmp_path / "o")]) == 2
