"""Command-line driver for the fusion pipeline.

Subcommands: fuse, rank, eval, curve, rpc, synth.  Metrics come out as
CSV and previews as PGM so results diff cleanly; every file-producing run
also writes a JSON manifest (command, inputs, configuration, seed,
version, wall time) sufficient to reproduce it.

Every flag can instead be supplied through ``--config FILE`` holding
``key=value`` lines (keys are the flag names with underscores); explicit
flags override the file.  Exit codes: 0 success, 2 I/O error, 3 geometry
mismatch / insufficient overlap, 4 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace


from . import __version__
from .fusion import DepthStack, FusionConfig, adaptive_median_fuse, median_fuse
from .pairsel import (
    ManifestError,
    PairGate,
    PairRecord,
    gate_pairs,
    rank_pairs,
    read_pair_manifest,
)
from .raster import (
    AsciiGridError,
    GeometryMismatchError,
    RasterGrid,
    read_asc,
    resample,
    write_asc,
    write_pgm,
)
from .register import AlignConfig, InsufficientOverlapError, align
from .rpc import (
    GroundPoint,
    ImagePoint,
    InversionError,
    RpcFileError,
    intersection_angle,
    invert,
    project,
    read_rpc,
)
from .synth import Building, DegradeSpec, SceneSpec, degrade, gen_scene

EXIT_OK = 0
EXIT_IO = 2
EXIT_GEOMETRY = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    """Bad flag/config-file combination."""


def _file_list(raw: str) -> list[str]:
    return [tok for tok in raw.replace(",", " ").split() if tok]


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split() if tok]


# per-command option registry: key -> (default, converter-from-string).
# argparse flags share these keys; a None default means "not set".
_OPTIONS = {
    "fuse": {
        "layers": (None, _file_list),
        "ortho": (None, str),
        "out": (None, str),
        "mode": ("median", str),
        "delta_s": (2.5, float),
        "delta_i": (15.0, float),
        "gamma": (0.5, float),
        "radius": (3, int),
        "jobs": (1, int),
        "resample_method": ("bilinear", str),
        "target_geometry": (None, str),
    },
    "rank": {
        "manifest": (None, str),
        "truth": (None, str),
        "out": (None, str),
        "min_angle": (10.0, float),
        "max_angle": (30.0, float),
        "top_k": (10, int),
        "at": (None, _floats),
        "dz_probe": (100.0, float),
        "meters_per_unit": (111320.0, float),
        "threshold": (6.0, float),
        "max_search": (10, int),
    },
    "eval": {
        "computed": (None, str),
        "truth": (None, str),
        "out": (None, str),
        "threshold": (6.0, float),
        "max_search": (10, int),
    },
    "curve": {
        "layers": (None, _file_list),
        "ortho": (None, str),
        "truth": (None, str),
        "out": (None, str),
        "delta_s": (2.5, float),
        "delta_i": (15.0, float),
        "gamma": (0.5, float),
        "radius": (3, int),
        "jobs": (1, int),
        "threshold": (6.0, float),
        "max_search": (10, int),
        "resample_method": ("bilinear", str),
    },
    "rpc": {
        "action": (None, str),
        "rpc": (None, str),
        "rpc_b": (None, str),
        "u": (None, float),
        "v": (None, float),
        "z": (None, float),
        "s": (None, float),
        "l": (None, float),
        "dz_probe": (100.0, float),
        "meters_per_unit": (111320.0, float),
    },
    "synth": {
        "scene": (None, str),
        "out_dir": (None, str),
        "layers": (0, int),
        "sigma_start": (0.5, float),
        "sigma_end": (0.5, float),
        "spike_prob": (0.0, float),
        "spike_amp": (10.0, float),
        "hole_prob": (0.0, float),
    },
}


_MAX_SEARCH_HELP = "bound, in cells, of the coarse-to-fine integer shift search"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmfuse",
        description="Fuse stereo-derived depth maps into a digital surface model.",
    )
    parser.add_argument("--version", action="version", version=f"dsmfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="fuse a stack of depth maps")
    p.add_argument("--layers", nargs="+", help="depth-map ASCII grids, one per pair")
    p.add_argument("--ortho", help="reference orthophoto grid (adaptive mode)")
    p.add_argument("--out", help="output DSM path (.asc)")
    p.add_argument("--mode", choices=("median", "adaptive"))
    p.add_argument("--delta-s", type=float, help="spatial scale, cells")
    p.add_argument("--delta-i", type=float, help="intensity scale, gray levels")
    p.add_argument("--gamma", type=float, help="window membership threshold")
    p.add_argument("--radius", type=int, help="search window half-width, cells")
    p.add_argument("--jobs", type=int, help="parallel row-block workers")
    p.add_argument("--resample-method", choices=("nearest", "bilinear"))
    p.add_argument("--target-geometry", help="grid whose geometry the stack adopts")

    p = sub.add_parser("rank", help="gate and rank stereo pairs")
    p.add_argument("--manifest", help="pair manifest CSV")
    p.add_argument("--truth", help="ground-truth patch (.asc)")
    p.add_argument("--out", help="output ranking CSV")
    p.add_argument("--min-angle", type=float)
    p.add_argument("--max-angle", type=float)
    p.add_argument("--top-k", type=int)
    p.add_argument("--at", nargs=3, type=float, metavar=("U", "V", "Z"),
                   help="ground point for angle evaluation (default: truth center)")
    p.add_argument("--dz-probe", type=float)
    p.add_argument("--meters-per-unit", type=float)
    p.add_argument("--threshold", type=float, help="alignment blunder gate, meters")
    p.add_argument("--max-search", type=int, help=_MAX_SEARCH_HELP)

    p = sub.add_parser("eval", help="align a DSM to truth and report RMSE")
    p.add_argument("--computed", help="computed DSM (.asc)")
    p.add_argument("--truth", help="ground-truth DSM (.asc)")
    p.add_argument("--out", help="output metrics CSV")
    p.add_argument("--threshold", type=float, help="blunder gate, meters")
    p.add_argument("--max-search", type=int, help=_MAX_SEARCH_HELP)

    p = sub.add_parser("curve", help="RMSE vs number of fused layers, both methods")
    p.add_argument("--layers", nargs="+", help="depth maps sorted by pair rank")
    p.add_argument("--ortho", help="reference orthophoto grid")
    p.add_argument("--truth", help="ground-truth DSM (.asc)")
    p.add_argument("--out", help="output curve CSV")
    p.add_argument("--delta-s", type=float)
    p.add_argument("--delta-i", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--radius", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-search", type=int, help=_MAX_SEARCH_HELP)
    p.add_argument("--resample-method", choices=("nearest", "bilinear"))

    p = sub.add_parser("rpc", help="evaluate a sensor model")
    p.add_argument("action", nargs="?", choices=("project", "invert", "angle"))
    p.add_argument("--rpc", help="RPC text file")
    p.add_argument("--rpc-b", help="second RPC file (angle)")
    p.add_argument("--u", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--z", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--l", type=float)
    p.add_argument("--dz-probe", type=float)
    p.add_argument("--meters-per-unit", type=float)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--scene", help="scene spec file (key=value lines)")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--layers", type=int, help="number of degraded layers to emit")
    p.add_argument("--sigma-start", type=float)
    p.add_argument("--sigma-end", type=float)
    p.add_argument("--spike-prob", type=float)
    p.add_argument("--spike-amp", type=float)
    p.add_argument("--hole-prob", type=float)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="key=value file; flags override it")
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(args: argparse.Namespace, command: str) -> SimpleNamespace:
    """Merge registry defaults, config file, then explicit flags."""
    registry = _OPTIONS[command]
    opts = {key: default for key, (default, _) in registry.items()}
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            if key not in registry:
                raise ConfigError(
                    f"config key {key!r} is not a flag of 'dsmfuse {command}'"
                )
            _, conv = registry[key]
            try:
                opts[key] = conv(raw)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None
    for key in registry:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return SimpleNamespace(**opts)


def _require(opts: SimpleNamespace, *keys: str) -> None:
    for key in keys:
        if getattr(opts, key) in (None, []):
            raise ConfigError(f"--{key.replace('_', '-')} is required")


@contextmanager
def _atomic(path: Path):
    """Yield a temp path, renamed over the target only on success."""
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _write_manifest(
    out_path: Path, command: str, inputs, outputs, opts: SimpleNamespace,
    seed=None, started: float = 0.0,
) -> None:
    manifest = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "config": {k: v for k, v in vars(opts).items()},
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    path = Path(f"{out_path}.manifest.json")
    with _atomic(path) as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_grid_atomic(grid: RasterGrid, path: Path) -> None:
    with _atomic(path) as tmp:
        write_asc(grid, tmp)


def _write_text_atomic(text: str, path: Path) -> None:
    with _atomic(path) as tmp:
        tmp.write_text(text, encoding="ascii")


def _load_stack(paths, target_geometry_path, method):
    layers = [read_asc(p) for p in paths]
    if target_geometry_path:
        target = read_asc(target_geometry_path).geometry
    else:
        target = layers[0].geometry
    out = []
    for path, layer in zip(paths, layers):
        res = resample(layer, target, method)
        if layer.valid_mask().any() and not res.valid_mask().any():
            raise GeometryMismatchError(
                f"{path} does not overlap the target geometry"
            )
        out.append(res)
    return DepthStack(layers=out, ids=[str(p) for p in paths]), target


def cmd_fuse(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "layers", "out")
    if opts.mode not in ("median", "adaptive"):
        raise ConfigError(f"--mode must be median or adaptive, got {opts.mode!r}")
    fcfg = FusionConfig(
        delta_s=opts.delta_s, delta_i=opts.delta_i,
        gamma=opts.gamma, radius=opts.radius,
    )
    stack, target = _load_stack(opts.layers, opts.target_geometry, opts.resample_method)
    if opts.mode == "adaptive":
        if not opts.ortho:
            raise ConfigError("--ortho is required when --mode is adaptive")
        ortho = resample(read_asc(opts.ortho), target, opts.resample_method)
        vals = ortho.values[ortho.valid_mask()]
        if vals.size and (vals.min() < 0.0 or vals.max() > 255.0):
            print(
                "warning: ortho intensities outside [0, 255]; delta-i is "
                "calibrated for a 0-255 gray scale",
                file=sys.stderr,
            )
        fused = adaptive_median_fuse(stack, ortho, fcfg, jobs=opts.jobs)
        inputs = list(opts.layers) + [opts.ortho]
    else:
        fused = median_fuse(stack)
        inputs = list(opts.layers)

    out = Path(opts.out)
    preview = out.with_suffix(".pgm")
    _write_grid_atomic(fused, out)
    with _atomic(preview) as tmp:
        write_pgm(fused, tmp)
    _write_manifest(out, "fuse", inputs, [out, preview], opts, started=started)
    return EXIT_OK


def cmd_rank(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "manifest", "truth", "out")
    entries = read_pair_manifest(opts.manifest)
    truth = read_asc(opts.truth)
    if opts.at is None:
        cx, cy = truth.geometry.center_point()
        at = GroundPoint(cx, cy, 0.0)
    else:
        if len(opts.at) != 3:
            raise ConfigError("--at needs exactly three values: U V Z")
        at = GroundPoint(*opts.at)
    gate = PairGate(min_angle=opts.min_angle, max_angle=opts.max_angle, top_k=opts.top_k)

    models = {}
    dsm_paths = {}
    for e in entries:
        for ident, path in ((e.id_a, e.rpc_a_path), (e.id_b, e.rpc_b_path)):
            if ident not in models:
                models[ident] = read_rpc(path)
        key = (e.id_a, e.id_b) if e.id_a < e.id_b else (e.id_b, e.id_a)
        dsm_paths[key] = e.dsm_path

    gated = gate_pairs(
        list(models.items()), at, gate,
        dz_probe=opts.dz_probe, meters_per_unit=opts.meters_per_unit,
    )
    # only pairs listed in the manifest are candidates
    candidates = []
    for rec in gated:
        key = (rec.id_a, rec.id_b)
        if key in dsm_paths:
            candidates.append(
                PairRecord(rec.id_a, rec.id_b, rec.angle_deg, dsm_path=dsm_paths[key])
            )
    if not candidates:
        print("warning: no pairs inside the intersection-angle gate", file=sys.stderr)
        ranked = []
    else:
        acfg = AlignConfig(blunder_threshold=opts.threshold, max_search=opts.max_search)
        ranked = rank_pairs(candidates, truth, acfg, gate)

    lines = ["id_a,id_b,angle_deg,rank_rmse_m,selected"]
    for r in ranked:
        rank_txt = "nan" if r.rank_rmse is None else f"{r.rank_rmse:.6f}"
        lines.append(
            f"{r.id_a},{r.id_b},{r.angle_deg:.6f},{rank_txt},"
            f"{'true' if r.selected else 'false'}"
        )
    out = Path(opts.out)
    _write_text_atomic("\n".join(lines) + "\n", out)
    _write_manifest(out, "rank", [opts.manifest, opts.truth], [out], opts, started=started)
    return EXIT_OK


def _eval_against_truth(computed: RasterGrid, truth: RasterGrid, opts):
    cfg = AlignConfig(blunder_threshold=opts.threshold, max_search=opts.max_search)
    return align(computed, truth, cfg)


def cmd_eval(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "computed", "truth", "out")
    computed = read_asc(opts.computed)
    truth = read_asc(opts.truth)
    res = _eval_against_truth(computed, truth, opts)
    lines = [
        "rmse_inliers_m,rmse_all_m,dx_m,dy_m,dz_m,n_inliers,n_total,converged",
        f"{res.rmse_inliers:.6f},{res.rmse_all:.6f},"
        f"{res.shift[0]:.6f},{res.shift[1]:.6f},{res.shift[2]:.6f},"
        f"{res.n_inliers},{res.n_total},{'true' if res.converged else 'false'}",
    ]
    out = Path(opts.out)
    _write_text_atomic("\n".join(lines) + "\n", out)
    _write_manifest(out, "eval", [opts.computed, opts.truth], [out], opts, started=started)
    return EXIT_OK


def cmd_curve(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "layers", "ortho", "truth", "out")
    fcfg = FusionConfig(
        delta_s=opts.delta_s, delta_i=opts.delta_i,
        gamma=opts.gamma, radius=opts.radius,
    )
    stack, target = _load_stack(opts.layers, None, opts.resample_method)
    ortho = resample(read_asc(opts.ortho), target, opts.resample_method)
    truth = read_asc(opts.truth)

    lines = ["k,rmse_adaptive_m,rmse_median_m"]
    for k in range(1, len(stack.layers) + 1):
        top = DepthStack(layers=stack.layers[:k], ids=stack.ids[:k])
        fused_a = adaptive_median_fuse(top, ortho, fcfg, jobs=opts.jobs)
        fused_m = median_fuse(top)
        res_a = _eval_against_truth(fused_a, truth, opts)
        res_m = _eval_against_truth(fused_m, truth, opts)
        lines.append(f"{k},{res_a.rmse_all:.6f},{res_m.rmse_all:.6f}")
    out = Path(opts.out)
    _write_text_atomic("\n".join(lines) + "\n", out)
    _write_manifest(
        out, "curve", list(opts.layers) + [opts.ortho, opts.truth], [out], opts,
        started=started,
    )
    return EXIT_OK


def cmd_rpc(opts: SimpleNamespace) -> int:
    if opts.action not in ("project", "invert", "angle"):
        raise ConfigError("rpc action must be project, invert, or angle")
    if opts.action == "project":
        _require(opts, "rpc", "u", "v", "z")
        model = read_rpc(opts.rpc)
        ip = project(model, GroundPoint(opts.u, opts.v, opts.z))
        print(f"s={ip.s:.10g} l={ip.l:.10g}")
    elif opts.action == "invert":
        _require(opts, "rpc", "s", "l", "z")
        model = read_rpc(opts.rpc)
        gp = invert(model, ImagePoint(opts.s, opts.l), opts.z)
        print(f"u={gp.u:.10g} v={gp.v:.10g} z={gp.z:.10g}")
    else:
        _require(opts, "rpc", "rpc_b", "u", "v", "z")
        a = read_rpc(opts.rpc)
        b = read_rpc(opts.rpc_b)
        angle = intersection_angle(
            a, b, GroundPoint(opts.u, opts.v, opts.z),
            dz_probe=opts.dz_probe, meters_per_unit=opts.meters_per_unit,
        )
        print(f"angle_deg={angle:.10g}")
    return EXIT_OK


def _parse_scene_file(path: str) -> SceneSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        raise  # I/O error, exit 2
    scalars = {}
    buildings = []
    converters = {
        "seed": int, "width": int, "height": int,
        "cell_size": float, "ground_height": float, "ground_intensity": float,
    }
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "building":
                parts = value.split(",")
                if len(parts) != 6:
                    raise ValueError("building needs col,row,ncols,nrows,height,intensity")
                buildings.append(
                    Building(
                        col=int(parts[0]), row=int(parts[1]),
                        n_cols=int(parts[2]), n_rows=int(parts[3]),
                        height=float(parts[4]), intensity=float(parts[5]),
                    )
                )
            elif key in converters:
                scalars[key] = converters[key](value)
            else:
                raise ValueError(f"unknown scene key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    for required in ("seed", "width", "height"):
        if required not in scalars:
            raise ConfigError(f"{path}: missing scene key {required!r}")
    return SceneSpec(buildings=tuple(buildings), **scalars)


def cmd_synth(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "scene", "out_dir")
    spec = _parse_scene_file(opts.scene)
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth, ortho = gen_scene(spec)

    outputs = []
    truth_path = out_dir / "truth.asc"
    ortho_path = out_dir / "ortho.asc"
    _write_grid_atomic(truth, truth_path)
    _write_grid_atomic(ortho, ortho_path)
    outputs += [truth_path, ortho_path]

    n = opts.layers
    for i in range(n):
        frac = i / (n - 1) if n > 1 else 0.0
        sigma = opts.sigma_start + (opts.sigma_end - opts.sigma_start) * frac
        dspec = DegradeSpec(
            seed=spec.seed * 1000 + i,
            gaussian_sigma=sigma,
            spike_prob=opts.spike_prob,
            spike_amp=opts.spike_amp,
            hole_prob=opts.hole_prob,
        )
        layer_path = out_dir / f"layer_{i + 1:02d}.asc"
        _write_grid_atomic(degrade(truth, dspec), layer_path)
        outputs.append(layer_path)

    _write_manifest(
        truth_path, "synth", [opts.scene], outputs, opts,
        seed=spec.seed, started=started,
    )
    return EXIT_OK


_COMMANDS = {
    "fuse": cmd_fuse,
    "rank": cmd_rank,
    "eval": cmd_eval,
    "curve": cmd_curve,
    "rpc": cmd_rpc,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args, args.command)
        return _COMMANDS[args.command](opts)
    except (AsciiGridError, RpcFileError, ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GeometryMismatchError, InsufficientOverlapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except (ConfigError, InversionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
