"""Command-line driver for the fusion pipeline.

Subcommands: fuse, rank, eval, curve, rpc, synth.  Metrics come out as
CSV and previews as PGM so results diff cleanly; every file-producing run
also writes a JSON manifest (command, inputs, configuration, seed,
version, wall time) sufficient to reproduce it.

Each command's flags are stated once, in the ``_COMMANDS`` table, with
defaults read from the library's config classes.  The table builds the
argparse parsers and converts ``--config FILE`` values: a ``key=value``
line (keys are the flag names with underscores) is checked exactly like
the flag (type, choices, number of values; list values split on commas
and whitespace), before any input is read.  Explicit flags override the
file.  Exit codes: 0 success, 2 I/O error (including an undecodable input
file), 3 geometry mismatch / insufficient overlap, 4 bad configuration
(including an undecodable config or scene file).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
import warnings
from contextlib import ExitStack, closing, contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .fusion import DepthStack, FusionConfig, adaptive_median_fuse, fuse_strips, median_fuse
from .fusion import read_strips
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
    GridReader,
    RasterGrid,
    asc_header,
    decode_errors_as,
    read_asc,
    resample,
    strip_rows,
    valid,
    write_asc,
    write_pgm,
    write_rows,
)
from .register import AlignConfig, InsufficientOverlapError, align
from .rpc import (
    DEFAULT_DZ_PROBE,
    DEFAULT_METERS_PER_UNIT,
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

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad flag/config-file combination."""


def _flag(key: str) -> str:
    """rpc's action is the one positional; every other key is a --flag."""
    return key if key == "action" else "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmfuse",
        description="Fuse stereo-derived depth maps into a digital surface model.",
    )
    parser.add_argument("--version", action="version", version=f"dsmfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (_, kwargs) in flags.items():
            p.add_argument(_flag(key), **kwargs)
        p.add_argument("--config", help="key=value file; flags override it")
    return parser


def _key_value_lines(path: str) -> list[tuple[int, str, str]]:
    """``(lineno, key, value)`` per ``key=value`` line; blank and # lines skipped."""
    with decode_errors_as(ConfigError, path, "utf-8"):
        text = Path(path).read_text(encoding="utf-8")
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out.append((lineno, key.strip(), value.strip()))
    return out


def _convert(key: str, raw: str, kwargs: dict):
    """A config-file value, checked as argparse checks the flag: type,
    choices and nargs (list values split on commas and whitespace)."""
    nargs = kwargs.get("nargs")
    single = nargs in (None, "?")
    tokens = [raw] if single else raw.replace(",", " ").split()
    try:
        vals = [kwargs.get("type", str)(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad value {raw!r}") from None
    choices = kwargs.get("choices")
    if choices and any(v not in choices for v in vals):
        raise ConfigError(f"config key {key!r}: {raw!r} is not one of {', '.join(choices)}")
    if not vals or isinstance(nargs, int) and len(vals) != nargs:
        raise ConfigError(f"config key {key!r}: wrong number of values in {raw!r}")
    return vals[0] if single else vals


def _resolve(args: argparse.Namespace, command: str) -> SimpleNamespace:
    """Merge table defaults, config file, then explicit flags."""
    flags = _COMMANDS[command][2]
    opts = {key: default for key, (default, _) in flags.items()}
    if args.config:
        try:
            lines = _key_value_lines(args.config)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        for _, key, raw in lines:
            if key not in flags:
                raise ConfigError(
                    f"config key {key!r} is not a flag of 'dsmfuse {command}'"
                )
            opts[key] = _convert(key, raw, flags[key][1])
    for key in flags:
        val = getattr(args, key)
        if val is not None:
            opts[key] = val
    return SimpleNamespace(**opts)


def _require(opts: SimpleNamespace, *keys: str) -> None:
    for key in keys:
        if getattr(opts, key) in (None, [], ""):
            raise ConfigError(f"{_flag(key)} is required")


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


def _ortho_checked(strips):
    """``strips`` as they come; warns once if the ortho, their last grid, leaves [0, 255]."""
    warn = True
    for strip in strips:
        if warn and ((strip[..., -1] < 0.0) | (strip[..., -1] > 255.0)).any():
            warn = False
            log.warning("ortho intensities outside [0, 255]; "
                        "delta-i is calibrated for a 0-255 gray scale")
        yield strip


def _align_config(opts: SimpleNamespace) -> AlignConfig:
    """The align flags, checked before any input is read."""
    return AlignConfig(blunder_threshold=opts.threshold, max_search=opts.max_search)


def _fusion_config(opts: SimpleNamespace) -> FusionConfig:
    """The fusion flags, checked (``--jobs`` included) before any input is read."""
    if opts.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {opts.jobs}")
    return FusionConfig(
        delta_s=opts.delta_s, delta_i=opts.delta_i, gamma=opts.gamma, radius=opts.radius
    )


def _open_sources(paths, n_layers: int, target_path, method, exits: ExitStack):
    """The target geometry and a row source per input, every header read first:
    an open ``GridReader`` on the target geometry, else the input resampled onto
    it.  A layer wholly off the target is an error; an ortho off it is not."""
    readers = [exits.enter_context(GridReader(p)) for p in [*paths, target_path] if p]
    target = (readers.pop() if target_path else readers[0]).geometry
    for k, path in enumerate(paths):
        if readers[k].geometry != target:
            layer = read_asc(path)
            readers[k] = resample(layer, target, method)
            if k < n_layers and layer.valid_mask().any() and not readers[k].valid_mask().any():
                raise GeometryMismatchError(f"{path} does not overlap the target geometry")
    return target, readers


def _out_path(opts: SimpleNamespace) -> Path:
    """``--out``, checked to lie in an existing directory before any input is read."""
    out = Path(opts.out)
    if not out.parent.is_dir():
        raise FileNotFoundError(f"output directory {out.parent} does not exist")
    return out


def _spilled_strips(f, n_cols: int):
    """Row strips of the float64 rows in binary file ``f``, from its position on."""
    rows = strip_rows(n_cols, 8)  # the preview's temporaries share one strip budget
    while chunk := f.read(rows * n_cols * 8):
        yield np.frombuffer(chunk).reshape(-1, n_cols)


def cmd_fuse(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "layers", "out")
    fcfg = _fusion_config(opts)
    adaptive = opts.mode == "adaptive"
    if adaptive and not opts.ortho:
        raise ConfigError("--ortho is required when --mode is adaptive")
    inputs = list(opts.layers) + ([opts.ortho] if adaptive else [])
    out = _out_path(opts)
    preview = out.with_suffix(".pgm")
    with ExitStack() as exits:
        target, sources = _open_sources(
            inputs, len(opts.layers), opts.target_geometry, opts.resample_method, exits
        )
        nodata = sources[0].nodata
        header = asc_header(target, nodata)
        strips = _ortho_checked(read_strips(sources)) if adaptive else read_strips(sources)
        fused_rows = fuse_strips(strips, fcfg if adaptive else None, opts.jobs)
        exits.enter_context(closing(fused_rows))
        # the fused rows again, for the preview's min-max stretch once all are seen
        spill = exits.enter_context(tempfile.TemporaryFile(dir=out.parent))
        vmin, vmax = np.inf, -np.inf
        with _atomic(out) as tmp, open(tmp, "w", encoding="ascii") as f:
            f.write(header)
            for rows in fused_rows:
                rows[~np.isfinite(rows)] = nodata
                write_rows(f, rows)
                ok = valid(rows, nodata)
                vmin, vmax = rows.min(initial=vmin, where=ok), rows.max(initial=vmax, where=ok)
                spill.write(rows.tobytes())
        spill.seek(0)
        with _atomic(preview) as tmp:
            write_pgm(_spilled_strips(spill, target.n_cols), tmp, target, nodata, vmin, vmax)
    _write_manifest(out, "fuse", inputs, [out, preview], opts, started=started)
    return EXIT_OK


def cmd_rank(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "manifest", "truth", "out")
    acfg = _align_config(opts)
    out = _out_path(opts)
    entries = read_pair_manifest(opts.manifest)
    truth = read_asc(opts.truth)
    if opts.at is None:
        cx, cy = truth.geometry.center_point()
        at = GroundPoint(cx, cy, 0.0)
    else:
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
        log.warning("no pairs inside the intersection-angle gate")
        ranked = []
    else:
        ranked = rank_pairs(candidates, truth, acfg, gate)

    lines = ["id_a,id_b,angle_deg,rank_rmse_m,selected"]
    for r in ranked:
        rank_txt = "nan" if r.rank_rmse is None else f"{r.rank_rmse:.6f}"
        lines.append(
            f"{r.id_a},{r.id_b},{r.angle_deg:.6f},{rank_txt},"
            f"{'true' if r.selected else 'false'}"
        )
    _write_text_atomic("\n".join(lines) + "\n", out)
    _write_manifest(out, "rank", [opts.manifest, opts.truth], [out], opts, started=started)
    return EXIT_OK


def cmd_eval(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "computed", "truth", "out")
    acfg = _align_config(opts)
    out = _out_path(opts)
    computed = read_asc(opts.computed)
    truth = read_asc(opts.truth)
    res = align(computed, truth, acfg)
    lines = [
        "rmse_inliers_m,rmse_all_m,dx_m,dy_m,dz_m,n_inliers,n_total,converged",
        f"{res.rmse_inliers:.6f},{res.rmse_all:.6f},"
        f"{res.shift[0]:.6f},{res.shift[1]:.6f},{res.shift[2]:.6f},"
        f"{res.n_inliers},{res.n_total},{'true' if res.converged else 'false'}",
    ]
    _write_text_atomic("\n".join(lines) + "\n", out)
    _write_manifest(out, "eval", [opts.computed, opts.truth], [out], opts, started=started)
    return EXIT_OK


def cmd_curve(opts: SimpleNamespace) -> int:
    started = time.perf_counter()
    _require(opts, "layers", "ortho", "truth", "out")
    fcfg, acfg = _fusion_config(opts), _align_config(opts)
    out = _out_path(opts)
    with ExitStack() as exits:
        target, sources = _open_sources(
            [*opts.layers, opts.ortho], len(opts.layers), None, opts.resample_method, exits
        )
        stack = np.concatenate(list(_ortho_checked(read_strips(sources))))
    *layers, ortho = [RasterGrid(target, stack[..., k]) for k in range(stack.shape[2])]
    truth = read_asc(opts.truth)

    lines = ["k,rmse_adaptive_m,rmse_median_m"]
    for k in range(1, len(layers) + 1):
        top = DepthStack(layers=layers[:k])
        fused_a = adaptive_median_fuse(top, ortho, fcfg, jobs=opts.jobs)
        fused_m = median_fuse(top)
        res_a = align(fused_a, truth, acfg)
        res_m = align(fused_m, truth, acfg)
        lines.append(f"{k},{res_a.rmse_all:.6f},{res_m.rmse_all:.6f}")
    _write_text_atomic("\n".join(lines) + "\n", out)
    _write_manifest(
        out, "curve", list(opts.layers) + [opts.ortho, opts.truth], [out], opts,
        started=started,
    )
    return EXIT_OK


def cmd_rpc(opts: SimpleNamespace) -> int:
    _require(opts, "action")
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
    scalars = {}
    buildings = []
    converters = {
        "seed": int, "width": int, "height": int,
        "cell_size": float, "ground_height": float, "ground_intensity": float,
    }
    for lineno, key, value in _key_value_lines(path):
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


# flags shared by several commands: key -> (default, argparse keywords)
_FUSION_FLAGS = {
    "delta_s": (FusionConfig.delta_s, {"type": float, "help": "spatial scale, cells"}),
    "delta_i": (FusionConfig.delta_i, {"type": float, "help": "intensity scale, gray levels"}),
    "gamma": (FusionConfig.gamma, {"type": float, "help": "window membership threshold"}),
    "radius": (FusionConfig.radius, {"type": int, "help": "search window half-width, cells"}),
    "jobs": (1, {"type": int, "help": "parallel row-block workers"}),
    "resample_method": ("bilinear", {"choices": ("nearest", "bilinear")}),
}
_ALIGN_FLAGS = {
    "threshold": (
        AlignConfig.blunder_threshold, {"type": float, "help": "alignment blunder gate, meters"}
    ),
    "max_search": (AlignConfig.max_search, {
        "type": int, "help": "bound, in cells, of the coarse-to-fine integer shift search",
    }),
}
_RAY_FLAGS = {
    "dz_probe": (DEFAULT_DZ_PROBE, {"type": float}),
    "meters_per_unit": (DEFAULT_METERS_PER_UNIT, {"type": float}),
}

# every flag of every command, stated once: command -> (handler, help,
# {key: (default, argparse keywords)}).  A None default means "not set".
_COMMANDS = {
    "fuse": (cmd_fuse, "fuse a stack of depth maps", {
        "layers": (None, {"nargs": "+", "help": "depth-map ASCII grids, one per pair"}),
        "ortho": (None, {"help": "reference orthophoto grid (adaptive mode)"}),
        "out": (None, {"help": "output DSM path (.asc)"}),
        "mode": ("median", {"choices": ("median", "adaptive")}),
        **_FUSION_FLAGS,
        "target_geometry": (None, {"help": "grid whose geometry the stack adopts"}),
    }),
    "rank": (cmd_rank, "gate and rank stereo pairs", {
        "manifest": (None, {"help": "pair manifest CSV"}),
        "truth": (None, {"help": "ground-truth patch (.asc)"}),
        "out": (None, {"help": "output ranking CSV"}),
        "min_angle": (PairGate.min_angle, {"type": float}),
        "max_angle": (PairGate.max_angle, {"type": float}),
        "top_k": (PairGate.top_k, {"type": int}),
        "at": (None, {
            "nargs": 3, "type": float, "metavar": ("U", "V", "Z"),
            "help": "ground point for angle evaluation (default: truth center)",
        }),
        **_RAY_FLAGS,
        **_ALIGN_FLAGS,
    }),
    "eval": (cmd_eval, "align a DSM to truth and report RMSE", {
        "computed": (None, {"help": "computed DSM (.asc)"}),
        "truth": (None, {"help": "ground-truth DSM (.asc)"}),
        "out": (None, {"help": "output metrics CSV"}),
        **_ALIGN_FLAGS,
    }),
    "curve": (cmd_curve, "RMSE vs number of fused layers, both methods", {
        "layers": (None, {"nargs": "+", "help": "depth maps sorted by pair rank"}),
        "ortho": (None, {"help": "reference orthophoto grid"}),
        "truth": (None, {"help": "ground-truth DSM (.asc)"}),
        "out": (None, {"help": "output curve CSV"}),
        **_FUSION_FLAGS,
        **_ALIGN_FLAGS,
    }),
    "rpc": (cmd_rpc, "evaluate a sensor model", {
        "action": (None, {"nargs": "?", "choices": ("project", "invert", "angle")}),
        "rpc": (None, {"help": "RPC text file"}),
        "rpc_b": (None, {"help": "second RPC file (angle)"}),
        **{key: (None, {"type": float}) for key in ("u", "v", "z", "s", "l")},
        **_RAY_FLAGS,
    }),
    "synth": (cmd_synth, "generate a synthetic scene", {
        "scene": (None, {"help": "scene spec file (key=value lines)"}),
        "out_dir": (None, {"help": "output directory"}),
        "layers": (0, {"type": int, "help": "number of degraded layers to emit"}),
        "sigma_start": (0.5, {"type": float}),
        "sigma_end": (0.5, {"type": float}),
        "spike_prob": (0.0, {"type": float}),
        "spike_amp": (10.0, {"type": float}),
        "hole_prob": (0.0, {"type": float}),
    }),
}


def _log_warning(message, category, *where, _show=warnings.showwarning):
    """Log dsmfuse's own warning categories; ``warnings`` has deduped them per message."""
    if not category.__module__.startswith("dsmfuse."):
        return _show(message, category, *where)
    logging.getLogger(category.__module__).warning("%s", message)


def main(argv=None) -> int:
    # one stderr handler for library warnings; a no-op if logging is configured
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", level=logging.WARNING)
    args = _build_parser().parse_args(argv)
    warnings.showwarning = _log_warning
    try:
        return _COMMANDS[args.command][0](_resolve(args, args.command))
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
