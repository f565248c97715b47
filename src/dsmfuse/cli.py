"""Command-line driver for the fusion pipeline.

Subcommands: fuse, rank, eval, curve, rpc, synth.  Metrics come out as
CSV and previews as PGM so results diff cleanly; ``_write_csv`` writes
every table and is the one statement of its cell rule.  Every
file-producing run also writes a JSON manifest (command, inputs,
configuration, seed, version, wall time) sufficient to reproduce it.

Each command's flags are stated once, in the ``_COMMANDS`` table, with
defaults read from the library's config classes.  The table builds the
argparse parsers and parses ``--config FILE`` values: argparse reads a
``key=value`` line (keys are the flag names with underscores) as that
flag alone, before any input is read; a list value's tokens split on
commas and whitespace.  Explicit flags override the file.  Exit codes: 0
success, 2 I/O error (including an undecodable input file), 3 geometry
mismatch / insufficient overlap, 4 bad configuration (including an
invalid or unknown flag, an output that names an input or another output,
and an undecodable config or scene file).
``run`` is the process entry point; tests and embedders call ``main``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
import time
import warnings
from contextlib import ExitStack, closing, contextmanager
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from . import __version__
from .fusion import FusionConfig, fuse_strips, read_strips
from .pairsel import (
    ManifestError,
    PairGate,
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
    key_value_lines,
    read_asc,
    resample,
    strip_rows,
    write_asc,
    write_pgm,
    write_rows,
)
from .register import AlignConfig, InsufficientOverlapError, Reference, align
from .rpc import (
    DEFAULT_METERS_PER_UNIT,
    GroundPoint,
    ImagePoint,
    InversionError,
    RpcFileError,
    check_probe,
    intersection_angle,
    invert,
    project,
    read_rpc,
)
from .synth import DegradeSpec, degrade, gen_scene, read_scene

EXIT_OK = 0
EXIT_IO = 2
EXIT_GEOMETRY = 3
EXIT_CONFIG = 4

# named, not __name__: under ``python -m dsmfuse.cli`` this module is __main__
log = logging.getLogger("dsmfuse.cli")


class ConfigError(ValueError):
    """Bad flag/config-file combination."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: usage to stderr, then exit 4 through ``main``."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def finite(token: str) -> float:
    """A finite float: argparse names this type in its error, "invalid finite value"."""
    if math.isfinite(value := float(token)):
        return value
    raise ValueError(token)


def _flag(key: str) -> str:
    """rpc's action is the one positional; every other key is a --flag."""
    return key if key == "action" else "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _config_value(command: str, key: str, raw: str):
    """A config value, parsed by a parser of its flag alone (no ``-h``, no other flag),
    so a list token that argparse reads as a flag is refused, as on the command line."""
    kwargs = _COMMANDS[command][2][key][1]
    parser = _Parser(prog=f"dsmfuse {command}", add_help=False, allow_abbrev=False)
    parser.add_argument(flag := _flag(key), **kwargs)
    if key == "action":  # the one positional
        argv = [raw]
    elif "nargs" in kwargs:  # a list: tokens split on commas and whitespace
        argv = [flag, *raw.replace(",", " ").split()]
    else:  # one token, so that a value may begin with "-"
        argv = [f"{flag}={raw}"]
    try:
        return getattr(parser.parse_args(argv), key)
    except ConfigError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _resolve(args: argparse.Namespace, command: str) -> SimpleNamespace:
    """Merge table defaults, config file, then explicit flags."""
    flags = _COMMANDS[command][2]
    opts = {key: default for key, (default, _) in flags.items()}
    if args.config:
        try:
            lines = key_value_lines(args.config, "=", ConfigError, "utf-8-sig")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from None
        for _, key, raw in lines:
            if key not in flags:
                raise ConfigError(f"config key {key!r} is not a flag of 'dsmfuse {command}'")
            opts[key] = _config_value(command, key, raw)
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


def _write_manifest(command: str, opts: SimpleNamespace, started: float, inputs, files, seed=None):
    """The manifest, at the last of ``files``, of a run that read ``inputs`` and wrote the rest."""
    *outputs, path = files
    manifest = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "config": {k: v for k, v in vars(opts).items()},
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    with _atomic(path) as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """The header line, then a line per row tuple, by the one cell rule of every CLI table:
    ``true``/``false``, a float to six decimals (``None``, no value, as ``nan``), else ``str``."""
    def cell(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        return "nan" if value is None else f"{value:.6f}" if isinstance(value, float) else str(value)
    lines = [header, *(",".join(map(cell, row)) for row in rows)]
    with _atomic(path) as tmp:
        tmp.write_text("".join(f"{line}\n" for line in lines), encoding="ascii")


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


def _open_sources(paths, exits: ExitStack):
    """The first input's geometry and a row source per input, every header read first:
    an open ``GridReader`` on that geometry, else the input resampled onto it.  An input,
    ortho included, that holds samples but none on that grid is an error."""
    readers = [exits.enter_context(GridReader(p)) for p in paths]
    target = readers[0].geometry
    for k, path in enumerate(paths):
        if readers[k].geometry != target:
            readers[k] = resample(grid := readers[k].grid(), target)
            if grid.valid_mask().any() and not readers[k].valid_mask().any():
                raise GeometryMismatchError(f"{path} does not overlap the first layer's grid")
    return target, readers


def _outputs(opts: SimpleNamespace, inputs, preview: bool = False) -> list[Path]:
    """``--out``, ``fuse``'s ``.pgm`` preview and ``<out>.manifest.json``, each checked,
    before any input is read, to lie in an existing directory and not be one (exit 2),
    and to name neither another of them nor an input after ``os.path.realpath`` (exit 4)."""
    out = Path(opts.out)
    if not out.parent.is_dir():
        raise FileNotFoundError(f"output directory {out.parent} does not exist")
    files = {"--out": out, **({"its .pgm preview": out.with_suffix(".pgm")} if preview else {}),
             "its manifest": Path(f"{out}.manifest.json")}
    taken = {os.path.realpath(p): f"input {p}" for p in inputs}
    for what, path in files.items():
        if path.is_dir():
            raise IsADirectoryError(f"{what} {path} is a directory")
        if (key := os.path.realpath(path)) in taken:
            raise ConfigError(f"{taken[key]} would be overwritten by {what} {path}")
        taken[key] = f"{what} {path}"
    return list(files.values())


def _spilled_strips(f, n_cols: int):
    """Row strips of the float64 rows spilled to binary file ``f``, from its start."""
    f.seek(0)
    rows = strip_rows(n_cols, 8)  # the preview's temporaries share one strip budget
    while chunk := f.read(rows * n_cols * 8):
        yield np.frombuffer(chunk).reshape(-1, n_cols)


def _spilled_grid(f, geometry) -> RasterGrid:
    """The grid of the float64 rows spilled to binary file ``f``, on the bytes of one read."""
    f.seek(0)
    return RasterGrid(geometry, np.frombuffer(f.read()).reshape(geometry.n_rows, geometry.n_cols))


def cmd_fuse(opts: SimpleNamespace):
    _require(opts, "layers", "out")
    fcfg = _fusion_config(opts)
    adaptive = opts.mode == "adaptive"
    if adaptive and not opts.ortho:
        raise ConfigError("--ortho is required when --mode is adaptive")
    inputs = list(opts.layers) + ([opts.ortho] if adaptive else [])
    files = out, preview, _ = _outputs(opts, inputs, preview=True)
    with ExitStack() as exits:
        target, sources = _open_sources(inputs, exits)
        nodata = sources[0].nodata
        header = asc_header(target, nodata).encode("ascii")
        fused_rows = fuse_strips(read_strips(sources), fcfg if adaptive else None, opts.jobs)
        exits.enter_context(closing(fused_rows))
        # the fused rows again, for the preview's min-max stretch once all are seen
        spill = exits.enter_context(tempfile.TemporaryFile(dir=out.parent))
        vmin, vmax = np.inf, -np.inf
        with _atomic(out) as tmp, open(tmp, "wb") as f:
            f.write(header)
            for (rows,) in fused_rows:
                write_rows(f, rows, nodata)
                ok = np.isfinite(rows)
                vmin, vmax = rows.min(initial=vmin, where=ok), rows.max(initial=vmax, where=ok)
                spill.write(rows.tobytes())
        with _atomic(preview) as tmp:
            write_pgm(_spilled_strips(spill, target.n_cols), tmp, target, vmin, vmax)
    return inputs, files


def cmd_rank(opts: SimpleNamespace):
    _require(opts, "manifest", "truth", "out")
    acfg = _align_config(opts)
    gate = PairGate(min_angle=opts.min_angle, max_angle=opts.max_angle, top_k=opts.top_k)
    check_probe(opts.meters_per_unit)
    files = out, _ = _outputs(opts, inputs := [opts.manifest, opts.truth])
    rpc_paths, pairs = read_pair_manifest(opts.manifest)
    _outputs(opts, [*rpc_paths.values(), *pairs.values()])  # nor a file the manifest lists
    truth = read_asc(opts.truth)
    cx, cy = truth.geometry.center_point()
    at = GroundPoint(cx, cy, 0.0) if opts.at is None else GroundPoint(*opts.at)

    models = [(ident, read_rpc(path)) for ident, path in rpc_paths.items()]
    candidates = gate_pairs(models, at, pairs, gate, opts.meters_per_unit)
    if not candidates:
        log.warning("no pairs inside the intersection-angle gate")
    ranked = rank_pairs(candidates, truth, acfg, gate)
    _write_csv(out, "id_a,id_b,angle_deg,rank_rmse_m,selected",
               [(r.id_a, r.id_b, r.angle_deg, r.rank_rmse, r.selected) for r in ranked])
    return inputs, files


def cmd_eval(opts: SimpleNamespace):
    _require(opts, "computed", "truth", "out")
    acfg = _align_config(opts)
    files = out, _ = _outputs(opts, inputs := [opts.computed, opts.truth])
    r = align(read_asc(opts.computed), read_asc(opts.truth), acfg)
    _write_csv(out, "rmse_inliers_m,rmse_all_m,dx_m,dy_m,dz_m,n_inliers,n_total,converged",
               [(r.rmse_inliers, r.rmse_all, *r.shift, r.n_inliers, r.n_total, r.converged)])
    return inputs, files


def cmd_curve(opts: SimpleNamespace):
    _require(opts, "layers", "ortho", "truth", "out")
    fcfg, acfg = _fusion_config(opts), _align_config(opts)
    inputs, ks = [*opts.layers, opts.ortho], range(1, len(opts.layers) + 1)
    files = out, _ = _outputs(opts, [*inputs, opts.truth])
    with ExitStack() as exits:
        target, sources = _open_sources(inputs, exits)
        truth = exits.enter_context(GridReader(opts.truth))  # its header checked before fusing
        # each k's fused grids go to disk a strip at a time, each to its own unlinked
        # file in the --out directory; one k's pair comes back at a time to align
        adaptive, median = (
            [exits.enter_context(tempfile.TemporaryFile(dir=out.parent)) for _ in ks] for _ in range(2)
        )

        def keep(spills, fused):
            for f, rows in zip(spills, fused):
                f.write(rows.tobytes())

        def medians_too(strips):  # ks stops short of the ortho: the median sorts copies
            for strip in strips:
                keep(median, next(fuse_strips([strip], ks=ks)))
                yield strip
        for fused in fuse_strips(medians_too(read_strips(sources)), fcfg, opts.jobs, ks):
            keep(adaptive, fused)
        truth = Reference(truth.grid())

        _write_csv(out, "k,rmse_adaptive_m,rmse_median_m", [
            (k, *(align(_spilled_grid(f, target), truth, acfg).rmse_all for f in pair))
            for k, pair in zip(ks, zip(adaptive, median))
        ])
    return [*inputs, opts.truth], files


def cmd_rpc(opts: SimpleNamespace) -> None:
    _require(opts, "action")
    if opts.action == "project":
        _require(opts, "rpc", "u", "v", "z")
        ip = project(read_rpc(opts.rpc), GroundPoint(opts.u, opts.v, opts.z))
        print(f"s={ip.s:.10g} l={ip.l:.10g}")
    elif opts.action == "invert":
        _require(opts, "rpc", "s", "l", "z")
        gp = invert(read_rpc(opts.rpc), ImagePoint(opts.s, opts.l), opts.z)
        print(f"u={gp.u:.10g} v={gp.v:.10g} z={gp.z:.10g}")
    else:
        _require(opts, "rpc", "rpc_b", "u", "v", "z")
        check_probe(opts.meters_per_unit)
        a, b = read_rpc(opts.rpc), read_rpc(opts.rpc_b)
        angle = intersection_angle(a, b, GroundPoint(opts.u, opts.v, opts.z), opts.meters_per_unit)
        print(f"angle_deg={angle:.10g}")


def cmd_synth(opts: SimpleNamespace):
    _require(opts, "scene", "out_dir")
    lo, hi, n = opts.sigma_start, opts.sigma_end, opts.layers
    if n < 0:
        raise ConfigError(f"--layers must be >= 0, got {n}")
    spec = read_scene(opts.scene, ConfigError)
    dspecs = [  # every layer's spec is checked before anything is written
        DegradeSpec(
            seed=spec.seed * 1000 + i, gaussian_sigma=lo + (hi - lo) * (i / max(n - 1, 1)),
            spike_prob=opts.spike_prob, spike_amp=opts.spike_amp, hole_prob=opts.hole_prob,
        )
        for i in range(n)
    ]
    truth, ortho = gen_scene(spec)
    out_dir = Path(opts.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    layers = [f"layer_{i:02d}" for i in range(1, n + 1)]
    outputs = [out_dir / f"{name}.asc" for name in ("truth", "ortho", *layers)]
    grids = chain([truth, ortho], (degrade(truth, dspec) for dspec in dspecs))
    for path in outputs:  # each layer is degraded only as it is written
        with _atomic(path) as tmp:
            write_asc(next(grids), tmp)
    return [opts.scene], [*outputs, Path(f"{outputs[0]}.manifest.json")], spec.seed


# flags shared by several commands: key -> (default, argparse keywords)
_FUSION_FLAGS = {
    "delta_s": (FusionConfig.delta_s, {"type": float, "help": "spatial scale, cells"}),
    "delta_i": (FusionConfig.delta_i, {"type": float, "help": "intensity scale, gray levels"}),
    "gamma": (FusionConfig.gamma, {"type": float, "help": "window membership threshold"}),
    "radius": (FusionConfig.radius, {"type": int, "help": "search window half-width, cells"}),
    "jobs": (1, {"type": int, "help": "threads fusing adaptive row blocks (median ignores it)"}),
}
_ALIGN_FLAGS = {
    "threshold": (
        AlignConfig.blunder_threshold, {"type": float, "help": "alignment blunder gate, meters"}
    ),
    "max_search": (AlignConfig.max_search, {
        "type": int, "help": "bound, in cells, of the coarse-to-fine integer shift search; "
        "a shift is scored only if its window holds half the cells valid in both grids unshifted",
    }),
}
_RAY_FLAGS = {"meters_per_unit": (DEFAULT_METERS_PER_UNIT, {"type": float})}

# every flag of every command, stated once: command -> (handler, help,
# {key: (default, argparse keywords)}).  A None default means "not set".
_COMMANDS = {
    "fuse": (cmd_fuse, "fuse a stack of depth maps", {
        "layers": (None, {"nargs": "+", "help": "depth-map ASCII grids, one per pair"}),
        "ortho": (None, {"help": "reference orthophoto grid (adaptive mode)"}),
        "out": (None, {"help": "output DSM path (.asc)"}),
        "mode": ("median", {"choices": ("median", "adaptive")}),
        **_FUSION_FLAGS,
    }),
    "rank": (cmd_rank, "gate and rank stereo pairs", {
        "manifest": (None, {"help": "pair manifest CSV"}),
        "truth": (None, {"help": "ground-truth patch (.asc)"}),
        "out": (None, {"help": "output ranking CSV"}),
        "min_angle": (PairGate.min_angle, {"type": float}),
        "max_angle": (PairGate.max_angle, {"type": float}),
        "top_k": (PairGate.top_k, {"type": int}),
        "at": (None, {
            "nargs": 3, "type": finite, "metavar": ("U", "V", "Z"),
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
        **{key: (None, {"type": finite}) for key in ("u", "v", "z", "s", "l")},
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


@contextmanager
def _stderr_logging():
    """A root stderr handler at level WARNING for the call, as ``logging.basicConfig``
    would add, unless logging is configured; the root logger is left as found."""
    root = logging.getLogger()
    if root.handlers:
        yield
        return
    handler, level = logging.StreamHandler(), root.level
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.WARNING)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


def main(argv=None) -> int:
    started = time.perf_counter()
    # the caller's logging, warning hook and warning filters come back on return
    with _stderr_logging(), warnings.catch_warnings():
        warnings.showwarning = _log_warning
        try:
            args = _build_parser().parse_args(argv)
            opts = _resolve(args, args.command)
            wrote = _COMMANDS[args.command][0](opts)  # (inputs, outputs + [manifest][, seed])
            if wrote:
                _write_manifest(args.command, opts, started, *wrote)
        except (AsciiGridError, RpcFileError, ManifestError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (GeometryMismatchError, InsufficientOverlapError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_GEOMETRY
        except (ConfigError, InversionError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


def run(argv=None) -> NoReturn:
    """``main`` as a whole process: flush stdout and stderr, then ``os._exit``,
    skipping the interpreter's teardown (tens of milliseconds with numpy loaded).

    Safe because ``main`` returns only once every file it opened is closed and
    every ``_atomic`` rename is done, no worker thread is alive (the fusion pool
    sits in a ``with``) and every log line has gone to stderr.  Under a profiler
    or tracer, whose exit hooks must run, or when a flush raises, so that a broken
    pipe or a full disk is reported, the normal exit runs instead.
    """
    code = main(argv)
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile, coverage
    if not (sys.getprofile() or sys.gettrace()
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):  # no stream, closed, or a write failed
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
