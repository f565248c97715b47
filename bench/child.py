"""One command of the benchmark, run in its own process.

    python bench/child.py [--trace FILE] cli ARGS...
    python bench/child.py [--trace FILE] register-inputs SEED

``cli`` runs ``dsmfuse.cli.main(ARGS)``.  ``register-inputs`` writes the
register workload's inputs that ``dsmfuse synth`` does not make: the
shifted eval layer, the RPC files and the pair manifest.  It expects the
two synth outputs in ``eval/`` and ``patches/`` of the working directory.

With ``--trace``, the public functions of every dsmfuse layer are wrapped
wherever a module bound them, each call is recorded as a span (name,
start, end, parent, and a few counts read off its arguments and result),
and the spans are written to FILE as JSON when the command ends.  The
package itself is not changed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import numpy as np

import plan

# public functions per module; cli.main is the root span of a command
TRACED = {
    "raster": ("read_asc", "write_asc", "write_pgm", "resample"),
    "fusion": ("median_fuse", "adaptive_median_fuse"),
    "register": ("align",),
    "pairsel": ("read_pair_manifest", "gate_pairs", "rank_pairs"),
    "rpc": ("read_rpc", "intersection_angle"),
    "synth": ("gen_scene", "degrade"),
}


class Recorder:
    """In-memory spans: [id, parent id, name, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, observe=None):
        span = [len(self.spans), self._open[-1] if self._open else None, name, 0.0, 0.0, {}]
        self.spans.append(span)
        self._open.append(span[0])
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._open.pop()
        if observe is not None:
            span[5] = observe(args, kwargs, result)
        return result


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_mb(index, name):
    def observe(args, kwargs, result):
        return {"mb": os.path.getsize(_arg(args, kwargs, index, name)) / 1e6}
    return observe


def _cells(geom) -> int:
    return geom.n_rows * geom.n_cols


def _observe_resample(args, kwargs, result):
    src = _arg(args, kwargs, 0, "src")
    target = _arg(args, kwargs, 1, "target")
    return {"identity": int(src.geometry == target), "cells": _cells(target)}


def _spatial_offsets(cfg) -> int:
    """Window offsets whose spatial weight alone passes the gate."""
    r = cfg.radius
    return sum(
        math.exp(-((di * di + dj * dj) / (2.0 * cfg.delta_s * cfg.delta_s))) > cfg.gamma
        for di in range(-r, r + 1)
        for dj in range(-r, r + 1)
    )


def _observe_adaptive(args, kwargs, result):
    from dsmfuse.fusion import FusionConfig

    stack = _arg(args, kwargs, 0, "stack")
    cfg = _arg(args, kwargs, 2, "cfg") or FusionConfig()
    cells = _cells(stack.geometry)
    return {
        "cells": cells,
        "layers": len(stack.layers),
        "slots": cells * len(stack.layers) * _spatial_offsets(cfg),
    }


def _observe_median(args, kwargs, result):
    stack = _arg(args, kwargs, 0, "stack")
    return {"cells": _cells(stack.geometry), "layers": len(stack.layers)}


def _observe_align(args, kwargs, result):
    from dsmfuse.register import AlignConfig

    cfg = _arg(args, kwargs, 2, "cfg") or AlignConfig()
    return {
        "cells": _cells(_arg(args, kwargs, 1, "reference").geometry),
        "shifts": (2 * cfg.max_search + 1) ** 2,
        "converged": int(result.converged),
        "n_inliers": result.n_inliers,
        "n_total": result.n_total,
    }


def _observe_gate(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "models"))
    return {"pairs": n * (n - 1) // 2, "admitted": len(result)}


OBSERVERS = {
    "raster.read_asc": _file_mb(0, "path"),
    "raster.write_asc": _file_mb(1, "path"),
    "raster.write_pgm": _file_mb(1, "path"),
    "raster.resample": _observe_resample,
    "fusion.adaptive_median_fuse": _observe_adaptive,
    "fusion.median_fuse": _observe_median,
    "register.align": _observe_align,
    "pairsel.gate_pairs": _observe_gate,
}


def install(rec: Recorder) -> None:
    """Replace every binding of a traced function in every dsmfuse module.

    cli, pairsel and register import names directly (``from .raster import
    resample``), so patching only the defining module would miss the calls
    that matter; every module namespace holding the function is rebound.
    """
    import dsmfuse.cli  # noqa: F401  (imports every layer)

    wrappers = {}
    for layer, names in TRACED.items():
        mod = sys.modules[f"dsmfuse.{layer}"]
        for name in names:
            fn = getattr(mod, name)
            span_name = f"{layer}.{name}"

            def wrapper(*args, _fn=fn, _name=span_name, **kwargs):
                return rec.call(_name, _fn, args, kwargs, OBSERVERS.get(_name))

            wrappers[id(fn)] = (fn, functools.wraps(fn)(wrapper))
    for modname, mod in list(sys.modules.items()):
        if modname != "dsmfuse" and not modname.startswith("dsmfuse."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


def linear_ray_model(tan_u: float, tan_v: float):
    """RPC model with s = u + tan_u z and l = v + tan_v z, unit scales."""
    from dsmfuse.rpc import RpcModel

    def unit(index, extra=None):
        c = np.zeros(20)
        c[index] = 1.0
        if extra is not None:
            c[3] = extra
        return c

    return RpcModel(
        num_s=unit(1, tan_u), den_s=unit(0), num_l=unit(2, tan_v), den_l=unit(0),
        s_off=0.0, s_scale=1.0, l_off=0.0, l_scale=1.0,
        u_off=0.0, u_scale=1.0, v_off=0.0, v_scale=1.0, z_off=0.0, z_scale=1.0,
    )


def register_inputs(seed: int) -> int:
    from dsmfuse import raster
    from dsmfuse.rpc import write_rpc

    p = plan.register_plan(seed)
    os.makedirs("reg", exist_ok=True)

    # content moves sx cells east and sy cells north; vacated cells are nodata
    layer = raster.read_asc("eval/layer_01.asc")
    sx, sy = p["shift_cells"]
    n_rows, n_cols = layer.values.shape
    out = np.full_like(layer.values, layer.nodata)
    out[max(0, -sy): n_rows - max(0, sy), max(0, sx): n_cols - max(0, -sx)] = layer.values[
        max(0, sy): n_rows - max(0, -sy), max(0, -sx): n_cols - max(0, sx)
    ]
    raster.write_asc(raster.RasterGrid(layer.geometry, out, layer.nodata), "reg/computed.asc")

    for ident, (tan_u, tan_v) in p["images"].items():
        write_rpc(linear_ray_model(tan_u, tan_v), f"reg/{ident}.rpc")
    rows = ["id_a,id_b,rpc_a_path,rpc_b_path,dsm_path"]
    for pair in p["pairs"]:
        a, b = pair["id_a"], pair["id_b"]
        rows.append(
            f"{a},{b},reg/{a}.rpc,reg/{b}.rpc,patches/layer_{pair['ladder'] + 1:02d}.asc"
        )
    with open("reg/pairs.csv", "w", encoding="ascii") as f:
        f.write("\n".join(rows) + "\n")
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    rec = Recorder()
    if trace_path:
        install(rec)
    import dsmfuse.cli

    what, rest = argv[0], argv[1:]
    if what == "cli":
        code = rec.call("cli.main", dsmfuse.cli.main, (rest,), {})
    elif what == "register-inputs":
        code = rec.call("bench.register_inputs", register_inputs, (int(rest[0]),), {})
    else:
        print(f"unknown child command {what!r}", file=sys.stderr)
        return 2
    if trace_path:
        with open(trace_path, "w", encoding="ascii") as f:
            json.dump(rec.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
