#!/usr/bin/env python3
"""dsmfuse benchmark: one workload per call, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dsmfuse checkout; the package is used from ``src/``.
Each run builds its inputs from the seed through ``dsmfuse synth`` (plus,
for ``register``, the shifted layer, RPC files and manifest written by
``bench/child.py``), SETUP_REPEATS times, alternating with timed passes,
one ``dsmfuse`` process at a time with ``--jobs 1``, until the passes add
up to S seconds and at least MIN_PASSES ran.  A run of the fixed reference
work (``bench/reference.py``) comes before and after every set-up and
pass, and times are reported at the reference speed.  Outputs are checked
after timing: exit codes, manifests, byte-identical outputs across passes
and set-ups, and per workload a fusion spot-oracle or the eval/rank
answers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sets up once
under tracing, then alternates untraced and traced passes and prints the
per-layer metrics derived from the spans (see bench/README.md).  The last
line of stdout is one JSON object; the full record (samples, sha256 of
every output, quality figures, computed counts, machine) goes to
``.bench_results/`` and the spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import plan

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 4
RUN_DEADLINE_S = 150  # processes still running then are killed; a run must end by 180 s
ORACLE_ROWS = 14  # random center rows, plus the first and last row
ORACLE_COLS = 32  # random cells per sampled row
CELL_BYTES = 8  # one float64 candidate slot
# Times are reported at a fixed host speed: each sample's wall time is
# divided by the mean wall time of the reference runs just before and after
# it (bench/reference.py) and multiplied by REF_S, the reference's wall time
# on the host of the figures in bench/README.md.  Raw times are in the record.
REF_S = 1.00

ASC_HEADER = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value")
EVAL_HEADER = "rmse_inliers_m,rmse_all_m,dx_m,dy_m,dz_m,n_inliers,n_total,converged"
RANK_HEADER = "id_a,id_b,angle_deg,rank_rmse_m,selected"


@dataclass
class Proc:
    wall_s: float
    cpu_s: float  # user + system time of the process
    peak_rss_mb: float


@dataclass
class Tally:
    """Operations attempted and failed: commands run and output checks."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Runner:
    """Starts dsmfuse processes in the work directory, one at a time."""

    def __init__(self, work: Path, src: Path, tally: Tally, deadline: float):
        self.work = work
        self.tally = tally
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
            # single-threaded baseline: no BLAS threads competing on a small box
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )
        self.log = work / "stderr.txt"

    def run(self, argv: list[str], trace: str | None = None) -> Proc:
        """Run ``dsmfuse ARGV`` (or a child.py command) and wait for it."""
        if argv[0] == "register-inputs" or trace:
            cmd = [sys.executable, str(BENCH / "child.py")]
            cmd += ["--trace", trace] if trace else []
            cmd += argv if argv[0] == "register-inputs" else ["cli", *argv]
        else:
            cmd = [sys.executable, "-m", "dsmfuse.cli", *argv]
        return self.spawn(cmd, argv[0])

    def reference(self) -> float:
        """Wall time of one run of the fixed reference work."""
        return self.spawn([sys.executable, str(BENCH / "reference.py")], "reference").wall_s

    def spawn(self, cmd: list[str], what: str) -> Proc:
        """Run CMD and wait for it; peak RSS comes from its rusage via os.wait4."""
        with open(self.log, "w", encoding="utf-8") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(max(1.0, self.deadline - started), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = self.log.read_text(encoding="utf-8", errors="replace").strip()
        self.tally.check(proc.returncode == 0,
                         f"{what} exited {proc.returncode}: {stderr[-300:]}")
        return Proc(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss * 1024 / 1e6)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hash_outputs(work: Path, patterns: list[str]) -> dict[str, str]:
    return {
        str(p.relative_to(work)): sha256(p)
        for pattern in patterns
        for p in sorted(work.glob(pattern))
    }


# --------------------------------------------------------------------------
# workloads: set-up commands, pass commands, outputs and their checks


class Workload:
    setup_dirs: list[str]
    setup_outputs: list[str]
    pass_outputs: list[str]
    check_outputs: list[str] = []

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup_cmds(self) -> list[list[str]]:
        raise NotImplementedError

    def pass_cmds(self) -> list[list[str]]:
        raise NotImplementedError

    def check_cmds(self) -> list[list[str]]:
        """Commands run once after the timed passes, for their answers."""
        return []

    def cells(self) -> int:
        """Output (fuse) or moving-grid (align) cells of one pass."""
        raise NotImplementedError

    def check(self, tally: Tally) -> dict:
        """Check the outputs of the last pass and of the check commands;
        return quality figures."""
        raise NotImplementedError


class Fuse(Workload):
    setup_dirs = ["data"]
    setup_outputs = ["data/*.asc"]
    pass_outputs = ["out/fused.asc", "out/fused.pgm"]

    def __init__(self, seed, work, mode):
        super().__init__(seed, work)
        self.mode = mode

    def setup_cmds(self):
        (self.work / "scene.txt").write_text(plan.scene_text(self.seed, plan.FUSE_SIZE))
        return [plan.synth_args("scene.txt", "data", plan.FUSE_LAYERS, plan.FUSE_SIGMA)]

    def layer_paths(self):
        return [f"data/layer_{i:02d}.asc" for i in range(1, plan.FUSE_LAYERS + 1)]

    def pass_cmds(self):
        cmd = ["fuse", "--layers", *self.layer_paths(), "--mode", self.mode,
               "--jobs", "1", "--out", "out/fused.asc"]
        if self.mode == "adaptive":
            cmd += ["--ortho", "data/ortho.asc"]
        return [cmd]

    def cells(self):
        return plan.FUSE_SIZE * plan.FUSE_SIZE

    def check(self, tally):
        from dsmfuse.raster import AsciiGridError, read_asc
        from dsmfuse.register import rmse

        try:
            fused = read_asc(self.work / "out/fused.asc")
        except (OSError, ValueError, AsciiGridError) as exc:
            tally.check(False, f"fused DSM unreadable: {exc}")
            return {}
        try:
            rmse_m, _ = rmse(fused, read_asc(self.work / "data/truth.asc"))
            tally.check(math.isfinite(rmse_m), f"rmse against truth is {rmse_m}")
        except ValueError as exc:  # geometry mismatch or no overlap
            rmse_m = float("nan")
            tally.check(False, f"rmse against truth: {exc}")
        return {"rmse_m": rmse_m, **spot_oracle(self, tally)}


class Register(Workload):
    """Timed pass: rank.  eval runs once per run, after the passes.

    An eval pass takes about a third longer whenever align's Gauss-Newton
    stage fails to converge, which happens on roughly a quarter of the
    seeds, so timing it would make wall_s bimodal across seeds.  rank's
    nine aligns average that out.
    """

    setup_dirs = ["eval", "patches", "reg"]
    setup_outputs = ["eval/*.asc", "patches/*.asc", "reg/*"]
    pass_outputs = ["out/rank.csv"]
    check_outputs = ["out/eval.csv"]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.plan = plan.register_plan(seed)

    def setup_cmds(self):
        (self.work / "eval.txt").write_text(plan.scene_text(self.seed, plan.EVAL_SIZE))
        (self.work / "patch.txt").write_text(plan.scene_text(self.seed, plan.PATCH_SIZE))
        n_pairs = len(self.plan["pairs"])
        return [
            plan.synth_args("eval.txt", "eval", 1, (plan.EVAL_SIGMA, plan.EVAL_SIGMA)),
            plan.synth_args("patch.txt", "patches", n_pairs, plan.PATCH_SIGMA),
            ["register-inputs", str(self.seed)],
        ]

    def pass_cmds(self):
        return [
            ["rank", "--manifest", "reg/pairs.csv", "--truth", "patches/truth.asc",
             "--at", "0", "0", "0", "--meters-per-unit", "1.0", "--max-search", "10",
             "--out", "out/rank.csv"],
        ]

    def check_cmds(self):
        return [
            ["eval", "--computed", "reg/computed.asc", "--truth", "eval/truth.asc",
             "--max-search", "10", "--out", "out/eval.csv"],
        ]

    def admitted(self):
        return [p for p in self.plan["pairs"] if p["admitted"]]

    def cells(self):
        return len(self.admitted()) * plan.PATCH_SIZE**2

    def check(self, tally):
        out = {}
        lines = read_lines(self.work / "out/eval.csv")
        if tally.check(len(lines) == 2 and lines[0] == EVAL_HEADER, "eval CSV malformed"):
            f = lines[1].split(",")
            try:
                nums = [float(v) for v in f[:7]]
                ok = len(f) == 8 and f[7] in ("true", "false") and all(map(math.isfinite, nums))
            except ValueError:
                ok = False
            if tally.check(ok and nums[5] <= nums[6], f"eval row malformed: {lines[1]}"):
                sx, sy = self.plan["shift_cells"]
                # the correction undoes the injected move; cells are 1 m
                out.update(
                    rmse_m=nums[1],
                    shift_err_m=math.hypot(nums[2] + sx, nums[3] + sy),
                    eval_shift_m=nums[2:5],
                    injected_shift_m=[sx, sy],
                    eval_converged=f[7] == "true",
                )
        out.update(self.check_rank(tally))
        return out

    def check_rank(self, tally):
        lines = read_lines(self.work / "out/rank.csv")
        if not tally.check(bool(lines) and lines[0] == RANK_HEADER, "rank CSV malformed"):
            return {}
        want = {(p["id_a"], p["id_b"]): p for p in self.admitted()}
        try:
            rows = [(a, b, float(angle), float(score), sel)
                    for a, b, angle, score, sel in (ln.split(",") for ln in lines[1:])]
        except ValueError:
            tally.check(False, "rank row malformed")
            return {}
        got = [(r[0], r[1]) for r in rows]
        if not tally.check(sorted(got) == sorted(want), f"rank admitted {got}, expected {sorted(want)}"):
            return {}
        tally.check(
            all(abs(r[2] - want[r[:2]]["angle_deg"]) < 1e-6 for r in rows),
            "rank angles differ from the viewing-ray construction",
        )
        ranked = [r[3] for r in rows if not math.isnan(r[3])]
        n_sel = min(10, len(ranked))
        tally.check(
            ranked == sorted(ranked)
            and [r[4] for r in rows] == ["true"] * n_sel + ["false"] * (len(rows) - n_sel),
            "rank order or selection inconsistent",
        )
        ladder = [want[g]["ladder"] for g in got]
        return {"rank_tau": kendall_tau(ladder), "rank_failed": len(rows) - len(ranked)}


def read_lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="ascii").strip().splitlines()
    except (OSError, UnicodeDecodeError):
        return []


def kendall_tau(seq: list[int]) -> float:
    """Kendall tau-a between list order and the values' own order."""
    n = len(seq)
    if n < 2:
        return float("nan")
    s = sum(
        (seq[j] > seq[i]) - (seq[j] < seq[i]) for i in range(n) for j in range(i + 1, n)
    )
    return s / (n * (n - 1) / 2)


# --------------------------------------------------------------------------
# fusion spot-oracle


def read_asc_rows(path: Path, rows: set[int]):
    """(header, {row: tokens}) of an ASCII grid, parsing only some rows."""
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    header = {}
    for key, line in zip(ASC_HEADER, lines):
        name, value = line.split()
        if name != key:
            raise ValueError(f"{path}: header {name!r}, expected {key!r}")
        header[key] = float(value)
    body = lines[len(ASC_HEADER):]
    return header, {r: body[r].split() for r in rows}


def spot_oracle(w: Fuse, tally: Tally) -> dict:
    """Recompute a seeded sample of fused cells by brute force, per cell.

    Written from the formula in the fusion module's docstring: the window
    is every in-bounds cell within the radius whose bilateral weight
    W = exp(-(spatial + intensity)) exceeds gamma, spatial-only when the
    center has no orthophoto value, and the output is the median of the
    valid heights of every layer at every window cell.  The gate keeps the
    kernel's form exp(-x) > gamma so boundary cells round the same way.
    Each oracle value must print exactly as the CLI wrote it.
    """
    import numpy as np
    from dsmfuse.fusion import FusionConfig

    cfg = FusionConfig()  # the fuse command runs with default flags
    n = plan.FUSE_SIZE
    rng = np.random.default_rng([plan.base_seed(w.seed), 3])
    centers = sorted({0, n - 1, *(int(r) for r in rng.choice(n, ORACLE_ROWS, replace=False))})
    cells = [(r, int(c)) for r in centers for c in rng.choice(n, ORACLE_COLS, replace=False)]
    rad = cfg.radius if w.mode == "adaptive" else 0
    need = {rr for r in centers for rr in range(max(0, r - rad), min(n, r + rad + 1))}

    def values(path):
        head, rows = read_asc_rows(w.work / path, need)
        return head["NODATA_value"], {r: [float(t) for t in toks] for r, toks in rows.items()}

    layers = [values(p) for p in w.layer_paths()]
    nodata, ortho = values("data/ortho.asc")
    out_nodata, fused = read_asc_rows(w.work / "out/fused.asc", set(centers))
    out_nodata = out_nodata["NODATA_value"]

    def valid(v, nd):
        return math.isfinite(v) and v != nd

    def heights(rr, cc):
        return [lv[rr][cc] for nd, lv in layers if valid(lv[rr][cc], nd)]

    slots = members = mismatches = 0
    for r, c in cells:
        cands = []
        if w.mode == "median":
            slots += len(layers)
            cands = heights(r, c)
        else:
            i0 = ortho[r][c] if valid(ortho[r][c], nodata) else None
            for rr in range(r - rad, r + rad + 1):
                for cc in range(c - rad, c + rad + 1):
                    spatial = ((rr - r) ** 2 + (cc - c) ** 2) / (2.0 * cfg.delta_s * cfg.delta_s)
                    if not math.exp(-spatial) > cfg.gamma:
                        continue  # no candidate slot at this offset
                    slots += len(layers)
                    if not (0 <= rr < n and 0 <= cc < n):
                        continue
                    if i0 is None:
                        x = spatial
                    elif not valid(ortho[rr][cc], nodata):
                        continue
                    else:
                        d = ortho[rr][cc] - i0
                        x = spatial + d * d / (2.0 * cfg.delta_i * cfg.delta_i)
                    if math.exp(-x) > cfg.gamma:
                        cands += heights(rr, cc)
        members += len(cands)
        if cands:
            cands.sort()
            k = len(cands)
            want = f"{0.5 * (cands[(k - 1) // 2] + cands[k // 2]):.6f}"
        else:
            want = f"{out_nodata:.6f}"
        mismatches += fused[r][c] != want
    tally.check(mismatches == 0, f"spot-oracle: {mismatches} of {len(cells)} cells differ")
    out = {"oracle_cells": len(cells), "oracle_mismatches": mismatches}
    if w.mode == "adaptive":
        out["cand_valid_frac"] = members / slots
    return out


# --------------------------------------------------------------------------
# the run


def make_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "register":
        return Register(seed, work)
    return Fuse(seed, work, name.split("-", 1)[1])


def setup(w: Workload, runner: Runner, trace_dir: Path | None = None) -> dict:
    """Build the inputs from scratch."""
    for d in w.setup_dirs:
        shutil.rmtree(w.work / d, ignore_errors=True)
    traces = []
    procs = []
    started = time.perf_counter()
    for i, argv in enumerate(w.setup_cmds()):
        trace = None
        if trace_dir is not None:
            trace = str(trace_dir / f"setup{i}.json")
            traces.append(trace)
        procs.append(runner.run(argv, trace))
    return {"setup_s": time.perf_counter() - started,
            "cpu_s": sum(p.cpu_s for p in procs), "traces": traces}


def run_cmds(w: Workload, runner: Runner, tally: Tally, cmds: list[list[str]],
             outputs: list[str], trace: str | None = None) -> dict:
    """Run commands in turn and check that each wrote its outputs."""
    if not cmds:
        return {"wall_s": 0.0, "traces": [], "sha256": {}}
    procs = [runner.run(argv, trace and f"{trace}.{i}") for i, argv in enumerate(cmds)]
    for argv in cmds:
        manifest = w.work / argv[argv.index("--out") + 1]
        try:
            ok = json.loads(Path(f"{manifest}.manifest.json").read_text())["command"] == argv[0]
        except (OSError, ValueError, KeyError):
            ok = False
        tally.check(ok, f"{argv[0]} manifest missing or unparseable")
    hashes = hash_outputs(w.work, outputs)
    tally.check(len(hashes) == len(outputs), f"outputs missing: {sorted(hashes)}")
    return {
        "wall_s": sum(p.wall_s for p in procs),
        "cmd_wall_s": [p.wall_s for p in procs],
        "cpu_s": sum(p.cpu_s for p in procs),
        "peak_rss_mb": max(p.peak_rss_mb for p in procs),
        "traces": [f"{trace}.{i}" for i in range(len(procs))] if trace else [],
        "sha256": hashes,
    }


def measure(w: Workload, runner: Runner, tally: Tally, seconds: float, traced: bool) -> dict:
    trace_dir = w.work / "traces" if traced else None
    if trace_dir:
        trace_dir.mkdir()
    n_setups = 1 if traced else SETUP_REPEATS
    setups, passes = [], []
    # every set-up and pass is bracketed by runs of the reference work
    refs = [runner.reference()]

    def bracket(sample):
        refs.append(runner.reference())
        sample["ref_s"] = 0.5 * (refs[-2] + refs[-1])

    def do_setup():
        setups.append(setup(w, runner, trace_dir))
        setups[-1]["sha256"] = hash_outputs(w.work, w.setup_outputs)
        bracket(setups[-1])

    def do_pass():
        trace = str(trace_dir / f"pass{len(passes)}") if traced and len(passes) % 2 else None
        shutil.rmtree(w.work / "out", ignore_errors=True)
        (w.work / "out").mkdir()
        passes.append(run_cmds(w, runner, tally, w.pass_cmds(), w.pass_outputs, trace))
        bracket(passes[-1])

    # set-ups and passes alternate, so that both sample the whole run and
    # not one end of it: the host's speed drifts over tens of seconds
    do_setup()
    while (len(setups) < n_setups or len(passes) < MIN_PASSES
           or sum(p["wall_s"] for p in passes) < seconds):
        do_pass()
        if len(setups) < n_setups:
            do_setup()
    tally.check(all(s["sha256"] == setups[0]["sha256"] for s in setups),
                "set-up outputs differ between set-ups")
    tally.check(all(p["sha256"] == passes[0]["sha256"] for p in passes),
                "pass outputs differ between passes")
    checks = run_cmds(w, runner, tally, w.check_cmds(), w.check_outputs,
                      str(trace_dir / "check") if traced else None)
    check_started = time.perf_counter()
    quality = w.check(tally)
    checks["harness_s"] = time.perf_counter() - check_started
    return {"setups": setups, "passes": passes, "checks": checks, "quality": quality,
            "refs": refs}


def raw_times(m: dict) -> dict:
    """Median wall times as measured, before scaling to the reference speed."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in m["setups"]),
        "wall_s": statistics.median(p["wall_s"] for p in m["passes"] if not p["traces"]),
        "ref_s": statistics.median(m["refs"]),
    }


def scaled(samples: list[dict], key: str) -> float:
    """Median of the samples' KEY time at the reference speed, in seconds."""
    return REF_S * statistics.median(s[key] / s["ref_s"] for s in samples)


def end_to_end(w: Workload, m: dict) -> dict:
    untraced = [p for p in m["passes"] if not p["traces"]]
    wall = scaled(untraced, "wall_s")
    return {
        "setup_s": scaled(m["setups"], "setup_s"),
        "wall_s": wall,
        "mcells_per_s": w.cells() / wall / 1e6,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "rmse_m": m["quality"].get("rmse_m", float("nan")),
    }


# --------------------------------------------------------------------------
# per-layer metrics from the spans


def load_spans(path: str) -> list[list]:
    """Spans a traced child wrote; none if it died first (already a failure)."""
    try:
        with open(path, encoding="ascii") as f:
            return json.load(f)
    except (OSError, ValueError):
        return []


def span_totals(span_files: list[str], weight: float, acc: dict) -> float:
    """Add inclusive time, self time, calls and attrs per span name.

    Self time is a span's duration minus its children's; returns the total
    duration of the root spans.
    """
    root = 0.0
    for path in span_files:
        spans = load_spans(path)
        child = [0.0] * len(spans)
        for sid, parent, _, t0, t1, _ in spans:
            if parent is None:
                root += (t1 - t0) * weight
            else:
                child[parent] += t1 - t0
        for sid, _, name, t0, t1, attrs in spans:
            a = acc.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0.0})
            a["s"] += (t1 - t0) * weight
            a["self_s"] += (t1 - t0 - child[sid]) * weight
            a["calls"] += weight
            for k, v in attrs.items():
                a[k] = a.get(k, 0.0) + v * weight
    return root


def per_layer(m: dict) -> dict:
    traced = [p for p in m["passes"] if p["traces"]]
    untraced = [p for p in m["passes"] if not p["traces"]]
    pass_wall = statistics.fmean(p["wall_s"] for p in traced)
    # one set-up, the mean traced pass and the check commands
    groups = [
        (m["setups"][0]["traces"], 1.0, m["setups"][0]["setup_s"]),
        ([t for p in traced for t in p["traces"]], 1 / len(traced), pass_wall),
        (m["checks"]["traces"], 1.0, m["checks"]["wall_s"]),
    ]
    acc: dict[str, dict] = {}
    root = sum(span_totals(files, weight, acc) for files, weight, _ in groups)
    traced_wall = sum(wall for _, _, wall in groups)

    def get(name, key="s"):
        return acc.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    self_total = sum(a["self_s"] for a in acc.values())
    q = m["quality"]
    return {
        "fusion.adaptive_median_fuse.s": get("fusion.adaptive_median_fuse"),
        "fusion.adaptive_median_fuse.mcells_per_s": ratio(
            get("fusion.adaptive_median_fuse", "cells") / 1e6, get("fusion.adaptive_median_fuse")),
        "fusion.cand_slots": get("fusion.adaptive_median_fuse", "slots"),
        "fusion.cand_mb": get("fusion.adaptive_median_fuse", "slots") * CELL_BYTES / 1e6,
        "fusion.cand_valid_frac": q.get("cand_valid_frac", 0.0),
        "fusion.median_fuse.s": get("fusion.median_fuse"),
        "raster.read_asc.s": get("raster.read_asc"),
        "raster.read_asc.calls": get("raster.read_asc", "calls"),
        "raster.read_asc.mb": get("raster.read_asc", "mb"),
        "raster.read_asc.mb_per_s": ratio(get("raster.read_asc", "mb"), get("raster.read_asc")),
        "raster.resample.s": get("raster.resample"),
        "raster.resample.calls": get("raster.resample", "calls"),
        "raster.resample.identity_frac": ratio(
            get("raster.resample", "identity"), get("raster.resample", "calls")),
        "raster.write_asc.s": get("raster.write_asc"),
        "raster.write_asc.mb": get("raster.write_asc", "mb"),
        "raster.write_asc.mb_per_s": ratio(get("raster.write_asc", "mb"), get("raster.write_asc")),
        "raster.write_pgm.s": get("raster.write_pgm"),
        "register.align.s": get("register.align"),
        "register.align.calls": get("register.align", "calls"),
        "register.align.converged_frac": ratio(
            get("register.align", "converged"), get("register.align", "calls")),
        "register.align.inlier_frac": ratio(
            get("register.align", "n_inliers"), get("register.align", "n_total")),
        "register.align.shifts": get("register.align", "shifts"),
        "pairsel.read_pair_manifest.s": get("pairsel.read_pair_manifest"),
        "pairsel.gate_pairs.s": get("pairsel.gate_pairs"),
        "pairsel.gate_pairs.admitted_frac": ratio(
            get("pairsel.gate_pairs", "admitted"), get("pairsel.gate_pairs", "pairs")),
        "pairsel.rank_pairs.self_s": get("pairsel.rank_pairs", "self_s"),
        "rpc.read_rpc.s": get("rpc.read_rpc"),
        "rpc.read_rpc.calls": get("rpc.read_rpc", "calls"),
        "rpc.intersection_angle.s": get("rpc.intersection_angle"),
        "rpc.intersection_angle.calls": get("rpc.intersection_angle", "calls"),
        "synth.gen_scene.s": get("synth.gen_scene"),
        "synth.degrade.s": get("synth.degrade"),
        "synth.degrade.calls": get("synth.degrade", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.startup_s": traced_wall - root,
        "trace.accounted_frac": self_total / traced_wall,
        "trace.overhead_frac": scaled(traced, "wall_s") / scaled(untraced, "wall_s") - 1.0,
    }


def machine() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip().lower().replace(" ", "_")] = value.strip()
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fuse-adaptive", "fuse-median", "register"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills its child and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "dsmfuse" / "cli.py").is_file():
        print(f"error: no dsmfuse sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = root / ".bench_results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    work.mkdir(parents=True)
    try:
        w = make_workload(args.workload, args.seed, work)
        runner = Runner(work, src, tally, time.perf_counter() + RUN_DEADLINE_S)
        m = measure(w, runner, tally, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(m)
            results.mkdir(exist_ok=True)
            spans = {Path(t).name: load_spans(t)
                     for s in (m["setups"][0], *m["passes"], m["checks"]) for t in s["traces"]}
            (results / f"{tag}.spans.json").write_text(json.dumps(spans))
        else:
            metrics = end_to_end(w, m)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # BENCHMARK.json names the metrics and their units
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"] for d in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "setup_samples": len(m["setups"]), "pass_samples": len(m["passes"]),
        "setups": m["setups"], "passes": m["passes"], "checks": m["checks"],
        "quality": m["quality"], "raw": raw_times(m),
        "fail_frac": len(tally.failures) / tally.attempted, "failures": tally.failures,
        "metrics": metrics,
    }
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, digest in {**m["passes"][-1]["sha256"], **m["checks"]["sha256"]}.items():
        print(f"sha256 {digest}  {name}")
    for k, v in m["quality"].items():
        print(f"quality {k} = {v}")
    print(f"samples: {len(m['setups'])} set-ups, {len(m['passes'])} passes, "
          f"{len(m['refs'])} reference runs")
    for k, v in raw_times(m).items():
        print(f"raw median {k} = {v}")
    for msg in tally.failures:
        print(f"FAILED: {msg}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
