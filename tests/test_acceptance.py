"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with pytest's own output.
"""

import functools
import math
import time
import warnings

import numpy as np

from dsmfuse.cli import main
from dsmfuse.fusion import FusionConfig, adaptive_median_fuse, median_fuse
from dsmfuse.pairsel import PairGate, PairRecord, gate_pairs, rank_pairs
from dsmfuse.raster import GridGeometry, RasterGrid, write_asc
from dsmfuse.register import AlignConfig, align, rmse
from dsmfuse.rpc import (
    GroundPoint,
    apply_bias,
    intersection_angle,
    invert,
    project,
    write_rpc,
)
from dsmfuse.synth import Building, DegradeSpec, SceneSpec, degrade, gen_scene

from conftest import linear_ray_model, random_rpc_model
from test_fusion import oracle_adaptive_fuse, random_stack, weight_at


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {name}", flush=True)
                raise
            print(f"[criterion {num:02d}] PASS  {name}", flush=True)
        return wrapper
    return deco


@criterion(1, "adaptive fusion equals brute-force oracle, 50 seeds, bit-exact")
def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        n_rows = int(rng.integers(6, 17))
        n_cols = int(rng.integers(6, 17))
        n_layers = int(rng.integers(1, 5))
        cfg = FusionConfig(
            delta_s=float(rng.choice([1.5, 2.5, 4.0])),
            delta_i=float(rng.choice([10.0, 15.0, 25.0])),
            gamma=float(rng.choice([0.3, 0.5, 0.7])),
            radius=int(rng.integers(1, 4)),
        )
        stack, ortho = random_stack(rng, n_rows, n_cols, n_layers)
        got = adaptive_median_fuse(stack, ortho, cfg).values
        want = oracle_adaptive_fuse(stack, ortho, cfg)
        assert np.array_equal(got, want, equal_nan=True)
    assert time.perf_counter() - started < 10.0


@criterion(2, "gamma->1 and radius 0 degenerate to plain median, bit-exact")
def test_criterion_02_degenerate_equivalence():
    rng = np.random.default_rng(202)
    for i in range(20):
        stack, ortho = random_stack(rng, 12, 10, int(rng.integers(1, 5)))
        if i % 2 == 0:
            cfg = FusionConfig(gamma=0.999999, radius=3)
        else:
            cfg = FusionConfig(radius=0)
        adaptive = adaptive_median_fuse(stack, ortho, cfg)
        plain = median_fuse(stack)
        assert np.array_equal(adaptive.values, plain.values, equal_nan=True)


@criterion(3, "bilateral kernel: center weight 1, closed form e^-1, monotone")
def test_criterion_03_kernel():
    assert weight_at(100.0, 0, 100.0, FusionConfig()) == 1.0

    cfg = FusionConfig(delta_s=3.0, delta_i=12.0)
    w = weight_at(100.0, 3, 112.0, cfg)
    assert abs(w - math.exp(-1.0)) < 1e-12

    # the default weight, with every offset out to 7 cells kept by the gate
    cfg = FusionConfig(gamma=1e-9, radius=7)
    for di in range(0, 101, 5):
        prev = 1.0
        for d in range(0, 8):
            w = weight_at(100.0, d, 100.0 + di, cfg)
            assert w <= prev
            prev = w
    for d in range(0, 8):
        prev = 1.0
        for di in range(0, 101, 5):
            w = weight_at(100.0, d, 100.0 + di, cfg)
            assert w <= prev
            prev = w


@criterion(4, "salt-and-pepper suppression beats plain median in >= 18/20 seeds")
def test_criterion_04_salt_and_pepper():
    started = time.perf_counter()
    wins = 0
    improvements = []
    for seed in range(20):
        truth, ortho = gen_scene(SceneSpec(seed=seed, width=48, height=48, ground_height=10.0))
        layers = [
            degrade(truth, DegradeSpec(seed=seed * 100 + i, spike_prob=0.1, spike_amp=10.0))
            for i in range(3)
        ]
        r_median = rmse(median_fuse(layers), truth)[0]
        r_adaptive = rmse(adaptive_median_fuse(layers, ortho), truth)[0]
        wins += r_adaptive < r_median
        improvements.append(r_median - r_adaptive)
    assert wins >= 18
    assert np.mean(improvements) > 0
    assert time.perf_counter() - started < 30.0


def _plain_windowed_median(layers, radius):
    """Square-window pooled median, no bilateral gating (comparison baseline)."""
    arrs = np.stack([g.values for g in layers])
    n_rows, n_cols = arrs.shape[1:]
    p = np.pad(arrs, ((0, 0), (radius, radius), (radius, radius)), constant_values=np.nan)
    cands = [
        p[:, di : di + n_rows, dj : dj + n_cols]
        for di in range(2 * radius + 1)
        for dj in range(2 * radius + 1)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmedian(np.concatenate(cands, axis=0), axis=0)


def _edge_columns(vals, n_rows):
    cols = []
    for r in range(n_rows):
        idx = np.where(np.nan_to_num(vals[r], nan=-1e9) >= 10.0)[0]
        cols.append(idx[0] if idx.size else 10**9)
    return np.asarray(cols)


@criterion(5, "step edge held within 1 cell on all rows; plain median violates")
def test_criterion_05_edge_preservation():
    n_rows, n_cols, edge = 32, 48, 20
    geom = GridGeometry(0, 0, 1.0, n_cols, n_rows)
    truth = np.zeros((n_rows, n_cols))
    truth[:, edge:] = 20.0
    ortho_vals = np.full((n_rows, n_cols), 50.0)
    ortho_vals[:, edge:] = 150.0  # |dI| = 100 across the depth edge
    truth_grid = RasterGrid(geom, truth)
    ortho = RasterGrid(geom, ortho_vals)

    # per-layer matching failures: dense nodata in a band on the high side
    # of the edge, where stereo occlusion actually bites
    band, hole_p = 5, 0.7
    layers = []
    for i in range(4):
        g = degrade(truth_grid, DegradeSpec(seed=i, gaussian_sigma=0.15))
        vals = g.values.copy()
        hole_rng = np.random.default_rng(1000 + i)
        holes = hole_rng.random((n_rows, band)) < hole_p
        block = vals[:, edge : edge + band]
        block[holes] = np.nan
        vals[:, edge : edge + band] = block
        layers.append(RasterGrid(geom, vals))

    fused = adaptive_median_fuse(layers, ortho)
    dev_adaptive = np.abs(_edge_columns(fused.values, n_rows) - edge)
    assert np.all(dev_adaptive <= 1), f"adaptive edge devs {dev_adaptive.max()}"

    plain = _plain_windowed_median(layers, FusionConfig().radius)
    dev_plain = np.abs(_edge_columns(plain, n_rows) - edge)
    assert np.any(dev_plain > 1), "plain windowed median unexpectedly held the edge"


def _write_quality_ladder(tmp_path, scene_seed=77, n=10):
    truth, ortho = gen_scene(SceneSpec(
        seed=scene_seed, width=60, height=60,
        buildings=(Building(10, 10, 14, 14, 25.0, 180.0),
                   Building(34, 30, 12, 16, 12.0, 220.0)),
    ))
    write_asc(truth, tmp_path / "truth.asc")
    write_asc(ortho, tmp_path / "ortho.asc")
    paths = []
    for i in range(n):
        frac = i / (n - 1)
        sigma = 0.2 + (3.0 - 0.2) * frac
        patch_amp = 2.0 + 6.0 * frac
        g = degrade(truth, DegradeSpec(
            seed=scene_seed * 100 + i, gaussian_sigma=sigma,
            spike_prob=0.03, spike_amp=8.0, hole_prob=0.03,
        ))
        vals = g.values.copy()
        # spatially correlated matching-failure patches, positions and signs
        # varying per layer, severity rising along the ladder
        rng = np.random.default_rng(scene_seed * 100 + i + 5000)
        for _ in range(6):
            r0 = int(rng.integers(0, 52))
            c0 = int(rng.integers(0, 52))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            block = vals[r0 : r0 + 8, c0 : c0 + 8]
            block += sign * patch_amp  # a hole stays NaN
        p = tmp_path / f"layer_{i:02d}.asc"
        write_asc(RasterGrid(truth.geometry, vals), p)
        paths.append(str(p))
    return paths


@criterion(6, "fusion-count curve has its adaptive minimum strictly inside 1..10")
def test_criterion_06_curve_shape(tmp_path):
    paths = _write_quality_ladder(tmp_path)
    out = tmp_path / "curve.csv"
    # layers are co-registered by construction, so the evaluation alignment
    # only needs the vertical closed form, not a horizontal search
    code = main(["curve", "--layers", *paths,
                 "--ortho", str(tmp_path / "ortho.asc"),
                 "--truth", str(tmp_path / "truth.asc"),
                 "--max-search", "0",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 10
    adaptive = [float(r.split(",")[1]) for r in rows]
    k_min = int(np.argmin(adaptive)) + 1
    assert 1 < k_min < 10, f"adaptive minimum at k={k_min}, curve={adaptive}"


@criterion(7, "known-shift recovery with 5% blunders, 20/20 seeds in tolerance")
def test_criterion_07_registration():
    geom = GridGeometry(0, 0, 1.0, 100, 100)
    xs = (np.arange(100) + 0.5)
    ys = (100 - np.arange(100) - 0.5)
    X, Y = np.meshgrid(xs, ys)

    def hill(dx=0.0, dy=0.0, dz=0.0):
        h = 30.0 * np.exp(-(((X - dx) - 50.0) ** 2 + ((Y - dy) - 50.0) ** 2) / (2 * 18.0**2))
        return RasterGrid(geom, h + dz)

    injected = (2.3, -1.7, 0.4)
    ref = hill()
    cfg = AlignConfig(max_search=5)  # blunder_threshold stays at 6 m
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = hill(*injected).values.copy()
        vals[rng.random(vals.shape) < 0.05] += 20.0
        res = align(RasterGrid(geom, vals), ref, cfg)
        assert abs(res.shift[0] + injected[0]) <= 0.1
        assert abs(res.shift[1] + injected[1]) <= 0.1
        assert abs(res.shift[2] + injected[2]) <= 0.01


@criterion(8, "RPC round trips, exact bias substitution, constructed 20-degree pair")
def test_criterion_08_rpc():
    rng = np.random.default_rng(808)
    for _ in range(10):
        model = random_rpc_model(rng)
        for _ in range(100):
            p = GroundPoint(
                u=model.u_off + model.u_scale * float(rng.uniform(-0.9, 0.9)),
                v=model.v_off + model.v_scale * float(rng.uniform(-0.9, 0.9)),
                z=model.z_off + model.z_scale * float(rng.uniform(-0.9, 0.9)),
            )
            back = invert(model, project(model, p), p.z)
            assert abs(back.u - p.u) < 1e-6
            assert abs(back.v - p.v) < 1e-6

    model = random_rpc_model(rng)
    shift = (0.01, -0.02, 15.0)
    biased = apply_bias(model, shift)
    for _ in range(1000):
        p = GroundPoint(
            u=model.u_off + model.u_scale * float(rng.uniform(-0.9, 0.9)),
            v=model.v_off + model.v_scale * float(rng.uniform(-0.9, 0.9)),
            z=model.z_off + model.z_scale * float(rng.uniform(-0.9, 0.9)),
        )
        got = project(biased, p)
        want = project(model, GroundPoint(p.u + shift[0], p.v + shift[1], p.z + shift[2]))
        assert abs(got.s - want.s) < 1e-10
        assert abs(got.l - want.l) < 1e-10

    nadir = linear_ray_model(0.0)
    off20 = linear_ray_model(math.tan(math.radians(20.0)))
    angle = intersection_angle(nadir, off20, GroundPoint(0, 0, 0), meters_per_unit=1.0)
    assert abs(angle - 20.0) <= 0.1


@criterion(9, "pair ranking follows the noise ladder; gate and top-k exact")
def test_criterion_09_pair_ranking(tmp_path):
    geom = GridGeometry(0, 0, 1.0, 30, 30)
    xs = (np.arange(30) + 0.5)
    ys = (30 - np.arange(30) - 0.5)
    X, Y = np.meshgrid(xs, ys)
    truth = RasterGrid(geom, 25.0 * np.exp(-((X - 15) ** 2 + (Y - 15) ** 2) / (2 * 7.5**2)))
    cfg = AlignConfig(max_search=3)

    correct = 0
    for seed in range(20):
        records = []
        for i, sigma in enumerate((0.2, 0.5, 1.0)):
            g = degrade(truth, DegradeSpec(seed=seed * 10 + i, gaussian_sigma=sigma))
            p = tmp_path / f"s{seed}_c{i}.asc"
            write_asc(g, p)
            records.append(PairRecord(f"a{i}", f"b{i}", 20.0, dsm_path=str(p)))
        ranked = rank_pairs(records, truth, cfg)
        correct += [r.id_a for r in ranked] == ["a0", "a1", "a2"]
    assert correct >= 19

    # the angle gate keeps exactly the pairs inside [10, 30] degrees
    gate = PairGate()
    assert gate.admits(10.0) and gate.admits(30.0)
    for theta, expect in ((8.0, False), (10.5, True), (20.0, True), (29.5, True), (31.0, False)):
        models = [("nadir", linear_ray_model(0.0)),
                  ("off", linear_ray_model(math.tan(math.radians(theta))))]
        kept = gate_pairs(models, GroundPoint(0, 0, 0), {("nadir", "off"): "off.asc"}, gate,
                          meters_per_unit=1.0)
        assert bool(kept) is expect, f"theta={theta}"

    # top-k truncation is exact: 12 candidates, 10 selected
    records = []
    for i in range(12):
        g = degrade(truth, DegradeSpec(seed=900 + i, gaussian_sigma=0.1 + 0.05 * i))
        p = tmp_path / f"t{i}.asc"
        write_asc(g, p)
        records.append(PairRecord(f"x{i:02d}", f"y{i:02d}", 20.0, dsm_path=str(p)))
    ranked = rank_pairs(records, truth, cfg, PairGate(top_k=10))
    assert sum(r.selected for r in ranked) == 10


def _pipeline_outputs(base, jobs):
    """Run every CLI command into `base`, return [(relative name, bytes)]."""
    base.mkdir(parents=True, exist_ok=True)
    scene = base / "scene.txt"
    scene.write_text(
        "seed=31\nwidth=48\nheight=40\ncell_size=1.0\n"
        "ground_height=0.0\nground_intensity=70\n"
        "building=8,6,12,10,24.0,180\n"
        "building=28,20,10,12,10.0,220\n"
    )
    data = base / "data"
    assert main(["synth", "--scene", str(scene), "--out-dir", str(data),
                 "--layers", "5", "--sigma-start", "0.2", "--sigma-end", "1.5",
                 "--spike-prob", "0.03", "--spike-amp", "8", "--hole-prob", "0.03"]) == 0
    layers = [str(data / f"layer_{i:02d}.asc") for i in range(1, 6)]
    truth = str(data / "truth.asc")
    ortho = str(data / "ortho.asc")

    assert main(["fuse", "--layers", *layers, "--mode", "median",
                 "--out", str(base / "median.asc")]) == 0
    assert main(["fuse", "--layers", *layers, "--mode", "adaptive",
                 "--ortho", ortho, "--jobs", str(jobs),
                 "--out", str(base / "adaptive.asc")]) == 0

    for name, theta in (("imgA", 0.0), ("imgB", 12.0), ("imgC", 24.0)):
        write_rpc(linear_ray_model(math.tan(math.radians(theta))), base / f"{name}.rpc")
    manifest = base / "pairs.csv"
    rows = ["id_a,id_b,rpc_a_path,rpc_b_path,dsm_path"]
    for (a, b), layer in zip((("imgA", "imgB"), ("imgA", "imgC"), ("imgB", "imgC")), layers):
        rows.append(f"{a},{b},{base / (a + '.rpc')},{base / (b + '.rpc')},{layer}")
    manifest.write_text("\n".join(rows) + "\n")
    assert main(["rank", "--manifest", str(manifest), "--truth", truth,
                 "--at", "0", "0", "0", "--meters-per-unit", "1",
                 "--max-search", "2", "--out", str(base / "ranked.csv")]) == 0

    assert main(["eval", "--computed", str(base / "adaptive.asc"), "--truth", truth,
                 "--max-search", "2", "--out", str(base / "eval.csv")]) == 0

    assert main(["curve", "--layers", *layers[:3], "--ortho", ortho, "--truth", truth,
                 "--max-search", "0", "--jobs", str(jobs),
                 "--out", str(base / "curve.csv")]) == 0

    names = [
        "data/truth.asc", "data/ortho.asc",
        *[f"data/layer_{i:02d}.asc" for i in range(1, 6)],
        "median.asc", "median.pgm", "adaptive.asc", "adaptive.pgm",
        "ranked.csv", "eval.csv", "curve.csv",
    ]
    return [(n, (base / n).read_bytes()) for n in names]


@criterion(10, "CLI byte-determinism across reruns and jobs; 1024^2 fuse under 30 s")
def test_criterion_10_determinism_and_performance(tmp_path, capsys):
    run1 = _pipeline_outputs(tmp_path / "run1", jobs=1)
    run2 = _pipeline_outputs(tmp_path / "run2", jobs=1)
    run4 = _pipeline_outputs(tmp_path / "run4", jobs=4)
    for (name1, bytes1), (_, bytes2), (_, bytes4) in zip(run1, run2, run4):
        assert bytes1 == bytes2, f"rerun changed {name1}"
        assert bytes1 == bytes4, f"--jobs 4 changed {name1}"

    # rpc output is stdout-only; compare reruns via capsys
    write_rpc(linear_ray_model(0.3), tmp_path / "m.rpc")
    args = ["rpc", "project", "--rpc", str(tmp_path / "m.rpc"),
            "--u", "0.2", "--v", "-0.1", "--z", "0.5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first

    # engineering target: desk-scale large fuse, single worker
    geom = GridGeometry(0, 0, 1.0, 1024, 1024)
    rng = np.random.default_rng(1)
    base = RasterGrid(geom, rng.normal(50, 10, (1024, 1024)))
    stack = [
        degrade(base, DegradeSpec(seed=i, gaussian_sigma=0.5, hole_prob=0.05))
        for i in range(5)
    ]
    ortho = RasterGrid(geom, rng.uniform(0, 255, (1024, 1024)))
    started = time.perf_counter()
    fused = adaptive_median_fuse(stack, ortho, FusionConfig(radius=3), jobs=1)
    elapsed = time.perf_counter() - started
    assert fused.valid_mask().any()
    assert elapsed < 30.0, f"large fuse took {elapsed:.1f} s"
