"""Seeded inputs of the benchmark workloads.

Everything a workload feeds to ``dsmfuse`` derives from the benchmark seed
alone: the scene files handed to ``dsmfuse synth``, the injected shift of
the ``eval`` layer, the RPC viewing directions and the noise ladder of the
``rank`` manifest.  The functions here do no I/O, so the harness can
recompute the expected answers that the child process wrote to disk.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# README walkthrough scene: 80 x 60 cells, two buildings given as
# (col, row, n_cols, n_rows, height, intensity)
README_SIZE = (80, 60)
README_BUILDINGS = ((10, 12, 16, 12, 25.0, 170), (45, 30, 14, 16, 12.0, 210))

# README degradation, shared by every workload
SPIKE_PROB = 0.05
SPIKE_AMP = 10.0
HOLE_PROB = 0.04

FUSE_SIZE = 640
FUSE_LAYERS = 5
FUSE_SIGMA = (0.2, 1.5)

EVAL_SIZE = 512
EVAL_SIGMA = 0.5
MAX_SHIFT = 5  # cells; inside the default --max-search 10

PATCH_SIZE = 128
N_IMAGES = 6
PATCH_SIGMA = (0.1, 1.5)  # noise ladder over all pairs, synth's linear spacing
GATE = (10.0, 30.0)  # rank's default --min-angle / --max-angle
ADMITTED = 9  # fixed so every seed aligns the same number of patches
GATE_MARGIN = 0.5  # degrees kept clear of either gate bound
MAX_OFF_NADIR = 30.0


def base_seed(seed: int) -> int:
    """Non-negative seed for numpy and for the scene files."""
    return seed % 2**31


def scene_text(seed: int, size: int) -> str:
    """README scene stretched to size x size cells, as a synth scene file."""
    sx = size / README_SIZE[0]
    sy = size / README_SIZE[1]
    lines = [
        f"seed={base_seed(seed)}",
        f"width={size}",
        f"height={size}",
        "cell_size=1.0",
        "ground_height=0.0",
        "ground_intensity=60",
    ]
    for col, row, n_cols, n_rows, height, intensity in README_BUILDINGS:
        lines.append(
            f"building={round(col * sx)},{round(row * sy)},{round(n_cols * sx)},"
            f"{round(n_rows * sy)},{height},{intensity}"
        )
    return "\n".join(lines) + "\n"


def synth_args(scene: str, out_dir: str, layers: int, sigma: tuple[float, float]) -> list[str]:
    return [
        "synth", "--scene", scene, "--out-dir", out_dir, "--layers", str(layers),
        "--sigma-start", str(sigma[0]), "--sigma-end", str(sigma[1]),
        "--spike-prob", str(SPIKE_PROB), "--spike-amp", str(SPIKE_AMP),
        "--hole-prob", str(HOLE_PROB),
    ]


def _ray(tan_u: float, tan_v: float) -> np.ndarray:
    # viewing ray of a linear-ray RPC model: s = u + tan_u z, l = v + tan_v z
    return np.array([-tan_u, -tan_v, 1.0])


def ray_angle(a: tuple[float, float], b: tuple[float, float]) -> float:
    ra, rb = _ray(*a), _ray(*b)
    cos = float(ra @ rb) / (np.linalg.norm(ra) * np.linalg.norm(rb))
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def register_plan(seed: int) -> dict:
    """Shift, images, pairs and noise ladder of the register workload.

    Viewing directions are redrawn until exactly ADMITTED of the 15 pairs
    fall inside the intersection-angle gate, none of them within
    GATE_MARGIN degrees of a bound.
    """
    rng = np.random.default_rng([base_seed(seed), 1])
    while True:
        sx, sy = (int(v) for v in rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2))
        if (sx, sy) != (0, 0):
            break
    while True:
        theta = np.radians(rng.uniform(0.0, MAX_OFF_NADIR, N_IMAGES))
        phi = rng.uniform(0.0, 2.0 * math.pi, N_IMAGES)
        tans = [
            (float(math.tan(t) * math.cos(p)), float(math.tan(t) * math.sin(p)))
            for t, p in zip(theta, phi)
        ]
        pairs = [
            (i, j, ray_angle(tans[i], tans[j]))
            for i, j in itertools.combinations(range(N_IMAGES), 2)
        ]
        admitted = [GATE[0] <= a <= GATE[1] for _, _, a in pairs]
        margin = min(min(abs(a - GATE[0]), abs(a - GATE[1])) for _, _, a in pairs)
        if sum(admitted) == ADMITTED and margin >= GATE_MARGIN:
            break
    ladder = [int(k) for k in rng.permutation(len(pairs))]
    return {
        "shift_cells": (sx, sy),
        "images": {f"img{i}": t for i, t in enumerate(tans)},
        "pairs": [
            {
                "id_a": f"img{i}",
                "id_b": f"img{j}",
                "angle_deg": angle,
                "admitted": ok,
                "ladder": step,  # index into the patch noise ladder
            }
            for (i, j, angle), ok, step in zip(pairs, admitted, ladder)
        ],
    }
