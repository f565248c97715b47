"""Fixed reference work that gauges the host's current speed.

    python bench/reference.py

The harness runs this in a fresh process before and after every timed
set-up and pass and divides each sample's wall time by the reference's
(see ``REF_S`` in run.py).  On a shared host the speed of one core steps
between states that last minutes, and a process of the same kind as a
``dsmfuse`` command slows down with it.  It does each kind of work the
commands do: interpreter start and numpy import; a masked-median search
over 21 x 21 integer shifts of a 128 x 128 patch (small arrays, like
registration); formatting and parsing a 256 x 256 grid as text (like the
ASCII raster I/O); and a candidate array of 65 MB filled under masks and
sorted along its first axis (memory-bound, like the adaptive fusion
kernel).  The work never changes and uses nothing from ``dsmfuse``, so a
change to the package moves the samples and not the reference.
"""

import numpy as np

rng = np.random.default_rng(0)

patch = rng.normal(size=(128, 128))
patch[rng.random((128, 128)) < 0.05] = np.nan
padded = np.full((148, 148), np.nan)
padded[10:138, 10:138] = patch
scores = {}
for v in range(-10, 11):
    for u in range(-10, 11):
        d = padded[10 + v:138 + v, 10 + u:138 + u] - patch
        dz = -float(np.nanmedian(d))
        inliers = np.isfinite(d) & (np.abs(d + dz) <= 6.0)
        r = d[inliers] + dz
        scores[v, u] = float(np.sqrt(np.mean(r * r)))

grid = rng.normal(size=(256, 256)) * 10.0
text = "\n".join(" ".join(f"{v:.6f}" for v in row) for row in grid)
parsed = np.array([[float(t) for t in line.split()] for line in text.splitlines()])

heights = rng.normal(size=(5, 84, 660))
intensity = rng.normal(size=(84, 660))
cands = np.full((200, 64, 640), np.nan)
k = 0
for di in range(-4, 4):
    for dj in range(-2, 3):
        window = np.s_[10 + di:74 + di, 10 + dj:650 + dj]
        member = np.abs(intensity[window] - intensity[10:74, 10:650]) < 1.0
        for layer in heights:
            np.copyto(cands[k], layer[window], where=member)
            k += 1
cands.sort(axis=0)
counts = np.sum(~np.isnan(cands), axis=0)

if not (min(scores, key=scores.get) == (0, 0) and scores[0, 0] == 0.0
        and np.allclose(parsed, grid, rtol=0.0, atol=5e-7)
        and counts.min() >= 5 and np.isnan(cands[-1]).any()):
    raise SystemExit("reference work gave a wrong answer")
