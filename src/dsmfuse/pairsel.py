"""Stereo-pair gating by intersection angle and ranking against truth.

Pair quality is a multi-factor problem; the scheme here is deliberately
simple.  First gate all candidate pairs to a closed intersection-angle
interval (outside roughly 8-40 degrees dense matching degrades badly, and
10-30 is the productive band), evaluating the angle at a single ground
point since it varies slowly across a scene-sized patch.  Then rank the
surviving pairs by aligning each pair's small-area DSM patch to a ground
truth patch and scoring the inlier RMSE; the best top_k go into fusion.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .raster import RasterGrid, decode_errors_as, read_asc
from .register import AlignConfig, InsufficientOverlapError, align
from .rpc import (
    DEFAULT_DZ_PROBE,
    DEFAULT_METERS_PER_UNIT,
    GroundPoint,
    InversionError,
    RpcModel,
    intersection_angle,
)

log = logging.getLogger(__name__)


@dataclass
class PairRecord:
    """A candidate image pair; ranking fields stay unset until ranked."""

    id_a: str
    id_b: str
    angle_deg: float
    dsm_path: str | None = None
    rank_rmse: float | None = None
    selected: bool = False
    align_failed: bool = False

    def __post_init__(self):
        if self.id_a == self.id_b:
            raise ValueError(f"a pair needs two distinct images, got {self.id_a!r} twice")
        if not 0.0 <= self.angle_deg <= 180.0:
            raise ValueError(f"angle must be in [0, 180] degrees, got {self.angle_deg}")


@dataclass(frozen=True)
class PairGate:
    min_angle: float = 10.0
    max_angle: float = 30.0
    top_k: int = 10

    def __post_init__(self):
        if not 0.0 <= self.min_angle < self.max_angle:
            raise ValueError(
                f"need 0 <= min_angle < max_angle, got {self.min_angle}, {self.max_angle}"
            )
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")

    def admits(self, angle_deg: float) -> bool:
        """Closed-interval test: both bounds inclusive."""
        return self.min_angle <= angle_deg <= self.max_angle


@dataclass(frozen=True)
class ManifestEntry:
    id_a: str
    id_b: str
    rpc_a_path: str
    rpc_b_path: str
    dsm_path: str


class ManifestError(Exception):
    """Pair manifest CSV missing columns or rows."""


MANIFEST_COLUMNS = ("id_a", "id_b", "rpc_a_path", "rpc_b_path", "dsm_path")


def gate_pairs(
    models: Sequence[tuple[str, RpcModel]],
    at: GroundPoint,
    gate: PairGate | None = None,
    dz_probe: float = DEFAULT_DZ_PROBE,
    meters_per_unit: float = DEFAULT_METERS_PER_UNIT,
) -> list[PairRecord]:
    """All unordered pairs whose intersection angle falls inside the gate.

    Pairs are canonicalized (id_a < id_b) and sorted by ascending angle, so
    the output is invariant to the input ordering.  A pair whose angle
    cannot be computed is dropped with a logged reason, not fatal.
    """
    if gate is None:
        gate = PairGate()
    if len(models) < 2:
        raise ValueError(f"need at least 2 models to form pairs, got {len(models)}")
    records = []
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            (ida, ma), (idb, mb) = models[i], models[j]
            if idb < ida:
                ida, ma, idb, mb = idb, mb, ida, ma
            try:
                angle = intersection_angle(ma, mb, at, dz_probe, meters_per_unit)
            except (InversionError, ValueError) as exc:
                log.warning("dropping pair (%s, %s): %s", ida, idb, exc)
                continue
            if gate.admits(angle):
                records.append(PairRecord(id_a=ida, id_b=idb, angle_deg=angle))
    records.sort(key=lambda r: (r.angle_deg, r.id_a, r.id_b))
    return records


def rank_pairs(
    candidates: Sequence[PairRecord],
    truth_patch: RasterGrid,
    cfg: AlignConfig | None = None,
    gate: PairGate | None = None,
) -> list[PairRecord]:
    """Rank candidate pairs by inlier RMSE of their DSM patch against truth.

    Each candidate's DSM (from its dsm_path) is aligned to the truth patch
    first, so a constant vertical offset cannot change the ranking.  The
    sorted list has the top_k best marked selected; candidates whose
    alignment fails (e.g. insufficient overlap) sink to the end, flagged
    and never selected.  Ties break on (id_a, id_b).
    """
    if cfg is None:
        cfg = AlignConfig()
    if gate is None:
        gate = PairGate()
    ranked = []
    for rec in candidates:
        if rec.dsm_path is None:
            raise ValueError(f"pair ({rec.id_a}, {rec.id_b}) has no dsm_path")
        patch = read_asc(rec.dsm_path)
        try:
            result = align(patch, truth_patch, cfg)
        except InsufficientOverlapError as exc:
            log.warning("pair (%s, %s) not rankable: %s", rec.id_a, rec.id_b, exc)
            ranked.append(replace(rec, rank_rmse=None, align_failed=True, selected=False))
            continue
        ranked.append(
            replace(rec, rank_rmse=result.rmse_inliers, align_failed=False)
        )
    ranked.sort(
        key=lambda r: (
            r.align_failed,
            r.rank_rmse if r.rank_rmse is not None else math.inf,
            r.id_a,
            r.id_b,
        )
    )
    return [
        replace(r, selected=(i < gate.top_k and not r.align_failed))
        for i, r in enumerate(ranked)
    ]


def read_pair_manifest(path) -> list[ManifestEntry]:
    """Read the pair manifest CSV (columns: id_a, id_b, rpc_a_path,
    rpc_b_path, dsm_path)."""
    with (
        open(path, "r", encoding="utf-8", newline="") as f,
        decode_errors_as(ManifestError, path, "utf-8"),
    ):
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ManifestError(f"{path}: empty manifest")
        missing = [c for c in MANIFEST_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ManifestError(f"{path}: missing columns {missing}")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            vals = [row.get(c) or "" for c in MANIFEST_COLUMNS]
            if any(not v.strip() for v in vals):
                raise ManifestError(f"{path}:{lineno}: incomplete row")
            entries.append(ManifestEntry(*(v.strip() for v in vals)))
    if not entries:
        raise ManifestError(f"{path}: manifest has no pairs")
    return entries
