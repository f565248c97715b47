"""Stereo-pair gating by intersection angle and ranking against truth.

Pair quality is a multi-factor problem; the scheme here is deliberately
simple.  First gate the listed candidate pairs to a closed intersection-angle
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
from typing import Mapping, Sequence

from .raster import RasterGrid, decode_errors_as, read_asc
from .register import AlignConfig, InsufficientOverlapError, Reference, align
from .rpc import (
    DEFAULT_METERS_PER_UNIT,
    DegenerateModelError,
    GroundPoint,
    InversionError,
    RpcModel,
    ray_angle,
    viewing_ray,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairRecord:
    """A candidate image pair and its DSM patch; ranking fields stay unset until ranked."""

    id_a: str
    id_b: str
    angle_deg: float
    dsm_path: str
    rank_rmse: float | None = None
    selected: bool = False

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


class ManifestError(Exception):
    """Pair manifest CSV missing columns or rows, or with a conflicting pair or RPC file."""


MANIFEST_COLUMNS = ("id_a", "id_b", "rpc_a_path", "rpc_b_path", "dsm_path")


def gate_pairs(
    models: Sequence[tuple[str, RpcModel]],
    at: GroundPoint,
    pairs: Mapping[tuple[str, str], str],
    gate: PairGate = PairGate(),
    meters_per_unit: float = DEFAULT_METERS_PER_UNIT,
) -> list[PairRecord]:
    """The listed ``pairs``, ``{(id, id): dsm_path}``, whose intersection angle
    falls inside the gate, each record with its pair's DSM path.

    Each model's viewing ray is computed once, whatever the number of pairs
    it is in.  Pairs are canonicalized (id_a < id_b) and sorted by ascending
    angle, so the output is invariant to the input ordering.  A pair with a
    model that gives no ray at ``at`` is dropped with a logged reason; any
    other error, such as a bad ``meters_per_unit``, raises.
    """
    if len(models) < 2:
        raise ValueError(f"need at least 2 models to form pairs, got {len(models)}")
    by_id = dict(models)
    pairs = {tuple(sorted(p)): dsm_path for p, dsm_path in pairs.items()}
    rays = {}  # id -> its viewing ray, or the error that left it without one
    for ident in sorted({i for p in pairs for i in p}):
        try:
            rays[ident] = viewing_ray(by_id[ident], at, meters_per_unit)
        except (InversionError, DegenerateModelError) as exc:
            rays[ident] = exc
    records = []
    for (ida, idb), dsm_path in pairs.items():
        if errors := [r for r in (rays[ida], rays[idb]) if isinstance(r, Exception)]:
            log.warning("dropping pair (%s, %s): %s", ida, idb, errors[0])
            continue
        angle = ray_angle(rays[ida], rays[idb])
        if gate.admits(angle):
            records.append(PairRecord(ida, idb, angle, dsm_path))
    records.sort(key=lambda r: (r.angle_deg, r.id_a, r.id_b))
    return records


def rank_pairs(
    candidates: Sequence[PairRecord],
    truth_patch: RasterGrid,
    cfg: AlignConfig = AlignConfig(),
    gate: PairGate = PairGate(),
) -> list[PairRecord]:
    """Rank candidate pairs by inlier RMSE of their DSM patch against truth.

    Each candidate's DSM (from its dsm_path) is aligned to the truth patch
    first, so a constant vertical offset cannot change the ranking.  The
    sorted list has the top_k best marked selected; candidates whose
    alignment fails (e.g. insufficient overlap) sink to the end with
    rank_rmse None, never selected.  Ties break on (id_a, id_b).
    """
    reference = Reference(truth_patch)  # one pyramid and gradients for every align
    ranked = []
    for rec in candidates:
        patch = read_asc(rec.dsm_path)
        try:
            rank_rmse = align(patch, reference, cfg).rmse_inliers
        except InsufficientOverlapError as exc:
            log.warning("pair (%s, %s) not rankable: %s", rec.id_a, rec.id_b, exc)
            rank_rmse = None
        ranked.append(replace(rec, rank_rmse=rank_rmse))
    ranked.sort(
        key=lambda r: (
            r.rank_rmse is None,
            r.rank_rmse if r.rank_rmse is not None else math.inf,
            r.id_a,
            r.id_b,
        )
    )
    return [
        replace(r, selected=(i < gate.top_k and r.rank_rmse is not None))
        for i, r in enumerate(ranked)
    ]


def read_pair_manifest(path) -> tuple[dict[str, str], dict[tuple[str, str], str]]:
    """Read the pair manifest CSV (columns: id_a, id_b, rpc_a_path,
    rpc_b_path, dsm_path): ``{id: rpc_path}`` in order of first mention, and
    ``{(id_a, id_b): dsm_path}`` with each pair's ids in ascending order.  A
    pair of one id twice, a pair listed again in either order, and an id
    given a second RPC file are errors."""
    with (
        open(path, "r", encoding="utf-8-sig", newline="") as f,
        decode_errors_as(ManifestError, path, "utf-8-sig"),
    ):
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ManifestError(f"{path}: empty manifest")
        missing = [c for c in MANIFEST_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ManifestError(f"{path}: missing columns {missing}")
        rpc_paths, pairs, lines = {}, {}, {}
        for row in reader:
            where = f"{path}:{reader.line_num}"
            vals = [(row.get(c) or "").strip() for c in MANIFEST_COLUMNS]
            if not all(vals):
                raise ManifestError(f"{where}: incomplete row")
            id_a, id_b, rpc_a, rpc_b, dsm_path = vals
            pair, key = f"pair ({id_a}, {id_b})", (min(id_a, id_b), max(id_a, id_b))
            if id_a == id_b:
                raise ManifestError(f"{where}: {pair} names one id twice")
            if key in lines:
                raise ManifestError(f"{where}: {pair} is already on line {lines[key]}")
            lines[key] = reader.line_num
            for ident, rpc in ((id_a, rpc_a), (id_b, rpc_b)):
                if (first := rpc_paths.setdefault(ident, rpc)) != rpc:
                    raise ManifestError(f"{where}: id {ident} has RPC files {first} and {rpc}")
            pairs[key] = dsm_path
    if not pairs:
        raise ManifestError(f"{path}: manifest has no pairs")
    return rpc_paths, pairs
