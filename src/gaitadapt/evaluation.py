"""Gallery/probe rank-1 identification, with an identical-view-excluded variant.

Each probe is matched to its nearest gallery entry by Euclidean distance;
a probe scores when the nearest entry shares its identity. With view
exclusion on, gallery entries seen from the probe's own camera view are
removed before matching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .encoder import SilhouetteSequence

CONVENTIONS = ("first-n-gallery", "first-sequence-gallery")


class ProtocolError(ValueError):
    """The gallery/probe assignment cannot be evaluated."""


@dataclass(frozen=True)
class EvalProtocol:
    gallery_ids: tuple[str, ...]
    probe_ids: tuple[str, ...]
    exclude_identical_view: bool
    identity: Mapping[str, str]
    view: Mapping[str, str]
    condition: Mapping[str, str]
    skipped_identities: tuple[str, ...] = ()

    def with_exclusion(self, flag: bool) -> "EvalProtocol":
        return replace(self, exclude_identical_view=flag)


def check_protocol(convention: str, gallery_size: int) -> None:
    """Raise ProtocolError for an unknown convention or a gallery size below 1."""
    if convention not in CONVENTIONS:
        raise ProtocolError(f"unknown convention {convention!r}, expected {CONVENTIONS}")
    if gallery_size < 1:
        raise ProtocolError(f"gallery size must be >= 1, got {gallery_size!r}")


def make_protocol(
    test_seqs: list[SilhouetteSequence],
    convention: str = "first-n-gallery",
    gallery_size: int = 4,
) -> EvalProtocol:
    """Deterministic gallery/probe assignment from a test split.

    first-n-gallery: per identity, the first `gallery_size` normal-condition
    sequences (by sample id) are the gallery, everything else is a probe.
    first-sequence-gallery: per identity, the first sequence is the gallery
    and the rest are probes. Identities that cannot fill the convention are
    skipped and reported. The protocol keeps identical views; call
    with_exclusion(True) for the variant that excludes them.
    """
    check_protocol(convention, gallery_size)
    by_id: dict[str, list[SilhouetteSequence]] = {}
    for s in sorted(test_seqs, key=lambda s: s.sample_id):
        if s.identity is None:
            raise ProtocolError(f"sample {s.sample_id} has no identity label")
        by_id.setdefault(s.identity, []).append(s)

    gallery: list[str] = []
    probes: list[str] = []
    skipped: list[str] = []
    for ident in sorted(by_id):
        group = by_id[ident]
        if convention == "first-n-gallery":
            normals = [s for s in group if s.condition == "NM"]
            if len(normals) < gallery_size:
                skipped.append(ident)
                continue
            chosen = {s.sample_id for s in normals[:gallery_size]}
        else:
            if len(group) < 2:
                skipped.append(ident)
                continue
            chosen = {group[0].sample_id}
        for s in group:
            (gallery if s.sample_id in chosen else probes).append(s.sample_id)

    identity = {s.sample_id: s.identity for s in test_seqs}
    view = {s.sample_id: s.view for s in test_seqs}
    condition = {s.sample_id: s.condition for s in test_seqs}
    return EvalProtocol(
        gallery_ids=tuple(gallery),
        probe_ids=tuple(probes),
        exclude_identical_view=False,
        identity=identity,
        view=view,
        condition=condition,
        skipped_identities=tuple(skipped),
    )


@dataclass
class Rank1Result:
    accuracy: float | None  # None only where eval found no probe to score
    correct: int
    evaluated: int
    skipped_probes: tuple[str, ...]
    per_condition: dict[str, tuple[int, int, float]]  # condition -> (correct, evaluated, acc)

    def to_dict(self) -> dict:
        return {
            "rank1": self.accuracy,
            "correct": self.correct,
            "evaluated": self.evaluated,
            "skipped_probes": list(self.skipped_probes),
            "per_condition": {
                c: {"correct": v[0], "evaluated": v[1], "rank1": v[2]}
                for c, v in self.per_condition.items()
            },
        }


def rank1(embeddings: Mapping[str, np.ndarray], protocol: EvalProtocol) -> Rank1Result:
    """Average rank-1 accuracy over all scorable probes, plus per-condition rates.

    Nearest-gallery ties break toward the lower gallery id. Probes whose
    effective gallery is empty (everything excluded by view) are skipped
    and reported, not counted in the denominator.
    """
    if len(protocol.gallery_ids) == 0:
        raise ProtocolError("empty gallery")
    gal_ids = sorted(protocol.gallery_ids)
    for sid in list(gal_ids) + list(protocol.probe_ids):
        if sid not in embeddings:
            raise ProtocolError(f"no embedding for sample {sid}")
    gal = np.stack([np.asarray(embeddings[g], dtype=np.float64) for g in gal_ids])
    gal_views = np.array([protocol.view[g] for g in gal_ids])
    gal_idents = np.array([protocol.identity[g] for g in gal_ids])

    correct = 0
    evaluated = 0
    skipped: list[str] = []
    cond_hits: dict[str, list[int]] = {}
    for pid in sorted(protocol.probe_ids):
        keep = np.ones(len(gal_ids), dtype=bool)
        if protocol.exclude_identical_view:
            keep = gal_views != protocol.view[pid]
        if not keep.any():
            skipped.append(pid)
            continue
        q = np.asarray(embeddings[pid], dtype=np.float64)
        dists = np.linalg.norm(gal[keep] - q, axis=1)
        best = int(np.argmin(dists))  # first minimum = lowest gallery id
        hit = int(gal_idents[keep][best] == protocol.identity[pid])
        correct += hit
        evaluated += 1
        cond_hits.setdefault(protocol.condition[pid], []).append(hit)

    if evaluated == 0:
        raise ProtocolError("every probe was skipped; nothing to evaluate")
    per_condition = {
        c: (sum(h), len(h), sum(h) / len(h)) for c, h in sorted(cond_hits.items())
    }
    return Rank1Result(
        accuracy=correct / evaluated,
        correct=correct,
        evaluated=evaluated,
        skipped_probes=tuple(skipped),
        per_condition=per_condition,
    )
