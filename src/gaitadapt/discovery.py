"""Target-domain neighborhood machinery.

Holds the memory bank of stored embeddings, k-nearest-neighbor anchor
neighborhoods, per-sample entropy ranking, and the progressive round-based
anchor selection (round r of R trains on the top r/R fraction).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .encoder import EncoderParams, SilhouetteSequence, encode_sequences
from .losses import entropy, softmax_row
from .numerics import l2_normalize

STRATEGIES = ("high", "low", "random")


@dataclass
class MemoryBank:
    """Stored unit-norm embeddings of every target sample, with momentum updates."""

    ids: tuple[str, ...]
    entries: np.ndarray  # (N, d)
    momentum: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if len(self.ids) != self.entries.shape[0]:
            raise ValueError("one entry per sample id required")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")
        self.index = {sid: i for i, sid in enumerate(self.ids)}

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def build_bank(
    seqs: list[SilhouetteSequence],
    params: EncoderParams,
    momentum: float = 0.5,
) -> MemoryBank:
    """Encode every sequence into a fresh bank, in input order."""
    if len(seqs) == 0:
        raise ValueError("cannot build a bank from an empty sample set")
    entries = encode_sequences(seqs, params)
    return MemoryBank(tuple(s.sample_id for s in seqs), entries, momentum)


def update_bank(
    bank: MemoryBank,
    sample_ids: list[str],
    fresh: np.ndarray,
) -> MemoryBank:
    """entry <- normalize(mu * old + (1 - mu) * fresh) for the given samples."""
    fresh = np.asarray(fresh, dtype=np.float64)
    if fresh.shape != (len(sample_ids), bank.entries.shape[1]):
        raise ValueError(f"fresh embeddings shape {fresh.shape} does not match ids")
    mu = bank.momentum
    for sid, vec in zip(sample_ids, fresh):
        i = bank.index.get(sid)
        if i is None:
            raise ValueError(f"unknown sample id {sid!r}")
        bank.entries[i] = l2_normalize(mu * bank.entries[i] + (1.0 - mu) * vec)
    return bank


@dataclass(frozen=True)
class Neighborhood:
    """An anchor and its k most-similar bank entries (anchor itself excluded
    from neighbor_ids but counted as a member)."""

    anchor_id: str
    neighbor_ids: tuple[str, ...]

    @property
    def member_count(self) -> int:
        return len(self.neighbor_ids) + 1


def _id_rank(ids: tuple[str, ...]) -> np.ndarray:
    """rank[i] = position of ids[i] in lexicographic id order."""
    rank = np.empty(len(ids), dtype=np.intp)
    for pos, i in enumerate(sorted(range(len(ids)), key=lambda j: ids[j])):
        rank[i] = pos
    return rank


def discover_neighborhoods(bank: MemoryBank, k: int) -> dict[str, Neighborhood]:
    """k highest-cosine neighbors per sample, self excluded, ties to lower id.

    Tie-breaking on the id string (not bank position) makes the result
    independent of sample iteration order.
    """
    n = bank.size
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k = {k} must be smaller than the bank size {n}")
    sims = bank.entries @ bank.entries.T
    rank = _id_rank(bank.ids)
    out: dict[str, Neighborhood] = {}
    for i in range(n):
        row = sims[i].copy()
        row[i] = -np.inf
        order = np.lexsort((rank, -row))  # similarity desc, then id asc
        neighbors = tuple(bank.ids[j] for j in order[:k])
        out[bank.ids[i]] = Neighborhood(bank.ids[i], neighbors)
    return out


@dataclass(frozen=True)
class CurriculumSchedule:
    """Per-round selection state for the progressive anchor curriculum."""

    rounds: int
    round_index: int  # 1-based
    strategy: str = "high"
    entropies: dict[str, float] | None = None
    selected: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 1 <= self.round_index <= self.rounds:
            raise ValueError(
                f"round_index {self.round_index} outside [1, {self.rounds}]"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")

    def selection_size(self, n_samples: int) -> int:
        # ceil(r/R * N) in exact integer arithmetic; round 1 always selects >= 1
        return -((-self.round_index * n_samples) // self.rounds)


def bank_entropies(bank: MemoryBank, tau: float, include_self: bool = True) -> np.ndarray:
    """Softmax-row entropy of every stored sample against the whole bank."""
    h = np.empty(bank.size, dtype=np.float64)
    for i in range(bank.size):
        row = softmax_row(bank.entries[i], bank, tau, anchor_index=i,
                          include_self=include_self)
        h[i] = entropy(row)
    return h


def rank_and_select(
    bank: MemoryBank,
    schedule: CurriculumSchedule,
    tau: float,
    rng: np.random.Generator,
    include_self: bool = True,
) -> CurriculumSchedule:
    """Rank samples by entropy per the strategy and select the round's fraction.

    high: largest entropy first (densest, best-supported samples early);
    low: smallest first; random: seeded uniform order. Entropy ties break
    toward the lower sample id.
    """
    h = bank_entropies(bank, tau, include_self=include_self)
    rank = _id_rank(bank.ids)
    if schedule.strategy == "high":
        order = np.lexsort((rank, -h))
    elif schedule.strategy == "low":
        order = np.lexsort((rank, h))
    else:
        order = rng.permutation(bank.size)
    n_sel = schedule.selection_size(bank.size)
    selected = tuple(bank.ids[i] for i in order[:n_sel])
    entropies = {bank.ids[i]: float(h[i]) for i in range(bank.size)}
    return replace(schedule, entropies=entropies, selected=selected)


def dump_round_diagnostics(
    path: str | Path,
    schedule: CurriculumSchedule,
    neighborhoods: dict[str, Neighborhood],
) -> None:
    """One row per sample: id, entropy, selected flag, neighbor ids."""
    if schedule.entropies is None or schedule.selected is None:
        raise ValueError("schedule has not been ranked yet")
    chosen = set(schedule.selected)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "entropy", "selected", "neighbor_ids"])
        for sid in sorted(schedule.entropies):
            w.writerow([
                sid,
                repr(schedule.entropies[sid]),
                int(sid in chosen),
                ";".join(neighborhoods[sid].neighbor_ids),
            ])
