"""Target-domain neighborhood machinery.

Holds the memory bank of stored embeddings, k-nearest-neighbor anchor
neighborhoods, per-sample entropy ranking, and the progressive round-based
anchor selection (round r of R trains on the top r/R fraction).

The bank-against-bank similarities are scanned in blocks of BLOCK_ROWS
rows, so no N x N array is ever held; kNN discovery and the entropy
ranking each make one such pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .encoder import EncoderParams, SilhouetteSequence, encode_sequences
from .losses import log_softmax_rows, row_entropies
from .numerics import NORM_EPS, DegenerateInputError

STRATEGIES = ("high", "low", "random")

# Bank rows per block of the similarity pass: a block holds BLOCK_ROWS x N
# similarities (4 MB at N = 2 000).
BLOCK_ROWS = 256


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
    """entry <- normalize(mu * old + (1 - mu) * fresh) for the given samples.

    All rows update in one step from the old entries, so an id may appear
    only once per call.
    """
    fresh = np.asarray(fresh, dtype=np.float64)
    if fresh.shape != (len(sample_ids), bank.entries.shape[1]):
        raise ValueError(f"fresh embeddings shape {fresh.shape} does not match ids")
    seen: set[str] = set()
    for sid in sample_ids:
        if sid not in bank.index:
            raise ValueError(f"unknown sample id {sid!r}")
        if sid in seen:
            raise ValueError(f"sample id {sid!r} appears more than once in one update")
        seen.add(sid)
    idx = np.array([bank.index[sid] for sid in sample_ids], dtype=np.intp)
    mu = bank.momentum
    mixed = mu * bank.entries[idx] + (1.0 - mu) * fresh
    norms = np.linalg.norm(mixed, axis=1)
    small = np.flatnonzero(norms <= NORM_EPS)
    if small.size:
        raise DegenerateInputError(
            f"sample {sample_ids[small[0]]!r}: cannot normalize updated entry"
            f" with norm {float(norms[small[0]])!r}")
    bank.entries[idx] = mixed / norms[:, None]
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


def _row_blocks(n: int):
    for lo in range(0, n, BLOCK_ROWS):
        yield lo, min(lo + BLOCK_ROWS, n)


def _top_k(sims: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest similarities, (B, k).

    Ordered by similarity descending, then by rank ascending. The k-th
    largest value comes from a partition; every column at or above it is
    a candidate (all ties at the boundary included), and only those
    candidates are sorted.
    """
    b, n = sims.shape
    kth = np.partition(sims, n - k, axis=1)[:, n - k]
    rows, cols = np.nonzero(sims >= kth[:, None])
    counts = np.bincount(rows, minlength=b)
    pos = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # padding sorts after every candidate
    neg_sim = np.full((b, counts.max()), np.inf)
    cand_rank = np.full(neg_sim.shape, n, dtype=np.intp)
    cand = np.zeros(neg_sim.shape, dtype=np.intp)
    neg_sim[rows, pos] = -sims[rows, cols]
    cand_rank[rows, pos] = rank[cols]
    cand[rows, pos] = cols
    order = np.lexsort((cand_rank, neg_sim), axis=1)[:, :k]
    return np.take_along_axis(cand, order, axis=1)


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
    rank = _id_rank(bank.ids)
    neighbors = np.empty((n, k), dtype=np.intp)
    for lo, hi in _row_blocks(n):
        sims = bank.entries[lo:hi] @ bank.entries.T
        sims[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        neighbors[lo:hi] = _top_k(sims, rank, k)
    return {
        sid: Neighborhood(sid, tuple(bank.ids[j] for j in row))
        for sid, row in zip(bank.ids, neighbors)
    }


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
    for lo, hi in _row_blocks(bank.size):
        log_probs = log_softmax_rows(bank.entries[lo:hi], bank, tau,
                                     np.arange(lo, hi), include_self)
        h[lo:hi] = row_entropies(log_probs)
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
