"""Target-domain neighborhood machinery.

Holds the memory bank of stored embeddings, k-nearest-neighbor anchor
neighborhoods, per-sample entropy ranking, and the progressive round-based
anchor selection (round r of R trains on the top r/R fraction).

scan_bank makes one pass per round over the bank-against-bank
similarities, in row blocks of at most WORK_BYTES (and at least 8 rows),
so no N x N array is ever held and a block does not grow with N below
N = 8 192: each block's product gives both the k nearest neighbors and,
over the temperature, the entropies (losses.row_entropies, one exponential
per similarity). A round's state is index arrays over the bank; sample ids
appear only in the diagnostics CSV, which cli.write_stage writes from that
state, and in the id-keyed wrappers (discover_neighborhoods,
rank_and_select). Nothing here reads or writes a file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoder import EncoderParams, SilhouetteSequence, encode_sequences
from .losses import row_entropies
from .numerics import NORM_EPS, WORK_BYTES, DegenerateInputError

STRATEGIES = ("high", "low", "random")


def block_rows(n: int) -> int:
    """Bank rows per block of the similarity pass over a bank of n entries.

    Up to N = 8 192 a block holds at most WORK_BYTES of float64
    similarities, and the entropy kernel one more array of that size: 32
    rows at N = 2 000, and the whole bank up to N = 256. Blocks of 7 rows or more give the same
    bits as one whole-bank block; a 1-row block takes BLAS's vector path
    and does not, so a block never has fewer than 8 rows.
    """
    return max(8, WORK_BYTES // (8 * n))


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
        # id_rank[i]: position of ids[i] in id order, the tie-break everywhere
        self.id_rank = np.empty(len(self.ids), dtype=np.intp)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = (
            np.arange(len(self.ids)))

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
    indices: np.ndarray,
    fresh: np.ndarray,
) -> MemoryBank:
    """entry <- normalize(mu * old + (1 - mu) * fresh) at the given bank indices.

    All rows update in one step from the old entries, so an index may
    appear only once per call. Nothing is written unless every row can be.
    """
    idx = np.asarray(indices, dtype=np.intp)
    fresh = np.asarray(fresh, dtype=np.float64)
    if idx.ndim != 1 or fresh.shape != (idx.size, bank.entries.shape[1]):
        raise ValueError(
            f"fresh embeddings shape {fresh.shape} does not match indices {idx.shape}")
    bad = idx[(idx < 0) | (idx >= bank.size)]
    if bad.size:
        raise ValueError(f"bank index {int(bad[0])} out of range for {bank.size} entries")
    ordered = np.sort(idx)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(
            f"bank index {int(repeated[0])} appears more than once in one update")
    mu = bank.momentum
    mixed = mu * bank.entries[idx] + (1.0 - mu) * fresh
    norms = np.linalg.norm(mixed, axis=1)
    small = np.flatnonzero(norms <= NORM_EPS)
    if small.size:
        raise DegenerateInputError(
            f"sample {bank.ids[idx[small[0]]]!r}: cannot normalize updated entry"
            f" with norm {float(norms[small[0]])!r}")
    bank.entries[idx] = mixed / norms[:, None]
    return bank


@dataclass(frozen=True)
class Neighborhood:
    """An anchor and its k most-similar bank entries (anchor itself excluded
    from neighbor_ids)."""

    anchor_id: str
    neighbor_ids: tuple[str, ...]


def _row_blocks(n: int):
    rows = block_rows(n)
    for lo in range(0, n, rows):
        yield lo, min(lo + rows, n)


def _top_k(sims: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest similarities, (B, k).

    Ordered by similarity descending, then by rank ascending. The k-th
    largest value comes from a partition (a row maximum when k = 1); every
    column at or above it is a candidate (all ties at the boundary
    included), and only those candidates are sorted.
    """
    b, n = sims.shape
    if k == 1:
        kth = sims.max(axis=1)
    else:
        kth = np.partition(sims, n - k, axis=1)[:, n - k]
    # flat positions: a 2-D nonzero costs about ten times as much
    rows, cols = np.divmod(np.flatnonzero(sims >= kth[:, None]), n)
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


def scan_bank(bank: MemoryBank, k: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the bank: (neighbors (N, k), entropies (N,)).

    neighbors[i] holds the bank indices of sample i's k highest-cosine
    neighbors, itself excluded, ordered by similarity descending and then
    by sample id, so the result does not depend on sample order; k = 0
    finds none. entropies[i] is the entropy of sample i's softmax row over
    the whole bank at temperature tau, its own entry included. Each block
    of rows is one product, which the neighbor search reads with the
    diagonal masked and the entropy then reuses, diagonal restored and
    scaled by 1/tau in place.
    """
    n = bank.size
    if not 0 <= k < n:
        raise ValueError(f"k = {k} must be in [0, {n}) for a bank of size {n}")
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau!r}")
    neighbors = np.empty((n, k), dtype=np.intp)
    h = np.empty(n, dtype=np.float64)
    for lo, hi in _row_blocks(n):
        sims = bank.entries[lo:hi] @ bank.entries.T
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        own = sims[diag]
        sims[diag] = -np.inf
        if k:
            neighbors[lo:hi] = _top_k(sims, bank.id_rank, k)
        sims[diag] = own
        sims /= tau
        h[lo:hi] = row_entropies(sims, overwrite=True)
    return neighbors, h


def discover_neighborhoods(bank: MemoryBank, k: int) -> dict[str, Neighborhood]:
    """k highest-cosine neighbors per sample id, self excluded, ties to lower id.

    Tie-breaking on the id string (not bank position) makes the result
    independent of sample iteration order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= bank.size:
        raise ValueError(f"k = {k} must be smaller than the bank size {bank.size}")
    neighbors, _ = scan_bank(bank, k, tau=1.0)
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


def bank_entropies(bank: MemoryBank, tau: float) -> np.ndarray:
    """Softmax-row entropy of every stored sample against the whole bank."""
    return scan_bank(bank, 0, tau)[1]


def curriculum_order(
    entropies: np.ndarray,
    id_rank: np.ndarray,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bank indices in selection order; a round takes a prefix.

    high: largest entropy first (densest, best-supported samples early);
    low: smallest first; random: one seeded permutation. Entropy ties
    break toward the lower sample id.
    """
    if strategy == "high":
        return np.lexsort((id_rank, -entropies))
    if strategy == "low":
        return np.lexsort((id_rank, entropies))
    return rng.permutation(entropies.size)


def rank_and_select(
    bank: MemoryBank,
    schedule: CurriculumSchedule,
    tau: float,
    rng: np.random.Generator,
) -> CurriculumSchedule:
    """Rank samples by entropy per the strategy and select the round's
    fraction (see curriculum_order), keyed by sample id."""
    h = bank_entropies(bank, tau)
    order = curriculum_order(h, bank.id_rank, schedule.strategy, rng)
    n_sel = schedule.selection_size(bank.size)
    selected = tuple(bank.ids[i] for i in order[:n_sel])
    entropies = {bank.ids[i]: float(h[i]) for i in range(bank.size)}
    return replace(schedule, entropies=entropies, selected=selected)
