"""Loss computations with exact embedding gradients.

Three objectives: batch-all triplet loss for supervised pretraining, a
non-parametric softmax row with its entropy (the confidence indicator for
anchor ranking), and the neighborhood loss that pulls an anchor toward the
stored entries of its discovered neighbors.

The softmax, entropy and neighborhood loss run on batches of anchors in
log space (log_softmax_rows, row_entropies, neighborhood_loss);
softmax_row, entropy and anchor_neighborhood_loss are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .discovery import MemoryBank

_DIST_EPS = 1e-12


class EmptyTripletError(ValueError):
    """The batch contains no (anchor, positive, negative) triple."""


def triplet_loss(
    embeddings: np.ndarray,
    labels: Sequence,
    margin: float,
) -> tuple[float, np.ndarray]:
    """Batch-all triplet loss and its gradient per embedding.

    All ordered triples (a, p, n) with label(a) == label(p), a != p, and
    label(n) != label(a) contribute hinge(d(a,p) - d(a,n) + margin); the
    loss is the mean over the total triple count (inactive triples stay in
    the denominator). Distances are Euclidean.
    """
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin!r}")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2:
        raise ValueError(f"embeddings must be (n, d), got shape {emb.shape}")
    n = emb.shape[0]
    labels = np.asarray(labels)
    if labels.shape[0] != n:
        raise ValueError(f"{n} embeddings but {labels.shape[0]} labels")

    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)          # a != p
    diff = labels[:, None] != labels[None, :]

    diffs = emb[:, None, :] - emb[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)

    # hinge[a, p, n] = d(a,p) - d(a,n) + m over valid triples
    valid = same[:, :, None] & diff[:, None, :]
    total = int(valid.sum())
    if total == 0:
        raise EmptyTripletError(
            "no valid triplet: need >= 2 identities and a repeated identity"
        )
    hinge = dist[:, :, None] - dist[:, None, :] + margin
    active = valid & (hinge > 0.0)
    loss = float(np.where(active, hinge, 0.0).sum() / total)

    # unit difference directions, zeroed where the distance is degenerate
    safe = dist > _DIST_EPS
    unit = np.zeros_like(diffs)
    unit[safe] = diffs[safe] / dist[safe][:, None]

    w_ap = active.sum(axis=2).astype(np.float64)  # times pair (a,p) is active
    w_an = active.sum(axis=1).astype(np.float64)  # times pair (a,n) is active
    pos_terms = w_ap[:, :, None] * unit
    neg_terms = w_an[:, :, None] * unit
    grads = (
        pos_terms.sum(axis=1) - pos_terms.sum(axis=0)
        - neg_terms.sum(axis=1) + neg_terms.sum(axis=0)
    ) / total
    return loss, grads


def log_softmax_rows(
    anchors: np.ndarray,
    bank: "MemoryBank",
    tau: float,
    anchor_indices: Sequence[int] | np.ndarray | None = None,
    include_self: bool = True,
) -> np.ndarray:
    """Log-probabilities of each anchor row against every bank entry, (B, N).

    One (B, d) @ (d, N) product, then a max-shifted log-softmax of each row
    of similarities over tau. Working in log space keeps a probability that
    underflows to 0 usable as a finite log-probability. With
    include_self=False the anchor's own entry, anchor_indices[b], gets
    log-probability -inf (probability exactly zero) and drops out of the
    denominator.
    """
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau!r}")
    z = np.asarray(anchors, dtype=np.float64) @ bank.entries.T
    if not include_self:
        idx = np.asarray([] if anchor_indices is None else anchor_indices, dtype=np.intp)
        if idx.shape != (z.shape[0],) or np.any((idx < 0) | (idx >= z.shape[1])):
            raise ValueError("self-exclusion requires a valid anchor_index")
        z[np.arange(z.shape[0]), idx] = -np.inf
    m = z.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("softmax needs at least one finite score")
    z -= m
    z /= tau
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def row_entropies(log_probs: np.ndarray) -> np.ndarray:
    """Natural-log entropy of each row of log-probabilities, (B,).

    Entries of probability zero contribute nothing (0 log 0 = 0).
    """
    terms = np.exp(log_probs)
    np.multiply(terms, log_probs, out=terms, where=terms > 0.0)
    return -terms.sum(axis=1)


def neighborhood_loss(
    log_probs: np.ndarray,
    anchor_indices: Sequence[int] | np.ndarray,
    members: np.ndarray,
    bank: "MemoryBank",
    tau: float | np.ndarray,
) -> tuple[float, np.ndarray]:
    """Sum over anchors of -log(probability mass on the anchor's neighborhood).

    log_probs[b] is anchor b's row from log_softmax_rows and members[b] the
    bank indices of its neighborhood, which must include anchor_indices[b];
    a repeated member counts once. The mass is a logsumexp over the
    members, so it stays finite when every member probability underflows.
    Gradients are with respect to each anchor's fresh embedding (one
    (B, N) @ (N, d) product); bank entries are treated as constants. tau
    is a scalar or one temperature per anchor, shape (B, 1).
    """
    idx = np.asarray(anchor_indices, dtype=np.intp)
    if len(idx) == 0:
        raise ValueError("anchor set is empty")
    members = np.sort(np.asarray(members, dtype=np.intp), axis=1)
    missing = ~(members == idx[:, None]).any(axis=1)
    if missing.any():
        raise ValueError(
            f"neighborhood of bank index {idx[missing][0]} must include itself")
    member_lp = np.take_along_axis(log_probs, members, axis=1)
    # canonical index order keeps the mass sum deterministic for set inputs
    once = member_lp.copy()
    once[:, 1:][members[:, 1:] == members[:, :-1]] = -np.inf
    top = once.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValueError("a neighborhood has no probability mass")
    log_mass = top + np.log(np.exp(once - top).sum(axis=1, keepdims=True))
    # d(-log mass)/d(sims) = (p - p * indicator / mass) / tau
    coeff = np.exp(log_probs)
    rows = np.arange(len(idx))[:, None]
    coeff[rows, members] -= np.exp(member_lp - log_mass)
    coeff /= tau
    return float(-log_mass.sum()), coeff @ bank.entries


def _log(probs: np.ndarray) -> np.ndarray:
    """Elementwise log with log(0) = -inf, without a divide warning."""
    return np.log(probs, out=np.full(probs.shape, -np.inf), where=probs > 0.0)


@dataclass
class SoftmaxRow:
    """Probabilities of one anchor against every stored bank entry.

    log_probs holds the same row in log space; softmax_row fills it from
    the batched path, otherwise it is the log of probs.
    """

    probs: np.ndarray
    anchor_index: int
    tau: float
    log_probs: np.ndarray | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        s = self.probs.sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"softmax row sums to {s!r}, not 1")
        if self.log_probs is None:
            self.log_probs = _log(self.probs)


def softmax_row(
    anchor: np.ndarray,
    bank: "MemoryBank",
    tau: float,
    anchor_index: int = -1,
    include_self: bool = True,
) -> SoftmaxRow:
    """Non-parametric softmax of an anchor's similarities to the whole bank.

    A batch of one through log_softmax_rows. With include_self=False the
    anchor's own bank entry gets probability exactly zero (its similarity
    is dropped from the denominator).
    """
    anchor = np.asarray(anchor, dtype=np.float64)
    log_probs = log_softmax_rows(anchor[None], bank, tau, [anchor_index], include_self)[0]
    return SoftmaxRow(np.exp(log_probs), anchor_index, tau, log_probs)


def entropy(row: SoftmaxRow) -> float:
    """Natural-log entropy of a softmax row; in [0, ln N]."""
    return float(row_entropies(row.log_probs[None])[0])


def anchor_neighborhood_loss(
    anchors: Sequence[tuple[int, SoftmaxRow]],
    neighborhoods: Mapping[int, Iterable[int]],
    bank: "MemoryBank",
) -> tuple[float, np.ndarray]:
    """Sum over anchors of -log(probability mass on the anchor's neighborhood).

    The rows and neighborhoods are stacked into one neighborhood_loss call;
    gradients are with respect to each anchor's fresh embedding. Every
    neighborhood must contain the anchor's own bank index.
    """
    if len(anchors) == 0:
        raise ValueError("anchor set is empty")
    idx = [i for i, _ in anchors]
    hoods = [np.unique(np.fromiter(neighborhoods[i], dtype=np.intp)) for i in idx]
    for i, hood in zip(idx, hoods):
        if i not in hood:
            raise ValueError(f"neighborhood of bank index {i} must include itself")
    # pad by repeating a member: repeats count once
    width = max(len(h) for h in hoods)
    members = np.stack([np.pad(h, (0, width - len(h)), mode="edge") for h in hoods])
    log_probs = np.stack([row.log_probs for _, row in anchors])
    tau = np.array([[row.tau] for _, row in anchors])
    return neighborhood_loss(log_probs, idx, members, bank, tau)
