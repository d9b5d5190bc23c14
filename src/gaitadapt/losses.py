"""Loss computations with exact embedding gradients.

Three objectives: batch-all triplet loss for supervised pretraining, a
non-parametric softmax row with its entropy (the confidence indicator for
anchor ranking), and the neighborhood loss that pulls an anchor toward the
stored entries of its discovered neighbors.

The softmax, entropy and neighborhood loss run on batches of anchors
(log_softmax_rows, row_entropies, neighborhood_loss); softmax_row, entropy
and anchor_neighborhood_loss are batches of one. row_entropies takes any
row scores, so the bank scan runs it on its similarity blocks directly.
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

    The gradient is a graph-Laplacian product: with w[i, j] the active
    triples that pair (i, j) enters as anchor-positive minus those it enters
    as anchor-negative, a = w / d (0 where d <= _DIST_EPS) and s = a + a^T,
    it is (diag(s 1) - s) e / total.
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

    w = active.sum(axis=2) - active.sum(axis=1)
    a = np.divide(w, dist, out=np.zeros_like(dist), where=dist > _DIST_EPS)
    s = a + a.T
    grads = (s.sum(axis=1)[:, None] * emb - s @ emb) / total
    return loss, grads


def log_softmax_rows(anchors: np.ndarray, bank: "MemoryBank", tau: float) -> np.ndarray:
    """Log-probabilities of each anchor row against every bank entry, (B, N).

    One (B, d) @ (d, N) product, then a max-shifted log-softmax of each row
    of similarities over tau. Working in log space keeps a probability that
    underflows to 0 usable as a finite log-probability.
    """
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau!r}")
    z = np.asarray(anchors, dtype=np.float64) @ bank.entries.T
    m = z.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("softmax needs at least one finite score")
    z -= m
    z /= tau
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def row_entropies(scores: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Natural-log entropy of the softmax of each row of scores, (B,).

    With z' = z - max(z) and p = exp(z'), H = log sum p - sum p z' / sum p:
    one exponential per score. Both terms are non-negative, so H >= 0. A
    score of -inf, or one whose p underflows, contributes nothing
    (0 log 0 = 0); every row needs at least one finite score. Log-
    probabilities are scores too, so this is also their entropy. With
    overwrite, z' is formed in scores itself, which saves one array of
    its size; the result is the same bits either way.
    """
    m = scores.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("softmax needs at least one finite score")
    z = np.subtract(scores, m, out=scores if overwrite else None)
    p = np.exp(z)
    z[p == 0.0] = 0.0
    total = p.sum(axis=1)
    return np.log(total) - np.einsum("ij,ij->i", p, z) / total


def neighborhood_loss(
    log_probs: np.ndarray,
    anchors: Sequence[int] | np.ndarray,
    neighbors: np.ndarray,
    bank: "MemoryBank",
    tau: float,
) -> tuple[float, np.ndarray]:
    """Sum over anchors of -log(probability mass on the anchor's neighborhood).

    log_probs[b] is anchor b's row from log_softmax_rows, anchors[b] its
    bank index and neighbors[b] its k neighbors as scan_bank finds them:
    distinct bank indices, the anchor's own excluded. The neighborhood is
    the anchor's own entry and those k. The mass is a logsumexp over them,
    so it stays finite when every member probability underflows. Gradients
    are with respect to each anchor's fresh embedding (one (B, N) @ (N, d)
    product); bank entries are treated as constants.
    """
    idx = np.asarray(anchors, dtype=np.intp)
    if len(idx) == 0:
        raise ValueError("anchor set is empty")
    hood = np.column_stack([idx, neighbors])
    hood_lp = np.take_along_axis(log_probs, hood, axis=1)
    top = hood_lp.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValueError("a neighborhood has no probability mass")
    log_mass = top + np.log(np.exp(hood_lp - top).sum(axis=1, keepdims=True))
    # d(-log mass)/d(sims) = (p - p * indicator / mass) / tau
    coeff = np.exp(log_probs)
    coeff[np.arange(len(idx))[:, None], hood] -= np.exp(hood_lp - log_mass)
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
) -> SoftmaxRow:
    """Non-parametric softmax of an anchor's similarities to the whole bank,
    its own entry included; a batch of one through log_softmax_rows."""
    anchor = np.asarray(anchor, dtype=np.float64)
    log_probs = log_softmax_rows(anchor[None], bank, tau)[0]
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

    Every neighborhood must contain the anchor's own bank index, and a
    repeated member counts once. Each anchor is one neighborhood_loss call
    at its row's tau; gradients are with respect to each anchor's fresh
    embedding.
    """
    if len(anchors) == 0:
        raise ValueError("anchor set is empty")
    loss, grads = 0.0, []
    for i, row in anchors:
        hood = np.unique(np.fromiter(neighborhoods[i], dtype=np.intp))
        if i not in hood:
            raise ValueError(f"neighborhood of bank index {i} must include itself")
        term, grad = neighborhood_loss(row.log_probs[None], [i], hood[hood != i][None],
                                       bank, row.tau)
        loss += term
        grads.append(grad[0])
    return loss, np.stack(grads)
