"""Shared numerical kernels: cosine similarity, the norm floor, seeded RNG.

Everything here is pure, double precision, and deterministic. These are the
primitives the encoder, losses, and neighborhood machinery are built on.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12


class DegenerateInputError(ValueError):
    """A (near-)zero-norm vector reached an operation that needs a direction.

    Zero vectors are raised loudly instead of being mapped to zero: they
    usually mean the encoder has collapsed.
    """


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; equal seeds give equal draw streams."""
    return np.random.Generator(np.random.PCG64(seed))


def seed_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, role, role, ...) path.

    Distinct paths give statistically independent streams, and the mapping
    is stable across runs, so every stage of an experiment can carve out
    its own randomness from one experiment seed.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between a and b, in [-1, 1] up to roundoff."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= NORM_EPS or nb <= NORM_EPS:
        raise DegenerateInputError(f"cosine undefined for norms ({na!r}, {nb!r})")
    return float(np.dot(a, b) / (na * nb))


def pairwise_similarity(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row vector against every col vector.

    Both inputs must already be unit-normalized (entry (i, j) is then just
    the dot product). Exactly symmetric when rows and cols coincide.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
    for name, m in (("rows", rows), ("cols", cols)):
        norms = np.linalg.norm(m, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError(f"{name} must be unit-normalized")
    return rows @ cols.T
