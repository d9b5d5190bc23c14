"""Shared numerical kernels: the norm floor, the working-memory budget and
seeded RNG streams.

Everything here is pure, double precision, and deterministic. These are the
primitives the encoder, losses, and neighborhood machinery are built on.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12

# The one bound, in bytes, on working memory that would otherwise grow with
# the data: a split load's read buffer (data._read_split), an encoder
# chunk's float64 band inputs and activations (encoder.encode_sequences)
# and a scan block's similarities (discovery.block_rows). No result bit
# depends on it. 512 KiB is a measured trade: at 256 KiB a scan of 2 000
# entries took 48 ms instead of 36, and at 1 MiB the wide-bank benchmark
# kept only half of the peak-memory saving.
WORK_BYTES = 512 * 1024


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

