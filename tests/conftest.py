"""Shared fixtures: a small encoder shape and tiny on-disk datasets.

Everything here is deterministic; the session-scoped dataset directories
are safe to share because tests never mutate them in place (corruption
tests copy files into their own tmp dir first).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from gaitadapt.data import DomainSpec, generate_domain
from gaitadapt.encoder import EncoderShape, SilhouetteSequence, init_params
from gaitadapt.numerics import seed_stream

# Small enough that finite-difference sweeps over every parameter stay fast,
# large enough to exercise the strip pyramid (2 scales -> 3 strips).
SMALL_SHAPE = EncoderShape(height=8, width=8, bands=2, channels=3, scales=2, embed_dim=6)

# Training tests need more channels: sparse walker silhouettes kill too many
# ReLUs at 3 channels and the encoder collapses to the zero vector.
PIPE_SHAPE = EncoderShape(height=8, width=8, bands=2, channels=8, scales=2, embed_dim=12)


def tiny_domain_spec(prefix: str = "A", **overrides) -> DomainSpec:
    base = dict(
        id_prefix=prefix,
        identities=3,
        test_identities=2,
        walks={"NM": 2, "BG": 1},
        views=("054", "090"),
        frames=4,
        height=8,
        width=8,
        noise=0.0,
    )
    base.update(overrides)
    return DomainSpec(**base)


def random_sequences(rng, n_ids, per_id, shape=SMALL_SHAPE, frames=3, prefix="id"):
    """Random binary silhouette sequences, one batch worth."""
    seqs = []
    for i in range(n_ids):
        ident = f"{prefix}{i:03d}"
        for j in range(per_id):
            mats = (rng.random((frames, shape.height, shape.width)) < 0.45).astype(np.uint8)
            seqs.append(SilhouetteSequence(
                frames=mats,
                sample_id=f"{ident}-nm-{j + 1:02d}-090",
                identity=ident,
                condition="NM",
                view="090",
            ))
    return seqs


def random_unit_rows(rng, n, dim):
    """n unit rows, one standard-normal draw of dim values each."""
    rows = [rng.standard_normal(dim) for _ in range(n)]
    return np.stack([v / np.linalg.norm(v) for v in rows])


def traced_peak(fn):
    """Call fn() under tracemalloc: (its result, the traced peak in bytes,
    the bytes still traced when it returned)."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.fixture(scope="session")
def small_params():
    return init_params(SMALL_SHAPE, seed_stream(7, 0))


@pytest.fixture(scope="session")
def tiny_source_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_src") / "source"
    generate_domain(tiny_domain_spec("S"), root, domain="source", seed=11)
    return root


@pytest.fixture(scope="session")
def tiny_target_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_tgt") / "target"
    spec = dataclasses.replace(tiny_domain_spec("T"), period=11.0, dilate=1)
    generate_domain(spec, root, domain="target", seed=12)
    return root
