"""
Synthesize a walking-silhouette domain and poke at the set encoder
==================================================================

Generates a handful of identities, encodes a few sequences with a freshly
initialized encoder, and checks the two properties everything downstream
leans on: embeddings live on the unit sphere, and the encoder is a set
function (frame order cannot matter).
"""

import dataclasses
import tempfile

import numpy as np

from gaitadapt.config import default_source_spec, default_encoder_shape
from gaitadapt.data import generate_domain, load_dataset
from gaitadapt.encoder import init_params, encode_sequence
from gaitadapt.numerics import make_rng

spec = dataclasses.replace(default_source_spec(), identities=6, test_identities=2)
print(f"domain: {spec.identities}+{spec.test_identities} identities, "
      f"walks {spec.walks}, views {spec.views}, {spec.height}x{spec.width}")

workdir = tempfile.mkdtemp(prefix="gaitadapt_demo_")
generate_domain(spec, workdir, domain="source", seed=42)
ds = load_dataset(workdir)
train = ds.split("train")
print(f"generated {len(train)} training sequences under {workdir}")

seq = train[0]
print(f"\nfirst sequence: {seq.sample_id}, frames {seq.frames.shape}, "
      f"fg fraction {seq.frames.mean():.3f}")

shape = default_encoder_shape()
params = init_params(shape, make_rng(0))
emb = encode_sequence(seq, params)
print(f"embedding: dim {emb.shape[0]}, norm {np.linalg.norm(emb):.12f}")

# set pooling: a shuffled copy of the frames encodes to the same bits
rng = make_rng(1)
shuffled = dataclasses.replace(seq, frames=seq.frames[rng.permutation(len(seq.frames))])
assert np.array_equal(encode_sequence(shuffled, params), emb)
print("frame order shuffled -> bit-identical embedding")

# cosine structure, same walker vs different walkers
by_id = {}
for s in train:
    by_id.setdefault(s.identity, []).append(s)
some = by_id["S001"][:3] + by_id["S002"][:2] + by_id["S003"][:1]
embs = np.stack([encode_sequence(s, params) for s in some])
sims = embs @ embs.T  # unit rows: dot products are cosines
print("\ncosine similarities (untrained encoder):")
for i, a in enumerate(some):
    for j, b in enumerate(some):
        if j <= i:
            continue
        tag = "same id " if a.identity == b.identity else "diff ids"
        print(f"  {a.sample_id} vs {b.sample_id}  {tag}  {sims[i, j]:+.3f}")
