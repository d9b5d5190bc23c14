"""
Neighborhood discovery and the entropy-ranked curriculum
========================================================

Builds a memory bank over an unlabeled domain, finds each sample's nearest
neighbors, scores every sample by the entropy of its similarity
distribution, and walks the four-round curriculum that feeds training.
Labels exist here only because the data is synthetic; they are used to
report neighborhood purity, never to pick anything.
"""

import dataclasses
import tempfile

from gaitadapt.config import default_target_spec, default_encoder_shape
from gaitadapt.data import generate_domain, load_dataset
from gaitadapt.discovery import (
    CurriculumSchedule,
    build_bank,
    discover_neighborhoods,
    rank_and_select,
)
from gaitadapt.encoder import init_params
from gaitadapt.numerics import make_rng, seed_stream

spec = dataclasses.replace(default_target_spec(), identities=8, test_identities=2)
with tempfile.TemporaryDirectory(prefix="gaitadapt_demo_") as workdir:
    generate_domain(spec, workdir, domain="target", seed=7)
    train = load_dataset(workdir).split("train")

params = init_params(default_encoder_shape(), make_rng(0))
bank = build_bank(train, params)
print(f"bank: {bank.size} entries of dim {bank.entries.shape[1]}")

hoods = discover_neighborhoods(bank, k=3)
ident = {s.sample_id: s.identity for s in train}
pure = 0
for h in hoods.values():
    pure += sum(ident[n] == ident[h.anchor_id] for n in h.neighbor_ids)
print(f"k=3 neighborhoods, untrained encoder: "
      f"{pure}/{3 * bank.size} neighbors share the anchor's walker")

sample = sorted(hoods)[0]
print(f"  e.g. {sample} -> {', '.join(hoods[sample].neighbor_ids)}")

# entropy ranking: high entropy = similarity spread over many entries,
# which on this bank means the sample sits in a dense, well-supported spot
print("\ncurriculum, strategy 'high', 4 rounds:")
prev = set()
for r in (1, 2, 3, 4):
    sched = rank_and_select(
        bank, CurriculumSchedule(4, r, "high"), tau=0.1, rng=seed_stream(7, r))
    sel = set(sched.selected)
    assert prev <= sel  # earlier rounds never get dropped
    hs = [sched.entropies[s] for s in sched.selected]
    print(f"  round {r}: {len(sel):3d} anchors, entropy "
          f"{min(hs):.3f}..{max(hs):.3f}")
    prev = sel

high1 = rank_and_select(
    bank, CurriculumSchedule(4, 1, "high"), tau=0.1, rng=seed_stream(7, 1))
low1 = rank_and_select(
    bank, CurriculumSchedule(4, 1, "low"), tau=0.1, rng=seed_stream(7, 1))
shared = set(high1.selected) & set(low1.selected)
print(f"\nround-1 'high' vs 'low' picks share {len(shared)} of "
      f"{len(low1.selected)} anchors (opposite ends of the ranking)")
