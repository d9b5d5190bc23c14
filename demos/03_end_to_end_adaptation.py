"""
Full run: pretrain on the labeled domain, adapt to the unlabeled one
====================================================================

The desk preset end to end, one seed. Labeled source pretraining, a direct
transfer baseline on the shifted target, then four rounds of curriculum
adaptation and the same evaluation again. Takes half a minute or so on a
laptop CPU.
"""

import tempfile
from pathlib import Path

from gaitadapt.config import preset_config
from gaitadapt.data import generate_domain, load_dataset
from gaitadapt.encoder import encode_sequence
from gaitadapt.evaluation import make_protocol, rank1
from gaitadapt.pipeline import pretrain_source, adapt_target

cfg = preset_config("desk")
seed = 1


def eval_on_target(params):
    test = target.split("test")
    emb = {s.sample_id: encode_sequence(s, params) for s in test}
    proto = make_protocol(test, "first-n-gallery", gallery_size=4)
    return rank1(emb, proto)


print("generating source and target domains ...")
with tempfile.TemporaryDirectory(prefix="gaitadapt_demo_") as tmp:
    work = Path(tmp)
    generate_domain(cfg.source, work / "source", "source", seed)
    generate_domain(cfg.target, work / "target", "target", seed)
    source = load_dataset(work / "source")
    target = load_dataset(work / "target")

print(f"pretraining, {cfg.train.pretrain_epochs} epochs ...")
params, log = pretrain_source(source.split("train"), cfg.encoder, cfg.train)
print(f"  triplet loss {log.records[0].loss:.4f} -> {log.records[-1].loss:.4f}")

before = eval_on_target(params)
print(f"direct transfer rank-1 on target test: {before.accuracy:.3f} "
      f"({before.correct}/{before.evaluated})")

print(f"adapting, {cfg.train.rounds} rounds x {cfg.train.epochs_per_round} "
      f"epochs, strategy {cfg.train.strategy!r} ...")
adapted, alog, rounds = adapt_target(target.split("train"), params, cfg.train)
for st in rounds:
    print(f"  round {st.round_index}: {len(st.selected)} anchors trained, "
          f"entropy {st.entropies.min():.3f}..{st.entropies.max():.3f}")

after = eval_on_target(adapted)
print(f"adapted rank-1 on target test: {after.accuracy:.3f} "
      f"({after.correct}/{after.evaluated})")
for cond in sorted(after.per_condition):
    b = before.per_condition[cond]
    a = after.per_condition[cond]
    print(f"  {cond}: {b[2]:.3f} -> {a[2]:.3f}")
