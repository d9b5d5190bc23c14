"""Cross-domain gait embedding lab: supervised metric pretraining on a
labeled source domain, then unsupervised adaptation on an unlabeled target
via entropy-ranked neighborhood discovery and curriculum training.

Everything runs on numpy with hand-written gradients and seeded RNG
streams, so results are reproducible to the byte.

The package binds no names of its own: import from the submodules, e.g.
``from gaitadapt.pipeline import pretrain_source`` or
``from gaitadapt.cli import main``.
"""

__version__ = "0.1.0"
