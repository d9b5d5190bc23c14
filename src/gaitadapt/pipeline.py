"""Two-stage training: supervised source pretraining, then unsupervised
target adaptation over progressive curriculum rounds.

Both stages run plain SGD on the hand-written encoder gradients. The
learning-rate schedule uses one epoch counter that continues across
adaptation rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import sample_pk_batch
from .discovery import (
    STRATEGIES,
    CurriculumSchedule,
    build_bank,
    curriculum_order,
    scan_bank,
    update_bank,
)
from .encoder import (
    EncoderParams,
    EncoderShape,
    SilhouetteSequence,
    encode_backward,
    encode_batch,
    init_params,
)
from .losses import log_softmax_rows, neighborhood_loss, triplet_loss
from .numerics import seed_stream

# rng stream roles
_ROLE_INIT = 10
_ROLE_PRETRAIN = 11
_ROLE_ADAPT = 12


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters, sized for minutes-long CPU runs.

    The paper's reference recipe pretrains on 8 x 16 batches at margin 0.2
    and a rate of 1e-5, with tau 0.1 and 200 epochs per stage. This small
    encoder learns nothing at that rate (source-test rank-1 0.794 before
    and after 200 epochs), so the defaults take larger steps, a wider
    margin to spread the embedding cone, and a colder softmax so that
    entropy resolves clump structure at a 200-sample bank.
    """

    margin: float = 0.8
    tau: float = 0.02
    neighbors: int = 1          # k nearest neighbors per anchor
    rounds: int = 4             # curriculum rounds R
    epochs_per_round: int = 20
    pretrain_epochs: int = 250
    batch_p: int = 4            # identities per pretraining batch
    batch_k: int = 4            # sequences per identity
    adapt_batch_size: int = 16  # anchors per adaptation batch
    learning_rate: float = 1e-2
    adapt_learning_rate: float = 1e-3
    decay_factor: float = 0.1
    decay_interval: int = 50
    decay_start: int = 150      # last epoch at the initial rate
    strategy: str = "high"
    bank_momentum: float = 0.5
    seed: int = 1

    def __post_init__(self):
        if not self.margin > 0:
            raise ValueError(f"margin must be > 0, got {self.margin!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau!r}")
        for name in ("learning_rate", "adapt_learning_rate", "decay_factor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.bank_momentum < 1.0:
            raise ValueError(f"bank momentum must be in [0, 1), got {self.bank_momentum!r}")
        for name in ("neighbors", "rounds", "batch_p", "batch_k", "adapt_batch_size",
                     "decay_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs_per_round", "pretrain_epochs", "decay_start", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class EpochRecord:
    stage: str
    round_index: int  # 0 for pretraining
    epoch: int
    loss: float
    learning_rate: float


@dataclass
class RunLog:
    records: list[EpochRecord] = field(default_factory=list)
    seconds: float = 0.0  # the whole stage's wall time, kept out of the records

    def add(self, **kw) -> None:
        rec = EpochRecord(**kw)
        for prev in reversed(self.records):
            if prev.stage == rec.stage and prev.round_index == rec.round_index:
                if prev.epoch >= rec.epoch:
                    raise ValueError("epochs must strictly increase within a stage/round")
                break
        self.records.append(rec)


def lr_at(epoch: int, cfg: TrainConfig, stage: str = "adapt") -> float:
    """Stepped decay: initial rate through decay_start, then one decay_factor
    per decay_interval starting at epoch decay_start + 1. Adaptation runs
    at its own base rate (adapt_learning_rate) under the same schedule."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    base = cfg.adapt_learning_rate if stage == "adapt" else cfg.learning_rate
    if epoch <= cfg.decay_start:
        return base
    steps = 1 + (epoch - cfg.decay_start - 1) // cfg.decay_interval
    return base * cfg.decay_factor ** steps


def _sgd_step(params: EncoderParams, grads: dict[str, np.ndarray], lr: float) -> None:
    for name, g in grads.items():
        params.tensors[name] -= lr * g


def pretrain_source(
    seqs: list[SilhouetteSequence],
    shape: EncoderShape,
    cfg: TrainConfig,
) -> tuple[EncoderParams, RunLog]:
    """Supervised metric pretraining with the batch-all triplet loss.

    Each epoch draws ceil(N / (p*k)) independent p-by-k batches.
    """
    t0 = time.perf_counter()
    params = init_params(shape, seed_stream(cfg.seed, _ROLE_INIT))
    log = RunLog()
    per_batch = cfg.batch_p * cfg.batch_k
    batches_per_epoch = max(1, -(-len(seqs) // per_batch))
    for epoch in range(1, cfg.pretrain_epochs + 1):
        lr = lr_at(epoch, cfg, stage="pretrain")
        rng = seed_stream(cfg.seed, _ROLE_PRETRAIN, epoch)
        losses = []
        for _ in range(batches_per_epoch):
            batch = sample_pk_batch(seqs, cfg.batch_p, cfg.batch_k, rng)
            trace = encode_batch(batch, params)
            labels = [s.identity for s in batch]
            loss, demb = triplet_loss(trace.embeddings, labels, cfg.margin)
            grads = encode_backward(batch, params, demb, trace=trace)
            _sgd_step(params, grads, lr)
            losses.append(loss)
        log.add(stage="pretrain", round_index=0, epoch=epoch,
                loss=float(np.mean(losses)), learning_rate=lr)
    log.seconds = time.perf_counter() - t0
    return params, log


@dataclass
class RoundState:
    """What a completed adaptation round leaves behind, for diagnostics.

    ids[i] is the sample at bank index i, one tuple shared by every round.
    The arrays index the round's bank: neighbors (N, k) and entropies (N,)
    as discovered at the start of the round, and the selected anchors in
    selection order. The bank itself is not kept, so a finished round holds
    no N x d array and only one bank is alive at a time.
    """

    round_index: int  # 1-based
    ids: tuple[str, ...]
    neighbors: np.ndarray
    entropies: np.ndarray
    selected: np.ndarray


def adapt_target(
    seqs: list[SilhouetteSequence],
    params: EncoderParams,
    cfg: TrainConfig,
) -> tuple[EncoderParams, RunLog, list[RoundState]]:
    """Unsupervised adaptation over cfg.rounds curriculum rounds.

    Round r: rebuild the bank from current parameters, find neighborhoods
    and entropies in one scan of the bank, rank samples by entropy and
    select the top r/R fraction per the strategy, then train on shuffled
    anchor batches against the (momentum-updated) bank snapshot.
    Neighborhoods and the selection stay frozen within a round.
    """
    t0 = time.perf_counter()
    if len(seqs) < 2:
        raise ValueError("target adaptation needs at least 2 samples")
    if len(seqs) < cfg.neighbors + 1:
        raise ValueError(
            f"bank of {len(seqs)} samples cannot support k = {cfg.neighbors} neighbors"
        )
    params = params.copy()
    n = len(seqs)
    ids = tuple(s.sample_id for s in seqs)
    log = RunLog()
    rounds: list[RoundState] = []
    epoch_global = 0

    for r in range(1, cfg.rounds + 1):
        # bank index i is seqs[i] throughout the round
        bank = build_bank(seqs, params, momentum=cfg.bank_momentum)
        neighbors, h = scan_bank(bank, cfg.neighbors, cfg.tau)
        n_sel = CurriculumSchedule(cfg.rounds, r, cfg.strategy).selection_size(n)
        ranking = curriculum_order(h, bank.id_rank, cfg.strategy,
                                   seed_stream(cfg.seed, _ROLE_ADAPT, r, 0))
        selected = ranking[:n_sel]
        # members[i]: bank indices of sample i's neighborhood, itself first
        members = np.concatenate([np.arange(n)[:, None], neighbors], axis=1)

        for e in range(1, cfg.epochs_per_round + 1):
            epoch_global += 1
            lr = lr_at(epoch_global, cfg)
            rng = seed_stream(cfg.seed, _ROLE_ADAPT, r, e)
            order = rng.permutation(n_sel)
            epoch_loss = 0.0
            for start in range(0, n_sel, cfg.adapt_batch_size):
                idx = selected[order[start:start + cfg.adapt_batch_size]]
                batch_seqs = [seqs[i] for i in idx]
                trace = encode_batch(batch_seqs, params)
                fresh = trace.embeddings
                log_probs = log_softmax_rows(fresh, bank, cfg.tau)
                loss, demb = neighborhood_loss(log_probs, idx, members[idx], bank, cfg.tau)
                grads = encode_backward(batch_seqs, params, demb, trace=trace)
                _sgd_step(params, grads, lr)
                update_bank(bank, idx, fresh)
                epoch_loss += loss
            # the loss is a sum over anchors; log its mean per anchor
            log.add(stage="adapt", round_index=r, epoch=epoch_global,
                    loss=epoch_loss / n_sel, learning_rate=lr)
        rounds.append(RoundState(r, ids, neighbors, h, selected))
        del bank  # before the next round builds its own
    log.seconds = time.perf_counter() - t0
    return params, log, rounds

