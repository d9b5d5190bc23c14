"""Two-stage training: supervised source pretraining, then unsupervised
target adaptation over progressive curriculum rounds.

Both stages run plain SGD on the hand-written encoder gradients. The
learning-rate schedule uses one epoch counter that continues across
adaptation rounds.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import sample_pk_batch
from .discovery import (
    CurriculumSchedule,
    MemoryBank,
    Neighborhood,
    build_bank,
    discover_neighborhoods,
    dump_round_diagnostics,
    rank_and_select,
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
    """All training hyperparameters. Defaults follow the reference recipe;
    desk_preset() swaps in values sized for minutes-long CPU runs."""

    margin: float = 0.2
    tau: float = 0.1
    neighbors: int = 1          # k nearest neighbors per anchor
    rounds: int = 4             # curriculum rounds R
    epochs_per_round: int = 200
    pretrain_epochs: int = 200
    batch_p: int = 8            # identities per pretraining batch
    batch_k: int = 16           # sequences per identity
    adapt_batch_size: int = 16  # anchors per adaptation batch
    learning_rate: float = 1e-5
    adapt_learning_rate: float | None = None  # None: reuse learning_rate
    decay_factor: float = 0.1
    decay_interval: int = 40
    decay_start: int = 80       # last epoch at the initial rate
    strategy: str = "high"
    bank_momentum: float = 0.5
    include_self: bool = True   # softmax denominator includes the anchor's own entry
    self_terms_for_unselected: bool = False
    seed: int = 1

    def __post_init__(self):
        if not self.margin > 0:
            raise ValueError(f"margin must be > 0, got {self.margin!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau!r}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate!r}")
        if self.adapt_learning_rate is not None and self.adapt_learning_rate < 0:
            raise ValueError(
                f"adapt_learning_rate must be >= 0 or None, got {self.adapt_learning_rate!r}")
        if not 0.0 <= self.bank_momentum < 1.0:
            raise ValueError(f"bank momentum must be in [0, 1), got {self.bank_momentum!r}")
        for name in ("neighbors", "rounds", "batch_p", "batch_k", "adapt_batch_size",
                     "decay_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs_per_round", "pretrain_epochs", "decay_start"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.strategy not in ("high", "low", "random"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.self_terms_for_unselected and not self.include_self:
            raise ValueError(
                "self_terms_for_unselected needs include_self: a sample whose"
                " neighborhood is only itself has no probability mass otherwise"
            )


def desk_preset(**overrides) -> TrainConfig:
    """Minutes-scale CPU settings. The small encoder wants larger steps, a
    wider margin to spread the embedding cone, and a colder softmax so that
    entropy resolves clump structure at a 200-sample bank."""
    base = dict(
        margin=0.8,
        tau=0.02,
        epochs_per_round=20,
        pretrain_epochs=250,
        batch_p=4,
        batch_k=4,
        learning_rate=1e-2,
        adapt_learning_rate=1e-3,
        decay_start=150,
        decay_interval=50,
    )
    base.update(overrides)
    return TrainConfig(**base)


def paper_preset(**overrides) -> TrainConfig:
    return TrainConfig(**overrides)


@dataclass
class EpochRecord:
    stage: str
    round_index: int  # 0 for pretraining
    epoch: int
    loss: float
    learning_rate: float
    wall_time: float  # seconds; excluded from the canonical CSV


@dataclass
class RunLog:
    records: list[EpochRecord] = field(default_factory=list)

    def add(self, **kw) -> None:
        rec = EpochRecord(**kw)
        for prev in reversed(self.records):
            if prev.stage == rec.stage and prev.round_index == rec.round_index:
                if prev.epoch >= rec.epoch:
                    raise ValueError("epochs must strictly increase within a stage/round")
                break
        self.records.append(rec)

    def to_csv(self, path: str | Path) -> None:
        """Deterministic table; wall time goes to a sidecar, not here."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["stage", "round", "epoch", "loss", "learning_rate"])
            for r in self.records:
                w.writerow([r.stage, r.round_index, r.epoch, repr(r.loss),
                            repr(r.learning_rate)])

    def write_timing(self, path: str | Path) -> None:
        total = sum(r.wall_time for r in self.records)
        Path(path).write_text(f"total_seconds: {total:.3f}\n")


def lr_at(epoch: int, cfg: TrainConfig, stage: str = "adapt") -> float:
    """Stepped decay: initial rate through decay_start, then one decay_factor
    per decay_interval starting at epoch decay_start + 1. Adaptation may run
    at its own base rate (adapt_learning_rate) under the same schedule."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    if stage == "adapt" and cfg.adapt_learning_rate is not None:
        base = cfg.adapt_learning_rate
    else:
        base = cfg.learning_rate
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
    params: EncoderParams | None = None,
) -> tuple[EncoderParams, RunLog]:
    """Supervised metric pretraining with the batch-all triplet loss.

    Each epoch draws ceil(N / (p*k)) independent p-by-k batches. Passing
    params continues from an existing checkpoint instead of initializing.
    """
    if params is None:
        params = init_params(shape, seed_stream(cfg.seed, _ROLE_INIT))
    else:
        params = params.copy()
    log = RunLog()
    if cfg.pretrain_epochs == 0:
        return params, log
    per_batch = cfg.batch_p * cfg.batch_k
    batches_per_epoch = max(1, -(-len(seqs) // per_batch))
    for epoch in range(1, cfg.pretrain_epochs + 1):
        t0 = time.perf_counter()
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
                loss=float(np.mean(losses)), learning_rate=lr,
                wall_time=time.perf_counter() - t0)
    return params, log


@dataclass
class RoundState:
    """What a completed adaptation round leaves behind, for diagnostics."""

    schedule: CurriculumSchedule
    neighborhoods: dict[str, Neighborhood]
    bank: MemoryBank


def adapt_target(
    seqs: list[SilhouetteSequence],
    params: EncoderParams,
    cfg: TrainConfig,
) -> tuple[EncoderParams, RunLog, list[RoundState]]:
    """Unsupervised adaptation over cfg.rounds curriculum rounds.

    Round r: rebuild the bank from current parameters, discover
    neighborhoods, rank samples by entropy and select the top r/R fraction
    per the strategy, then train on shuffled anchor batches against the
    (momentum-updated) bank snapshot. Neighborhoods and the selection stay
    frozen within a round.
    """
    if len(seqs) < 2:
        raise ValueError("target adaptation needs at least 2 samples")
    if len(seqs) < cfg.neighbors + 1:
        raise ValueError(
            f"bank of {len(seqs)} samples cannot support k = {cfg.neighbors} neighbors"
        )
    params = params.copy()
    by_sample = {s.sample_id: s for s in seqs}
    log = RunLog()
    rounds: list[RoundState] = []
    epoch_global = 0

    for r in range(1, cfg.rounds + 1):
        bank = build_bank(seqs, params, momentum=cfg.bank_momentum)
        hoods = discover_neighborhoods(bank, cfg.neighbors)
        schedule = rank_and_select(
            bank,
            CurriculumSchedule(rounds=cfg.rounds, round_index=r, strategy=cfg.strategy),
            cfg.tau,
            seed_stream(cfg.seed, _ROLE_ADAPT, r, 0),
            include_self=cfg.include_self,
        )
        # members[i]: bank indices of sample i's neighborhood, itself first
        members = np.array(
            [[i] + [bank.index[n] for n in hoods[sid].neighbor_ids]
             for i, sid in enumerate(bank.ids)], dtype=np.intp)
        selected = list(schedule.selected)
        if cfg.self_terms_for_unselected:
            chosen = set(selected)
            unselected = [sid for sid in bank.ids if sid not in chosen]
            pool = selected + unselected
            # a neighborhood of itself alone: the repeats count once
            alone = np.array([bank.index[sid] for sid in unselected], dtype=np.intp)
            members[alone] = alone[:, None]
        else:
            pool = selected
        pool_index = np.array([bank.index[sid] for sid in pool], dtype=np.intp)

        for e in range(1, cfg.epochs_per_round + 1):
            t0 = time.perf_counter()
            epoch_global += 1
            lr = lr_at(epoch_global, cfg)
            rng = seed_stream(cfg.seed, _ROLE_ADAPT, r, e)
            order = rng.permutation(len(pool))
            epoch_loss = 0.0
            for start in range(0, len(order), cfg.adapt_batch_size):
                picks = order[start:start + cfg.adapt_batch_size]
                batch_ids = [pool[i] for i in picks]
                batch_seqs = [by_sample[sid] for sid in batch_ids]
                trace = encode_batch(batch_seqs, params)
                fresh = trace.embeddings
                idx = pool_index[picks]
                log_probs = log_softmax_rows(fresh, bank, cfg.tau, idx, cfg.include_self)
                loss, demb = neighborhood_loss(log_probs, idx, members[idx], bank, cfg.tau)
                grads = encode_backward(batch_seqs, params, demb, trace=trace)
                _sgd_step(params, grads, lr)
                update_bank(bank, batch_ids, fresh)
                epoch_loss += loss
            # the loss is a sum over anchors; log its mean per anchor
            log.add(stage="adapt", round_index=r, epoch=epoch_global,
                    loss=epoch_loss / len(pool),
                    learning_rate=lr, wall_time=time.perf_counter() - t0)
        rounds.append(RoundState(schedule=schedule, neighborhoods=hoods, bank=bank))
    return params, log, rounds


def dump_round_files(out_dir: str | Path, rounds: list[RoundState]) -> list[Path]:
    """Per-round discovery diagnostics as CSV files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for state in rounds:
        path = out_dir / f"discovery_round{state.schedule.round_index}.csv"
        dump_round_diagnostics(path, state.schedule, state.neighborhoods)
        written.append(path)
    return written
