import csv
import dataclasses
import time

import numpy as np
import pytest

from gaitadapt.cli import write_stage
from gaitadapt.config import preset_config
from gaitadapt.data import load_dataset
from gaitadapt.discovery import build_bank
from gaitadapt.encoder import init_params
from gaitadapt import pipeline
from gaitadapt.numerics import seed_stream
from gaitadapt.pipeline import (
    RunLog,
    TrainConfig,
    adapt_target,
    lr_at,
    pretrain_source,
)

from conftest import PIPE_SHAPE


@pytest.fixture(scope="module")
def source_train(tiny_source_dir):
    return load_dataset(tiny_source_dir).split("train")


@pytest.fixture(scope="module")
def target_train(tiny_target_dir):
    return load_dataset(tiny_target_dir).split("train")


def _params(seed):
    return init_params(PIPE_SHAPE, seed_stream(seed, 0))


def _params_equal(a, b):
    return all(np.array_equal(a[n], b[n]) for n in a.names())


class TestTrainConfig:
    def test_defaults_are_the_desk_recipe(self):
        cfg = TrainConfig()
        assert (cfg.margin, cfg.tau) == (0.8, 0.02)
        assert (cfg.neighbors, cfg.rounds) == (1, 4)
        assert (cfg.pretrain_epochs, cfg.epochs_per_round) == (250, 20)
        assert (cfg.batch_p, cfg.batch_k, cfg.adapt_batch_size) == (4, 4, 16)
        assert (cfg.learning_rate, cfg.adapt_learning_rate) == (1e-2, 1e-3)
        assert (cfg.decay_factor, cfg.decay_interval, cfg.decay_start) == (0.1, 50, 150)
        assert cfg.strategy == "high"
        assert cfg.bank_momentum == 0.5
        assert cfg.seed == 1
        assert preset_config("desk").train == cfg

    def test_desk_preset_overrides(self):
        cfg = preset_config("desk").train
        assert (cfg.margin, cfg.tau) == (0.8, 0.02)
        assert (cfg.learning_rate, cfg.adapt_learning_rate) == (1e-2, 1e-3)
        assert (cfg.pretrain_epochs, cfg.epochs_per_round) == (250, 20)
        assert (cfg.decay_start, cfg.decay_interval) == (150, 50)
        assert dataclasses.replace(cfg, seed=9, strategy="low").seed == 9

    @pytest.mark.parametrize("kw", [
        dict(margin=0.0), dict(tau=0.0), dict(learning_rate=-1e-3),
        dict(adapt_learning_rate=-1e-3), dict(bank_momentum=1.0),
        dict(neighbors=0), dict(rounds=0), dict(epochs_per_round=-1),
        dict(strategy="middle"), dict(seed=-1), dict(decay_factor=-1.0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_zero_rates_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0
        assert TrainConfig(adapt_learning_rate=0.0).adapt_learning_rate == 0.0
        assert lr_at(151, TrainConfig(decay_factor=0.0), "pretrain") == 0.0


class TestLrSchedule:
    def test_reference_boundaries(self):
        cfg = TrainConfig(adapt_learning_rate=1e-5, decay_interval=40, decay_start=80)
        for epoch, expected in [(1, 1e-5), (80, 1e-5), (81, 1e-6), (120, 1e-6),
                                (121, 1e-7), (160, 1e-7), (161, 1e-8)]:
            assert lr_at(epoch, cfg) == pytest.approx(expected, rel=1e-12), epoch

    def test_adapt_uses_its_own_base_rate(self):
        cfg = preset_config("desk").train
        assert lr_at(1, cfg, stage="pretrain") == 1e-2
        assert lr_at(1, cfg, stage="adapt") == 1e-3
        assert lr_at(151, cfg, stage="adapt") == pytest.approx(1e-4, rel=1e-12)
        assert lr_at(201, cfg, stage="pretrain") == pytest.approx(1e-4, rel=1e-12)

    def test_never_increases(self):
        cfg = preset_config("desk").train
        rates = [lr_at(e, cfg) for e in range(1, 400)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_rejects_epoch_below_one(self):
        with pytest.raises(ValueError, match="epoch"):
            lr_at(0, TrainConfig())


def _small_cfg(**kw):
    base = dict(pretrain_epochs=3, batch_p=2, batch_k=2, rounds=2,
                epochs_per_round=2, adapt_batch_size=8, seed=5)
    base.update(kw)
    return dataclasses.replace(preset_config("desk").train, **base)


class TestPretrain:
    def test_log_shape_and_rates(self, source_train):
        cfg = _small_cfg()
        params, log = pretrain_source(source_train, PIPE_SHAPE, cfg)
        assert [r.epoch for r in log.records] == [1, 2, 3]
        assert all(r.stage == "pretrain" and r.round_index == 0 for r in log.records)
        for r in log.records:
            assert r.learning_rate == lr_at(r.epoch, cfg, stage="pretrain")
            assert np.isfinite(r.loss) and r.loss >= 0.0

    def test_deterministic(self, source_train):
        a, loga = pretrain_source(source_train, PIPE_SHAPE, _small_cfg())
        b, logb = pretrain_source(source_train, PIPE_SHAPE, _small_cfg())
        assert _params_equal(a, b)
        assert [r.loss for r in loga.records] == [r.loss for r in logb.records]

    def test_seed_changes_the_run(self, source_train):
        a, _ = pretrain_source(source_train, PIPE_SHAPE, _small_cfg(seed=5))
        b, _ = pretrain_source(source_train, PIPE_SHAPE, _small_cfg(seed=6))
        assert not _params_equal(a, b)

    def test_zero_epochs_is_identity(self, source_train):
        cfg = _small_cfg(pretrain_epochs=0, seed=99)
        out, log = pretrain_source(source_train, PIPE_SHAPE, cfg)
        assert log.records == []
        assert _params_equal(out, init_params(PIPE_SHAPE,
                                              seed_stream(99, pipeline._ROLE_INIT)))

    def test_loss_decreases_on_learnable_data(self, source_train):
        for seed in (1, 2, 5):
            cfg = _small_cfg(pretrain_epochs=25, seed=seed)
            _, log = pretrain_source(source_train, PIPE_SHAPE, cfg)
            assert log.records[-1].loss < log.records[0].loss, f"seed {seed}"


@pytest.fixture(scope="module")
def pretrained(source_train):
    params, _ = pretrain_source(source_train, PIPE_SHAPE,
                                _small_cfg(pretrain_epochs=5))
    return params


class TestAdapt:
    def test_round_and_epoch_bookkeeping(self, target_train, pretrained):
        cfg = _small_cfg()
        out, log, rounds = adapt_target(target_train, pretrained, cfg)
        assert [(r.round_index, r.epoch) for r in log.records] == [
            (1, 1), (1, 2), (2, 3), (2, 4)]
        assert all(r.stage == "adapt" for r in log.records)
        for r in log.records:
            assert r.learning_rate == lr_at(r.epoch, cfg, stage="adapt")
        # 18 target samples: round 1 selects ceil(18/2), round 2 everything
        assert [len(s.selected) for s in rounds] == [9, 18]
        assert [s.round_index for s in rounds] == [1, 2]
        assert not _params_equal(out, pretrained)

    def test_deterministic(self, target_train, pretrained):
        a, loga, _ = adapt_target(target_train, pretrained, _small_cfg())
        b, logb, _ = adapt_target(target_train, pretrained, _small_cfg())
        assert _params_equal(a, b)
        assert [r.loss for r in loga.records] == [r.loss for r in logb.records]

    def test_logged_loss_is_a_mean_per_anchor(self, target_train, pretrained):
        # at rate 0 neither the encoder nor the bank moves, so each anchor's
        # loss is the same for every batch size and so is the logged value
        logs = [adapt_target(target_train, pretrained,
                             _small_cfg(adapt_learning_rate=0.0, adapt_batch_size=b))[1]
                for b in (1, 4, 18)]
        want = [r.loss for r in logs[0].records]
        for log in logs[1:]:
            assert [r.loss for r in log.records] == pytest.approx(want, rel=1e-9)

    def test_input_params_not_mutated(self, target_train, pretrained):
        snapshot = pretrained.copy()
        adapt_target(target_train, pretrained, _small_cfg())
        assert _params_equal(pretrained, snapshot)

    def test_zero_epochs_keeps_values(self, target_train, pretrained):
        out, log, rounds = adapt_target(target_train, pretrained,
                                        _small_cfg(epochs_per_round=0))
        assert _params_equal(out, pretrained)
        assert log.records == []
        assert len(rounds) == 2  # selection still happens each round

    def test_strategies_diverge(self, target_train, pretrained):
        runs = {s: adapt_target(target_train, pretrained, _small_cfg(strategy=s))[0]
                for s in ("high", "low", "random")}
        assert not _params_equal(runs["high"], runs["low"])
        assert not _params_equal(runs["high"], runs["random"])

    def test_unselected_bank_entries_stay_frozen(self, target_train, pretrained,
                                                 monkeypatch):
        # a sample outside the round-1 selection is never re-encoded, so its
        # bank entry keeps the round-start value; two epochs so that
        # selected entries meet a moved encoder and change
        cfg = _small_cfg(rounds=2, epochs_per_round=2)
        banks = _capture_banks(monkeypatch)
        _, _, rounds = adapt_target(target_train, pretrained, cfg)
        start = build_bank(target_train, pretrained, cfg.bank_momentum)
        state, bank = rounds[0], banks[0]  # the bank holds its end-of-round entries
        chosen = set(state.selected.tolist())
        for i, sid in enumerate(start.ids):
            same = np.array_equal(bank.entries[i], start.entries[i])
            assert same == (i not in chosen), sid

    def test_rounds_hold_no_bank_sized_array(self, target_train, pretrained):
        # a finished round keeps index arrays and the shared ids, nothing
        # as large as the N x d bank entries, however deeply it is nested
        _, _, rounds = adapt_target(target_train, pretrained, _small_cfg())
        limit = len(target_train) * PIPE_SHAPE.embed_dim
        for state in rounds:
            for name, value in vars(state).items():
                for arr in _arrays_within(value):
                    assert arr.size < limit, (state.round_index, name, arr.shape)
        assert all(state.ids is rounds[0].ids for state in rounds)
        assert rounds[0].ids == tuple(s.sample_id for s in target_train)

    def test_rejects_tiny_banks(self, pretrained, target_train):
        with pytest.raises(ValueError, match="at least 2"):
            adapt_target(target_train[:1], pretrained, _small_cfg())
        with pytest.raises(ValueError, match="neighbors"):
            adapt_target(target_train[:3], pretrained, _small_cfg(neighbors=3))


def _capture_banks(monkeypatch):
    """Record every bank adapt_target builds; adaptation updates each in place."""
    banks = []

    def capture(*args, **kw):
        banks.append(build_bank(*args, **kw))
        return banks[-1]

    monkeypatch.setattr(pipeline, "build_bank", capture)
    return banks


def _arrays_within(value, seen=None):
    """Every NumPy array reachable from value through attributes and containers."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays_within(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_within(item, seen)
    elif hasattr(value, "__dict__"):
        yield from _arrays_within(vars(value), seen)


def _stage_files(tmp_path, params, runlog, rounds=()):
    """write_stage into tmp_path/name; returns the written paths by name."""
    written = {}

    def path(name):
        written[name] = tmp_path / name
        return written[name]

    write_stage(path, params, runlog, rounds)
    return written


class TestRunLog:
    def test_epochs_must_increase_within_stage_round(self):
        log = RunLog()
        log.add(stage="adapt", round_index=1, epoch=1, loss=0.5, learning_rate=0.1)
        log.add(stage="adapt", round_index=2, epoch=2, loss=0.4, learning_rate=0.1)
        with pytest.raises(ValueError, match="strictly increase"):
            log.add(stage="adapt", round_index=2, epoch=2, loss=0.3, learning_rate=0.1)

    def test_csv_round_trips_floats(self, tmp_path):
        log = RunLog(seconds=2.5)
        log.add(stage="pretrain", round_index=0, epoch=1, loss=1 / 3,
                learning_rate=1e-5 * 0.1)
        path = _stage_files(tmp_path, _params(0), log)["runlog.csv"]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["stage", "round", "epoch", "loss", "learning_rate"]
        assert rows[1][:3] == ["pretrain", "0", "1"]
        assert float(rows[1][3]) == 1 / 3
        assert float(rows[1][4]) == 1e-5 * 0.1
        assert "wall" not in rows[0]

    def test_csv_bytes_deterministic(self, tmp_path):
        logs = [RunLog(seconds=s) for s in (0.7, 1.4)]
        for log in logs:
            for e in (1, 2):
                log.add(stage="adapt", round_index=1, epoch=e, loss=0.1 * e,
                        learning_rate=1e-3)
        a, b = (_stage_files(tmp_path / d, _params(0), log)["runlog.csv"]
                for d, log in zip("ab", logs))
        assert a.read_bytes() == b.read_bytes()

    def test_timing_sidecar(self, tmp_path):
        log = RunLog(seconds=2.0)
        log.add(stage="adapt", round_index=1, epoch=1, loss=0.1, learning_rate=1e-3)
        path = _stage_files(tmp_path, _params(0), log)["timing.txt"]
        assert path.read_text() == "total_seconds: 2.000\n"

    def test_timing_covers_bank_scans(self, target_train, tmp_path, monkeypatch):
        # the scans run between epochs, so only a stage-level clock sees them
        scan = pipeline.scan_bank

        def slow_scan(*args, **kwargs):
            time.sleep(0.05)
            return scan(*args, **kwargs)
        monkeypatch.setattr(pipeline, "scan_bank", slow_scan)
        params, runlog, rounds = adapt_target(target_train, _params(0),
                                              _small_cfg(rounds=2))
        assert runlog.seconds >= 0.1
        timing = _stage_files(tmp_path, params, runlog, rounds)["timing.txt"]
        assert float(timing.read_text().split(":")[1]) >= 0.1


class TestRoundFiles:
    def test_writes_one_csv_per_round(self, target_train, tmp_path, source_train):
        params, _ = pretrain_source(source_train, PIPE_SHAPE,
                                    _small_cfg(pretrain_epochs=2))
        adapted, runlog, rounds = adapt_target(target_train, params, _small_cfg())
        written = _stage_files(tmp_path / "rounds", adapted, runlog, rounds)
        round_files = [p for p in written.values() if p.name.startswith("discovery_round")]
        assert [p.name for p in round_files] == [
            "discovery_round1.csv", "discovery_round2.csv"]
        for p in round_files:
            with open(p, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["sample_id", "entropy", "selected", "neighbor_ids"]
            assert len(rows) == 1 + len(target_train)
