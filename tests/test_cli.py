import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaitadapt
from gaitadapt.cli import build_parser, main
from gaitadapt.config import ExperimentConfig, load_config, save_config
from gaitadapt.pipeline import desk_preset

from conftest import PIPE_SHAPE, tiny_domain_spec


def _tiny_config(**train_overrides):
    train = dict(pretrain_epochs=2, batch_p=2, batch_k=2, rounds=2,
                 epochs_per_round=1, adapt_batch_size=8, seed=3)
    train.update(train_overrides)
    return ExperimentConfig(
        encoder=PIPE_SHAPE,
        train=desk_preset(**train),
        source=tiny_domain_spec("S"),
        target=tiny_domain_spec("T", period=11.0, dilate=1),
    )


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "experiment.json"
    save_config(_tiny_config(), path)
    return path


@pytest.fixture(scope="module")
def data_dir(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data") / "run"
    assert main(["gen-data", "--config", str(cfg_file), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pretrain_dir(cfg_file, data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_pre") / "run"
    rc = main(["pretrain", "--config", str(cfg_file), "--out", str(out),
               "--data", str(data_dir / "source")])
    assert rc == 0
    return out


class TestParser:
    def test_verbs_registered(self):
        parser = build_parser()
        args = parser.parse_args(["gen-data", "--out", "x"])
        assert args.verb == "gen-data"
        for verb in ("pretrain", "adapt", "eval", "ablate"):
            assert verb in parser.format_help()

    def test_out_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen-data"])

    def test_bad_strategy_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen-data", "--out", "x", "--strategy", "worst"])

    def test_help_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaitadapt.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout and "ablate" in proc.stdout


class TestGenData:
    def test_layout_and_snapshot(self, data_dir, cfg_file):
        for name in ("resolved_config.json", "run_args.json", "run_complete",
                     "source/manifest.json", "target/manifest.json"):
            assert (data_dir / name).exists(), name
        resolved = load_config(data_dir / "resolved_config.json")
        assert resolved.train == load_config(cfg_file).train
        args_doc = json.loads((data_dir / "run_args.json").read_text())
        assert args_doc["verb"] == "gen-data"

    def test_refuses_to_overwrite_without_force(self, data_dir, cfg_file, capsys):
        rc = main(["gen-data", "--config", str(cfg_file), "--out", str(data_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_OVERWRITE:")
        assert (data_dir / "run_complete").exists()  # old run untouched

    def test_force_overwrites_byte_identically(self, cfg_file, tmp_path):
        out = tmp_path / "g"
        assert main(["gen-data", "--config", str(cfg_file), "--out", str(out)]) == 0
        before = (out / "source" / "manifest.json").read_bytes()
        rc = main(["gen-data", "--config", str(cfg_file), "--out", str(out),
                   "--force"])
        assert rc == 0
        assert (out / "source" / "manifest.json").read_bytes() == before

    def test_seed_override_lands_in_snapshot(self, cfg_file, tmp_path):
        out = tmp_path / "s9"
        assert main(["gen-data", "--config", str(cfg_file), "--out", str(out),
                     "--seed", "9"]) == 0
        assert load_config(out / "resolved_config.json").train.seed == 9

    def test_batch_the_source_cannot_fill_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(_tiny_config(batch_k=7), cfg_path)  # tiny source: 6 per identity
        rc = main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG: batch_k 7 exceeds")

    def test_preset_without_config_resolves(self, tmp_path):
        # full desk preset is too slow here; just check the config resolution
        out = tmp_path / "p"
        rc = main(["pretrain", "--preset", "desk", "--out", str(out),
                   "--data", str(tmp_path / "missing")])
        assert rc == 1  # missing data, but config resolved through the preset
        assert load_config(out / "failed" / "resolved_config.json").train.margin == 0.8


class TestPretrain:
    def test_artifacts(self, pretrain_dir):
        from gaitadapt.encoder import load_checkpoint
        params = load_checkpoint(pretrain_dir / "checkpoint.json")
        assert params.shape == PIPE_SHAPE
        lines = (pretrain_dir / "runlog.csv").read_text().splitlines()
        assert lines[0] == "stage,round,epoch,loss,learning_rate"
        assert len(lines) == 3  # header + 2 epochs
        assert (pretrain_dir / "timing.txt").read_text().startswith("total_seconds:")

    def test_rerun_is_byte_identical(self, cfg_file, data_dir, pretrain_dir,
                                     tmp_path):
        out = tmp_path / "again"
        rc = main(["pretrain", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data_dir / "source")])
        assert rc == 0
        for name in ("checkpoint.json", "runlog.csv", "resolved_config.json"):
            assert (out / name).read_bytes() == (pretrain_dir / name).read_bytes()

    def test_snapshot_reproduces_the_run(self, data_dir, pretrain_dir, tmp_path):
        out = tmp_path / "fromsnap"
        rc = main(["pretrain", "--config",
                   str(pretrain_dir / "resolved_config.json"), "--out", str(out),
                   "--data", str(data_dir / "source")])
        assert rc == 0
        assert (out / "checkpoint.json").read_bytes() == \
            (pretrain_dir / "checkpoint.json").read_bytes()

    def test_corrupt_data_quarantines_outputs(self, cfg_file, data_dir, tmp_path,
                                              capsys):
        broken = tmp_path / "broken_src"
        shutil.copytree(data_dir / "source", broken)
        # pretrain reads only the train split, so corrupt a frame there
        victim = next((broken / "train").rglob("frame0000.pgm"))
        raw = bytearray(victim.read_bytes())
        raw[-1] = 7
        victim.write_bytes(bytes(raw))
        out = tmp_path / "run"
        rc = main(["pretrain", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(broken)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_DATA:")
        assert not (out / "run_complete").exists()
        assert not (out / "resolved_config.json").exists()
        assert (out / "failed" / "resolved_config.json").exists()


class TestAdapt:
    def test_artifacts_and_rounds(self, cfg_file, data_dir, pretrain_dir, tmp_path):
        out = tmp_path / "ad"
        rc = main(["adapt", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json")])
        assert rc == 0
        lines = (out / "runlog.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 rounds x 1 epoch
        assert (out / "discovery_round1.csv").exists()
        assert (out / "discovery_round2.csv").exists()
        assert (out / "run_complete").exists()

    def test_zero_epochs_returns_the_input_checkpoint(self, data_dir, pretrain_dir,
                                                      tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(_tiny_config(epochs_per_round=0, rounds=1), cfg_path)
        out = tmp_path / "noop"
        rc = main(["adapt", "--config", str(cfg_path), "--out", str(out),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json")])
        assert rc == 0
        assert (out / "checkpoint.json").read_bytes() == \
            (pretrain_dir / "checkpoint.json").read_bytes()

    def test_missing_checkpoint_is_io_error(self, cfg_file, data_dir, tmp_path,
                                            capsys):
        rc = main(["adapt", "--config", str(cfg_file), "--out",
                   str(tmp_path / "x"), "--data", str(data_dir / "target"),
                   "--checkpoint", str(tmp_path / "nothing.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_IO:")


class TestEval:
    def test_results_document(self, cfg_file, data_dir, pretrain_dir, tmp_path):
        out = tmp_path / "ev"
        rc = main(["eval", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json")])
        assert rc == 0
        doc = json.loads((out / "results.json").read_text())
        assert 0.0 <= doc["rank1"] <= 1.0
        assert 0.0 <= doc["rank1_excluding_view"] <= 1.0
        assert doc["evaluated"] > 0
        assert doc["convention"] == "first-n-gallery"
        assert doc["gallery_size"] == 4
        assert "BG" in doc["per_condition"]

    def test_alternative_convention(self, cfg_file, data_dir, pretrain_dir,
                                    tmp_path):
        out = tmp_path / "ev2"
        rc = main(["eval", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json"),
                   "--convention", "first-sequence-gallery"])
        assert rc == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["convention"] == "first-sequence-gallery"

    def test_reads_only_the_test_split(self, cfg_file, data_dir, pretrain_dir,
                                       tmp_path):
        data = tmp_path / "target"
        shutil.copytree(data_dir / "target", data)
        next((data / "train").rglob("frame0000.pgm")).unlink()
        out = tmp_path / "ev3"
        rc = main(["eval", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json")])
        assert rc == 0
        ref = tmp_path / "ev4"
        assert main(["eval", "--config", str(cfg_file), "--out", str(ref),
                     "--data", str(data_dir / "target"),
                     "--checkpoint", str(pretrain_dir / "checkpoint.json")]) == 0
        assert (out / "results.json").read_bytes() == (ref / "results.json").read_bytes()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = main(["eval", "--config", str(tmp_path / "none.json"), "--out",
                   str(tmp_path / "o"), "--data", "d", "--checkpoint", "c"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG:")


class TestAblate:
    def test_tables_and_artifacts(self, cfg_file, tmp_path):
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg_file), "--out", str(out),
                   "--seeds", "1,2"])
        assert rc == 0
        details = (out / "details.csv").read_text().splitlines()
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert len(details) == 1 + 4 * 2    # methods x seeds
        assert len(comparison) == 1 + 4
        assert [r.split(",")[0] for r in comparison[1:]] == [
            "direct", "high", "low", "random"]
        header = details[0].split(",")
        assert header[:2] == ["method", "seed"]
        assert "rank1" in header and "rank1_excl" in header

        # comparison means must equal the mean of the details rows
        import csv as _csv
        with open(out / "details.csv", newline="") as fh:
            rows = list(_csv.DictReader(fh))
        with open(out / "comparison.csv", newline="") as fh:
            comp = {r["method"]: r for r in _csv.DictReader(fh)}
        for method in ("direct", "high"):
            vals = [float(r["rank1"]) for r in rows if r["method"] == method]
            assert float(comp[method]["rank1_mean"]) == pytest.approx(
                np.mean(vals), abs=1e-12)
            assert float(comp[method]["rank1_spread"]) == pytest.approx(
                np.std(vals), abs=1e-12)
        for seed in (1, 2):
            assert (out / f"seed{seed}" / "pretrained.json").exists()
            assert (out / f"seed{seed}" / "adapted_high.json").exists()

    def test_empty_seed_list_rejected(self, cfg_file, tmp_path, capsys):
        rc = main(["ablate", "--config", str(cfg_file), "--out",
                   str(tmp_path / "o"), "--seeds", ","])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG:")


def test_adapted_checkpoint_independent_of_blas_threads(cfg_file, tmp_path):
    src = str(Path(gaitadapt.__file__).resolve().parents[1])

    def pipeline(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = tmp_path / f"threads{threads}"
        for argv in (["gen-data", "--out", run / "data"],
                     ["pretrain", "--data", run / "data" / "source", "--out", run / "pre"],
                     ["adapt", "--data", run / "data" / "target", "--checkpoint",
                      run / "pre" / "checkpoint.json", "--out", run / "adapt"]):
            proc = subprocess.run(
                [sys.executable, "-m", "gaitadapt.cli", *map(str, argv), "--config", str(cfg_file)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        return (run / "adapt" / "checkpoint.json").read_bytes()

    assert pipeline(1) == pipeline(2)


class TestLogging:
    def test_log_env_var_accepted(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv("GAITADAPT_LOG", "debug")
        out = tmp_path / "l"
        assert main(["gen-data", "--config", str(cfg_file), "--out", str(out)]) == 0
