import argparse
import csv
import dataclasses
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaitadapt
from gaitadapt.cli import ABLATE_METHODS, build_parser, main, write_ablation_tables
from gaitadapt.config import ExperimentConfig, load_config, preset_config, save_config
from gaitadapt.data import load_dataset
from gaitadapt.encoder import encode_sequences, load_checkpoint
from gaitadapt.evaluation import make_protocol, rank1

from conftest import PIPE_SHAPE, tiny_domain_spec


# what every verb writes, and what a training stage adds to it (2 rounds)
RUN_FILES = {"resolved_config.json", "run_args.json", "run_complete"}
ADAPT_FILES = {"checkpoint.json", "runlog.csv", "timing.txt",
               "discovery_round1.csv", "discovery_round2.csv"}


def _tiny_config(**train_overrides):
    train = dict(pretrain_epochs=2, batch_p=2, batch_k=2, rounds=2,
                 epochs_per_round=1, adapt_batch_size=8, seed=3)
    train.update(train_overrides)
    return ExperimentConfig(
        encoder=PIPE_SHAPE,
        train=dataclasses.replace(preset_config("desk").train, **train),
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
def desk_data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_desk") / "run"
    assert main(["gen-data", "--out", str(out)]) == 0
    return out


def _one_view_config(tmp_path: Path) -> Path:
    """The tiny config with a target seen from one view only, so every
    probe shares the view of every gallery entry; four normal walks fill
    ablate's gallery of 4."""
    cfg = _tiny_config()
    cfg = dataclasses.replace(cfg, target=dataclasses.replace(
        cfg.target, views=("090",), walks={"NM": 4, "BG": 1}))
    save_config(cfg, tmp_path / "cfg.json")
    return tmp_path / "cfg.json"


def _outputs(out: Path) -> dict[str, bytes]:
    """Every file a run wrote except run_args.json, which names --out."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_args.json"}


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
            build_parser().parse_args(["adapt", "--out", "x", "--data", "d",
                                       "--checkpoint", "c", "--strategy", "worst"])

    def test_each_verb_takes_the_options_it_acts_on(self):
        common = {"-h", "--help", "--config", "--out", "--force"}
        verbs = next(a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)).choices
        options = {verb: {o for a in p._actions for o in a.option_strings} - common
                   for verb, p in verbs.items()}
        assert options == {
            "gen-data": {"--seed"},
            "pretrain": {"--seed", "--data"},
            "adapt": {"--seed", "--strategy", "--data", "--checkpoint"},
            "eval": {"--data", "--checkpoint", "--convention", "--gallery-size"},
            "ablate": {"--seeds"},
        }

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--out", "x", "--se", "5"],
        ["eval", "--out", "x", "--data", "d", "--check", "c", "--gallery", "2"],
        ["adapt", "--out", "x", "--data", "d", "--checkpoint", "c", "--strat", "low"],
    ], ids=["gen-data-se", "eval-check-gallery", "adapt-strat"])
    def test_abbreviated_option_is_refused(self, argv):
        # each would parse with abbreviations allowed: --se as --seed,
        # --check as --checkpoint, --gallery as --gallery-size, --strat as --strategy
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["ablate", "--seed", "5"],
        ["eval", "--data", "d", "--checkpoint", "c", "--strategy", "low"],
        ["gen-data", "--strategy", "low"],
        ["pretrain", "--data", "d", "--strategy", "low"],
    ])
    def test_flag_the_verb_does_not_use_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--out", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    def test_help_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaitadapt.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout and "ablate" in proc.stdout

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("gaitadapt ")]
        assert [argv[0] for argv in commands] == ["gen-data", "pretrain", "adapt", "eval",
                                                  "ablate"]
        for argv in commands:
            build_parser().parse_args(argv)  # a stale flag exits here


class TestGenData:
    def test_layout_and_snapshot(self, data_dir, cfg_file):
        for name in ("resolved_config.json", "run_args.json", "run_complete",
                     "source/manifest.json", "target/manifest.json"):
            assert (data_dir / name).exists(), name
        resolved = load_config(data_dir / "resolved_config.json")
        assert resolved.train == load_config(cfg_file).train
        args_doc = json.loads((data_dir / "run_args.json").read_text())
        assert args_doc["verb"] == "gen-data"

    def test_runs_without_scipy(self, cfg_file, data_dir, tmp_path):
        # SciPy blocked from importing: gen-data still succeeds, imports no
        # scipy module and writes the same datasets as the in-process run
        src = str(Path(gaitadapt.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "g"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from gaitadapt.cli import main\n"
            f"rc = main(['gen-data', '--config', {str(cfg_file)!r}, '--out', {str(out)!r}])\n"
            "loaded = [m for m, mod in sys.modules.items()\n"
            "          if mod is not None and m.split('.')[0] == 'scipy']\n"
            "print(loaded)\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        for domain in ("source", "target"):
            for name in ("manifest.json", "train.pgm", "test.pgm"):
                assert ((out / domain / name).read_bytes()
                        == (data_dir / domain / name).read_bytes()), (domain, name)

    def test_one_file_per_nonempty_split(self, tmp_path):
        cfg = _tiny_config()
        cfg = dataclasses.replace(cfg, target=dataclasses.replace(cfg.target, test_identities=0))
        save_config(cfg, tmp_path / "cfg.json")
        out = tmp_path / "g"
        assert main(["gen-data", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "resolved_config.json", "run_args.json", "run_complete", "source",
            "source/manifest.json", "source/test.pgm", "source/train.pgm", "target",
            "target/manifest.json", "target/train.pgm"]

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

    def test_negative_seed_is_refused_before_out_is_claimed(self, cfg_file, tmp_path,
                                                            capsys):
        out = tmp_path / "neg"
        rc = main(["gen-data", "--config", str(cfg_file), "--out", str(out), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG: seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("walks", {"NM": 3, "BG": -1}, "walks['BG'] must be an integer >= 0"),
        ("walks", {"NM": 0}, "walks must give each identity a walk"),
        ("views", ["090", "090"], "views must be distinct"),
        ("views", [], "views must be distinct and at least one"),
        ("scale", [0, 1], "scale must be two positive finite factors"),
        ("height", 0, "height and width must be >= 1"),
        ("width", 0, "height and width must be >= 1"),
        ("test_identities", -1, "test_identities must be >= 0"),
        ("views", ["090", "nan"], "views must be finite angles in degrees, got 'nan'"),
        ("views", ["inf"], "views must be finite angles in degrees, got 'inf'"),
        ("views", ["abc"], "views must be finite angles in degrees, got 'abc'"),
        ("body_jitter", [0.0, math.inf], "body_jitter must be finite bounds"),  # Infinity
    ])
    def test_domain_no_verb_could_load_is_refused_before_out_is_claimed(
            self, tmp_path, capsys, field, value, message):
        doc = _tiny_config().to_dict()
        doc["target"][field] = value
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = main(["gen-data", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"ERROR E_CONFIG: {message}")
        assert not out.exists()

    def test_batch_the_source_cannot_fill_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(_tiny_config(batch_k=7), cfg_path)  # tiny source: 6 per identity
        rc = main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG: batch_k 7 exceeds")

    def test_preset_without_config_resolves(self, tmp_path):
        # full desk training is too slow here; just check the config resolution
        out = tmp_path / "p"
        rc = main(["pretrain", "--out", str(out), "--data", str(tmp_path / "missing")])
        assert rc == 1  # missing data, but config resolved to the desk recipe
        save_config(preset_config("desk"), tmp_path / "desk.json")
        assert ((out / "failed" / "resolved_config.json").read_bytes()
                == (tmp_path / "desk.json").read_bytes())

    def test_empty_config_is_the_run_without_config(self, desk_data_dir, tmp_path):
        (tmp_path / "empty.json").write_text("{}")
        out = tmp_path / "empty"
        assert main(["gen-data", "--config", str(tmp_path / "empty.json"),
                     "--out", str(out)]) == 0
        assert _outputs(out) == _outputs(desk_data_dir)

    def test_partial_config_differs_from_the_defaults_only_in_its_seed(
            self, desk_data_dir, tmp_path):
        (tmp_path / "seed7.json").write_text('{"train": {"seed": 7}}')
        out, flag = tmp_path / "seed7", tmp_path / "flag7"
        assert main(["gen-data", "--config", str(tmp_path / "seed7.json"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "resolved_config.json").read_text())
        assert doc["train"].pop("seed") == 7
        default = json.loads((desk_data_dir / "resolved_config.json").read_text())
        assert default["train"].pop("seed") == 1
        assert doc == default
        # the same run as the seed flag without a config, to the byte
        assert main(["gen-data", "--seed", "7", "--out", str(flag)]) == 0
        assert _outputs(out) == _outputs(flag)


class TestPretrain:
    def test_artifacts(self, pretrain_dir):
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
        # pretrain reads only the train split, so corrupt a sequence there
        victim = broken / "train.pgm"
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
        assert {p.name for p in out.iterdir()} == RUN_FILES | ADAPT_FILES
        lines = (out / "runlog.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 rounds x 1 epoch
        n = len(load_dataset(data_dir / "target", split="train").sequences)
        for r in (1, 2):
            rows = (out / f"discovery_round{r}.csv").read_text().splitlines()
            assert rows[0] == "sample_id,entropy,selected,neighbor_ids"
            assert len(rows) == 1 + n

    def test_failed_round_file_quarantines_earlier_rounds(self, cfg_file, data_dir,
                                                          pretrain_dir, tmp_path, capsys):
        out = tmp_path / "ad"
        (out / "discovery_round2.csv").mkdir(parents=True)  # round 1 writes, round 2 fails
        rc = main(["adapt", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_IO:")
        assert not (out / "discovery_round1.csv").exists()
        assert (out / "failed" / "discovery_round1.csv").is_file()

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

    def test_gallery_size_below_one_is_protocol_error(self, cfg_file, data_dir,
                                                      pretrain_dir, tmp_path, capsys):
        rc = main(["eval", "--config", str(cfg_file), "--out", str(tmp_path / "ev"),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json"),
                   "--gallery-size", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "ERROR E_PROTOCOL: gallery size must be >= 1, got -1")
        assert not (tmp_path / "ev" / "results.json").exists()

    def test_gallery_size_below_one_is_refused_before_out_is_claimed(self, cfg_file,
                                                                     tmp_path, capsys):
        # nothing is loaded: a missing checkpoint and dataset do not get reached
        out = tmp_path / "ev0"
        rc = main(["eval", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(tmp_path / "missing"),
                   "--checkpoint", str(tmp_path / "missing.json"), "--gallery-size", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "ERROR E_PROTOCOL: gallery size must be >= 1, got 0")
        assert not out.exists()

    def test_reads_only_the_test_split(self, cfg_file, data_dir, pretrain_dir,
                                       tmp_path):
        data = tmp_path / "target"
        shutil.copytree(data_dir / "target", data)
        (data / "train.pgm").unlink()
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

    def test_failed_results_write_leaves_no_results_file(self, cfg_file, data_dir,
                                                         pretrain_dir, tmp_path,
                                                         monkeypatch, capsys):
        real = Path.write_text

        def write_text(self, text, *args, **kwargs):
            if "results.json" not in self.name:
                return real(self, text, *args, **kwargs)
            real(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        monkeypatch.setattr(Path, "write_text", write_text)
        out = tmp_path / "ev"
        rc = main(["eval", "--config", str(cfg_file), "--out", str(out),
                   "--data", str(data_dir / "target"),
                   "--checkpoint", str(pretrain_dir / "checkpoint.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_IO:")
        assert (out / "failed" / "resolved_config.json").exists()
        assert list(out.rglob("*results.json*")) == []

    def test_one_view_target_reports_plain_rank1_only(self, pretrain_dir, tmp_path):
        c, data = ["--config", str(_one_view_config(tmp_path))], tmp_path / "g" / "target"
        ck = pretrain_dir / "checkpoint.json"
        assert main(["gen-data", *c, "--out", str(tmp_path / "g")]) == 0
        assert main(["eval", *c, "--out", str(tmp_path / "ev"), "--data", str(data),
                     "--checkpoint", str(ck), "--gallery-size", "2"]) == 0
        doc = json.loads((tmp_path / "ev" / "results.json").read_text())
        test = load_dataset(data, split="test").sequences
        emb = dict(zip([s.sample_id for s in test], encode_sequences(test, load_checkpoint(ck))))
        protocol = make_protocol(test, gallery_size=2)
        assert doc["rank1"] == rank1(emb, protocol).accuracy
        assert doc["rank1_excluding_view"] is None
        assert doc["per_condition_excluding_view"] == {}
        assert doc["skipped_probes_excluding_view"] == sorted(protocol.probe_ids) != []

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        rc = main(["eval", "--config", str(tmp_path / "none.json"), "--out",
                   str(tmp_path / "o"), "--data", "d", "--checkpoint", "c"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG:")


class TestAblate:
    def test_tables_and_artifacts(self, cfg_file, pretrain_dir, tmp_path):
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
        # each stage directory holds the training files its verb writes
        pretrain_files = {p.name for p in pretrain_dir.iterdir()} - RUN_FILES
        for seed in (1, 2):
            seed_dir = out / f"seed{seed}"
            assert {p.name for p in (seed_dir / "pretrain").iterdir()} == pretrain_files
            assert {p.name for p in (seed_dir / "adapt_high").iterdir()} == ADAPT_FILES
            assert {p.name for p in (seed_dir / "data").iterdir()} == {"source", "target"}

    def test_failed_table_write_quarantines_both_tables(self, cfg_file, tmp_path,
                                                         capsys):
        out = tmp_path / "ab"
        (out / "comparison.csv").mkdir(parents=True)  # details.csv writes, this fails
        rc = main(["ablate", "--config", str(cfg_file), "--out", str(out),
                   "--seeds", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_IO:")
        assert not (out / "details.csv").exists()
        assert not (out / "comparison.csv").exists()
        assert (out / "failed" / "details.csv").is_file()
        assert (out / "failed" / "seed1").is_dir()

    def test_one_view_target_writes_the_tables(self, tmp_path):
        out = tmp_path / "ab"
        assert main(["ablate", "--config", str(_one_view_config(tmp_path)), "--out", str(out),
                     "--seeds", "1"]) == 0
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["direct", "high", "low", "random"]
        assert all(r["rank1_excl_mean"] == r["rank1_excl_spread"] == ""
                   and 0 <= float(r["rank1_mean"]) <= 1 for r in rows)
        with open(out / "details.csv", newline="") as fh:
            assert all(r["rank1_excl"] == "" for r in csv.DictReader(fh))

    def test_value_of_one_seed_of_two_is_its_own_mean(self, tmp_path):
        # seed 2 has no cross-view rank-1 (null) and no BG probes (absent)
        def summary(rank1, excl, per_condition):
            return {"rank1": rank1, "rank1_excluding_view": excl,
                    "per_condition": per_condition, "per_condition_excluding_view": {}}
        one = summary(0.75, 0.5, {"NM": {"rank1": 0.8}, "BG": {"rank1": 0.25}})
        two = summary(0.5, None, {"NM": {"rank1": 0.6}})
        write_ablation_tables({m: {1: one, 2: two} for m in ABLATE_METHODS}, tmp_path, [1, 2])
        with open(tmp_path / "details.csv", newline="") as fh:
            details = {(r["method"], r["seed"]): r for r in csv.DictReader(fh)}
        assert details["high", "1"]["rank1_excl"] == "0.5"
        assert details["high", "2"]["rank1_excl"] == details["high", "2"]["rank1_BG"] == ""
        with open(tmp_path / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(ABLATE_METHODS)
        for r in rows:
            assert (r["rank1_mean"], r["rank1_spread"]) == ("0.625", "0.125")
            assert (r["rank1_excl_mean"], r["rank1_excl_spread"]) == ("0.5", "0.0")
            assert (r["rank1_BG_mean"], r["rank1_BG_spread"]) == ("0.25", "0.0")

    def test_empty_seed_list_rejected(self, cfg_file, tmp_path, capsys):
        rc = main(["ablate", "--config", str(cfg_file), "--out",
                   str(tmp_path / "o"), "--seeds", ","])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG:")

    @pytest.mark.parametrize("seeds", ["1,1", "1,x", "2, 1 ,2", "1.5", "2,-1"])
    def test_bad_seed_list_rejected_before_out_is_claimed(self, cfg_file, tmp_path, capsys,
                                                          seeds):
        rc = main(["ablate", "--config", str(cfg_file), "--out",
                   str(tmp_path / "o"), "--seeds", seeds])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR E_CONFIG: --seeds")
        assert not (tmp_path / "o").exists()



def _drop(key):
    def mutate(text):
        doc = json.loads(text)
        del doc[key]
        return json.dumps(doc)
    return mutate


def _add_record_key(text):
    doc = json.loads(text)
    doc["records"][0]["camera"] = "left"
    return json.dumps(doc)


def _set_version(version):
    def mutate(text):
        doc = json.loads(text)
        doc["format_version"] = version
        return json.dumps(doc)
    return mutate


def _add_section(text):
    doc = json.loads(text)
    doc["trian"] = {"seed": 7}
    return json.dumps(doc)


def _as_list(text):
    return json.dumps([json.loads(text)])


def _set_config_field(section, key, value):
    def mutate(text):
        doc = json.loads(text)
        doc[section][key] = value(doc[section][key]) if callable(value) else value
        return json.dumps(doc)
    return mutate


def _nan_parameter_value(text):
    doc = json.loads(text)
    doc["params"]["mix.weight"]["values"][3] = float("nan")
    return json.dumps(doc)


MALFORMED = {
    "manifest-truncated": ("manifest", lambda text: text[:len(text) // 2], "E_DATA"),
    "manifest-without-records": ("manifest", _drop("records"), "E_DATA"),
    "manifest-unknown-record-key": ("manifest", _add_record_key, "E_DATA"),
    "manifest-list": ("manifest", _as_list, "E_DATA"),
    "manifest-version-1": ("manifest", _set_version(1), "E_DATA"),
    "manifest-version-2": ("manifest", _set_version(2), "E_DATA"),
    "checkpoint-without-shape": ("checkpoint", _drop("shape"), "E_INVALID"),
    "checkpoint-without-params": ("checkpoint", _drop("params"), "E_INVALID"),
    "checkpoint-nan-value": ("checkpoint", _nan_parameter_value, "E_INVALID"),
    "checkpoint-version-1": ("checkpoint", _set_version(1), "E_INVALID"),
    "config-list": ("config", _as_list, "E_CONFIG"),
    "config-unknown-section": ("config", _add_section, "E_CONFIG"),
    "config-unknown-field": ("config", _set_config_field("train", "include_self", True),
                             "E_CONFIG"),
    "config-removed-self-terms-field": ("config",
                                        _set_config_field("train",
                                                          "self_terms_for_unselected", False),
                                        "E_CONFIG"),
    "config-float-height": ("config", _set_config_field("encoder", "height", float),
                            "E_CONFIG"),
    "config-fractional-epochs": ("config", _set_config_field("train", "pretrain_epochs", 1.5),
                                 "E_CONFIG"),
    "config-nan-learning-rate": ("config",
                                 _set_config_field("train", "learning_rate", float("nan")),
                                 "E_CONFIG"),
}


def _eval_documents(tmp_path, cfg_file, data_dir, pretrain_dir, artifact=None, mutate=None):
    """Run eval on copies of the config, the checkpoint and the whole target
    dataset, with the named artifact's document passed through mutate."""
    shutil.copytree(data_dir / "target", tmp_path / "target")
    docs = {
        "config": (cfg_file, tmp_path / "cfg.json"),
        "checkpoint": (pretrain_dir / "checkpoint.json", tmp_path / "checkpoint.json"),
        "manifest": (data_dir / "target" / "manifest.json",
                     tmp_path / "target" / "manifest.json"),
    }
    for name, (good, path) in docs.items():
        text = good.read_text()
        path.write_text(mutate(text) if name == artifact else text)
    return main(["eval", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "ev"),
                 "--data", str(tmp_path / "target"),
                 "--checkpoint", str(tmp_path / "checkpoint.json")])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_gets_its_error_code(case, cfg_file, data_dir, pretrain_dir,
                                                tmp_path, capsys):
    artifact, mutate, code = MALFORMED[case]
    assert _eval_documents(tmp_path, cfg_file, data_dir, pretrain_dir, artifact, mutate) == 1
    assert capsys.readouterr().err.startswith(f"ERROR {code}:")


def test_unmodified_documents_evaluate(cfg_file, data_dir, pretrain_dir, tmp_path):
    # the control for the cases above: only the mutation makes them fail
    assert _eval_documents(tmp_path, cfg_file, data_dir, pretrain_dir) == 0


def test_every_json_artifact_is_canonical(cfg_file, data_dir, pretrain_dir, tmp_path):
    common = ["--config", str(cfg_file), "--data", str(data_dir / "target")]
    assert main(["adapt", *common, "--out", str(tmp_path / "ad"),
                 "--checkpoint", str(pretrain_dir / "checkpoint.json")]) == 0
    assert main(["eval", *common, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(tmp_path / "ad" / "checkpoint.json")]) == 0
    written = [p for root in (data_dir, pretrain_dir, tmp_path) for p in root.rglob("*.json")]
    names = {p.relative_to(p.parents[1]).as_posix() for p in written}
    assert {"source/manifest.json", "target/manifest.json", "ad/checkpoint.json",
            "ev/results.json", "ev/run_args.json", "ev/resolved_config.json"} <= names
    for p in written:
        text = p.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n", p

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
