"""Command-line entry point for reproducible cross-domain experiments.

Verbs: gen-data, pretrain, adapt, eval, ablate. Every run writes a
resolved-config snapshot next to its outputs; re-running a verb from that
snapshot with the same arguments reproduces the outputs byte-for-byte on
the same platform.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
    preset_config,
    save_config,
)
from .data import DatasetError, generate_domain, load_dataset
from .encoder import encode_sequences, load_checkpoint, save_checkpoint
from .evaluation import ProtocolError, make_protocol, rank1
from .files import write_text_atomic
from .pipeline import adapt_target, dump_round_files, pretrain_source

log = logging.getLogger("gaitadapt")

COMPLETE_MARKER = "run_complete"


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class RunContext:
    """Tracks a verb's output files; quarantines them under failed/ on error."""

    def __init__(self, out: str | Path, verb: str, force: bool):
        self.out = Path(out)
        self.verb = verb
        self.created: list[Path] = []
        marker = self.out / COMPLETE_MARKER
        if marker.exists() and not force:
            raise CliError(
                "E_OVERWRITE",
                f"{self.out} already holds a completed run; pass --force to overwrite",
            )
        self.out.mkdir(parents=True, exist_ok=True)
        if marker.exists():
            marker.unlink()

    def path(self, name: str) -> Path:
        p = self.out / name
        self.created.append(p)
        return p

    def finish(self) -> None:
        (self.out / COMPLETE_MARKER).write_text(self.verb + "\n")

    def quarantine(self) -> None:
        failed = self.out / "failed"
        failed.mkdir(parents=True, exist_ok=True)
        for p in self.created:
            if p.exists():
                target = failed / p.name
                if target.exists():
                    if target.is_dir():
                        shutil.rmtree(target)
                    else:
                        target.unlink()
                shutil.move(str(p), str(target))


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = preset_config(getattr(args, "preset", None) or "desk")
    cfg = apply_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        strategy=getattr(args, "strategy", None),
    )
    return cfg.check_batches()


def _write_snapshot(ctx: RunContext, cfg: ExperimentConfig, args_doc: dict) -> None:
    save_config(cfg, ctx.path("resolved_config.json"))
    doc = {"verb": ctx.verb, "args": args_doc}
    write_text_atomic(ctx.path("run_args.json"), json.dumps(doc, sort_keys=True, indent=1) + "\n")


def cmd_gen_data(args) -> None:
    cfg = _resolve_config(args)
    ctx = RunContext(args.out, "gen-data", args.force)
    try:
        _write_snapshot(ctx, cfg, {"out": str(args.out)})
        generate_domain(cfg.source, ctx.path("source"), "source", cfg.train.seed)
        generate_domain(cfg.target, ctx.path("target"), "target", cfg.train.seed)
    except Exception:
        ctx.quarantine()
        raise
    ctx.finish()
    log.info("wrote source and target datasets under %s", args.out)


def cmd_pretrain(args) -> None:
    cfg = _resolve_config(args)
    ctx = RunContext(args.out, "pretrain", args.force)
    try:
        _write_snapshot(ctx, cfg, {"out": str(args.out), "data": str(args.data)})
        train = load_dataset(args.data, split="train").sequences
        if not train:
            raise DatasetError(f"{args.data} has no train split")
        params, runlog = pretrain_source(train, cfg.encoder, cfg.train)
        save_checkpoint(params, ctx.path("checkpoint.json"))
        runlog.to_csv(ctx.path("runlog.csv"))
        runlog.write_timing(ctx.path("timing.txt"))
    except Exception:
        ctx.quarantine()
        raise
    ctx.finish()
    log.info("pretraining done: %s", args.out)


def cmd_adapt(args) -> None:
    cfg = _resolve_config(args)
    ctx = RunContext(args.out, "adapt", args.force)
    try:
        _write_snapshot(ctx, cfg, {
            "out": str(args.out), "data": str(args.data),
            "checkpoint": str(args.checkpoint),
        })
        train = load_dataset(args.data, split="train").sequences
        if not train:
            raise DatasetError(f"{args.data} has no train split")
        params = load_checkpoint(args.checkpoint)
        adapted, runlog, rounds = adapt_target(train, params, cfg.train)
        save_checkpoint(adapted, ctx.path("checkpoint.json"))
        runlog.to_csv(ctx.path("runlog.csv"))
        runlog.write_timing(ctx.path("timing.txt"))
        for p in dump_round_files(ctx.out, rounds):
            ctx.created.append(p)
    except Exception:
        ctx.quarantine()
        raise
    ctx.finish()
    log.info("adaptation done: %s", args.out)


def _evaluate_checkpoint(checkpoint_path, data_root, convention, gallery_size,
                         first_to_gallery=True) -> dict:
    params = load_checkpoint(checkpoint_path)
    test = load_dataset(data_root, split="test").sequences
    if not test:
        raise DatasetError(f"{data_root} has no test split")
    embeddings = dict(zip([s.sample_id for s in test], encode_sequences(test, params)))
    protocol = make_protocol(
        test, convention=convention, gallery_size=gallery_size,
        first_to_gallery=first_to_gallery,
    )
    plain = rank1(embeddings, protocol.with_exclusion(False))
    excl = rank1(embeddings, protocol.with_exclusion(True))
    return {
        "rank1": plain.accuracy,
        "rank1_excluding_view": excl.accuracy,
        "evaluated": plain.evaluated,
        "per_condition": plain.to_dict()["per_condition"],
        "per_condition_excluding_view": excl.to_dict()["per_condition"],
        "skipped_probes": list(plain.skipped_probes),
        "skipped_probes_excluding_view": list(excl.skipped_probes),
        "skipped_identities": list(protocol.skipped_identities),
        "convention": convention,
        "gallery_size": gallery_size,
    }


def cmd_eval(args) -> None:
    cfg = _resolve_config(args)
    ctx = RunContext(args.out, "eval", args.force)
    try:
        _write_snapshot(ctx, cfg, {
            "out": str(args.out), "data": str(args.data),
            "checkpoint": str(args.checkpoint), "convention": args.convention,
            "gallery_size": args.gallery_size,
        })
        summary = _evaluate_checkpoint(
            args.checkpoint, args.data, args.convention, args.gallery_size,
        )
        ctx.path("results.json").write_text(
            json.dumps(summary, sort_keys=True, indent=1) + "\n"
        )
    except Exception:
        ctx.quarantine()
        raise
    ctx.finish()
    log.info("evaluation done: rank1 = %.4f", summary["rank1"])


ABLATE_METHODS = ("direct", "high", "low", "random")


def run_ablation(cfg: ExperimentConfig, out: Path, seeds: list[int],
                 convention: str = "first-n-gallery", gallery_size: int = 4) -> dict:
    """Direct transfer plus all three selection strategies, per seed.

    Data generation, pretraining, adaptation, and evaluation all derive
    from the per-seed experiment seed; pretraining is shared across the
    strategies within a seed.
    """
    import dataclasses

    results: dict[str, dict[int, dict]] = {m: {} for m in ABLATE_METHODS}
    for seed in seeds:
        seed_cfg = dataclasses.replace(cfg.train, seed=seed)
        seed_dir = out / f"seed{seed}"
        log.info("ablation seed %d", seed)
        src_root = seed_dir / "data" / "source"
        tgt_root = seed_dir / "data" / "target"
        generate_domain(cfg.source, src_root, "source", seed)
        generate_domain(cfg.target, tgt_root, "target", seed)

        source = load_dataset(src_root, split="train").sequences
        target = load_dataset(tgt_root, split="train").sequences
        params, runlog = pretrain_source(source, cfg.encoder, seed_cfg)
        pre_ckpt = seed_dir / "pretrained.json"
        save_checkpoint(params, pre_ckpt)
        runlog.to_csv(seed_dir / "pretrain_runlog.csv")

        results["direct"][seed] = _evaluate_checkpoint(
            pre_ckpt, tgt_root, convention, gallery_size)
        for strategy in ("high", "low", "random"):
            log.info("  strategy %s", strategy)
            strat_cfg = dataclasses.replace(seed_cfg, strategy=strategy)
            adapted, alog, rounds = adapt_target(target, params, strat_cfg)
            ck = seed_dir / f"adapted_{strategy}.json"
            save_checkpoint(adapted, ck)
            alog.to_csv(seed_dir / f"adapt_{strategy}_runlog.csv")
            dump_round_files(seed_dir / f"discovery_{strategy}", rounds)
            results[strategy][seed] = _evaluate_checkpoint(
                ck, tgt_root, convention, gallery_size)
    return results


def _metric_columns(summary: dict) -> dict[str, float]:
    cols = {"rank1": summary["rank1"], "rank1_excl": summary["rank1_excluding_view"]}
    for cond, vals in summary["per_condition"].items():
        cols[f"rank1_{cond}"] = vals["rank1"]
    for cond, vals in summary["per_condition_excluding_view"].items():
        cols[f"rank1_excl_{cond}"] = vals["rank1"]
    return cols


def write_ablation_tables(results: dict, out: Path, seeds: list[int]) -> None:
    """details.csv: one row per (method, seed). comparison.csv: method rows
    with mean and spread (population std, ddof=0, so a single seed reads 0)
    per metric over the seed list."""
    all_cols: list[str] = []
    for m in ABLATE_METHODS:
        for seed in seeds:
            for c in _metric_columns(results[m][seed]):
                if c not in all_cols:
                    all_cols.append(c)

    with open(out / "details.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed"] + all_cols)
        for m in ABLATE_METHODS:
            for seed in seeds:
                cols = _metric_columns(results[m][seed])
                w.writerow([m, seed] + [repr(cols.get(c, "")) for c in all_cols])

    with open(out / "comparison.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["method", "seeds"]
        for c in all_cols:
            header += [f"{c}_mean", f"{c}_spread"]
        w.writerow(header)
        for m in ABLATE_METHODS:
            row = [m, ";".join(str(s) for s in seeds)]
            for c in all_cols:
                vals = np.array(
                    [_metric_columns(results[m][s]).get(c, np.nan) for s in seeds],
                    dtype=float)
                row += [repr(float(vals.mean())), repr(float(vals.std()))]
            w.writerow(row)


def cmd_ablate(args) -> None:
    cfg = _resolve_config(args)
    ctx = RunContext(args.out, "ablate", args.force)
    try:
        seeds = [int(s) for s in str(args.seeds).split(",") if s.strip()]
        if not seeds:
            raise CliError("E_CONFIG", f"no seeds in {args.seeds!r}")
        _write_snapshot(ctx, cfg, {"out": str(args.out), "seeds": seeds})
        for seed in seeds:
            ctx.path(f"seed{seed}")
        results = run_ablation(cfg, ctx.out, seeds)
        write_ablation_tables(results, ctx.out, seeds)
        ctx.created += [ctx.out / "details.csv", ctx.out / "comparison.csv"]
    except Exception:
        ctx.quarantine()
        raise
    ctx.finish()
    log.info("ablation done: %s", ctx.out / "comparison.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitadapt",
        description="Cross-domain gait embedding adaptation experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, data=False, checkpoint=False):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--preset", choices=["paper", "desk"],
                       help="base preset when no --config is given (default desk)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--strategy", choices=["high", "low", "random"],
                       help="override the anchor selection strategy")
        p.add_argument("--force", action="store_true",
                       help="overwrite a completed run directory")
        if data:
            p.add_argument("--data", required=True, help="dataset root directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="encoder checkpoint")

    p = sub.add_parser("gen-data", help="write the synthetic source and target datasets")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="supervised metric pretraining on a labeled source")
    common(p, data=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("adapt", help="unsupervised adaptation on an unlabeled target")
    common(p, data=True, checkpoint=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="gallery/probe rank-1 evaluation of a checkpoint")
    common(p, data=True, checkpoint=True)
    p.add_argument("--convention", default="first-n-gallery",
                   choices=["first-n-gallery", "first-sequence-gallery"])
    p.add_argument("--gallery-size", type=int, default=4)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="direct transfer vs all selection strategies")
    common(p)
    p.add_argument("--seeds", default="1,2,3", help="comma-separated seed list")
    p.set_defaults(func=cmd_ablate)
    return parser


_ERROR_CODES = [
    (CliError, None),
    (ConfigError, "E_CONFIG"),
    (DatasetError, "E_DATA"),
    (ProtocolError, "E_PROTOCOL"),
    (FileNotFoundError, "E_IO"),
    (ValueError, "E_INVALID"),
    (OSError, "E_IO"),
]


def main(argv=None) -> int:
    level = os.environ.get("GAITADAPT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as e:  # noqa: BLE001 - single reporting point for exit codes
        for klass, code in _ERROR_CODES:
            if isinstance(e, klass):
                ecode = code or getattr(e, "code", "E_INTERNAL")
                break
        else:
            ecode = "E_INTERNAL"
        msg = " ".join(str(e).split())
        print(f"ERROR {ecode}: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
