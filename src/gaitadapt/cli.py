"""Command-line entry point for reproducible cross-domain experiments.

Verbs: gen-data, pretrain, adapt, eval, ablate. Every run writes a
resolved-config snapshot next to its outputs; re-running a verb from that
snapshot with the same arguments reproduces the outputs byte-for-byte on
the same platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
    save_config,
)
from .data import DatasetError, generate_domain, load_dataset
from .discovery import STRATEGIES
from .encoder import EncoderParams, encode_sequences, load_checkpoint, save_checkpoint
from .evaluation import (
    CONVENTIONS, ProtocolError, Rank1Result, check_protocol, make_protocol, rank1,
)
from .files import replacing, write_csv, write_json
from .pipeline import RoundState, RunLog, adapt_target, pretrain_source

log = logging.getLogger("gaitadapt")

COMPLETE_MARKER = "run_complete"


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Run:
    """A verb's output directory, its resolved config, and the outputs
    registered for quarantine."""

    out: Path
    cfg: ExperimentConfig
    created: list[Path] = field(default_factory=list)

    def path(self, name: str) -> Path:
        p = self.out / name
        self.created.append(p)
        return p


@contextmanager
def run_scope(args, verb: str, args_doc: dict) -> Iterator[Run]:
    """Resolve the config, claim args.out, and write the config and argument
    snapshots. On any exception every registered output moves to failed/;
    on success the failed/ of an earlier attempt is removed and the
    run_complete marker is written: the verb, then the registered names,
    one per line. With --force, the names that a completed run's marker
    lists are deleted first, and nothing else.
    """
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    # only the verbs whose runs use them take --seed and --strategy
    cfg = apply_overrides(cfg, seed=getattr(args, "seed", None),
                          strategy=getattr(args, "strategy", None)).check_batches()
    out = Path(args.out)
    marker = out / COMPLETE_MARKER
    if marker.exists() and not args.force:
        raise CliError(
            "E_OVERWRITE",
            f"{out} already holds a completed run; pass --force to overwrite",
        )
    out.mkdir(parents=True, exist_ok=True)
    if marker.exists():
        for name in marker.read_text().splitlines()[1:]:
            if name not in ("", ".", "..") and Path(name).name == name:
                _remove(out / name)
        marker.unlink()
    run = Run(out, cfg)
    try:
        save_config(cfg, run.path("resolved_config.json"))
        write_json(run.path("run_args.json"), {"verb": verb, "args": args_doc})
        yield run
    except Exception:
        failed = out / "failed"
        failed.mkdir(exist_ok=True)
        for p in run.created:
            if p.exists():
                _remove(failed / p.name)
                shutil.move(str(p), str(failed / p.name))
        raise
    names = dict.fromkeys(p.name for p in run.created)
    _remove(out / "failed")
    marker.write_text("".join(f"{line}\n" for line in (verb, *names)))


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _round_rows(state: RoundState) -> Iterator[list]:
    """One row per sample, in id order: id, entropy, selected flag, neighbor ids."""
    ids = state.ids
    chosen = np.zeros(len(ids), dtype=bool)
    chosen[state.selected] = True
    h, flags, hoods = state.entropies.tolist(), chosen.tolist(), state.neighbors.tolist()
    for i in sorted(range(len(ids)), key=ids.__getitem__):
        yield [ids[i], repr(h[i]), int(flags[i]), ";".join(ids[j] for j in hoods[i])]


def write_stage(path: Callable[[str], Path], params: EncoderParams, runlog: RunLog,
                rounds: Iterable[RoundState] = ()) -> Path:
    """Write a training stage: checkpoint.json, runlog.csv, timing.txt and one
    discovery_round<r>.csv per adaptation round. This is the only writer of
    these files. path(name) gives each file's destination; Run.path
    registers it before it is written. Returns the checkpoint path.

    runlog.csv is deterministic; the stage's wall time goes to timing.txt.
    """
    checkpoint = path("checkpoint.json")
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, checkpoint)
    write_csv(path("runlog.csv"), ["stage", "round", "epoch", "loss", "learning_rate"],
              ([r.stage, r.round_index, r.epoch, repr(r.loss), repr(r.learning_rate)]
               for r in runlog.records))
    with replacing(path("timing.txt")) as tmp:
        tmp.write_text(f"total_seconds: {runlog.seconds:.3f}\n")
    for state in rounds:
        write_csv(path(f"discovery_round{state.round_index}.csv"),
                  ["sample_id", "entropy", "selected", "neighbor_ids"], _round_rows(state))
    return checkpoint


def cmd_gen_data(args) -> None:
    with run_scope(args, "gen-data", {"out": str(args.out)}) as run:
        seed = run.cfg.train.seed
        generate_domain(run.cfg.source, run.path("source"), "source", seed)
        generate_domain(run.cfg.target, run.path("target"), "target", seed)
    log.info("wrote source and target datasets under %s", args.out)


def cmd_pretrain(args) -> None:
    with run_scope(args, "pretrain", {"out": str(args.out), "data": str(args.data)}) as run:
        train = load_dataset(args.data, split="train").sequences
        write_stage(run.path, *pretrain_source(train, run.cfg.encoder, run.cfg.train))
    log.info("pretraining done: %s", args.out)


def cmd_adapt(args) -> None:
    with run_scope(args, "adapt", {
        "out": str(args.out), "data": str(args.data),
        "checkpoint": str(args.checkpoint),
    }) as run:
        train = load_dataset(args.data, split="train").sequences
        params = load_checkpoint(args.checkpoint)
        write_stage(run.path, *adapt_target(train, params, run.cfg.train))
    log.info("adaptation done: %s", args.out)


def _per_condition(result: Rank1Result) -> dict:
    return {c: {"correct": v[0], "evaluated": v[1], "rank1": v[2]}
            for c, v in result.per_condition.items()}


def _evaluate_checkpoint(checkpoint_path, data_root, convention="first-n-gallery",
                         gallery_size=4) -> dict:
    params = load_checkpoint(checkpoint_path)
    test = load_dataset(data_root, split="test").sequences
    embeddings = dict(zip([s.sample_id for s in test], encode_sequences(test, params)))
    protocol = make_protocol(test, convention=convention, gallery_size=gallery_size)
    plain = rank1(embeddings, protocol.with_exclusion(False))
    excl = rank1(embeddings, protocol.with_exclusion(True))
    return {
        "rank1": plain.accuracy,
        "rank1_excluding_view": excl.accuracy,
        "evaluated": plain.evaluated,
        "per_condition": _per_condition(plain),
        "per_condition_excluding_view": _per_condition(excl),
        "skipped_probes": list(plain.skipped_probes),
        "skipped_probes_excluding_view": list(excl.skipped_probes),
        "skipped_identities": list(protocol.skipped_identities),
        "convention": convention,
        "gallery_size": gallery_size,
    }


def cmd_eval(args) -> None:
    check_protocol(args.convention, args.gallery_size)  # before --out is claimed
    with run_scope(args, "eval", {
        "out": str(args.out), "data": str(args.data),
        "checkpoint": str(args.checkpoint), "convention": args.convention,
        "gallery_size": args.gallery_size,
    }) as run:
        summary = _evaluate_checkpoint(
            args.checkpoint, args.data, args.convention, args.gallery_size,
        )
        write_json(run.path("results.json"), summary)
    log.info("evaluation done: rank1 = %.4f", summary["rank1"])


ABLATE_METHODS = ("direct", *STRATEGIES)


def run_ablation(cfg: ExperimentConfig, out: Path, seeds: list[int]) -> dict:
    """Direct transfer plus all three selection strategies, per seed, each
    evaluated under eval's default protocol.

    Data generation, pretraining, adaptation, and evaluation all derive
    from the per-seed experiment seed; pretraining is shared across the
    strategies within a seed. Seed N writes the gen-data datasets under
    seedN/data/ and each training stage's files (see write_stage) under
    seedN/pretrain/ and seedN/adapt_<strategy>/.
    """
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
        ck = write_stage((seed_dir / "pretrain").joinpath, params, runlog)
        results["direct"][seed] = _evaluate_checkpoint(ck, tgt_root)
        for strategy in STRATEGIES:
            log.info("  strategy %s", strategy)
            strat_cfg = dataclasses.replace(seed_cfg, strategy=strategy)
            ck = write_stage((seed_dir / f"adapt_{strategy}").joinpath,
                             *adapt_target(target, params, strat_cfg))
            results[strategy][seed] = _evaluate_checkpoint(ck, tgt_root)
    return results


def _metric_columns(summary: dict) -> dict[str, float | None]:
    cols = {"rank1": summary["rank1"], "rank1_excl": summary["rank1_excluding_view"]}
    for cond, vals in summary["per_condition"].items():
        cols[f"rank1_{cond}"] = vals["rank1"]
    for cond, vals in summary["per_condition_excluding_view"].items():
        cols[f"rank1_excl_{cond}"] = vals["rank1"]
    return cols


def _cell(value: float | None) -> str:
    """A table cell: the value's repr, or empty when there is no value."""
    return "" if value is None else repr(value)


def write_ablation_tables(results: dict, out: Path, seeds: list[int]) -> None:
    """details.csv: one row per (method, seed). comparison.csv: method rows
    with mean and spread (population std, ddof=0, so a single seed reads 0)
    per metric over the seeds that have a value. A missing value is an
    empty cell in both tables."""
    cols = {(m, s): _metric_columns(results[m][s]) for m in ABLATE_METHODS for s in seeds}
    names = list(dict.fromkeys(c for row in cols.values() for c in row))
    write_csv(out / "details.csv", ["method", "seed", *names],
              ([m, s, *(_cell(cols[m, s].get(c)) for c in names)] for m, s in cols))
    comparison = []
    for m in ABLATE_METHODS:
        row = [m, ";".join(str(s) for s in seeds)]
        for c in names:
            vals = [v for s in seeds if (v := cols[m, s].get(c)) is not None]
            row += [_cell(float(f(vals)) if vals else None) for f in (np.mean, np.std)]
        comparison.append(row)
    write_csv(out / "comparison.csv",
              ["method", "seeds", *(f"{c}_{stat}" for c in names for stat in ("mean", "spread"))],
              comparison)


def _parse_seeds(text: str) -> list[int]:
    """The comma-separated seed list of --seeds: non-negative integers, each once."""
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise CliError("E_CONFIG", f"--seeds {text!r}: every entry must be an integer") from None
    if min(seeds) < 0:
        raise CliError("E_CONFIG", f"--seeds {text!r}: seed {min(seeds)} is negative")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise CliError("E_CONFIG", f"--seeds {text!r}: seed {repeated[0]} is repeated")
    return seeds


def cmd_ablate(args) -> None:
    seeds = _parse_seeds(str(args.seeds))
    with run_scope(args, "ablate", {"out": str(args.out), "seeds": seeds}) as run:
        # a seed directory is registered whole before anything under it is written
        for name in [f"seed{seed}" for seed in seeds] + ["details.csv", "comparison.csv"]:
            run.path(name)
        results = run_ablation(run.cfg, run.out, seeds)
        write_ablation_tables(results, run.out, seeds)
    log.info("ablation done: %s", run.out / "comparison.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitadapt",
        description="Cross-domain gait embedding adaptation experiments",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # options are spelled in full: an abbreviation like --se would pass for --seed
    add_verb = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p, data=False, checkpoint=False, seed=False):
        p.add_argument("--config", help="experiment config JSON (default: the desk recipe)")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--force", action="store_true",
                       help="overwrite a completed run directory")
        if data:
            p.add_argument("--data", required=True, help="dataset root directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="encoder checkpoint")

    p = add_verb("gen-data", help="write the synthetic source and target datasets")
    common(p, seed=True)
    p.set_defaults(func=cmd_gen_data)

    p = add_verb("pretrain", help="supervised metric pretraining on a labeled source")
    common(p, data=True, seed=True)
    p.set_defaults(func=cmd_pretrain)

    p = add_verb("adapt", help="unsupervised adaptation on an unlabeled target")
    common(p, data=True, checkpoint=True, seed=True)
    p.add_argument("--strategy", choices=STRATEGIES,
                   help="override the anchor selection strategy")
    p.set_defaults(func=cmd_adapt)

    p = add_verb("eval", help="gallery/probe rank-1 evaluation of a checkpoint")
    common(p, data=True, checkpoint=True)
    p.add_argument("--convention", default="first-n-gallery", choices=CONVENTIONS)
    p.add_argument("--gallery-size", type=int, default=4)
    p.set_defaults(func=cmd_eval)

    p = add_verb("ablate", help="direct transfer vs all selection strategies")
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
