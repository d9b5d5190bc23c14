"""gaitadapt benchmark: the five-verb transfer story, timed end to end.

Run from the root of a source checkout:

    python3 bench/run.py --workload desk-seed --seed 1 --seconds 60 --trace 0

A run works in a fresh directory under `.bench_build/` that is deleted at
the end. It sets up with `gen-data` and then plays stories on that data:
`pretrain`, `eval` (direct transfer), `adapt --strategy high` and `eval`
(adapted), each through `gaitadapt.cli.main` in this process. Stories
repeat while the next one is expected to end within `--seconds`, and
further `gen-data` set-ups are spread over the run. `setup_s` is the
median set-up; every other time is the mean over the run's stories, that
is the verb's total time in the run divided by the number of stories.
With `--trace 1` each story is traced (see tracer.py) and followed by the
same verbs untraced, which gives the tracing overhead. The outputs of
every verb are checked; a failed check makes the run exit 1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. RATIONALE.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import Patch, Tracer

# One BLAS thread: the encoder's matmuls are far too small to gain from
# threads, and a second thread would compete with the benchmark itself on a
# small shared host.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Training and data overrides on top of the desk preset, and how many times
# a run sets up (gen-data); see RATIONALE.md.
WORKLOADS = {
    "desk-seed": {
        "train": {"pretrain_epochs": 20, "epochs_per_round": 5},
        "target": {},
        "setups": 3,
    },
    "wide-bank": {
        "train": {"pretrain_epochs": 4, "epochs_per_round": 1},
        "target": {"identities": 200, "test_identities": 10, "frames": 4},
        "setups": 2,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pretrain_s": "s",
    "adapt_s": "s",
    "eval_s": "s",
    "transfer_s": "s",
    "train_seqs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# --- tracing targets -------------------------------------------------------

# (module, function, count hook returning the work one call did)
TRACE_TARGETS = [
    ("data", "generate_domain", lambda a, m: sum(r.frame_count for r in m.records)),
    ("data", "load_dataset", lambda a, ds: sum(s.length for s in ds.sequences)),
    ("data", "sample_pk_batch", None),
    ("encoder", "encode_sequence", lambda a, emb: a[0].length),
    ("encoder", "encode_backward", lambda a, grads: len(a[0])),
    ("encoder", "save_checkpoint", lambda a, _: os.path.getsize(a[1])),
    ("encoder", "load_checkpoint", None),
    ("losses", "triplet_loss", None),
    ("losses", "softmax_row", None),
    ("losses", "anchor_neighborhood_loss", None),
    ("discovery", "build_bank", lambda a, bank: bank.size),
    ("discovery", "discover_neighborhoods",
     lambda a, hoods: 2 * a[0].entries.shape[0] ** 2 * a[0].entries.shape[1]),
    ("discovery", "rank_and_select", None),
    ("discovery", "update_bank", None),
    ("pipeline", "pretrain_source", None),
    ("pipeline", "adapt_target", None),
    ("evaluation", "make_protocol", None),
    ("evaluation", "rank1", lambda a, result: result.evaluated),
    ("cli", "main", None),
]


def _needs(names, value):
    """Tag a metric's value function with the traced functions it reads."""
    value.needs = set(names)
    return value


def _incl(name):
    return _needs([name], lambda t: t.total(name))


def _self(*names):
    return _needs(names, lambda t: sum(t.total(n, "self_time") for n in names))


def _calls(*names):
    return _needs(names, lambda t: sum(t.total(n, "calls") for n in names))


def _count(name):
    return _needs([name], lambda t: t.counts[name])


def _ratio(num, den, scale=1.0):
    def value(t):
        d = den(t)
        return num(t) / d * scale if d else 0.0
    return _needs(num.needs | den.needs, value)


FWD, BWD = "encoder.encode_sequence", "encoder.encode_backward"
BANK, KNN = "discovery.build_bank", "discovery.discover_neighborhoods"

# (metric, unit, value from a Tracer)
PER_LAYER = [
    ("data.generate_s", "s", _incl("data.generate_domain")),
    ("data.frames_written", "count", _count("data.generate_domain")),
    ("data.load_s", "s", _incl("data.load_dataset")),
    ("data.frames_read", "count", _count("data.load_dataset")),
    ("data.pk_batch_s", "s", _incl("data.sample_pk_batch")),
    ("encoder.forward_s", "s", _incl(FWD)),
    ("encoder.forward_seqs", "count", _calls(FWD)),
    ("encoder.forward_frames", "count", _count(FWD)),
    ("encoder.forward_us_per_seq", "us", _ratio(_incl(FWD), _calls(FWD), 1e6)),
    ("encoder.backward_s", "s", _incl(BWD)),
    ("encoder.backward_seqs", "count", _count(BWD)),
    ("encoder.backward_us_per_seq", "us", _ratio(_incl(BWD), _count(BWD), 1e6)),
    ("encoder.ckpt_save_s", "s", _incl("encoder.save_checkpoint")),
    ("encoder.ckpt_load_s", "s", _incl("encoder.load_checkpoint")),
    ("encoder.ckpt_bytes", "bytes", _count("encoder.save_checkpoint")),
    ("losses.triplet_s", "s", _incl("losses.triplet_loss")),
    ("losses.triplet_calls", "count", _calls("losses.triplet_loss")),
    ("losses.softmax_row_s", "s", _incl("losses.softmax_row")),
    ("losses.softmax_row_calls", "count", _calls("losses.softmax_row")),
    ("losses.anchor_loss_s", "s", _incl("losses.anchor_neighborhood_loss")),
    ("losses.anchor_loss_calls", "count", _calls("losses.anchor_neighborhood_loss")),
    ("discovery.build_bank_self_s", "s", _self(BANK)),
    ("discovery.knn_s", "s", _incl(KNN)),
    ("discovery.rank_s", "s", _incl("discovery.rank_and_select")),
    ("discovery.update_bank_s", "s", _incl("discovery.update_bank")),
    ("discovery.bank_size", "count", _ratio(_count(BANK), _calls(BANK))),
    ("discovery.sim_flops", "flop", _count(KNN)),
    ("pipeline.self_s", "s", _self("pipeline.pretrain_source", "pipeline.adapt_target")),
    ("pipeline.train_steps", "count",
     _calls("losses.triplet_loss", "losses.anchor_neighborhood_loss")),
    ("evaluation.protocol_s", "s", _incl("evaluation.make_protocol")),
    ("evaluation.rank1_s", "s", _incl("evaluation.rank1")),
    ("evaluation.probes", "count", _count("evaluation.rank1")),
    ("cli.self_s", "s", _self("cli.main")),
]


# --- checkout and environment ----------------------------------------------

def import_program(root: Path):
    """Import gaitadapt from the checkout's src/, never from elsewhere.

    The BLAS thread count only takes effect if it is set before NumPy loads.
    """
    src = root / "src"
    if not (src / "gaitadapt" / "cli.py").is_file():
        raise SystemExit(f"error: no gaitadapt sources under {src}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import gaitadapt.cli
    import gaitadapt.config
    import gaitadapt.encoder

    if Path(gaitadapt.cli.__file__).resolve().parent != (src / "gaitadapt").resolve():
        raise SystemExit(f"error: gaitadapt imported from {gaitadapt.cli.__file__}")
    return gaitadapt


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload_sizes: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **workload_sizes,
    }


# --- one story ---------------------------------------------------------------

class CheckFailed(Exception):
    pass


def workload_config(gaitadapt, workload: str, seed: int) -> dict:
    doc = gaitadapt.config.preset_config("desk").to_dict()
    doc["train"].update(WORKLOADS[workload]["train"], seed=seed)
    doc["target"].update(WORKLOADS[workload]["target"])
    return doc


def story_verbs(run_dir: Path, d: Path, data: Path) -> list[tuple[str, list[str], Path]]:
    """The four transfer verbs after set-up, writing under `d`."""
    cfg = ["--config", str(run_dir / "config.json")]
    src, tgt = str(data / "source"), str(data / "target")
    pre, ada = str(d / "pre" / "checkpoint.json"), str(d / "adapt" / "checkpoint.json")
    return [
        ("pretrain", ["pretrain", *cfg, "--data", src, "--out", str(d / "pre")], d / "pre"),
        ("eval-direct", ["eval", *cfg, "--data", tgt, "--checkpoint", pre,
                         "--out", str(d / "eval-direct")], d / "eval-direct"),
        ("adapt", ["adapt", *cfg, "--strategy", "high", "--data", tgt, "--checkpoint", pre,
                   "--out", str(d / "adapt")], d / "adapt"),
        ("eval-adapted", ["eval", *cfg, "--data", tgt, "--checkpoint", ada,
                          "--out", str(d / "eval-adapted")], d / "eval-adapted"),
    ]


def check_outputs(gaitadapt, verb: str, out: Path, expected: dict) -> None:
    """Raise CheckFailed unless the verb left complete, valid outputs.

    Each checked fact (the datasets' manifests, rank-1, the adapted
    checkpoint's SHA-256) must equal its value in `expected`, which holds
    the earlier set-ups and stories of this run and earlier runs at this
    seed, since a run is reproducible to the byte. New facts are added.
    """
    import numpy as np

    facts = {}
    if not (out / "run_complete").is_file():
        raise CheckFailed(f"{verb}: no run_complete marker")
    if verb == "gen-data":
        h = hashlib.sha256()
        try:
            for domain in ("source", "target"):
                h.update((out / domain / "manifest.json").read_bytes())
        except OSError as e:
            raise CheckFailed(f"gen-data: unreadable manifest: {e}") from e
        facts["manifests_sha256"] = h.hexdigest()
    elif verb.startswith("eval"):
        try:
            rank1 = json.loads((out / "results.json").read_text())["rank1"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise CheckFailed(f"{verb}: unreadable results.json: {e}") from e
        if not (isinstance(rank1, (int, float)) and 0.0 <= rank1 <= 1.0):
            raise CheckFailed(f"{verb}: rank-1 {rank1!r} outside [0, 1]")
        facts[verb] = float(rank1)
    elif verb == "adapt":
        path = out / "checkpoint.json"
        try:
            params = gaitadapt.encoder.load_checkpoint(path)
        except (OSError, ValueError, KeyError) as e:
            raise CheckFailed(f"adapt: checkpoint does not reload: {e}") from e
        if not all(np.all(np.isfinite(t)) for t in params.tensors.values()):
            raise CheckFailed("adapt: checkpoint holds non-finite values")
        facts["adapted_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    for key, value in facts.items():
        if expected.setdefault(key, value) != value:
            raise CheckFailed(f"{verb}: {key} {value!r} differs from earlier runs"
                              f" ({expected[key]!r})")


def run_verb(gaitadapt, verb: str, argv: list[str], out: Path, expected: dict,
             tally: dict, tracer: Tracer | None = None) -> float:
    """Run one verb through the CLI, check its outputs, return its wall time."""
    if tracer is not None:
        tracer.stage = verb
    tally["attempted"] += 1
    t0 = time.perf_counter()
    code = gaitadapt.cli.main(argv)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.stage = ""
    try:
        if code != 0:
            raise CheckFailed(f"{verb}: exit code {code}")
        check_outputs(gaitadapt, verb, out, expected)
    except CheckFailed:
        tally["failed"] += 1
        raise
    return seconds


def run_story(gaitadapt, run_dir: Path, d: Path, data: Path, expected: dict,
              tally: dict, tracer: Tracer | None = None) -> dict[str, float]:
    """The transfer verbs on `data` in a fresh `d`, deleted afterwards."""
    d.mkdir()
    try:
        return {verb: run_verb(gaitadapt, verb, argv, out, expected, tally, tracer)
                for verb, argv, out in story_verbs(run_dir, d, data)}
    finally:
        shutil.rmtree(d, ignore_errors=True)


def workload_sizes(data: Path, config: dict) -> dict:
    def split_counts(domain):
        records = json.loads((data / domain / "manifest.json").read_text())["records"]
        return {s: sum(r["split"] == s for r in records) for s in ("train", "test")}

    src, tgt = split_counts("source"), split_counts("target")
    train = config["train"]
    return {
        "source_train_seqs": src["train"],
        "target_bank_n": tgt["train"],
        "target_test_seqs": tgt["test"],
        "frames_per_seq": config["target"]["frames"],
        "frame_hw": [config["target"]["height"], config["target"]["width"]],
        "pretrain_epochs": train["pretrain_epochs"],
        "rounds": train["rounds"],
        "epochs_per_round": train["epochs_per_round"],
    }


def train_seqs(sizes: dict, train: dict) -> int:
    """Training sequences one story feeds through forward and backward."""
    per_batch = train["batch_p"] * train["batch_k"]
    batches = max(1, math.ceil(sizes["source_train_seqs"] / per_batch))
    pre = train["pretrain_epochs"] * batches * per_batch
    n, rounds = sizes["target_bank_n"], train["rounds"]
    adapt = sum(math.ceil(r * n / rounds) for r in range(1, rounds + 1))
    return pre + adapt * train["epochs_per_round"]


# --- ledger of checked outputs ------------------------------------------------

def read_ledger(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def record_facts(path: Path, key: str, facts: dict) -> None:
    """Store the checked outputs of a key; later runs must match them."""
    ledger = read_ledger(path)
    ledger[key] = facts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)


# --- main ----------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def layer_metrics(tracer: Tracer, missing: set[str]) -> tuple[dict, list[str]]:
    """Per-layer values of one traced story; unmeasured ones read 0."""
    values, unmeasured = {}, []
    for name, _, value in PER_LAYER:
        v = math.nan if missing & value.needs else float(value(tracer))
        if not math.isfinite(v):
            unmeasured.append(name)
            v = 0.0
        values[name] = v
    return values, unmeasured


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still deletes its directory (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    gaitadapt = import_program(root)
    work = root / ".bench_build" / "gaitadapt"
    work.mkdir(parents=True, exist_ok=True)
    config = workload_config(gaitadapt, args.workload, args.seed)
    ledger_path = work / "ledger.json"
    ledger_key = ":".join([
        args.workload, str(args.seed), source_digest(root),
        hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
    ])
    ledger_facts = read_ledger(ledger_path).get(ledger_key, {})
    expected = dict(ledger_facts)

    tally = {"attempted": 0, "failed": 0}
    setups: list[float] = []
    setup_tracer = Tracer() if args.trace else None
    stories: list[dict] = []
    missing: set[str] = set()
    error = None
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    data = run_dir / "data"
    start = time.perf_counter()
    try:
        (run_dir / "config.json").write_text(json.dumps(config, sort_keys=True, indent=1) + "\n")
        cfg = ["--config", str(run_dir / "config.json")]
        n_setups = 1 if args.trace else WORKLOADS[args.workload]["setups"]

        def setup(out: Path) -> None:
            argv = ["gen-data", *cfg, "--out", str(out)]
            if args.trace:
                with Patch(setup_tracer, "gaitadapt", TRACE_TARGETS) as patch:
                    setups.append(run_verb(gaitadapt, "gen-data", argv, out, expected,
                                           tally, setup_tracer))
                missing.update(patch.missing)
            else:
                setups.append(run_verb(gaitadapt, "gen-data", argv, out, expected, tally))

        def extra_setup() -> None:
            """Regenerate the data beside the first tree, check it against
            that tree and delete it."""
            out = run_dir / f"data-{len(setups)}"
            setup(out)
            shutil.rmtree(out)

        setup(data)
        sizes = workload_sizes(data, config)
        # Stories: the transfer verbs again and again on the same data, so
        # that every verb is sampled across the whole run.
        while True:
            d = run_dir / f"it{len(stories)}"
            story = {}
            if args.trace:
                # A traced story, then the same verbs untraced: the paired
                # difference is the tracing overhead.
                story["tracer"] = Tracer()
                with Patch(story["tracer"], "gaitadapt", TRACE_TARGETS) as patch:
                    story["times"] = run_story(gaitadapt, run_dir, d, data, expected, tally,
                                               story["tracer"])
                missing.update(patch.missing)
                story["plain"] = run_story(gaitadapt, run_dir, d.with_name(d.name + "-plain"),
                                           data, expected, tally)
            else:
                story["times"] = run_story(gaitadapt, run_dir, d, data, expected, tally)
            if expected != ledger_facts:
                record_facts(ledger_path, ledger_key, expected)
                ledger_facts = dict(expected)
            stories.append(story)
            walls = [sum(story.get(k, {}).values()) for k in ("times", "plain")]
            print(f"story {len(stories) - 1}: "
                  + " ".join(f"{v} {t:.3f}s" for v, t in story["times"].items())
                  + (f" untraced transfer {walls[1]:.3f}s" if args.trace else ""),
                  file=sys.stderr)
            # Further set-ups are spread over the run, like the stories.
            if (len(setups) < n_setups
                    and time.perf_counter() - start >= len(setups) * args.seconds / n_setups):
                extra_setup()
            # Start another story only if it and the set-ups still due should
            # end within --seconds.
            due = (n_setups - len(setups)) * statistics.median(setups)
            if time.perf_counter() - start + sum(walls) + due > args.seconds:
                break
        while len(setups) < n_setups:
            extra_setup()
    except CheckFailed as e:
        error = str(e)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if error is not None:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print("setup " + " ".join(f"gen-data {t:.3f}s" for t in setups), file=sys.stderr)
    if stories:
        print("env " + json.dumps(environment(sizes), sort_keys=True))

    def mean(value):
        return statistics.fmean(value(s) for s in stories)

    def spent(times, *verbs):
        return sum(times[v] for v in verbs)

    metrics: dict[str, dict] = {}
    if stories and not args.trace:
        n_train = train_seqs(sizes, config["train"])
        values = {
            "setup_s": statistics.median(setups),
            "pretrain_s": mean(lambda s: spent(s["times"], "pretrain")),
            "adapt_s": mean(lambda s: spent(s["times"], "adapt")),
            "eval_s": mean(lambda s: spent(s["times"], "eval-direct", "eval-adapted")),
            "transfer_s": mean(lambda s: sum(s["times"].values())),
            "train_seqs_per_s": n_train / mean(lambda s: spent(s["times"], "pretrain", "adapt")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    elif stories:
        # Each story's layers count the traced set-up once.
        per_story = [layer_metrics(setup_tracer.merged(s["tracer"]), missing) for s in stories]
        values = {name: statistics.median(ps[0][name] for ps in per_story)
                  for name, *_ in PER_LAYER}
        values["trace.overhead_s"] = mean(
            lambda s: sum(s["times"].values()) - sum(s["plain"].values()))
        values["evaluation.rank1_direct"] = expected["eval-direct"]
        values["evaluation.rank1_adapted"] = expected["eval-adapted"]
        units = {name: unit for name, unit, *_ in PER_LAYER}
        units.update({"trace.overhead_s": "s", "evaluation.rank1_direct": "ratio",
                      "evaluation.rank1_adapted": "ratio"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        for name in sorted(set().union(*(ps[1] for ps in per_story))):
            print(f"unmeasured {name}: traced function or its count hook no longer fits gaitadapt")
        print_shares(stories)

    print(f"setups {len(setups)} stories {len(stories)}")
    if "eval-adapted" in expected:
        print(f"rank1_direct {expected['eval-direct']!r}"
              f" rank1_adapted {expected['eval-adapted']!r}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    attempted = max(1, tally["attempted"])
    print(f"op_fail_ratio {tally['failed'] / attempted!r} ({tally['failed']}/{attempted} verbs)")
    correct = error is None and bool(stories)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": tally["failed"], "metrics": metrics}))
    return 0 if correct else 1


def print_shares(stories: list[dict]) -> None:
    """Per-stage shares the workload rationale predicts, medians over traced stories."""
    def share(stage, names):
        return statistics.median(
            sum(s["tracer"].in_stage(stage, n) for n in names) / s["times"][stage]
            for s in stories)

    print(f"share encoder forward+backward of pretrain_s {share('pretrain', [FWD, BWD]):.4f}")
    print("share discovery knn+rank of adapt_s "
          f"{share('adapt', [KNN, 'discovery.rank_and_select']):.4f}")


if __name__ == "__main__":
    sys.exit(main())
