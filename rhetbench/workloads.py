"""Seeded workloads that drive rhetseg through its command-line entry point.

Every workload generates its corpora with ``rhetseg synth`` and trains any
fixture checkpoints with ``rhetseg train`` during set-up; the timed part
then calls ``rhetseg.cli.main`` in-process with the argv a user would type,
followed by a per-document ``predict_document`` phase. Outputs are checked
after every timed iteration, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import rhetseg.cli as cli
import rhetseg.train as train_mod
from rhetseg.corpus import load_jsonl
from rhetseg.roles import ROLE_NAMES

import tracing

# Why each workload exists:
# - train_short is the only one with a backward pass and an optimizer; one
#   Adam update per short document keeps the optimizer a visible share.
# - predict_bulk is forward-only over many short documents, one context row
#   per sentence, so hashing, JSONL load and the LSTM forward dominate.
# - predict_long_free decodes a 120-sentence document free-running, which
#   re-encodes the document once per sentence, and it is the only workload
#   that covers attention, GCN and the softmax decode.
# Corpora are (documents, min sentences, max sentences). Documents that are
# timed one by one have a narrow or fixed length, so the median latency does
# not move with the seed's draw of lengths.
SIZES = {
    "train_short": {"train": (60, 8, 20), "val": (40, 12, 16), "epochs": 3},
    "predict_bulk": {"fit": (60, 8, 20), "fit_val": (20, 8, 20), "fit_epochs": 3, "eval": (300, 8, 20)},
    "predict_long_free": {"fit": (40, 8, 20), "fit_val": (10, 8, 20), "fit_epochs": 2, "eval": (1, 120, 120)},
}
FIXTURE_LR = "0.01"

# `rhetseg evaluate` takes milliseconds on the small corpora, so each
# iteration times it this many times and keeps the median.
EVALUATE_REPEATS = 5

# Fixture checkpoints trained during set-up: name -> train flags.
FIXTURES = {
    "train_short": {},
    "predict_bulk": {
        "bilstm_crf": ("--context", "bilstm", "--head", "crf", "--label-mode", "off"),
    },
    "predict_long_free": {
        "bilstm_crf": ("--context", "bilstm", "--head", "crf", "--label-mode", "gold"),
        "attention_softmax": ("--context", "attention", "--head", "softmax", "--label-mode", "gold"),
        "gcn_crf": ("--context", "gcn", "--head", "crf", "--label-mode", "gold"),
    },
}

# Set-up runs at least SETUP_REPEATS[0] times, and up to SETUP_REPEATS[1]
# times while the repeats so far took under SETUP_BUDGET_S; setup_s is the
# median, and every repeat must produce identical bytes.
SETUP_REPEATS = (3, 25)
SETUP_BUDGET_S = 2.0

# End-to-end metrics reported on every workload (the untraced run's JSON).
# sentences_per_s is the workload's main command: `train` on train_short,
# `predict` on the predict workloads. Printed but not in this set: macro-F1,
# which changes with the seed far more than any bound allows, and
# evaluate_sentences_per_s, whose run-to-run spread reached the largest
# bound on this machine.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sentences_per_s": ("sent/s", "higher"),
    "predict_doc_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_spec() -> dict[str, tuple[str, str]]:
    spec: dict[str, tuple[str, str]] = {}

    def fn(name, *extra):
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
        for key, unit in extra:
            spec[f"{name}.{key}"] = (unit, "lower")

    fn("cli.main")
    fn("corpus.load_jsonl", ("sentences", "sent"))
    fn("corpus.write_jsonl")
    fn("encode.encode_document", ("sentences", "sent"))
    spec["encode.ngrams"] = ("count", "lower")
    spec["encode.distinct_ngram_share"] = ("1", "higher")
    fn("encode.featurize")
    fn("context.fwd", ("rows", "rows"))
    for kind in tracing.CONTEXT_KINDS:
        fn(f"context.fwd.{kind}", ("rows", "rows"))
    spec["context.rows_per_predicted_sentence"] = ("1", "lower")
    fn("context.bwd")
    fn("context.build_graph")
    for k in tracing.KERNELS:
        fn(f"kernels.{k}", ("rows", "rows"), ("macs", "MAC"))
    for f in ("emissions", "nll_and_grad", "viterbi_decode"):
        fn(f"crf.{f}")
    for f in ("train_model", "document_loss_and_grads", "optimizer_step", "validate",
              "save_checkpoint", "load_checkpoint"):
        fn(f"train.{f}")
    fn("train.predict_document")
    spec["train.predict_document.sentences"] = ("sent", "higher")
    fn("metrics")
    spec["trace.wall_s"] = ("s", "lower")
    spec["trace.unattributed_s"] = ("s", "lower")
    spec["trace.overhead_share"] = ("1", "lower")
    spec["trace.spans"] = ("count", "lower")
    spec["trace.targets_missing"] = ("count", "lower")
    return spec


# Per-layer metrics (the traced run's JSON). Counts and times are per timed
# iteration; kernel MACs are computed from argument shapes, not measured.
PER_LAYER = _per_layer_spec()


class OpFailed(Exception):
    """An operation or output check failed; the iteration stops."""


class Ledger:
    """Counts operations attempted and failed: CLI calls, predict_document
    calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def run_cli(ledger: Ledger, argv: list[str]) -> tuple[float, dict[str, str]]:
    """Call the CLI in-process; return wall seconds and its `key,value` lines."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if not ledger.check(rc == 0, f"rhetseg {' '.join(argv)} exited {rc}"):
        raise OpFailed(f"rhetseg {argv[0]} exited {rc}")
    values = {}
    for line in out.getvalue().splitlines():
        key, sep, value = line.partition(",")
        if sep:
            values[key] = value
    return elapsed, values


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): _digest(p) for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, out: Path, ledger: Ledger) -> dict[str, Path]:
    """Generate the corpora and train the fixture checkpoints into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[name]
    paths: dict[str, Path] = {}
    corpora = [k for k, v in sizes.items() if isinstance(v, tuple)]
    for idx, corpus in enumerate(corpora):
        n_docs, lo, hi = sizes[corpus]
        paths[corpus] = out / f"{corpus}.jsonl"
        run_cli(ledger, ["synth", "--output", str(paths[corpus]), "--n-docs", str(n_docs),
                         "--min-sentences", str(lo), "--max-sentences", str(hi),
                         "--seed", str(seed * 16 + idx)])
    for ck, flags in FIXTURES[name].items():
        paths[ck] = out / f"{ck}.json"
        run_cli(ledger, ["train", "--input", str(paths["fit"]), "--val", str(paths["fit_val"]),
                         "--output", str(paths[ck]), "--epochs", str(sizes["fit_epochs"]),
                         "--patience", "0", "--lr", FIXTURE_LR, "--seed", str(seed), *flags])
    return paths


# ---------------------------------------------------------------------------
# Timed iterations
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    train_s: float = math.nan
    epochs_run: int = 0
    best_val_f1: float = math.nan
    predict_s: dict[str, float] = field(default_factory=dict)  # checkpoint -> seconds
    evaluate_s: dict[str, float] = field(default_factory=dict)
    f1: dict[str, float] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    latency_labels: dict[str, list[list[str]]] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)  # artifact -> path


@dataclass
class Context:
    name: str
    seed: int
    work: Path
    paths: dict[str, Path]
    ledger: Ledger
    docs: dict[str, list] = field(default_factory=dict)  # corpus -> documents, loaded once
    first_digest: dict[str, str] = field(default_factory=dict)

    @property
    def predicted_corpus(self) -> str:
        return "val" if self.name == "train_short" else "eval"

    def sentences(self, corpus: str) -> int:
        return sum(len(d) for d in self.docs[corpus])


def _predict_evaluate_latency(ctx: Context, it: Iteration, ck: str, mode: str | None) -> None:
    """`rhetseg predict`, then `rhetseg evaluate`, then predict_document one
    document at a time."""
    corpus = ctx.predicted_corpus
    gold = str(ctx.paths[corpus])
    pred = ctx.work / f"pred-{ck}.jsonl"
    mode_flag = ["--mode", mode] if mode else []
    it.predict_s[ck], _ = run_cli(ctx.ledger, ["predict", "--input", gold, "--model", str(ctx.paths[ck]),
                                               "--output", str(pred), *mode_flag])
    evaluate = ["evaluate", "--input", gold, "--pred", str(pred)]
    runs = [run_cli(ctx.ledger, evaluate) for _ in range(EVALUATE_REPEATS)]
    it.evaluate_s[ck] = statistics.median(seconds for seconds, _ in runs)
    values = runs[0][1]
    it.f1[ck] = float(values["macro_f1"])
    it.outputs[f"pred-{ck}"] = pred
    bundle = train_mod.load_checkpoint(ctx.paths[ck])
    ctx.ledger.check(True, f"{ck} reloads")
    encoder = bundle.make_encoder()
    labels = []
    for doc in ctx.docs[corpus]:
        ctx.ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            roles = train_mod.predict_document(doc, bundle, mode=mode or "free_running", encoder=encoder)
        except Exception as exc:
            ctx.ledger.failed += 1
            ctx.ledger.failures.append(f"predict_document({doc.doc_id}) raised {exc!r}")
            raise OpFailed(f"predict_document({doc.doc_id}) failed") from exc
        it.latencies_s.append(time.perf_counter() - t0)
        labels.append([r.canonical_name for r in roles])
    it.latency_labels[ck] = labels


def _iterate_train_short(ctx: Context) -> Iteration:
    it = Iteration()
    ckpt = ctx.work / "model.json"
    ctx.paths["model"] = ckpt
    it.train_s, values = run_cli(ctx.ledger, [
        "train", "--input", str(ctx.paths["train"]), "--val", str(ctx.paths["val"]),
        "--output", str(ckpt), "--epochs", str(SIZES["train_short"]["epochs"]),
        "--patience", "0", "--seed", str(ctx.seed)])
    it.epochs_run = int(values["epochs_run"])
    it.best_val_f1 = float(values["best_val_macro_f1"])
    it.outputs["model"] = ckpt
    _predict_evaluate_latency(ctx, it, "model", None)
    return it


def _iterate_predict(ctx: Context, mode: str | None) -> Iteration:
    it = Iteration()
    for ck in FIXTURES[ctx.name]:
        _predict_evaluate_latency(ctx, it, ck, mode)
    return it


ITERATE = {
    "train_short": _iterate_train_short,
    "predict_bulk": lambda ctx: _iterate_predict(ctx, None),
    "predict_long_free": lambda ctx: _iterate_predict(ctx, "free_running"),
}
WORKLOADS = tuple(ITERATE)


def _read_predictions(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_iteration(ctx: Context, it: Iteration) -> None:
    """Output checks: well-formed predictions, byte-identical artifacts
    across iterations, CLI labels equal to predict_document labels."""
    ledger = ctx.ledger
    docs = ctx.docs[ctx.predicted_corpus]
    for ck, per_doc in it.latency_labels.items():
        records = _read_predictions(it.outputs[f"pred-{ck}"])
        ledger.check(
            [r.get("doc_id") for r in records] == [d.doc_id for d in docs],
            f"{ck}: predictions keep the input doc ids in order",
        )
        cli_labels = [[s.get("label") for s in r.get("sentences", [])] for r in records]
        ledger.check(
            [len(x) for x in cli_labels] == [len(d) for d in docs]
            and all(lab in ROLE_NAMES for doc in cli_labels for lab in doc),
            f"{ck}: one valid role per sentence",
        )
        ledger.check(cli_labels == per_doc, f"{ck}: rhetseg predict labels equal predict_document labels")
    for key, path in it.outputs.items():
        digest = _digest(path)
        ledger.check(ctx.first_digest.setdefault(key, digest) == digest, f"{key}: bytes identical across runs")
    if ctx.name == "train_short":
        ledger.check(
            f"{it.f1['model']:.4f}" == f"{it.best_val_f1:.4f}",
            "evaluate on the validation split reproduces train's best_val_macro_f1",
        )


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: dict[str, tuple[float, str]]  # every named metric, for the printed table
    failures: list[str]


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Result:
    ledger = Ledger()
    iterations: list[Iteration] = []
    setup_times: list[float] = []
    tracer = tracing.Tracer() if trace else None
    missing: list[str] = []
    try:
        digests = None
        while len(setup_times) < SETUP_REPEATS[0] or (
            len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_BUDGET_S
        ):
            out = work / f"setup-{len(setup_times)}"
            t0 = time.perf_counter()
            paths = setup(name, seed, out, ledger)
            setup_times.append(time.perf_counter() - t0)
            tree = _tree_digest(out)
            digests = digests or tree
            ledger.check(tree == digests, "set-up outputs identical across repeats")
        ctx = Context(name, seed, work, dict(paths), ledger)
        for corpus in ("train", "val", "eval"):
            if corpus in ctx.paths:
                ctx.docs[corpus] = list(load_jsonl(ctx.paths[corpus]))
        wrappers = tracing.Wrappers(tracer) if trace else contextlib.nullcontext(None)
        started = time.perf_counter()
        with wrappers as installed:
            missing = installed.missing if installed else []
            for target in missing:
                print(f"trace: no call site {target}; its layer reads as zero", file=sys.stderr)
            while True:
                root = tracer.enter(tracing.ROOT) if trace else None
                try:
                    it = ITERATE[name](ctx)
                finally:
                    if trace:
                        tracer.exit(root)
                check_iteration(ctx, it)
                iterations.append(it)
                if time.perf_counter() - started >= seconds:
                    break
    except OpFailed:
        traceback.print_exc(file=sys.stderr)
    except Exception as exc:  # a crash in the harness or the program counts as one failed operation
        traceback.print_exc(file=sys.stderr)
        ledger.check(False, f"unexpected {type(exc).__name__}: {exc}")
    report: dict[str, tuple[float, str]] = {}
    metrics: dict[str, tuple[float, str]] = {}
    if iterations:
        report = _end_to_end_report(ctx, setup_times, iterations, ledger)
        if trace:
            metrics = _per_layer(tracer, len(iterations), ledger)
            metrics["trace.targets_missing"] = (len(missing), "count")
        else:
            metrics = {k: report[k] for k in END_TO_END}
    return Result(
        correct=ledger.failed == 0 and bool(iterations),
        attempted=ledger.attempted,
        failed=ledger.failed,
        metrics=metrics,
        report=report,
        failures=ledger.failures,
    )


def _rate(ctx: Context, iterations: list[Iteration], attr: str) -> float:
    """Sentences per second over every checkpoint, from the median seconds
    each checkpoint's command took across iterations."""
    per_ck = [statistics.median(getattr(it, attr)[ck] for it in iterations) for ck in iterations[0].predict_s]
    return ctx.sentences(ctx.predicted_corpus) * len(per_ck) / sum(per_ck)


def _end_to_end_report(ctx, setup_times, iterations, ledger) -> dict[str, tuple[float, str]]:
    med = statistics.median
    latencies_ms = [v * 1e3 for it in iterations for v in it.latencies_s]
    r = {
        "setup_s": (med(setup_times), "s"),
        "predict_sentences_per_s": (_rate(ctx, iterations, "predict_s"), "sent/s"),
        "predict_doc_ms_p50": (med(latencies_ms), "ms"),
        "evaluate_sentences_per_s": (_rate(ctx, iterations, "evaluate_s"), "sent/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_op_share": (ledger.failed / max(ledger.attempted, 1), "1"),
        "iterations": (len(iterations), "count"),
        "latency_samples": (len(latencies_ms), "count"),
        "setup_repeats": (len(setup_times), "count"),
    }
    if ctx.name == "train_short":
        sentences = ctx.sentences("train")
        r["train_sentences_per_s"] = (med(sentences * it.epochs_run / it.train_s for it in iterations), "sent/s")
        r["best_val_macro_f1"] = (med(it.best_val_f1 for it in iterations), "1")
        r["sentences_per_s"] = r["train_sentences_per_s"]
    else:
        r["test_macro_f1"] = (med(statistics.fmean(it.f1.values()) for it in iterations), "1")
        r["sentences_per_s"] = r["predict_sentences_per_s"]
    # The 90th percentile is reported only when at least ten samples lie beyond it.
    if len(latencies_ms) >= 100:
        r["predict_doc_ms_p90"] = (statistics.quantiles(latencies_ms, n=10)[-1], "ms")
    return r


def _per_layer(tracer: tracing.Tracer, n_iter: int, ledger: Ledger) -> dict[str, tuple[float, str]]:
    self_s = tracing.self_times(tracer.spans)
    calls: dict[str, int] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    counts = tracer.counts
    values: dict[str, float] = {}

    # A group sums its members: context.fwd over context.fwd.bilstm,
    # .attention and .gcn; metrics over metrics.confusion and the rest.
    for base in {m.rsplit(".", 1)[0] for m in PER_LAYER if m.endswith(".self_s")}:
        names = [n for n in calls if n == base or n.startswith(base + ".")]
        values[f"{base}.calls"] = sum(calls[n] for n in names)
        values[f"{base}.self_s"] = sum(self_s[n] for n in names)
    for metric in PER_LAYER:
        base, key = metric.rsplit(".", 1)
        if key in ("sentences", "rows", "macs"):
            values[metric] = sum(v for k, v in counts.items()
                                 if k == metric or (k.startswith(base + ".") and k.endswith("." + key)))
    occurrences, distinct = tracer.ngram_counts()
    values["encode.ngrams"] = occurrences
    values["encode.distinct_ngram_share"] = distinct / occurrences if occurrences else 0.0
    predicted = counts.get(f"{tracing.PREDICT_DOCUMENT}.sentences", 0)
    values["context.rows_per_predicted_sentence"] = (
        counts.get("context.fwd.rows_in_predict", 0) / predicted if predicted else 0.0
    )
    unattributed = self_s.pop(tracing.ROOT)
    wall_total = sum(s.end - s.start for s in tracer.spans if s.name == tracing.ROOT)
    ledger.check(
        math.isclose(sum(self_s.values()) + unattributed, wall_total, rel_tol=1e-9),
        "per-layer self times plus unattributed time sum to traced wall time",
    )
    n_spans = len(tracer.spans) - n_iter
    values["trace.wall_s"] = wall_total
    values["trace.unattributed_s"] = unattributed
    values["trace.overhead_share"] = n_spans * tracing.span_cost() / wall_total
    values["trace.spans"] = n_spans
    out = {}
    for metric, (unit, _) in PER_LAYER.items():
        if metric == "trace.targets_missing":
            continue
        v = values[metric]
        if not metric.endswith(("_share", "rows_per_predicted_sentence")):
            v = v / n_iter
        out[metric] = (v, unit)
    return out
