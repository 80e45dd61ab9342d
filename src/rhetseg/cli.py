"""Command-line pipeline: ingest, stats, split, synth, train, predict,
evaluate, gradcheck, export-instructions.

Exit codes: 0 success, 1 usage error or a closed stdout (no traceback), 2
data error (bad files, schema, labels), 3 numeric failure. Outputs carry no
timestamps, so every subcommand is byte-idempotent on identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    Corpus,
    Document,
    compute_stats,
    load_jsonl,
    segment_text,
    split_corpus,
    write_jsonl,
)
from .encode import (
    WINDOW_SPECS,
    HashEncoderConfig,
    HashingEncoder,
    PrecomputedEncoder,
    load_embeddings,
    parse_window_spec,
)
from .errors import DataError, NumericError, open_text
from .instructions import instruction_records
from .metrics import compute_report, confusion, confusion_csv, emit_report
from .roles import RhetoricalRole
from .synth import generate_corpus
from .train import (
    CLASS_WEIGHTS,
    CONTEXT_KINDS,
    HEADS,
    LABEL_MODE_ALIASES,
    LABEL_MODES,
    OPTIMIZERS,
    POSITIONAL_MODES,
    TrainConfig,
    gradcheck,
    load_checkpoint,
    predict_document,  # noqa: F401 - unused here; kept as the call site rhetbench's tracer wraps
    predict_documents,
    save_checkpoint,
    train_model,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract reserves 2 for data
    errors, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # --help text meets a closed pipe here, inside main
        super().exit(status, message)


# Every tuning option of `train`, once: flag -> its argparse keywords. Its
# --config key is its dest, the flag without "--" and with "_" for "-", and a
# file value passes the same type and choices as the flag. An option given
# neither way is not passed on, so the defaults are TrainConfig's and
# HashEncoderConfig's. The metavars keep the --help listing of the canonical
# names.
_TRAIN_OPTIONS = {
    "--head": {"choices": HEADS},
    "--context": {"choices": CONTEXT_KINDS},
    "--window": {"choices": sorted(WINDOW_SPECS)},
    "--label-mode": {"choices": tuple(LABEL_MODE_ALIASES), "metavar": "{%s}" % ",".join(LABEL_MODES)},
    "--positional": {"choices": POSITIONAL_MODES},
    "--sin-dim": {"type": int},
    "--lambda": {"type": float, "metavar": "MTL_LAMBDA", "help": "shift-loss weight in [0,1]"},
    "--no-mtl": {"dest": "mtl", "action": "store_false", "default": None, "help": "drop the shift head entirely"},
    "--optimizer": {"choices": OPTIMIZERS},
    "--lr": {"type": float, "help": "learning rate"},
    "--epochs": {"type": int},
    "--patience": {"type": int, "help": "early-stopping patience, 0 disables"},
    "--seed": {"type": int},
    "--class-weights": {"choices": CLASS_WEIGHTS, "help": "auto = inverse-frequency, softmax head only"},
    "--lstm-hidden": {"type": int},
    "--attention-layers": {"type": int},
    "--gcn-hidden": {"type": int},
    "--gcn-sim-threshold": {"type": float},
    "--hash-dim": {"type": int, "help": "hashed-encoder width"},
    "--ngram-orders": {"help": "comma list over {1,2}, e.g. 1,2"},
}
_CONFIG_OPTIONS = {kw.get("dest", flag[2:].replace("-", "_")): kw for flag, kw in _TRAIN_OPTIONS.items()}
# Config keys that name a TrainConfig field differently, and those that set
# the hashing encoder instead.
_TRAIN_FIELDS = {"context": "context_kind", "lambda": "mtl_lambda", "lr": "learning_rate",
                 "patience": "early_stopping_patience"}
_ENCODER_FIELDS = {"hash_dim": "dim", "ngram_orders": "ngram_orders"}
_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


@functools.cache  # one tree per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="rhetseg", description="Rhetorical-role sequence labeling for legal judgments.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("ingest", help="segment raw text files into an unlabeled JSONL corpus")
    p.add_argument("--input", required=True, help="text file or directory of .txt files")
    p.add_argument("--output", required=True, help="corpus JSONL to write")

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--output", help="optional JSON stats file")

    p = sub.add_parser("split", help="document-level train/validation/test split")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--output-dir", required=True, help="directory for train/validation/test JSONL")
    p.add_argument("--ratios", default="0.7,0.2,0.1", help="train,val,test fractions summing to 1")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--output", required=True, help="corpus JSONL to write")
    p.add_argument("--n-docs", type=int, default=100)
    p.add_argument("--min-sentences", type=int, default=8)
    p.add_argument("--max-sentences", type=int, default=20)
    p.add_argument("--role-vocab", type=int, default=12)
    p.add_argument("--filler-vocab", type=int, default=30)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--input", required=True, help="training corpus JSONL (fully labeled)")
    p.add_argument("--val", required=True, help="validation corpus JSONL (fully labeled)")
    p.add_argument("--output", required=True, help="checkpoint path to write")
    p.add_argument("--report", help="optional training-report CSV path")
    p.add_argument("--config", help="key=value file providing defaults for the flags below")
    for flag, keywords in _TRAIN_OPTIONS.items():
        p.add_argument(flag, **keywords)
    p.add_argument("--embeddings", help="precomputed embedding file instead of the hashed encoder")

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--output", required=True, help="predictions JSONL")
    p.add_argument("--mode", choices=["free_running", "teacher_forced"], default="free_running")
    p.add_argument("--embeddings", help="embedding file for precomputed-encoder models")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--input", required=True, help="gold corpus JSONL")
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--output", help="report file")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--confusion", help="standalone confusion-grid CSV path")
    p.add_argument("--exclude-none", action="store_true", help="drop the None class from macro averages")

    p = sub.add_parser("gradcheck", help="finite-difference check of a model's gradients")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--input", required=True, help="labeled corpus JSONL")
    p.add_argument("--doc-index", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--embeddings", help="embedding file for precomputed-encoder models")

    p = sub.add_parser("export-instructions", help="emit instruction-tuning JSONL records")
    p.add_argument("--input", required=True, help="labeled corpus JSONL")
    p.add_argument("--output", required=True, help="records JSONL")

    return parser


def _cmd_ingest(args) -> int:
    src = Path(args.input)
    if src.is_dir():
        files = sorted(src.glob("*.txt"))
        if not files:
            raise DataError(f"no .txt files in {src}")
    elif src.is_file():
        files = [src]
    else:
        raise DataError(f"input {src} does not exist")
    documents = []
    for path in files:
        with open_text(path) as fh:
            texts = tuple(segment_text(fh.read()))
        if not texts:
            raise DataError(f"{path} contains no sentences")
        documents.append(Document(doc_id=path.stem, texts=texts, labels=(None,) * len(texts)))
    write_jsonl(Corpus(documents=tuple(documents)), args.output)
    print(f"ingested {len(documents)} documents -> {args.output}")
    return 0


def _cmd_stats(args) -> int:
    stats = compute_stats(load_jsonl(args.input))
    print(f"n_docs,{stats.n_docs}")
    print(f"n_sentences,{stats.n_sentences}")
    print(f"avg_sentences_per_doc,{stats.avg_sentences_per_doc:.4f}")
    print(f"avg_tokens_per_sentence,{stats.avg_tokens_per_sentence:.4f}")
    for role in RhetoricalRole:
        print(f"count_{role.canonical_name},{stats.per_label_sentence_counts[role]}")
    for role in RhetoricalRole:
        print(f"avg_tokens_{role.canonical_name},{stats.per_label_avg_tokens[role]:.4f}")
    if args.output:
        payload = {
            "n_docs": stats.n_docs,
            "n_sentences": stats.n_sentences,
            "avg_sentences_per_doc": stats.avg_sentences_per_doc,
            "avg_tokens_per_sentence": stats.avg_tokens_per_sentence,
            "per_label_sentence_counts": {
                r.canonical_name: stats.per_label_sentence_counts[r] for r in RhetoricalRole
            },
            "per_label_avg_tokens": {
                r.canonical_name: stats.per_label_avg_tokens[r] for r in RhetoricalRole
            },
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise DataError(f"ratios must be three comma-separated fractions, got {text!r}")
    try:
        r = tuple(float(v) for v in parts)
    except ValueError:
        raise DataError(f"non-numeric ratio in {text!r}") from None
    return r  # validated by split_corpus


def _seed(seed: int) -> int:
    """A seed every seeded stage accepts: numpy's generators take no negative
    seed, and the hashing encoder packs it into 8 signed bytes."""
    if not 0 <= seed < 2**63:
        raise DataError(f"seed must lie in [0, 2**63), got {seed}")
    return seed


def _cmd_split(args) -> int:
    corpus = load_jsonl(args.input)
    train, val, test = split_corpus(corpus, _parse_ratios(args.ratios), _seed(args.seed))
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for part, name in ((train, "train"), (val, "validation"), (test, "test")):
        write_jsonl(part, out / f"{name}.jsonl")
        print(f"{name},{len(part)}")
    return 0


def _cmd_synth(args) -> int:
    corpus = generate_corpus(
        n_docs=args.n_docs,
        min_sentences=args.min_sentences,
        max_sentences=args.max_sentences,
        role_vocab=args.role_vocab,
        filler_vocab=args.filler_vocab,
        noise=args.noise,
        seed=_seed(args.seed),
    )
    write_jsonl(corpus, args.output)
    print(f"generated {len(corpus)} documents, {corpus.n_sentences} sentences -> {args.output}")
    return 0


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"config line {line_no}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def _config_value(key: str, text: str):
    """A --config value, converted and checked as its flag's would be."""
    if key not in _CONFIG_OPTIONS:
        raise DataError(f"unknown config key {key!r}")
    option = _CONFIG_OPTIONS[key]
    try:
        value = _BOOLEANS[text.lower()] if "action" in option else option.get("type", str)(text)
        if value in option.get("choices", (value,)):
            return value
    except (KeyError, ValueError):
        pass
    raise DataError(f"config key {key!r} has invalid value {text!r}")


def _train_options(args) -> dict:
    """The train options given, by config key. Precedence: flag > config file."""
    given = {}
    if args.config:
        given = {key: _config_value(key, text) for key, text in _read_config_file(args.config).items()}
    given.update((key, value) for key, value in vars(args).items() if key in _CONFIG_OPTIONS and value is not None)
    return given


def _parse_ngram_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise DataError(f"invalid ngram orders {text!r}") from None
    return orders


def _cmd_train(args) -> int:
    options = _train_options(args)
    if "seed" in options:
        _seed(options["seed"])
    encoder_options = {_ENCODER_FIELDS[key]: options.pop(key) for key in list(options) if key in _ENCODER_FIELDS}
    if "window" in options:
        options["window"] = parse_window_spec(options["window"])
    train_corpus = load_jsonl(args.input)
    val_corpus = load_jsonl(args.val)
    cfg = TrainConfig(**{_TRAIN_FIELDS.get(key, key): value for key, value in options.items()})
    if args.embeddings:
        matrices = load_embeddings(args.embeddings, [*train_corpus, *val_corpus])
        dim = next(iter(matrices.values())).shape[1]
        encoder = PrecomputedEncoder(matrices, dim)
    else:
        if "ngram_orders" in encoder_options:
            encoder_options["ngram_orders"] = _parse_ngram_orders(encoder_options["ngram_orders"])
        encoder = HashingEncoder(HashEncoderConfig(seed=cfg.seed, **encoder_options))
    bundle, report = train_model(train_corpus, val_corpus, cfg, encoder)
    save_checkpoint(bundle, args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    print(f"epochs_run,{len(report.train_losses)}")
    print(f"best_epoch,{report.best_epoch}")
    print(f"best_val_macro_f1,{report.val_macro_f1[report.best_epoch - 1]:.4f}")
    if report.shift_val_accuracy is not None:
        print(f"shift_val_accuracy,{report.shift_val_accuracy:.4f}")
        print(f"shift_majority_baseline,{report.shift_majority_baseline:.4f}")
    return 0


def _make_predict_encoder(args, bundle, corpus):
    if bundle.encoder_spec["kind"] == "precomputed":
        if not args.embeddings:
            raise DataError("model uses precomputed embeddings; pass --embeddings")
        matrices = load_embeddings(args.embeddings, corpus)
        width, dim = next(iter(matrices.values())).shape[1], bundle.encoder_spec["dim"]
        if width != dim:
            raise DataError(f"embedding file has width {width}, but the model was trained on width {dim}")
        return PrecomputedEncoder(matrices, dim)
    return bundle.make_encoder()


def _cmd_predict(args) -> int:
    corpus = load_jsonl(args.input)
    bundle = load_checkpoint(args.model)
    encoder = _make_predict_encoder(args, bundle, corpus)
    predictions = predict_documents(corpus.documents, bundle, mode=args.mode, encoder=encoder)
    write_jsonl(corpus, args.output, labels=predictions)
    print(f"predicted {len(corpus)} documents -> {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    gold_corpus = load_jsonl(args.input)
    pred_corpus = load_jsonl(args.pred)
    pred_by_id = {doc.doc_id: doc for doc in pred_corpus}

    def doc_pair(doc):
        if doc.doc_id not in pred_by_id:
            raise DataError(f"predictions missing document {doc.doc_id!r}")
        pred_doc = pred_by_id[doc.doc_id]
        if len(pred_doc) != len(doc):
            raise DataError(
                f"document {doc.doc_id!r}: gold has {len(doc)} sentences, prediction has {len(pred_doc)}"
            )
        gold = [int(r) for r in doc.gold_labels()]
        pred = [int(r) for r in pred_doc.gold_labels()]
        return gold, pred

    pairs = [doc_pair(doc) for doc in gold_corpus.documents]
    cm = confusion([g for g, _ in pairs], [p for _, p in pairs])
    report = compute_report(cm, include_none=not args.exclude_none)
    text = emit_report(report, cm, format=args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.confusion:
        with open(args.confusion, "w", encoding="utf-8") as fh:
            fh.write(confusion_csv(cm))
    print(f"macro_precision,{report.macro_precision:.4f}")
    print(f"macro_recall,{report.macro_recall:.4f}")
    print(f"macro_f1,{report.macro_f1:.4f}")
    print(f"accuracy,{report.accuracy:.4f}")
    print(f"mcc,{report.mcc:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    bundle = load_checkpoint(args.model)
    corpus = load_jsonl(args.input)
    if not 0 <= args.doc_index < len(corpus):
        raise DataError(f"doc index {args.doc_index} out of range for {len(corpus)} documents")
    doc = corpus.documents[args.doc_index]
    encoder = _make_predict_encoder(args, bundle, corpus)
    report = gradcheck(bundle, doc, step=args.step, tolerance=args.tolerance, encoder=encoder)
    for name in sorted(report.max_rel_error):
        err = report.max_rel_error[name]
        status = "PASS" if err <= report.tolerance else "FAIL"
        print(f"{name},{err:.3e},{status}")
    print(f"gradcheck,{'PASS' if report.passed else 'FAIL'}")
    if not report.passed:
        raise NumericError("gradient check failed")
    return 0


def _cmd_export_instructions(args) -> int:
    corpus = load_jsonl(args.input)
    records = instruction_records(corpus)
    with open(args.output, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
    print(f"exported {len(records)} records -> {args.output}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "split": _cmd_split,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
    "export-instructions": _cmd_export_instructions,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        with np.errstate(all="ignore"):  # stderr gets the NumericError line, not numpy's warnings
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout; devnull keeps the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size option past what can be allocated; numpy names the request
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
