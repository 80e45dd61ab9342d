"""Command-line pipeline: ingest, stats, split, synth, train, predict,
evaluate, gradcheck, export-instructions.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, schema,
labels), 3 numeric failure. Outputs carry no timestamps, so every subcommand
is byte-idempotent on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import (
    Corpus,
    Document,
    Sentence,
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
from .errors import DataError, NumericError
from .instructions import instruction_records
from .metrics import compute_report, confusion, confusion_csv, emit_report
from .roles import ROLE_NAMES, RhetoricalRole
from .synth import generate_corpus
from .train import (
    TrainConfig,
    gradcheck,
    inverse_frequency_weights,
    load_checkpoint,
    predict_document,
    save_checkpoint,
    train_model,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract reserves 2 for data
    errors, so usage failures exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    p.add_argument("--head", choices=["crf", "softmax"])
    p.add_argument("--context", choices=["none", "bilstm", "attention", "gcn"])
    p.add_argument("--window", choices=sorted(WINDOW_SPECS))
    p.add_argument("--label-mode", choices=["off", "gold", "predicted"])
    p.add_argument("--positional", choices=["none", "normalized", "sinusoidal"])
    p.add_argument("--sin-dim", type=int)
    p.add_argument("--lambda", dest="mtl_lambda", type=float, help="shift-loss weight in [0,1]")
    p.add_argument("--no-mtl", action="store_true", help="drop the shift head entirely")
    p.add_argument("--optimizer", choices=["sgd", "adam"])
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int, help="early-stopping patience, 0 disables")
    p.add_argument("--seed", type=int)
    p.add_argument("--class-weights", choices=["none", "auto"], help="auto = inverse-frequency, softmax head only")
    p.add_argument("--lstm-hidden", type=int)
    p.add_argument("--attention-layers", type=int)
    p.add_argument("--gcn-hidden", type=int)
    p.add_argument("--gcn-sim-threshold", type=float)
    p.add_argument("--hash-dim", type=int, help="hashed-encoder width")
    p.add_argument("--ngram-orders", help="comma list over {1,2}, e.g. 1,2")
    p.add_argument("--embeddings", help="precomputed embedding file instead of the hashed encoder")

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--output", required=True, help="predictions JSONL")
    p.add_argument("--mode", choices=["free_running", "teacher_forced"], default="free_running")
    p.add_argument("--embeddings", help="embedding file for precomputed-encoder models")
    p.add_argument("--jobs", type=int, default=1, help="ignored; documents run one after another")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--input", required=True, help="gold corpus JSONL")
    p.add_argument("--pred", required=True, help="predictions JSONL")
    p.add_argument("--output", help="report file")
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--confusion", help="standalone confusion-grid CSV path")
    p.add_argument("--exclude-none", action="store_true", help="drop the None class from macro averages")
    p.add_argument("--jobs", type=int, default=1, help="ignored; documents run one after another")

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
        sentences = segment_text(path.read_text(encoding="utf-8"))
        if not sentences:
            raise DataError(f"{path} contains no sentences")
        documents.append(
            Document(
                doc_id=path.stem,
                sentences=tuple(Sentence(index=i, text=s) for i, s in enumerate(sentences)),
            )
        )
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


def _cmd_split(args) -> int:
    corpus = load_jsonl(args.input)
    train, val, test = split_corpus(corpus, _parse_ratios(args.ratios), args.seed)
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
        seed=args.seed,
    )
    write_jsonl(corpus, args.output)
    print(f"generated {len(corpus)} documents, {corpus.n_sentences} sentences -> {args.output}")
    return 0


def _read_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise DataError(f"config line {line_no}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


_CONFIG_KEYS = {
    "head": str,
    "context": str,
    "window": str,
    "label_mode": str,
    "positional": str,
    "sin_dim": int,
    "lambda": float,
    "mtl": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "optimizer": str,
    "lr": float,
    "epochs": int,
    "patience": int,
    "seed": int,
    "class_weights": str,
    "lstm_hidden": int,
    "attention_layers": int,
    "gcn_hidden": int,
    "gcn_sim_threshold": float,
    "hash_dim": int,
    "ngram_orders": str,
}


def _train_settings(args) -> dict:
    """Merge precedence: explicit flag > config file > builtin default."""
    file_values: dict = {}
    if args.config:
        raw = _read_config_file(args.config)
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise DataError(f"unknown config key {key!r}")
            try:
                file_values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise DataError(f"config key {key!r} has invalid value {value!r}") from None

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    settings = {
        "head": pick(args.head, "head", "crf"),
        "context": pick(args.context, "context", "bilstm"),
        "window": pick(args.window, "window", "i"),
        "label_mode": pick(args.label_mode, "label_mode", "off"),
        "positional": pick(args.positional, "positional", "normalized"),
        "sin_dim": pick(args.sin_dim, "sin_dim", 8),
        "mtl_lambda": pick(args.mtl_lambda, "lambda", 0.3),
        "mtl": False if args.no_mtl else file_values.get("mtl", True),
        "optimizer": pick(args.optimizer, "optimizer", "adam"),
        "lr": pick(args.lr, "lr", 1e-3),
        "epochs": pick(args.epochs, "epochs", 20),
        "patience": pick(args.patience, "patience", 3),
        "seed": pick(args.seed, "seed", 0),
        "class_weights": pick(args.class_weights, "class_weights", "none"),
        "lstm_hidden": pick(args.lstm_hidden, "lstm_hidden", 32),
        "attention_layers": pick(args.attention_layers, "attention_layers", 1),
        "gcn_hidden": pick(args.gcn_hidden, "gcn_hidden", 128),
        "gcn_sim_threshold": pick(args.gcn_sim_threshold, "gcn_sim_threshold", None),
        "hash_dim": pick(args.hash_dim, "hash_dim", 128),
        "ngram_orders": pick(args.ngram_orders, "ngram_orders", "1,2"),
    }
    return settings


def _parse_ngram_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(v) for v in str(text).split(","))
    except ValueError:
        raise DataError(f"invalid ngram orders {text!r}") from None
    return orders


def _cmd_train(args) -> int:
    s = _train_settings(args)
    train_corpus = load_jsonl(args.input)
    val_corpus = load_jsonl(args.val)
    class_weights = None
    if s["class_weights"] == "auto":
        class_weights = inverse_frequency_weights(train_corpus)
    cfg = TrainConfig(
        head=s["head"],
        context_kind=s["context"],
        window=parse_window_spec(s["window"]),
        positional=s["positional"],
        sin_dim=s["sin_dim"],
        label_mode=s["label_mode"],
        mtl=s["mtl"],
        mtl_lambda=s["mtl_lambda"],
        learning_rate=s["lr"],
        epochs=s["epochs"],
        seed=s["seed"],
        optimizer=s["optimizer"],
        class_weights=class_weights,
        early_stopping_patience=s["patience"],
        lstm_hidden=s["lstm_hidden"],
        attention_layers=s["attention_layers"],
        gcn_hidden=s["gcn_hidden"],
        gcn_sim_threshold=s["gcn_sim_threshold"],
    )
    if args.embeddings:
        matrices = load_embeddings(args.embeddings, train_corpus)
        matrices.update(load_embeddings(args.embeddings, val_corpus))
        dim = next(iter(matrices.values())).shape[1]
        encoder = PrecomputedEncoder(matrices, dim)
    else:
        encoder = HashingEncoder(
            HashEncoderConfig(
                dim=s["hash_dim"],
                ngram_orders=_parse_ngram_orders(s["ngram_orders"]),
                seed=s["seed"],
            )
        )
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
        return PrecomputedEncoder(matrices, bundle.encoder_spec["dim"])
    return bundle.make_encoder()


def _cmd_predict(args) -> int:
    corpus = load_jsonl(args.input)
    bundle = load_checkpoint(args.model)
    encoder = _make_predict_encoder(args, bundle, corpus)
    predictions = [
        predict_document(doc, bundle, mode=args.mode, encoder=encoder) for doc in corpus.documents
    ]
    labeled_docs = []
    for doc, labels in zip(corpus.documents, predictions):
        labeled_docs.append(
            Document(
                doc_id=doc.doc_id,
                sentences=tuple(
                    Sentence(index=s.index, text=s.text, gold=labels[s.index])
                    for s in doc.sentences
                ),
            )
        )
    write_jsonl(Corpus(documents=tuple(labeled_docs)), args.output)
    print(f"predicted {len(labeled_docs)} documents -> {args.output}")
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
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
