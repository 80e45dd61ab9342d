"""Span tracer and call-site wrappers for the rhetseg layers.

The wrappers replace module and class attributes at the places where the
program looks them up at call time (for example ``rhetseg.cli.load_jsonl``,
which cli imported by name, and ``rhetseg.kernels.lstm_recurrence``, which
context reads through the module). Nothing under ``src/`` changes. Each
wrapped call records one span; a span's self time is its duration minus the
durations of its direct children, so self times over every span of a root
add up to the root's duration.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

from rhetseg.encode import tokenize

ROOT = "iteration"
PREDICT_DOCUMENT = "train.predict_document"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name. Spans are properly nested and a
    span's children run one after another, so the part of a span covered by
    its children is the sum of the children's durations."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, c in zip(spans, covered):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
    return out


class Tracer:
    """Keeps every span and counter in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.encoded_docs: dict[int, list] = {}  # id(doc) -> [doc, ngram orders, times encoded]
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def ngram_counts(self) -> tuple[int, int]:
        """(n-gram occurrences over every encode call, distinct n-grams), both
        counted from outside the encoder with the package's own tokenizer."""
        occurrences = 0
        distinct: set[str] = set()
        for doc, orders, times in self.encoded_docs.values():
            for sent in doc.sentences:
                tokens = tokenize(sent.text)
                for order in orders:
                    for j in range(len(tokens) - order + 1):
                        distinct.add(f"{order}:" + " ".join(tokens[j : j + order]))
                        occurrences += times
        return occurrences, len(distinct)


# ---------------------------------------------------------------------------
# Counters taken from call arguments and results. Operation counts are
# computed from argument shapes, not measured.
# ---------------------------------------------------------------------------


def _count_corpus(tracer, name, args, result):
    tracer.count(f"{name}.sentences", result.n_sentences)


def _count_encode(tracer, name, args, result):
    encoder, doc = args[0], args[1]
    tracer.count(f"{name}.sentences", len(doc))
    entry = tracer.encoded_docs.setdefault(id(doc), [doc, tuple(encoder.cfg.ngram_orders), 0])
    entry[2] += 1


def _count_context_fwd(tracer, name, args, result):
    rows = args[0].shape[0]
    tracer.count(f"{name}.rows", rows)
    if tracer.inside(PREDICT_DOCUMENT):
        tracer.count("context.fwd.rows_in_predict", rows)


def _count_predict(tracer, name, args, result):
    tracer.count(f"{name}.sentences", len(args[0]))


def _count_lstm(tracer, name, args, result):
    rows, h = args[0].shape[0], args[1].shape[1]  # XW (m, 4h) and Wh (4h, h)
    tracer.count(f"{name}.rows", rows)
    tracer.count(f"{name}.macs", rows * 4 * h * h)


def _count_lstm_backward(tracer, name, args, result):
    rows, h = args[1].shape  # C (m, h)
    tracer.count(f"{name}.rows", rows)
    tracer.count(f"{name}.macs", rows * 4 * h * h)


def _count_crf(tracer, name, args, result):
    rows, k = args[0].shape  # E (m, K)
    tracer.count(f"{name}.rows", rows)
    tracer.count(f"{name}.macs", rows * k * k)


KERNELS = ("lstm_recurrence", "lstm_recurrence_backward", "crf_forward", "crf_backward", "crf_viterbi")
CONTEXT_KINDS = ("bilstm", "attention", "gcn")

# (owner, attribute, span name, counter). The owner is a module path, or a
# module path and a class name joined by ":".
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("rhetseg.cli", "main", "cli.main", None),
    ("rhetseg.cli", "load_jsonl", "corpus.load_jsonl", _count_corpus),
    ("rhetseg.cli", "write_jsonl", "corpus.write_jsonl", None),
    ("rhetseg.encode:HashingEncoder", "encode_document", "encode.encode_document", _count_encode),
    ("rhetseg.train", "featurize", "encode.featurize", None),
    ("rhetseg.context", "bilstm_forward_cache", "context.fwd.bilstm", _count_context_fwd),
    ("rhetseg.context", "attention_stack_forward_cache", "context.fwd.attention", _count_context_fwd),
    ("rhetseg.context", "gcn_forward_cache", "context.fwd.gcn", _count_context_fwd),
    ("rhetseg.context", "bilstm_backward", "context.bwd.bilstm", None),
    ("rhetseg.context", "attention_stack_backward", "context.bwd.attention", None),
    ("rhetseg.context", "gcn_backward", "context.bwd.gcn", None),
    ("rhetseg.context", "build_graph", "context.build_graph", None),
    ("rhetseg.kernels", "lstm_recurrence", "kernels.lstm_recurrence", _count_lstm),
    ("rhetseg.kernels", "lstm_recurrence_backward", "kernels.lstm_recurrence_backward", _count_lstm_backward),
    ("rhetseg.kernels", "crf_forward", "kernels.crf_forward", _count_crf),
    ("rhetseg.kernels", "crf_backward", "kernels.crf_backward", _count_crf),
    ("rhetseg.kernels", "crf_viterbi", "kernels.crf_viterbi", _count_crf),
    ("rhetseg.crf", "emissions", "crf.emissions", None),
    ("rhetseg.crf", "nll_and_grad", "crf.nll_and_grad", None),
    ("rhetseg.crf", "viterbi_decode", "crf.viterbi_decode", None),
    ("rhetseg.cli", "train_model", "train.train_model", None),
    ("rhetseg.train", "document_loss_and_grads", "train.document_loss_and_grads", None),
    ("rhetseg.train:_Adam", "step", "train.optimizer_step", None),
    ("rhetseg.train:_Sgd", "step", "train.optimizer_step", None),
    ("rhetseg.train", "_validation_macro_f1", "train.validate", None),
    ("rhetseg.train", "_shift_validation_accuracy", "train.validate", None),
    ("rhetseg.cli", "save_checkpoint", "train.save_checkpoint", None),
    ("rhetseg.cli", "load_checkpoint", "train.load_checkpoint", None),
    ("rhetseg.train", "load_checkpoint", "train.load_checkpoint", None),
    ("rhetseg.cli", "predict_document", PREDICT_DOCUMENT, _count_predict),
    ("rhetseg.train", "predict_document", PREDICT_DOCUMENT, _count_predict),
    ("rhetseg.cli", "confusion", "metrics.confusion", None),
    ("rhetseg.cli", "compute_report", "metrics.compute_report", None),
    ("rhetseg.cli", "emit_report", "metrics.emit_report", None),
    ("rhetseg.train", "confusion", "metrics.confusion", None),
    ("rhetseg.train", "macro_prf", "metrics.macro_prf", None),
)


def resolve_owner(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _wrap(tracer: Tracer, name: str, fn, counter):
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if counter is not None:
            counter(tracer, name, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


class Wrappers:
    """Installs a traced wrapper at every call site in TARGETS; remove()
    puts back the exact objects that were there."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every target that exists and list the others in `missing`, so
        a renamed function shows up as missing instead of as zero time."""
        for owner_path, attr, name, counter in self.targets:
            try:
                owner = resolve_owner(owner_path)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, name, original, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def span_cost(n: int = 20000) -> float:
    """Seconds a wrapper adds to one call, estimated by timing a wrapped and a
    bare no-op call under a scratch tracer."""

    def noop():
        return None

    wrapped = _wrap(Tracer(), "noop", noop, None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (time.perf_counter() - t0 - bare) / n)
