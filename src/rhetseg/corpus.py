"""Corpus model and plumbing: JSONL I/O, sentence segmentation, splits, stats.

A corpus is a list of documents; a document is its id, its sentence texts
and, in parallel, each sentence's gold rhetorical role or None, so a
sentence's index is its position. Everything here is immutable after
construction and safe to share across parallel readers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, open_text
from .roles import ROLE_NAMES, RhetoricalRole


@dataclass(frozen=True)
class Document:
    """One judgment: sentence j is texts[j], with gold role labels[j] or None."""

    doc_id: str
    texts: tuple[str, ...]
    labels: tuple[RhetoricalRole | None, ...]

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise DataError("document with empty doc_id")
        if len(self.texts) < 1:
            raise DataError(f"document {self.doc_id!r} has no sentences")
        if len(self.labels) != len(self.texts):
            raise DataError(
                f"document {self.doc_id!r} has {len(self.texts)} texts and {len(self.labels)} labels"
            )
        for j, text in enumerate(self.texts):
            if not isinstance(text, str) or not text.strip():
                raise DataError(f"sentence {j}: text empty after trimming")

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def is_labeled(self) -> bool:
        return None not in self.labels

    def gold_labels(self) -> list[RhetoricalRole]:
        """Gold roles in order; raises if any sentence is unlabeled."""
        if None in self.labels:
            raise DataError(
                f"document {self.doc_id!r}: sentence {self.labels.index(None)} has no gold label"
            )
        return list(self.labels)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise DataError(f"duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @property
    def n_sentences(self) -> int:
        return sum(len(d) for d in self.documents)

    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.documents]


@dataclass(frozen=True)
class CorpusStats:
    n_docs: int
    n_sentences: int
    avg_sentences_per_doc: float
    avg_tokens_per_sentence: float
    per_label_sentence_counts: dict[RhetoricalRole, int]
    per_label_avg_tokens: dict[RhetoricalRole, float]


# Bound once: Python 3.11 looks up every attribute of an Enum class through
# its metaclass's __getattr__ hook, which costs more than the parse.
_parse_role = RhetoricalRole.parse


# A \uD800-\uDFFF escape. JSON decodes one left unpaired to a lone
# surrogate, a str that no UTF-8 output can hold.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_jsonl(path) -> Corpus:
    """Load a corpus from one-JSON-object-per-line, preserving order.

    Labels are accepted as canonical names or integer ids. Errors carry the
    1-based line number of the offending record.
    """
    documents: list[Document] = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {line_no}: malformed JSON ({exc.msg})") from None
            except RecursionError:
                raise DataError(f"line {line_no}: malformed JSON (nesting too deep)") from None
            if _SURROGATE_ESCAPE.search(line):
                try:
                    json.dumps(record, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"line {line_no}: unpaired surrogate escape, not Unicode text") from None
            if not isinstance(record, dict) or "doc_id" not in record:
                raise DataError(f"line {line_no}: record is not an object with 'doc_id'")
            doc_id = record["doc_id"]
            if not isinstance(doc_id, str) or not doc_id:
                raise DataError(f"line {line_no}: doc_id must be a non-empty string")
            if doc_id in seen:
                raise DataError(f"line {line_no}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            raw_sents = record.get("sentences")
            if not isinstance(raw_sents, list) or not raw_sents:
                raise DataError(f"line {line_no}: document {doc_id!r} has no sentences")
            texts, labels = [], []
            for i, obj in enumerate(raw_sents):
                if not isinstance(obj, dict) or "text" not in obj:
                    raise DataError(f"line {line_no}: sentence {i} of {doc_id!r} is not an object with 'text'")
                text = obj["text"]
                if not isinstance(text, str):
                    raise DataError(f"line {line_no}: sentence {i} of {doc_id!r} has non-string text")
                label = obj.get("label")
                if label is not None:
                    try:
                        label = _parse_role(label)
                    except DataError as exc:
                        raise DataError(f"line {line_no}: {exc}") from None
                if not text.strip():  # as Document checks, but before a later sentence's error
                    raise DataError(f"line {line_no}: sentence {i}: text empty after trimming")
                texts.append(text)
                labels.append(label)
            documents.append(Document(doc_id, tuple(texts), tuple(labels)))
    if not documents:
        raise DataError("empty corpus")
    return Corpus(documents=tuple(documents))


def write_jsonl(corpus: Corpus, path, labels=None) -> None:
    """Write the canonical schema; the label key is always present. labels,
    one role list per document, stand in for the gold roles."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, doc in enumerate(corpus):
            roles = doc.labels if labels is None else labels[k]
            sentences = [{"text": text, "label": None if r is None else ROLE_NAMES[r]}
                         for text, r in zip(doc.texts, roles)]
            fh.write(json.dumps({"doc_id": doc.doc_id, "sentences": sentences}, ensure_ascii=False) + "\n")


# Sentence boundary: terminal punctuation, whitespace, then uppercase/digit.
_BOUNDARY = re.compile(r"([.?!]+)(\s+)(?=[A-Z0-9])")
_PARAGRAPH = re.compile(r"\n[^\S\n]*\n\s*")
_ABBREVIATIONS = frozenset(
    {"Mr.", "Mrs.", "Dr.", "No.", "vs.", "Sec.", "Art.", "Hon.", "Ors.", "Anr."}
)
_INITIAL = re.compile(r"(?:^|[\s(\[\"'])[A-Za-z]\.$")


def _split_paragraph(par: str) -> list[str]:
    out = []
    start = 0
    for match in _BOUNDARY.finditer(par):
        token_end = match.end(1)
        prefix = par[:token_end]
        prev_token = prefix.rsplit(None, 1)[-1] if prefix.strip() else ""
        if prev_token in _ABBREVIATIONS or (_INITIAL.search(prefix) and len(prev_token) == 2):
            continue
        candidate = par[start:token_end].strip()
        if candidate:
            out.append(candidate)
        start = match.end()
    tail = par[start:].strip()
    if tail:
        out.append(tail)
    return out


def segment_text(raw: str) -> list[str]:
    """Rule-based sentence segmentation.

    Paragraph breaks (blank lines) are always boundaries. Within a paragraph,
    a run of terminal punctuation followed by whitespace and an uppercase
    letter or digit opens a boundary, unless the preceding token is a known
    abbreviation or a single-letter initial. Non-whitespace characters are
    preserved in order.
    """
    sentences: list[str] = []
    for par in _PARAGRAPH.split(raw):
        if par.strip():
            sentences.extend(_split_paragraph(par))
    return sentences


def split_corpus(
    corpus: Corpus, ratios: tuple[float, float, float], seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Partition by document into train/validation/test.

    Sizes are floor(n*r_train) and floor(n*r_val) with the remainder going to
    test. A tiny epsilon guards against products like 7120*0.7 landing one ulp
    below the exact integer.
    """
    r_train, r_val, r_test = ratios
    if not all(map(math.isfinite, ratios)) or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must be positive and sum to 1, got {ratios}")
    n = len(corpus)
    if n < 3 and all(r > 0 for r in ratios):
        raise DataError("corpus too small to split")
    n_train = math.floor(n * r_train + 1e-9)
    n_val = math.floor(n * r_val + 1e-9)
    n_test = n - n_train - n_val
    if n_test < 0:
        n_val += n_test
        n_test = 0
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    docs = corpus.documents
    train = tuple(docs[i] for i in order[:n_train])
    val = tuple(docs[i] for i in order[n_train : n_train + n_val])
    test = tuple(docs[i] for i in order[n_train + n_val :])
    return Corpus(documents=train), Corpus(documents=val), Corpus(documents=test)


def compute_stats(corpus: Corpus) -> CorpusStats:
    from .encode import tokenize

    n_docs = len(corpus)
    n_sentences = 0
    total_tokens = 0
    counts = {role: 0 for role in RhetoricalRole}
    token_sums = {role: 0 for role in RhetoricalRole}
    for doc in corpus:
        n_sentences += len(doc)
        for text, label in zip(doc.texts, doc.labels):
            n_tok = len(tokenize(text))
            total_tokens += n_tok
            if label is not None:
                counts[label] += 1
                token_sums[label] += n_tok
    return CorpusStats(
        n_docs=n_docs,
        n_sentences=n_sentences,
        avg_sentences_per_doc=n_sentences / n_docs if n_docs else 0.0,
        avg_tokens_per_sentence=total_tokens / n_sentences if n_sentences else 0.0,
        per_label_sentence_counts=counts,
        per_label_avg_tokens={
            role: (token_sums[role] / counts[role] if counts[role] else 0.0)
            for role in RhetoricalRole
        },
    )


def label_shift_sequence(labels) -> np.ndarray:
    """Float64 segment-boundary bits of a role or role-id sequence: bits[j] = 1
    iff the role changes at j; bits[0] = 1 by convention."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size == 0:
        raise DataError("cannot compute shifts of an empty label list")
    return np.concatenate([[1.0], y[1:] != y[:-1]])
