"""load_jsonl against the reader it replaced, which built one Sentence object
per sentence: on damaged corpora both give the same documents or the same
error line."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetseg.corpus import load_jsonl, write_jsonl
from rhetseg.errors import DataError, open_text
from rhetseg.roles import RhetoricalRole
from rhetseg.synth import generate_corpus
from test_cli import MUTATIONS, mutate

# ---------------------------------------------------------------------------
# The reference: the Sentence-per-sentence model and reader, as they were.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sentence:
    index: int
    text: str
    gold: RhetoricalRole | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.text, str) or not self.text.strip():
            raise DataError(f"sentence {self.index}: text empty after trimming")
        if self.index < 0:
            raise DataError(f"negative sentence index {self.index}")


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise DataError("document with empty doc_id")
        if len(self.sentences) < 1:
            raise DataError(f"document {self.doc_id!r} has no sentences")
        for pos, sent in enumerate(self.sentences):
            if sent.index != pos:
                raise DataError(
                    f"document {self.doc_id!r}: sentence index {sent.index} at position {pos}"
                )


def _sentence_from_obj(obj, doc_id: str, index: int, line_no: int) -> Sentence:
    if not isinstance(obj, dict) or "text" not in obj:
        raise DataError(f"line {line_no}: sentence {index} of {doc_id!r} is not an object with 'text'")
    text = obj["text"]
    if not isinstance(text, str):
        raise DataError(f"line {line_no}: sentence {index} of {doc_id!r} has non-string text")
    raw_label = obj.get("label")
    gold = None
    if raw_label is not None:
        try:
            gold = RhetoricalRole.parse(raw_label)
        except DataError as exc:
            raise DataError(f"line {line_no}: {exc}") from None
    try:
        return Sentence(index=index, text=text, gold=gold)
    except DataError as exc:
        raise DataError(f"line {line_no}: {exc}") from None


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def reference_load_jsonl(path) -> list[Document]:
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
            sentences = tuple(
                _sentence_from_obj(s, doc_id, i, line_no) for i, s in enumerate(raw_sents)
            )
            documents.append(Document(doc_id=doc_id, sentences=sentences))
    if not documents:
        raise DataError("empty corpus")
    return documents


# ---------------------------------------------------------------------------


def outcome(read, path):
    """Every document as (doc_id, texts, labels), or the error's type and line."""
    try:
        return read(path)
    except Exception as exc:  # any exception type is compared, not only DataError
        return type(exc).__name__, str(exc)


def read_new(path):
    return [(doc.doc_id, doc.texts, doc.labels) for doc in load_jsonl(path)]


def read_reference(path):
    return [(doc.doc_id, tuple(s.text for s in doc.sentences), tuple(s.gold for s in doc.sentences))
            for doc in reference_load_jsonl(path)]


@pytest.fixture(scope="module")
def corpus_lines(tmp_path_factory):
    """The lines of the corpus test_cli's mutation test damages, and a path for the damaged copy."""
    root = tmp_path_factory.mktemp("loader_oracle")
    write_jsonl(generate_corpus(4, 2, 3, seed=5), root / "corpus.jsonl")
    return (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines(), root / "bad.jsonl"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3), one_record=st.booleans())
@example(mutations=[(0, 0, ("set", "text", "  ")), (0, 1, ("set", "label", "Bogus"))], one_record=True)
@example(mutations=[(1, 1, ("delete", "text")), (1, 0, ("set", "text", ""))], one_record=True)
@example(mutations=[(2, 0, ("set", "text", " ")), (2, 0, ("set", "label", 7))], one_record=True)
def test_loader_matches_the_sentence_reader(corpus_lines, mutations, one_record):
    """Up to three damages per corpus, with one_record all in the first one's
    record, so that errors in two places of one record show which is reported
    first. A damage that an earlier one left no place for (its record or
    sentence is gone) is skipped."""
    good, bad = corpus_lines
    lines = list(good)
    for k, j, change in mutations:
        try:
            mutate(lines, mutations[0][0] if one_record else k, j, change)
        except (ValueError, LookupError, TypeError):
            pass
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outcome(read_new, bad) == outcome(read_reference, bad)
