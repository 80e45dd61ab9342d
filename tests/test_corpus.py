"""Corpus model, JSONL round trips, segmentation, splits, and stats."""

import json
import re

import numpy as np
import pytest

from rhetseg.corpus import (
    Corpus,
    Document,
    compute_stats,
    label_shift_sequence,
    load_jsonl,
    segment_text,
    split_corpus,
    write_jsonl,
)
from rhetseg.errors import DataError
from rhetseg.roles import ROLE_NAMES, RhetoricalRole
from rhetseg.synth import generate_corpus
from test_roles import if_chain_parse


def make_doc(doc_id, texts, labels=None):
    roles = (None,) * len(texts) if labels is None else tuple(RhetoricalRole(v) for v in labels)
    return Document(doc_id=doc_id, texts=tuple(texts), labels=roles)


class TestModel:
    def test_sentence_rejects_empty_text(self):
        for text in ("   ", "", None):
            with pytest.raises(DataError, match=r"^sentence 1: text empty after trimming$"):
                Document(doc_id="d", texts=("a", text), labels=(None, None))

    def test_document_requires_sentences_and_one_label_each(self):
        with pytest.raises(DataError, match=r"^document 'd' has no sentences$"):
            Document(doc_id="d", texts=(), labels=())
        with pytest.raises(DataError, match=r"^document 'd' has 2 texts and 1 labels$"):
            Document(doc_id="d", texts=("a", "b"), labels=(None,))
        with pytest.raises(DataError, match=r"^document with empty doc_id$"):
            Document(doc_id="", texts=("a",), labels=(None,))

    def test_gold_labels_names_the_gap(self):
        doc = Document(doc_id="d1", texts=("a", "b"), labels=(RhetoricalRole.FACTS, None))
        assert not doc.is_labeled
        with pytest.raises(DataError, match=r"'d1'.*sentence 1"):
            doc.gold_labels()

    def test_corpus_rejects_duplicate_ids(self):
        doc = make_doc("same", ["x."])
        with pytest.raises(DataError, match="duplicate"):
            Corpus(documents=(doc, make_doc("same", ["y."])))

    def test_corpus_counts(self):
        c = Corpus(documents=(make_doc("a", ["x.", "y."]), make_doc("b", ["z."])))
        assert len(c) == 2
        assert c.n_sentences == 3
        assert c.doc_ids() == ["a", "b"]


class TestJsonl:
    def test_round_trip_preserves_everything(self, tmp_path):
        corpus = generate_corpus(12, 3, 9, noise=0.2, seed=42)
        path = tmp_path / "c.jsonl"
        write_jsonl(corpus, path)
        back = load_jsonl(path)
        assert back.doc_ids() == corpus.doc_ids()
        for a, b in zip(corpus, back):
            assert a.texts == b.texts
            assert a.labels == b.labels

    def test_written_records_use_canonical_names(self, tmp_path):
        doc = make_doc("d", ["first.", "second."], labels=[1, 6])
        path = tmp_path / "c.jsonl"
        write_jsonl(Corpus(documents=(doc,)), path)
        record = json.loads(path.read_text().splitlines()[0])
        assert [s["label"] for s in record["sentences"]] == ["Facts", "Decision"]

    def test_unlabeled_sentences_round_trip_as_null(self, tmp_path):
        doc = make_doc("d", ["only sentence."])
        path = tmp_path / "c.jsonl"
        write_jsonl(Corpus(documents=(doc,)), path)
        assert json.loads(path.read_text())["sentences"][0]["label"] is None
        assert load_jsonl(path).documents[0].labels == (None,)

    def test_integer_labels_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d", "sentences": [{"text": "x", "label": 5}]}\n')
        assert load_jsonl(path).documents[0].labels[0] is RhetoricalRole.REASONING

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = '{"doc_id": "a", "sentences": [{"text": "x", "label": "Facts"}]}'
        bad = '{"doc_id": "b", "sentences": [{"text": "y", "label": "Fact"}]}'
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataError, match=r"line 2.*'Fact'"):
            load_jsonl(path)

    def test_malformed_json_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "sentences": [{"text": "x"}]}\n{oops\n')
        with pytest.raises(DataError, match="line 2"):
            load_jsonl(path)

    def test_duplicate_doc_id_across_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = '{"doc_id": "a", "sentences": [{"text": "x"}]}'
        path.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(DataError, match=r"line 2: duplicate doc_id 'a'"):
            load_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="empty corpus"):
            load_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\n{"doc_id": "a", "sentences": [{"text": "x"}]}\n\n')
        assert load_jsonl(path).doc_ids() == ["a"]


class TestSegmentation:
    def test_plain_two_sentences(self):
        got = segment_text("The court held as follows. The appeal is dismissed.")
        assert got == ["The court held as follows.", "The appeal is dismissed."]

    def test_abbreviation_does_not_split(self):
        got = segment_text("Mr. Prasad appeared for the Revenue.")
        assert got == ["Mr. Prasad appeared for the Revenue."]

    def test_abbreviation_mid_sentence(self):
        got = segment_text("Heard Dr. Rao at length. No. 42 of 1998 was cited.")
        assert got == ["Heard Dr. Rao at length.", "No. 42 of 1998 was cited."]

    def test_single_letter_initials(self):
        got = segment_text("Counsel J. Sharma argued first. The bench agreed.")
        assert got == ["Counsel J. Sharma argued first.", "The bench agreed."]

    def test_question_and_exclamation(self):
        got = segment_text("Was the order valid? It was not! The matter ends.")
        assert got == ["Was the order valid?", "It was not!", "The matter ends."]

    def test_digits_open_sentences(self):
        got = segment_text("The section applies. 42 petitions were filed.")
        assert got == ["The section applies.", "42 petitions were filed."]

    def test_lowercase_continuation_does_not_split(self):
        got = segment_text("The act of 1961 i.e. the statute applies here.")
        assert got == ["The act of 1961 i.e. the statute applies here."]

    def test_empty_and_whitespace(self):
        assert segment_text("") == []
        assert segment_text("  \n \n\t ") == []

    def test_paragraph_break_always_splits(self):
        got = segment_text("heading without punctuation\n\nthe operative part")
        assert got == ["heading without punctuation", "the operative part"]

    def test_paragraph_break_matches_inline_result(self):
        # a blank line can only add boundaries, never remove them
        inline = segment_text("First point. Second point.")
        split = segment_text("First point.\n\nSecond point.")
        assert split == inline

    def test_non_whitespace_preserved_in_order(self):
        rng = np.random.default_rng(7)
        words = ["The", "court", "vs.", "Mr.", "order", "No.", "applies", "42",
                 "He", "said", "it?", "Done!", "appeal."]
        for _ in range(50):
            n = int(rng.integers(1, 30))
            text = " ".join(words[i] for i in rng.integers(0, len(words), size=n))
            joined = "".join(segment_text(text).__iter__())
            assert re.sub(r"\s+", "", joined) == re.sub(r"\s+", "", text)


class TestSplit:
    def one_liner_corpus(self, n):
        return Corpus(documents=tuple(make_doc(f"d{i:05d}", ["x."]) for i in range(n)))

    def test_sizes_at_published_scale(self):
        # floor(7120*0.7)=4984, floor(7120*0.2)=1424, remainder 712
        corpus = self.one_liner_corpus(7120)
        tr, va, te = split_corpus(corpus, (0.7, 0.2, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (4984, 1424, 712)

    def test_sizes_small(self):
        tr, va, te = split_corpus(self.one_liner_corpus(10), (0.7, 0.2, 0.1), seed=3)
        assert (len(tr), len(va), len(te)) == (7, 2, 1)

    def test_partition_is_disjoint_and_complete(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 60))
            corpus = self.one_liner_corpus(n)
            tr, va, te = split_corpus(corpus, (0.6, 0.2, 0.2), seed=int(rng.integers(1000)))
            ids = tr.doc_ids() + va.doc_ids() + te.doc_ids()
            assert len(ids) == n
            assert sorted(ids) == sorted(corpus.doc_ids())

    def test_same_seed_same_split(self):
        corpus = self.one_liner_corpus(40)
        a = split_corpus(corpus, (0.7, 0.2, 0.1), seed=9)
        b = split_corpus(corpus, (0.7, 0.2, 0.1), seed=9)
        for x, y in zip(a, b):
            assert x.doc_ids() == y.doc_ids()
        c = split_corpus(corpus, (0.7, 0.2, 0.1), seed=10)
        assert any(x.doc_ids() != y.doc_ids() for x, y in zip(a, c))

    def test_bad_ratios_rejected(self):
        corpus = self.one_liner_corpus(10)
        with pytest.raises(DataError):
            split_corpus(corpus, (0.7, 0.2, 0.2), seed=0)
        with pytest.raises(DataError):
            split_corpus(corpus, (-0.1, 0.6, 0.5), seed=0)

    def test_too_small_corpus(self):
        with pytest.raises(DataError, match="too small"):
            split_corpus(self.one_liner_corpus(2), (0.7, 0.2, 0.1), seed=0)


class TestStats:
    def test_against_naive_recount(self):
        from rhetseg.encode import tokenize

        corpus = generate_corpus(8, 4, 10, noise=0.3, seed=17)
        stats = compute_stats(corpus)

        texts = [t for d in corpus for t in d.texts]
        labels = [r for d in corpus for r in d.labels]
        assert stats.n_docs == 8
        assert stats.n_sentences == len(texts)
        assert stats.avg_sentences_per_doc == pytest.approx(len(texts) / 8)
        tok = [len(tokenize(t)) for t in texts]
        assert stats.avg_tokens_per_sentence == pytest.approx(sum(tok) / len(tok))
        for role in RhetoricalRole:
            mine = [n for n, lab in zip(tok, labels) if lab is role]
            assert stats.per_label_sentence_counts[role] == len(mine)
            want = sum(mine) / len(mine) if mine else 0.0
            assert stats.per_label_avg_tokens[role] == pytest.approx(want)

    def test_fixed_small_corpus(self):
        doc = make_doc("d", ["one two three.", "four five.", "six."], labels=[1, 1, 6])
        stats = compute_stats(Corpus(documents=(doc,)))
        assert stats.n_sentences == 3
        assert stats.avg_tokens_per_sentence == pytest.approx((4 + 3 + 2) / 3)
        assert stats.per_label_sentence_counts[RhetoricalRole.FACTS] == 2
        assert stats.per_label_avg_tokens[RhetoricalRole.FACTS] == pytest.approx(3.5)
        assert stats.per_label_avg_tokens[RhetoricalRole.ISSUE] == 0.0


class TestShiftSequence:
    def test_first_bit_always_one(self):
        R = RhetoricalRole
        bits = label_shift_sequence([R.FACTS])
        assert bits.dtype == np.float64
        assert np.array_equal(bits, [1.0])

    def test_changes_marked(self):
        R = RhetoricalRole
        bits = label_shift_sequence([R.FACTS, R.FACTS, R.ISSUE, R.ISSUE, R.FACTS])
        assert bits.dtype == np.float64
        assert np.array_equal(bits, [1.0, 0.0, 1.0, 0.0, 1.0])

    def test_matches_pairwise_comparison(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            labels = [RhetoricalRole(int(v)) for v in rng.integers(0, 7, size=rng.integers(1, 15))]
            for seq in (labels, np.array(labels, dtype=np.int64)):
                bits = label_shift_sequence(seq)
                assert bits.dtype == np.float64 and bits.shape == (len(labels),)
                assert bits[0] == 1.0
                for j in range(1, len(labels)):
                    assert bits[j] == float(labels[j] != labels[j - 1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            label_shift_sequence([])


# Labels a JSON record may carry: every valid name and id, values that hash
# like an id (True, 1.0), near-miss names, out-of-range ids and other types.
LABEL_VALUES = [*ROLE_NAMES, *range(len(ROLE_NAMES)), True, False, 1.0, 0.0, -1, 7, 2**70,
                "facts", "Facts", "FACTS", " Facts", "", "1", [], {}, None, float("nan")]


def parsed(parse, value):
    """The role, or the DataError message."""
    try:
        return parse(value)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("value", LABEL_VALUES, ids=repr)
def test_label_lookup_matches_role_parse(value):
    """RhetoricalRole.parse's dict lookup against the if-chain it replaced."""
    got, ref = parsed(RhetoricalRole.parse, value), parsed(if_chain_parse, value)
    assert got == ref and type(got) is type(ref)


@pytest.mark.parametrize("value", LABEL_VALUES, ids=repr)
def test_loaded_label_or_error_line_matches_role_parse(tmp_path, value):
    """load_jsonl gives each label's role, or the error line that
    RhetoricalRole.parse's message makes, with its line number."""
    path = tmp_path / "corpus.jsonl"
    record = {"doc_id": "d", "sentences": [{"text": "A.", "label": "Facts"}, {"text": "B.", "label": value}]}
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    ref = None if value is None else parsed(RhetoricalRole.parse, value)
    if isinstance(ref, str):
        with pytest.raises(DataError) as exc:
            load_jsonl(path)
        assert str(exc.value) == f"line 2: {ref}"
    else:
        assert load_jsonl(path).documents[0].labels[1] == ref
