import numpy as np
import pytest

from rhetseg.errors import DataError
from rhetseg.roles import RhetoricalRole
from rhetseg.synth import generate_corpus


def test_shapes_and_ids():
    corpus = generate_corpus(5, 8, 12, seed=0)
    assert len(corpus) == 5
    assert corpus.doc_ids() == [f"synth-{d:04d}" for d in range(5)]
    for doc in corpus:
        assert 8 <= len(doc) <= 12
        assert doc.is_labeled


def test_same_seed_identical_corpora():
    a = generate_corpus(6, 5, 9, noise=0.2, seed=3)
    b = generate_corpus(6, 5, 9, noise=0.2, seed=3)
    for da, db in zip(a, b):
        assert da.texts == db.texts
        assert da.gold_labels() == db.gold_labels()
    c = generate_corpus(6, 5, 9, noise=0.2, seed=4)
    assert any(x.texts != y.texts for x, y in zip(a, c))


def test_core_roles_follow_document_order():
    # once None sentences are removed, labels 1..6 appear in fixed order
    corpus = generate_corpus(20, 10, 16, seed=1)
    for doc in corpus:
        core = [int(g) for g in doc.gold_labels() if g is not RhetoricalRole.NONE]
        assert sorted(core) == core
        assert set(core) == {1, 2, 3, 4, 5, 6}


def test_every_role_present_when_long_enough():
    corpus = generate_corpus(10, 7, 7, seed=2)
    for doc in corpus:
        labels = set(int(g) for g in doc.gold_labels())
        assert {1, 2, 3, 4, 5, 6} <= labels


def test_none_fraction_tracks_request():
    corpus = generate_corpus(40, 20, 30, seed=5)
    labels = [int(g) for d in corpus for g in d.gold_labels()]
    frac = labels.count(0) / len(labels)
    assert 0.08 <= frac <= 0.27


def test_noise_zero_keeps_keywords_on_label():
    corpus = generate_corpus(8, 8, 14, noise=0.0, seed=6)
    stems = ["none", "facts", "issue", "petitioner", "respondent", "reasoning", "decision"]
    for doc in corpus:
        for text, label in zip(doc.texts, doc.labels):
            stem = stems[int(label)]
            keywords = [t for t in text.split() if "kw" in t]
            assert keywords
            assert all(t.startswith(stem) for t in keywords)


def test_noise_one_not_allowed():
    with pytest.raises(DataError):
        generate_corpus(2, 5, 8, noise=1.0)
    with pytest.raises(DataError):
        generate_corpus(2, 5, 8, noise=-0.1)
    with pytest.raises(DataError):
        generate_corpus(0, 5, 8)
    with pytest.raises(DataError):
        generate_corpus(2, 9, 8)


def test_noise_swaps_some_keywords():
    clean = generate_corpus(10, 10, 14, noise=0.0, seed=7)
    noisy = generate_corpus(10, 10, 14, noise=0.4, seed=7)
    stems = ["none", "facts", "issue", "petitioner", "respondent", "reasoning", "decision"]

    def off_label(corpus):
        wrong = total = 0
        for doc in corpus:
            for text, label in zip(doc.texts, doc.labels):
                stem = stems[int(label)]
                for tok in text.split():
                    if "kw" in tok:
                        total += 1
                        wrong += not tok.startswith(stem)
        return wrong / total

    assert off_label(clean) == 0.0
    assert off_label(noisy) > 0.2


def test_vocab_sizes_respected():
    corpus = generate_corpus(10, 8, 12, role_vocab=4, filler_vocab=5, seed=8)
    fillers = set()
    kw_index = set()
    for doc in corpus:
        for text in doc.texts:
            for tok in text.rstrip(".").split():
                if "kw" in tok:
                    kw_index.add(int(tok.split("kw")[1]))
                else:
                    fillers.add(tok)
    assert kw_index <= set(range(4))
    assert len(fillers) <= 5
    assert all(f.startswith("filler") for f in fillers)


def test_label_sequences_vary_across_documents():
    corpus = generate_corpus(12, 9, 9, seed=9)
    seqs = {tuple(int(g) for g in d.gold_labels()) for d in corpus}
    assert len(seqs) > 1
