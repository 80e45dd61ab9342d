"""Batched inference across documents against the per-document path: the
same labels, bit-identical BiLSTM states, and unchanged training bytes."""

import dataclasses
import zlib

import numpy as np
import pytest

from rhetseg import context, crf, kernels
from rhetseg import train as train_mod
from rhetseg.corpus import Corpus, label_shift_sequence
from rhetseg.encode import HashEncoderConfig, HashingEncoder
from rhetseg.errors import DataError
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    LABEL_MODES,
    TrainConfig,
    build_model,
    predict_document,
    predict_documents,
    save_checkpoint,
    train_model,
)
from test_encode import role_list_features

BASE_DIM = 12
SPEC = {"kind": "hash", "dim": BASE_DIM, "ngram_orders": [1, 2], "seed": 0}


def encoder():
    return HashingEncoder(HashEncoderConfig(dim=BASE_DIM, seed=0))


def mixed_docs():
    """Lengths 1, 2, 13 and 40 in turn over three chunks' worth of documents.
    Chunks are cut from the documents in length order, so each chunk takes
    documents from all over the input, and equal lengths straddle both chunk
    boundaries."""
    n = train_mod._CHUNK_DOCS
    lengths = [(1, 2, 13, 40)[i % 4] for i in range(2 * n + 7)]
    docs = []
    for i, m in enumerate(lengths):
        doc = generate_corpus(1, m, m, noise=0.2, seed=i).documents[0]
        docs.append(dataclasses.replace(doc, doc_id=f"doc{i}"))
    return docs


def random_model(label_mode, kind, head):
    cfg = TrainConfig(label_mode=label_mode, context_kind=kind, head=head, lstm_hidden=6,
                      gcn_hidden=10, window=(-1, 0, 1))
    rng = np.random.default_rng(zlib.crc32(repr((label_mode, kind, head)).encode()))
    bundle = build_model(cfg, SPEC, rng)
    for tensor in bundle.parameter_blocks().values():
        tensor *= 4.0
        tensor += rng.normal(size=tensor.shape)
    return bundle


def context_rows(bundle, X):
    """The context output of one document. The BiLSTM runs as one 2-D kernel
    recurrence per direction, independent of the padded batch path."""
    if bundle.cfg.context_kind != "bilstm":
        return train_mod._context_forward(bundle, X)[0]
    p = bundle.params["bilstm"]
    Hf = kernels.lstm_recurrence(X @ p["fwd.Wx"].T, p["fwd.Wh"], p["fwd.b"])[2]
    Hb = kernels.lstm_recurrence(X[::-1] @ p["bwd.Wx"].T, p["bwd.Wh"], p["bwd.b"])[2]
    return np.hstack([Hf, Hb[::-1]])


def per_document(bundle, doc, enc):
    """The per-document reference: featurize, full context forward pass,
    then Viterbi or argmax on this document alone."""
    X = role_list_features(bundle, enc.encode_document(doc), doc.gold_labels())
    H = context_rows(bundle, X)
    p = bundle.params[bundle.cfg.head]
    if bundle.cfg.head == "crf":
        labels, _ = crf.viterbi_decode(crf.emissions(H, p), p)
    else:
        labels = [int(v) for v in (H @ p["W"] + p["b"]).argmax(axis=1)]
    return X, H, labels


@pytest.mark.parametrize("label_mode", ["off", "gold"])
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", ["none", "bilstm", "attention", "gcn"])
def test_batched_labels_equal_per_document_labels(kind, head, label_mode):
    docs = mixed_docs()
    bundle = random_model(label_mode, kind, head)
    enc = encoder()
    refs = [per_document(bundle, doc, enc) for doc in docs]
    got = predict_documents(docs, bundle, mode="teacher_forced", encoder=enc)
    assert [[int(r) for r in labels] for labels in got] == [labels for _, _, labels in refs]
    assert len({v for _, _, labels in refs for v in labels}) >= 3
    if kind == "bilstm":
        Hs, _ = context.bilstm_forward_batch([X for X, _, _ in refs], bundle.params["bilstm"])
        for H, (_, ref_H, _) in zip(Hs, refs):
            assert np.array_equal(H, ref_H)


@pytest.mark.parametrize("mode", ["free_running", "teacher_forced"])
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", ["none", "bilstm", "attention", "gcn"])
def test_labels_come_back_in_input_order(kind, head, mode):
    """Labels of a corpus over three length-ordered chunks are in input
    order, each equal to predict_document's labels for that document alone."""
    docs = mixed_docs()
    assert len(docs) > 2 * train_mod._CHUNK_DOCS
    assert [len(doc) for doc in docs] != sorted(len(doc) for doc in docs)
    bundle = random_model("gold", kind, head)
    got = predict_documents(docs, bundle, mode=mode, encoder=encoder())
    assert got == [predict_document(doc, bundle, mode=mode, encoder=encoder()) for doc in docs]


@pytest.mark.parametrize("mode", ["free_running", "teacher_forced"])
def test_predict_document_is_a_batch_of_one(mode):
    docs = mixed_docs()[:6]
    bundle = random_model("gold", "bilstm", "crf")
    batch = predict_documents(docs, bundle, mode=mode, encoder=encoder())
    assert batch == [predict_document(doc, bundle, mode=mode, encoder=encoder()) for doc in docs]


@pytest.mark.parametrize("label_mode", LABEL_MODES)
def test_unknown_mode_rejected_for_every_label_mode(label_mode):
    bundle = random_model(label_mode, "bilstm", "crf")
    with pytest.raises(DataError, match="^unknown prediction mode 'bogus'$"):
        predict_documents(mixed_docs()[:3], bundle, mode="bogus", encoder=encoder())


def test_batched_viterbi_equals_per_document_viterbi_on_ties():
    p = dict(W_e=np.zeros((1, 7)), b_e=np.zeros(7), T=np.zeros((7, 7)),
             start=np.zeros(7), end=np.zeros(7))
    p["T"][2, 5] = p["T"][5, 2] = 1.0
    Es = []
    for m in (1, 2, 13, 40, 13):
        E = np.zeros((m, 7))
        E[:, [1, 4, 5]] = 1.0  # three-way ties at every step
        Es.append(E)
    assert crf.viterbi_decode_batch(Es, p) == [crf.viterbi_decode(E, p)[0] for E in Es]


def per_document_chunk(bundle, bases, mode, ys=None):
    """_predict_chunk computed one document at a time, as before batching."""
    out = []
    for base in bases:
        if bundle.cfg.label_mode != "off":
            out.append(train_mod._free_running(bundle, [base])[0][0])
            continue
        H = context_rows(bundle, role_list_features(bundle, base))
        p = bundle.params["crf"]
        out.append(crf.viterbi_decode(crf.emissions(H, p), p)[0])
    return out


@pytest.mark.parametrize("label_mode", ["off", "predicted"])
def test_training_bytes_unchanged_by_batched_validation(tmp_path, monkeypatch, label_mode):
    docs = generate_corpus(40, 1, 18, noise=0.2, seed=9).documents
    train = Corpus(documents=docs[:14])
    val = Corpus(documents=docs[14:])  # more than one chunk
    assert len(val) > train_mod._CHUNK_DOCS
    cfg = TrainConfig(label_mode=label_mode, epochs=3, early_stopping_patience=0, lstm_hidden=5,
                      learning_rate=0.02, seed=1)
    batched, report = train_model(train, val, cfg, encoder())
    save_checkpoint(batched, tmp_path / "batched.json")
    monkeypatch.setattr(train_mod, "_predict_chunk", per_document_chunk)
    reference, ref_report = train_model(train, val, cfg, encoder())
    save_checkpoint(reference, tmp_path / "reference.json")
    assert report.val_macro_f1 == ref_report.val_macro_f1
    assert (tmp_path / "batched.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def per_document_shift_accuracy(bundle, val, base_map):
    """_shift_validation_accuracy one document at a time, as before batching."""
    correct = total = ones = 0
    for doc in val:
        gold = doc.gold_labels()
        bits = label_shift_sequence(gold)
        H = context_rows(bundle, role_list_features(bundle, base_map[doc.doc_id], gold))
        z = H @ bundle.params["shift"]["w"] + bundle.params["shift"]["b"][0]
        correct += int(((z > 0).astype(np.float64) == bits).sum())
        total += len(bits)
        ones += int(bits.sum())
    return correct / total, max(ones, total - ones) / total


@pytest.mark.parametrize("label_mode", ["off", "gold"])
@pytest.mark.parametrize("kind", ["none", "bilstm", "attention", "gcn"])
def test_batched_shift_validation_equals_per_document_loop(kind, label_mode):
    val = Corpus(documents=tuple(mixed_docs()))
    bundle = random_model(label_mode, kind, "crf")
    enc = encoder()
    base_map = {doc.doc_id: enc.encode_document(doc) for doc in val}
    got = train_mod._shift_validation_accuracy(bundle, val, base_map)
    assert got == per_document_shift_accuracy(bundle, val, base_map)
    assert 0.0 < got[0] < 1.0
