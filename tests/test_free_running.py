"""Free-running decoding: the one-row-per-sentence path against the
re-encode-per-sentence reference, its call counts, and its numeric checks."""

import json
import zlib

import numpy as np
import pytest

from rhetseg import context, kernels
from rhetseg import train as train_mod
from rhetseg.cli import main
from rhetseg.corpus import Corpus, write_jsonl
from rhetseg.encode import HashEncoderConfig, HashingEncoder
from rhetseg.errors import NumericError
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    TrainConfig,
    build_model,
    predict_document,
    save_checkpoint,
    train_model,
)

BASE_DIM = 12
SPEC = {"kind": "hash", "dim": BASE_DIM, "ngram_orders": [1], "seed": 0, "signed": True}
WINDOWS = [(0,), (-2, -1, 0, 1)]
POSITIONAL = ["none", "normalized", "sinusoidal"]
LENGTHS = (1, 2, 3, 37)


def random_model(seed, **overrides):
    """A label_mode=gold model whose weights are scaled up so the previous
    label moves the scores and several labels win."""
    cfg = TrainConfig(label_mode="gold", lstm_hidden=6, gcn_hidden=10, **overrides)
    rng = np.random.default_rng(seed)
    bundle = build_model(cfg, SPEC, rng)
    for tensor in bundle.parameter_blocks().values():
        tensor *= 4.0
        tensor += rng.normal(size=tensor.shape)
    return bundle, rng


@pytest.mark.parametrize("positional", POSITIONAL)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", ["none", "bilstm", "attention", "gcn"])
def test_row_decode_matches_reencode(kind, head, window, positional):
    seed = zlib.crc32(repr((kind, head, window, positional)).encode())
    bundle, rng = random_model(seed, context_kind=kind, head=head, window=window,
                               positional=positional)
    for m in LENGTHS:
        base = rng.normal(size=(m, BASE_DIM))
        labels, scores = train_mod._free_running(bundle, base)
        ref_labels, ref_scores = train_mod._free_running_reencode(bundle, base)
        assert labels == ref_labels
        np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-10)
        if m == 37:
            assert len(set(labels)) >= 3


@pytest.mark.parametrize("overrides", [
    dict(context_kind="attention", attention_layers=2),
    dict(context_kind="gcn", gcn_sim_threshold=0.1),
])
def test_configurations_without_row_encoder_keep_reencode(overrides):
    bundle, rng = random_model(11, **overrides)
    base = rng.normal(size=(9, BASE_DIM))
    labels, scores = train_mod._free_running(bundle, base)
    ref_labels, ref_scores = train_mod._free_running_reencode(bundle, base)
    assert labels == ref_labels
    assert np.array_equal(scores, ref_scores)


def test_lstm_cell_step_reproduces_recurrence():
    rng = np.random.default_rng(4)
    h, m = 5, 23
    p = context.init_lstm_params(7, h, rng)
    p.Wh *= 3.0
    XW = rng.normal(size=(m, 4 * h)) * 4.0
    XW[5] *= 100.0  # past the +-60 pre-activation clip
    _, C, H = kernels.lstm_recurrence(XW, p.Wh, p.b)
    h_t, c_t = np.zeros(h), np.zeros(h)
    for t in range(m):
        h_t, c_t = context.lstm_cell_step(XW[t], h_t, c_t, p)
        np.testing.assert_allclose(h_t, H[t], rtol=0, atol=1e-12)
        np.testing.assert_allclose(c_t, C[t], rtol=0, atol=1e-12)


def hash_encoder():
    return HashingEncoder(HashEncoderConfig(dim=32, seed=0))


@pytest.mark.parametrize("kind", ["bilstm", "attention", "gcn"])
def test_predicted_mode_checkpoint_bytes_match_reencode(tmp_path, monkeypatch, kind):
    docs = generate_corpus(12, 5, 10, noise=0.1, seed=5)
    train = Corpus(documents=docs.documents[:9])
    val = Corpus(documents=docs.documents[9:])
    cfg = TrainConfig(label_mode="predicted", context_kind=kind, epochs=2, lstm_hidden=4,
                      gcn_hidden=8, early_stopping_patience=0, seed=0)
    fast = tmp_path / "fast.json"
    save_checkpoint(train_model(train, val, cfg, hash_encoder())[0], fast)
    monkeypatch.setattr(train_mod, "_free_running", train_mod._free_running_reencode)
    ref = tmp_path / "reencode.json"
    save_checkpoint(train_model(train, val, cfg, hash_encoder())[0], ref)
    assert fast.read_bytes() == ref.read_bytes()


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("kind", ["bilstm", "attention", "gcn"])
def test_free_running_encodes_each_row_once(monkeypatch, kind):
    doc = generate_corpus(1, 60, 60, noise=0.1, seed=3).documents[0]
    bundle, _ = random_model(2, context_kind=kind)
    calls = {}
    for name in ("bilstm_forward_cache", "attention_stack_forward_cache", "gcn_forward_cache"):
        counting(monkeypatch, context, name, calls)
    counting(monkeypatch, kernels, "lstm_recurrence", calls)
    labels = predict_document(doc, bundle, mode="free_running",
                              encoder=HashingEncoder(HashEncoderConfig(dim=BASE_DIM, seed=0)))
    assert len(labels) == 60
    assert calls.get("bilstm_forward_cache", 0) == 0
    assert calls.get("attention_stack_forward_cache", 0) == 0
    assert calls.get("gcn_forward_cache", 0) == 0
    assert calls.get("lstm_recurrence", 0) <= 1


def overflowing_attention_model():
    """Finite weights whose attention logits overflow to inf."""
    bundle, _ = random_model(5, context_kind="attention", head="softmax")
    layer = bundle.context_params[0]
    layer.Q *= 1e200
    layer.K *= 1e200
    return bundle


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["free_running", "teacher_forced"])
def test_overflow_raises_numeric_error(mode):
    doc = generate_corpus(1, 6, 6, noise=0.1, seed=3).documents[0]
    with pytest.raises(NumericError, match="self_attention_encode"):
        predict_document(doc, overflowing_attention_model(), mode=mode,
                         encoder=HashingEncoder(HashEncoderConfig(dim=BASE_DIM, seed=0)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["free_running", "teacher_forced"])
def test_overflow_exits_three(tmp_path, capsys, mode):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(generate_corpus(2, 6, 6, noise=0.1, seed=3), corpus)
    model = tmp_path / "model.json"
    save_checkpoint(overflowing_attention_model(), model)
    assert all(np.isfinite(np.array(v)).all()
               for v in json.loads(model.read_text())["tensors"].values())
    capsys.readouterr()
    code = main(["predict", "--input", str(corpus), "--model", str(model),
                 "--output", str(tmp_path / "preds.jsonl"), "--mode", mode])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric error:") and err.count("\n") == 1
