"""Free-running decoding: the chunk decode against the one-row-per-sentence
path it replaced (kept here as an oracle) and against the
re-encode-per-sentence reference, its independence from the rest of a
chunk, its call counts, and its numeric checks."""

import zlib

import numpy as np
import pytest

from rhetseg import context, crf, kernels
from rhetseg import train as train_mod
from rhetseg.cli import main
from rhetseg.corpus import Corpus, write_jsonl
from rhetseg.encode import HashEncoderConfig, HashingEncoder
from rhetseg.errors import NumericError
from rhetseg.roles import NUM_ROLES
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    TrainConfig,
    build_model,
    predict_document,
    save_checkpoint,
    train_model,
)
from test_checkpoint import read_checkpoint
from test_encode import role_list_features
from test_parameter_init import draw_params

BASE_DIM = 12
SPEC = {"kind": "hash", "dim": BASE_DIM, "ngram_orders": [1], "seed": 0, "signed": True}
WINDOWS = [(0,), (-2, -1, 0, 1)]
POSITIONAL = ["none", "normalized", "sinusoidal"]
LENGTHS = (1, 2, 3, 37)
KINDS = ["none", "bilstm", "attention", "gcn"]
WITHOUT_STEPS = [  # configurations decoded by a full forward pass per row
    dict(context_kind="attention", attention_layers=2),
    dict(context_kind="gcn", gcn_sim_threshold=0.1),
]


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


def decode_one(bundle, base):
    [result] = train_mod._free_running(bundle, [base])
    return result


# ---------------------------------------------------------------------------
# The row-at-a-time decode that the chunk decode replaced: one document, one
# gemv-projected feature row per sentence, one head call per row.
# ---------------------------------------------------------------------------


def step_score(head_kind, p, h, j, m, preds):
    """Greedy score of position j from its context row h under the head
    block p, given the labels already committed before it."""
    if head_kind == "softmax":
        return h @ p["W"] + p["b"]
    score = crf.emissions(h[None, :], p)[0]
    score += p["start"] if j == 0 else p["T"][preds[j - 1]]
    if j == m - 1:
        score += p["end"]
    return score


class BilstmRows:
    """Both directions take one kernels.lstm_step per row. The forward state
    carries from row to row; the backward state after rows > j comes from
    one pass over reversed X0."""

    def __init__(self, X0, p):
        self.Wx_f, self.Wx_b = p["fwd.Wx"], p["bwd.Wx"]
        self.Wh, self.b = np.stack([p["fwd.Wh"], p["bwd.Wh"]]), np.stack([p["fwd.b"], p["bwd.b"]])
        _, self.Cb, self.Hb = kernels.lstm_recurrence(X0[::-1] @ self.Wx_b.T, p["bwd.Wh"], p["bwd.b"])
        h = self.Wh.shape[2]
        self.h_prev = np.zeros((2, h))  # rows: forward state, backward state
        self.c_prev = np.zeros((2, h))

    def row(self, j, x):
        xw = np.stack([self.Wx_f @ x, self.Wx_b @ x])
        after = self.Hb.shape[0] - 2 - j  # reversed index of row j + 1
        if after >= 0:
            self.h_prev[1], self.c_prev[1] = self.Hb[after], self.Cb[after]
        else:
            self.h_prev[1] = self.c_prev[1] = 0.0
        _, c, hs = kernels.lstm_step(xw, self.Wh, self.b, self.h_prev, self.c_prev)
        self.h_prev[0], self.c_prev[0] = hs[0], c[0]
        return hs.reshape(-1)


class AttentionRows:
    """Attention layer 0: keys and values start as X0 K and X0 V, and row
    j's are overwritten when row j arrives."""

    def __init__(self, X0, p):
        self.Q, self.K, self.V, self.O = (p[f"layer0.{n}"] for n in "QKVO")
        self.scale = 1.0 / np.sqrt(self.Q.shape[0])
        self.Kx = X0 @ self.K
        self.Vx = X0 @ self.V

    def row(self, j, x):
        self.Kx[j] = x @ self.K
        self.Vx[j] = x @ self.V
        s = ((x @ self.Q) @ self.Kx.T) * self.scale
        a = np.exp(s - s.max())
        a /= a.sum()
        return (a @ self.Vx) @ self.O + x


class GcnRows:
    """Two GCN layers over the path graph: output row j reads only input
    rows j-2..j+2."""

    def __init__(self, X0, p):
        self.X = X0.copy()
        self.a_hat = context.build_graph(X0.shape[0])
        self.W1, self.W2 = p["W1"], p["W2"]

    def row(self, j, x):
        self.X[j] = x
        m = self.X.shape[0]
        lo, hi = max(0, j - 2), min(m, j + 3)
        mid = slice(max(0, j - 1), min(m, j + 2))
        H1 = np.maximum((self.a_hat[mid, lo:hi] @ self.X[lo:hi]) @ self.W1, 0.0)
        return np.maximum((self.a_hat[j, mid] @ H1) @ self.W2, 0.0)


ROWS = {"bilstm": BilstmRows, "attention": AttentionRows, "gcn": GcnRows}


def row_decode(bundle, base):
    """The row oracle for a configuration with chunk steps: labels, step
    scores and the features with the labels committed."""
    m = base.shape[0]
    X = train_mod._features(bundle, base)
    kind = bundle.cfg.context_kind
    row = (lambda j, x: x) if kind == "none" else ROWS[kind](X, bundle.params[train_mod._CONTEXT_BLOCK[kind]]).row
    head = bundle.params[bundle.cfg.head]
    preds = []
    scores = np.empty((m, NUM_ROLES))
    for j in range(m):
        if j > 0:
            X[j, preds[-1] - NUM_ROLES] = 1.0
        scores[j] = step_score(bundle.cfg.head, head, row(j, X[j]), j, m, preds)
        preds.append(int(np.argmax(scores[j])))
    return preds, scores, X


def reencode_one(bundle, base):
    """Reference decode: featurize and encode the whole document again for
    every sentence, O(m^2). Returns the labels, the step scores, and the
    features featurized anew with the labels as previous labels."""
    m = base.shape[0]
    preds = []
    scores = np.empty((m, NUM_ROLES))
    for j in range(m):
        H, _ = train_mod._context_forward(bundle, role_list_features(bundle, base, preds))
        scores[j] = step_score(bundle.cfg.head, bundle.params[bundle.cfg.head], H[j], j, m, preds)
        preds.append(int(np.argmax(scores[j])))
    return preds, scores, role_list_features(bundle, base, preds)


def free_running_reencode(bundle, bases):
    """train._free_running, one reference decode per document."""
    return [reencode_one(bundle, base) for base in bases]


@pytest.mark.parametrize("positional", POSITIONAL)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", KINDS)
def test_row_decode_matches_reencode(kind, head, window, positional):
    seed = zlib.crc32(repr((kind, head, window, positional)).encode())
    bundle, rng = random_model(seed, context_kind=kind, head=head, window=window,
                               positional=positional)
    for m in LENGTHS:
        base = rng.normal(size=(m, BASE_DIM))
        labels, scores, X = decode_one(bundle, base)
        ref_labels, ref_scores, ref_X = reencode_one(bundle, base)
        assert labels == ref_labels
        np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-10)
        assert np.array_equal(X, ref_X)
        if m == 37:
            assert len(set(labels)) >= 3


@pytest.mark.parametrize("overrides", WITHOUT_STEPS)
def test_configurations_without_row_encoder_keep_reencode(overrides):
    bundle, rng = random_model(11, **overrides)
    base = rng.normal(size=(9, BASE_DIM))
    labels, scores, _ = decode_one(bundle, base)
    ref_labels, ref_scores, _ = reencode_one(bundle, base)
    assert labels == ref_labels
    assert np.array_equal(scores, ref_scores)


def sorted_chunks(rng, n_docs=40, max_len=60):
    """Sentence vectors of n_docs documents of 1..max_len sentences, cut into
    length-ordered chunks as prediction cuts them."""
    bases = [rng.normal(size=(int(m), BASE_DIM)) for m in rng.integers(1, max_len + 1, n_docs)]
    chunks = [chunk for _, chunk in train_mod._chunks(bases)]
    assert len(chunks) >= 3
    return chunks


@pytest.mark.parametrize("variant", [dict(), dict(window=(-2, -1, 0, 1), positional="sinusoidal")],
                         ids=["window0", "window4-sinusoidal"])
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", KINDS)
def test_chunk_decode_matches_row_oracle(kind, head, variant):
    seed = zlib.crc32(repr(("chunk", kind, head, variant)).encode())
    bundle, rng = random_model(seed, context_kind=kind, head=head, **variant)
    for chunk in sorted_chunks(rng):
        for base, (labels, scores, X) in zip(chunk, train_mod._free_running(bundle, chunk)):
            ref_labels, ref_scores, ref_X = row_decode(bundle, base)
            assert labels == ref_labels
            np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-10)
            assert np.array_equal(X, ref_X)


@pytest.mark.parametrize("overrides", [dict(context_kind=kind, head=head) for kind in KINDS
                                       for head in ("crf", "softmax")] + WITHOUT_STEPS,
                         ids=lambda o: "-".join(str(v) for v in o.values()))
def test_document_decodes_alike_alone_and_in_chunk(overrides):
    """Padding, the other documents' rows and the chunk's width change no
    bit of a document's decode."""
    bundle, rng = random_model(zlib.crc32(repr(overrides).encode()), **overrides)
    bases = [rng.normal(size=(m, BASE_DIM)) for m in (17, 1, 60, 2, 9, 60, 33, 3, 58, 8, 129)]
    for base, (labels, scores, X) in zip(bases, train_mod._free_running(bundle, bases)):
        alone_labels, alone_scores, alone_X = decode_one(bundle, base)
        assert labels == alone_labels
        assert np.array_equal(scores, alone_scores)
        assert np.array_equal(X, alone_X)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["one", "batch"])
def test_lstm_step_reproduces_recurrence(batch):
    """lstm_step from a carried state, on one state or a batch of states,
    gives the recurrence's gates, cells and hiddens bit for bit."""
    rng = np.random.default_rng(4)
    h, m = 5, 23
    p = draw_params("bilstm", rng, 7, h)
    Wh, b = p["fwd.Wh"], p["fwd.b"]
    Wh *= 3.0
    XW = rng.normal(size=(m,) + batch + (4 * h,)) * 4.0
    XW[5] *= 100.0  # past the +-60 pre-activation clip
    G, C, H = kernels.lstm_recurrence(XW, Wh, b)
    h_t, c_t = np.zeros(batch + (h,)), np.zeros(batch + (h,))
    for t in range(m):
        g_t, c_t, h_t = kernels.lstm_step(XW[t], Wh, b, h_t, c_t)
        assert np.array_equal(g_t, G[t])
        assert np.array_equal(c_t, C[t])
        assert np.array_equal(h_t, H[t])


def test_bilstm_rows_equal_per_direction_steps():
    """The stacked chunk step of BilstmSteps gives each document, bit for
    bit, one lstm_step per direction on that document alone: the input
    projection of its X0 plus the committed label's column of Wx, the
    forward state carried from row to row, the backward state read from a
    2-D pass over its reversed X0 projection."""
    rng = np.random.default_rng(9)
    width = 11 + NUM_ROLES
    for h, lengths in ((1, (1,)), (6, (9, 1, 4)), (32, (30, 29, 2, 30))):
        p = draw_params("bilstm", rng, width, h)
        p["fwd.Wh"] *= 3.0
        Xs = [np.hstack([rng.normal(size=(m, 11)) * 4.0, np.zeros((m, NUM_ROLES))]) for m in lengths]
        prevs = rng.integers(0, NUM_ROLES, size=(max(lengths), len(Xs)))
        prevs[0] = -1
        steps = context.BilstmSteps(Xs, p)
        rows = [steps.step(j, prev) for j, prev in enumerate(prevs)]
        for b, X0 in enumerate(Xs):
            m = X0.shape[0]
            XW = {d: X0 @ p[f"{d}.Wx"].T for d in ("fwd", "bwd")}
            _, Cb, Hb = kernels.lstm_recurrence(XW["bwd"][::-1], p["bwd.Wh"], p["bwd.b"])
            hf = cf = np.zeros(h)
            for j in range(m):
                c = prevs[j, b]
                xw = {d: XW[d][j] + (p[f"{d}.Wx"][:, c - NUM_ROLES] if c >= 0 else 0.0) for d in XW}
                _, cf, hf = kernels.lstm_step(xw["fwd"], p["fwd.Wh"], p["fwd.b"], hf, cf)
                after = m - 2 - j
                h_next, c_next = (Hb[after], Cb[after]) if after >= 0 else (np.zeros(h), np.zeros(h))
                _, _, hb = kernels.lstm_step(xw["bwd"], p["bwd.Wh"], p["bwd.b"], h_next, c_next)
                assert np.array_equal(rows[j][b], np.concatenate([hf, hb])), (h, m, j)


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
    monkeypatch.setattr(train_mod, "_free_running", free_running_reencode)
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
    attn = bundle.params["attn"]
    attn["layer0.Q"] *= 1e200
    attn["layer0.K"] *= 1e200
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
    assert all(np.isfinite(values).all() for values in read_checkpoint(model)[1].values())
    capsys.readouterr()
    code = main(["predict", "--input", str(corpus), "--model", str(model),
                 "--output", str(tmp_path / "preds.jsonl"), "--mode", mode])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric error:") and err.count("\n") == 1
