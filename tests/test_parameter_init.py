"""Initial parameters from the layout's init rules, against a reference that
builds every tensor with its own init function, then flattens them.

The reference keeps the per-tensor init functions that built models before
the layout carried init rules, so any change to a shape, a fan-in, a bound or
the draw order shows up as a changed byte or a changed rng state. draw_params
is the one way the other tests build a context's or a head's parameters,
and grad_block the gradient block a backward pass writes into.
"""

import itertools
import math

import numpy as np
import pytest

from rhetseg import train as train_mod
from rhetseg.roles import NUM_ROLES
from rhetseg.train import (
    _CONTEXT_BLOCK,
    HEADS,
    ModelBundle,
    TrainConfig,
    build_model,
    init_parameters,
    layout_size,
    load_checkpoint,
    model_layout,
    save_checkpoint,
)

SPEC = {"kind": "hash", "dim": 12, "ngram_orders": [1], "seed": 0}


def draw_params(kind, rng, width, hidden=4, layers=1):
    """The layout block of one context kind ("fwd.Wx", ..., "layer0.Q", ...,
    "W1", "W2") on inputs of the given width, or of one head kind ("W_e",
    ..., "W", "b") on context rows of that width: live views of a bundle's
    parameters, keyed by the rest of the layout name. Only that part's
    layout entries are drawn, so rng advances as in build_model for that
    part alone. hidden is the LSTM or GCN width."""
    head = kind in HEADS
    context, head_kind = ("none", kind) if head else (kind, "crf")
    cfg = TrainConfig(context_kind=context, head=head_kind, positional="none", mtl=False, lstm_hidden=hidden,
                      gcn_hidden=hidden, attention_layers=layers)
    _, _, layout = model_layout(cfg, width)  # window (0,) and no position or label features: feat_dim is width
    own = {name: spec for name, spec in layout.items() if head or not name.startswith("crf.")}
    flat = np.zeros(layout_size(layout))
    flat[: layout_size(own)] = init_parameters(own, rng)  # a context's entries lead the layout
    bundle = ModelBundle(cfg, {"kind": "precomputed", "dim": width}, flat)
    return bundle.params[kind if head else _CONTEXT_BLOCK[kind]]


def grad_block(p):
    """A gradient block keyed like the parameter block p, every entry NaN
    until a backward pass writes it."""
    return {k: np.full_like(v, np.nan) for k, v in p.items()}


def direction(p, d):
    """One direction ("fwd" or "bwd") of a BiLSTM block, keyed "Wx", "Wh", "b"."""
    return {k: p[f"{d}.{k}"] for k in ("Wx", "Wh", "b")}


def bilstm_block(fwd, bwd):
    """The BiLSTM block of two directions keyed "Wx", "Wh", "b"."""
    return {f"{d}.{k}": v for d, lp in (("fwd", fwd), ("bwd", bwd)) for k, v in lp.items()}


# ---------------------------------------------------------------------------
# reference: one init function per parameter type, each returning its
# tensors in the order the per-type records used to list them
# ---------------------------------------------------------------------------


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_lstm_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Wx, Wh, b: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); forget-gate bias starts at 1."""
    h = hidden_dim
    Wx = _uniform_init(rng, (4 * h, input_dim), input_dim)
    Wh = _uniform_init(rng, (4 * h, h), h)
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    return [Wx, Wh, b]


def init_bilstm_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The forward direction's Wx, Wh, b, then the backward direction's."""
    fwd = init_lstm_params(input_dim, hidden_dim, rng)
    return fwd + init_lstm_params(input_dim, hidden_dim, rng)


def init_attention_params(d_model: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Q, K, V, O."""
    return [_uniform_init(rng, (d_model, d_model), d_model) for _ in "QKVO"]


def init_attention_stack(d_model: int, n_layers: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [t for _ in range(n_layers) for t in init_attention_params(d_model, rng)]


def init_gcn_params(d_in: int, hidden: int, rng: np.random.Generator) -> list[np.ndarray]:
    """W1, W2."""
    W1 = _uniform_init(rng, (d_in, hidden), d_in)
    return [W1, _uniform_init(rng, (hidden, hidden), hidden)]


def init_crf_params(context_dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """W_e, b_e, T, start, end."""
    bound = 1.0 / math.sqrt(context_dim)
    W_e = rng.uniform(-bound, bound, size=(context_dim, NUM_ROLES))
    return [W_e, np.zeros(NUM_ROLES), np.zeros((NUM_ROLES, NUM_ROLES)), np.zeros(NUM_ROLES), np.zeros(NUM_ROLES)]


def reference_flat(cfg: TrainConfig, feat_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Context, then head, then a zero shift head; only the matrices draw."""
    if cfg.context_kind == "none":
        context_params, context_dim = [], feat_dim
    elif cfg.context_kind == "bilstm":
        context_params, context_dim = init_bilstm_params(feat_dim, cfg.lstm_hidden, rng), 2 * cfg.lstm_hidden
    elif cfg.context_kind == "attention":
        context_params, context_dim = init_attention_stack(feat_dim, cfg.attention_layers, rng), feat_dim
    else:
        context_params, context_dim = init_gcn_params(feat_dim, cfg.gcn_hidden, rng), cfg.gcn_hidden
    if cfg.head == "crf":
        head_params = init_crf_params(context_dim, rng)
    else:
        bound = 1.0 / np.sqrt(context_dim)
        head_params = [rng.uniform(-bound, bound, size=(context_dim, NUM_ROLES)), np.zeros(NUM_ROLES)]
    shift = [np.zeros(context_dim), np.zeros(1)] if cfg.mtl else []
    return np.concatenate([t.reshape(-1) for t in context_params + head_params + shift])


CONFIGS = [
    dict(context_kind=c, head=h, mtl=mtl, attention_layers=layers, label_mode=mode)
    for c, h, mtl, layers, mode in itertools.product(
        ("none", "bilstm", "attention", "gcn"), ("crf", "softmax"), (True, False), (1, 2), ("off", "gold")
    )
] + [dict(context_kind=c, lstm_hidden=5, gcn_hidden=9, window=(-2, 0, 1)) for c in ("bilstm", "gcn")]


@pytest.mark.parametrize("settings", CONFIGS, ids=lambda s: "-".join(map(str, s.values())).replace(" ", ""))
def test_build_model_matches_reference_init(settings):
    """Bit-identical parameter vector and the same rng state afterwards
    (training shuffles with the same generator)."""
    cfg = TrainConfig(**settings)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    bundle = build_model(cfg, SPEC, rng)
    want = reference_flat(cfg, bundle.feat_dim, ref_rng)
    assert bundle.flat.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_build_and_load_build_the_layout_once(monkeypatch, tmp_path):
    calls = []
    real = train_mod.model_layout
    monkeypatch.setattr(train_mod, "model_layout", lambda *args: calls.append(args) or real(*args))
    bundle = build_model(TrainConfig(), SPEC, np.random.default_rng(0))
    assert len(calls) == 1
    save_checkpoint(bundle, tmp_path / "model.json")
    assert len(load_checkpoint(tmp_path / "model.json").params) and len(calls) == 2


@pytest.mark.parametrize("kind, reference", [
    ("bilstm", lambda rng: init_bilstm_params(6, 3, rng)),
    ("attention", lambda rng: init_attention_stack(6, 2, rng)),
    ("gcn", lambda rng: init_gcn_params(6, 3, rng)),
    ("crf", lambda rng: init_crf_params(6, rng)),
])
def test_draw_params_matches_reference_init(kind, reference):
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = draw_params(kind, rng, 6, hidden=3, layers=2)
    want = reference(ref_rng)
    assert [t.tobytes() for t in got.values()] == [t.tobytes() for t in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
