"""Model assembly and training: encoder -> context -> head, with an optional
label-shift auxiliary head sharing the context features.

The composite objective per document is

    L = lambda * L_shift + (1 - lambda) * L_RR

where L_RR is the CRF negative log-likelihood (summed over the document) or
the class-weighted mean cross-entropy of the softmax head, and L_shift is the
mean binary cross-entropy of a logistic head predicting role-shift bits. All
gradients are analytic; `gradcheck` verifies every block against central
finite differences.

Updates are per document in seeded shuffled order, single-threaded, so runs
are bit-reproducible for a fixed (corpus, config, seed).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import context as ctx
from . import crf as crf_mod
from .corpus import Corpus, Document, label_shift_sequence
from .encode import HashEncoderConfig, HashingEncoder, featurize, feature_width
from .errors import DataError, NumericError
from .metrics import confusion, macro_prf
from .roles import NUM_ROLES, ROLE_NAMES, RhetoricalRole

CHECKPOINT_VERSION = 5

# The values each setting may take; the CLI, TrainConfig and the checkpoint
# loader all read these.
HEADS = ("crf", "softmax")
CONTEXT_KINDS = ("none", "bilstm", "attention", "gcn")
POSITIONAL_MODES = ("none", "normalized", "sinusoidal")
OPTIMIZERS = ("sgd", "adam")
CLASS_WEIGHTS = ("none", "auto")  # auto: inverse-frequency weights from the training corpus
LABEL_MODE_ALIASES = {  # accepted spelling -> label mode
    "off": "off",
    "gold": "gold",
    "gold_previous": "gold",
    "predicted": "predicted",
    "predicted_previous": "predicted",
}
LABEL_MODES = tuple(dict.fromkeys(LABEL_MODE_ALIASES.values()))


@dataclass
class TrainConfig:
    head: str = "crf"  # crf | softmax
    context_kind: str = "bilstm"  # none | bilstm | attention | gcn
    window: tuple[int, ...] = (0,)
    positional: str = "normalized"  # none | normalized | sinusoidal
    sin_dim: int = 8
    label_mode: str = "off"  # off | gold | predicted
    mtl: bool = True
    mtl_lambda: float = 0.3
    learning_rate: float = 1e-3
    epochs: int = 20
    seed: int = 0
    optimizer: str = "adam"  # sgd | adam
    class_weights: str = "none"  # none | auto, softmax head only
    early_stopping_patience: int = 3
    lstm_hidden: int = 32
    attention_layers: int = 1
    gcn_hidden: int = 128
    gcn_sim_threshold: float | None = None

    def __post_init__(self) -> None:
        self.label_mode = LABEL_MODE_ALIASES.get(self.label_mode, self.label_mode)
        if self.head not in HEADS:
            raise DataError(f"unknown head {self.head!r}")
        if self.context_kind not in CONTEXT_KINDS:
            raise DataError(f"unknown context kind {self.context_kind!r}")
        if self.label_mode not in LABEL_MODES:
            raise DataError(f"unknown label mode {self.label_mode!r}")
        if self.positional not in POSITIONAL_MODES:
            raise DataError(f"unknown positional mode {self.positional!r}")
        if self.optimizer not in OPTIMIZERS:
            raise DataError(f"unknown optimizer {self.optimizer!r}")
        if self.class_weights not in CLASS_WEIGHTS:
            raise DataError(f"unknown class weights {self.class_weights!r}")
        if self.class_weights != "none" and self.head != "softmax":
            raise DataError("class weights apply to the softmax head only")
        if not 0.0 <= self.mtl_lambda <= 1.0:
            raise DataError(f"lambda must lie in [0, 1], got {self.mtl_lambda}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise DataError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.early_stopping_patience < 0:
            raise DataError("patience must be >= 0")
        for size in ("lstm_hidden", "gcn_hidden", "attention_layers"):
            if getattr(self, size) < 1:
                raise DataError(f"{size} must be >= 1, got {getattr(self, size)}")
        if self.gcn_sim_threshold is not None and not math.isfinite(self.gcn_sim_threshold):
            raise DataError(f"gcn similarity threshold must be finite, got {self.gcn_sim_threshold}")
        self.window = tuple(self.window)
        feature_width(0, self.window, self.positional, self.sin_dim, False)  # checks the window and sin_dim

    def to_echo(self) -> dict:
        return dataclasses.asdict(self) | {"window": list(self.window)}


@dataclass
class TrainReport:
    train_losses: tuple[float, ...]
    val_macro_f1: tuple[float, ...]
    best_epoch: int  # 1-based
    shift_val_accuracy: float | None = None
    shift_majority_baseline: float | None = None

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_macro_f1"]
        for e, (loss, f1) in enumerate(zip(self.train_losses, self.val_macro_f1), start=1):
            lines.append(f"{e},{loss:.6f},{f1:.6f}")
        return "\n".join(lines) + "\n"


@dataclass
class GradCheckReport:
    max_rel_error: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.max_rel_error.values())


class ParamSpec(NamedTuple):
    shape: tuple[int, ...]
    init: str = "zeros"  # zeros | uniform | lstm_bias
    fan_in: int = 0  # of a uniform entry


def parameter_layout(
    context_kind: str, head_kind: str, feat_dim: int, context_dim: int, attention_layers: int, shift: bool
) -> dict[str, ParamSpec]:
    """Name -> shape and init rule of every trainable tensor, in the order
    the tensors sit in a bundle's parameter vector. A uniform entry starts at
    uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); an LSTM bias (4h,) starts at
    zero but for its forget-gate block [h:2h], which starts at 1; every
    other entry starts at zero."""
    layout: dict[str, ParamSpec] = {}
    if context_kind == "bilstm":
        h = context_dim // 2
        for d in ("fwd", "bwd"):
            layout[f"bilstm.{d}.Wx"] = ParamSpec((4 * h, feat_dim), "uniform", feat_dim)
            layout[f"bilstm.{d}.Wh"] = ParamSpec((4 * h, h), "uniform", h)
            layout[f"bilstm.{d}.b"] = ParamSpec((4 * h,), "lstm_bias")
    elif context_kind == "attention":
        square = ParamSpec((feat_dim, feat_dim), "uniform", feat_dim)
        layout.update({f"attn.layer{idx}.{n}": square for idx in range(attention_layers) for n in "QKVO"})
    elif context_kind == "gcn":
        layout["gcn.W1"] = ParamSpec((feat_dim, context_dim), "uniform", feat_dim)
        layout["gcn.W2"] = ParamSpec((context_dim, context_dim), "uniform", context_dim)
    k = NUM_ROLES
    if head_kind == "crf":
        layout["crf.W_e"] = ParamSpec((context_dim, k), "uniform", context_dim)
        layout.update({"crf.b_e": ParamSpec((k,)), "crf.T": ParamSpec((k, k))})
        layout.update({"crf.start": ParamSpec((k,)), "crf.end": ParamSpec((k,))})
    else:
        layout.update({"softmax.W": ParamSpec((context_dim, k), "uniform", context_dim), "softmax.b": ParamSpec((k,))})
    if shift:
        layout.update({"shift.w": ParamSpec((context_dim,)), "shift.b": ParamSpec((1,))})
    return layout


def layout_size(layout: dict[str, ParamSpec]) -> int:
    return sum(math.prod(spec.shape) for spec in layout.values())


def _views(flat: np.ndarray, layout: dict[str, ParamSpec]) -> dict[str, np.ndarray]:
    parts = np.split(flat, np.cumsum([math.prod(spec.shape) for spec in layout.values()])[:-1])
    return {name: part.reshape(spec.shape) for (name, spec), part in zip(layout.items(), parts)}


def _blocks(flat: np.ndarray, layout: dict[str, ParamSpec]) -> dict[str, dict[str, np.ndarray]]:
    """The views of flat by block, then by the rest of the layout name."""
    blocks: dict[str, dict[str, np.ndarray]] = {}
    for name, view in _views(flat, layout).items():
        block, _, rest = name.partition(".")
        blocks.setdefault(block, {})[rest] = view
    return blocks


def init_parameters(layout: dict[str, ParamSpec], rng: np.random.Generator) -> np.ndarray:
    """A parameter vector with every tensor at its init rule. Only the
    uniform entries draw from rng, in layout order."""
    flat = np.zeros(layout_size(layout))
    for spec, view in zip(layout.values(), _views(flat, layout).values()):
        if spec.init == "uniform":
            bound = 1.0 / math.sqrt(spec.fan_in)
            view[...] = rng.uniform(-bound, bound, size=spec.shape)
        elif spec.init == "lstm_bias":
            h = spec.shape[0] // 4
            view[h : 2 * h] = 1.0
    return flat


# Context kind -> its block of the layout: the first segment of its tensors' names.
_CONTEXT_BLOCK = {"bilstm": "bilstm", "attention": "attn", "gcn": "gcn"}


def model_layout(cfg: TrainConfig, base_dim: int) -> tuple[int, int, dict[str, ParamSpec]]:
    """(feat_dim, context_dim, layout) of the model cfg describes, over
    sentence vectors of width base_dim."""
    feat_dim = feature_width(base_dim, cfg.window, cfg.positional, cfg.sin_dim, cfg.label_mode != "off")
    context_dim = {"bilstm": 2 * cfg.lstm_hidden, "gcn": cfg.gcn_hidden}.get(cfg.context_kind, feat_dim)
    layout = parameter_layout(cfg.context_kind, cfg.head, feat_dim, context_dim, cfg.attention_layers, cfg.mtl)
    return feat_dim, context_dim, layout


@dataclass
class ModelBundle:
    """A model: its settings, its encoder's spec and its parameters, one
    contiguous float64 vector laid out by `layout` (see model_layout). `params`
    holds the views of each tensor by block, the first segment of the layout
    name, then by the rest of the name: params["crf"]["T"] is "crf.T" and
    params["attn"]["layer0.Q"] is "attn.layer0.Q". A model has a "shift"
    block only with the shift head. `grad` and `grads` hold the gradient in
    the same way; backward passes write it. `params`, `grad` and `grads` are
    built on first use, so a model loaded only to predict has no gradient,
    and the loader can check the layout before it sets `flat`."""

    cfg: TrainConfig
    encoder_spec: dict
    flat: np.ndarray
    feat_dim: int = field(init=False)
    context_dim: int = field(init=False)
    layout: dict[str, ParamSpec] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.feat_dim, self.context_dim, self.layout = model_layout(self.cfg, self.encoder_spec["dim"])

    @functools.cached_property
    def params(self) -> dict[str, dict[str, np.ndarray]]:
        return _blocks(self.flat, self.layout)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return np.zeros(self.flat.shape[0])

    @functools.cached_property
    def grads(self) -> dict[str, dict[str, np.ndarray]]:
        return _blocks(self.grad, self.layout)

    def parameter_blocks(self) -> dict[str, np.ndarray]:
        """Live views of every trainable tensor, in layout order."""
        return _views(self.flat, self.layout)

    def make_encoder(self):
        if self.encoder_spec["kind"] == "hash":
            return HashingEncoder(_hash_config(self.encoder_spec))
        raise DataError("bundle uses precomputed embeddings; pass an encoder explicitly")


def _hash_config(spec: dict) -> HashEncoderConfig:
    return HashEncoderConfig(dim=spec["dim"], ngram_orders=tuple(spec["ngram_orders"]), seed=spec["seed"])


def shift_loss(features: np.ndarray, bits: np.ndarray, p: ctx.Params, g: ctx.Params):
    """Mean binary cross-entropy of sigmoid(features w + b) against the bits,
    with w (context_dim,) and b (1,) read from the "shift" block p.

    Writes the gradients of w and b to g; returns (loss, gradient of the
    features). Uses log(1 + e^z) - y z per position, which is stable for any z.
    """
    bits = np.asarray(bits, dtype=np.float64)
    m = features.shape[0]
    if bits.shape != (m,):
        raise DataError(f"shift bits length {bits.shape} does not match {m} rows")
    w = p["w"]
    z = features @ w + p["b"][0]
    loss = float(np.mean(np.logaddexp(0.0, z) - bits * z))
    dz = (1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0))) - bits) / m
    g["w"][...], g["b"][...] = features.T @ dz, dz.sum()
    return loss, np.outer(dz, w)


def inverse_frequency_weights(corpus: Corpus) -> np.ndarray:
    """The (7,) class weights in role-id order: w_r proportional to
    1/count_r, normalized to mean 1 over the 7 roles.

    Roles absent from the corpus are treated as count 1 so the weights stay
    finite.
    """
    counts = {role: 0 for role in RhetoricalRole}
    for doc in corpus:
        for label in doc.labels:
            if label is not None:
                counts[label] += 1
    raw = [1.0 / max(counts[role], 1) for role in RhetoricalRole]
    mean = sum(raw) / NUM_ROLES
    return np.array([w / mean for w in raw])


def build_model(cfg: TrainConfig, encoder_spec: dict, rng: np.random.Generator) -> ModelBundle:
    """Assemble a fresh bundle, its parameters at their layout init rules:
    only the uniform entries draw from rng, in layout order."""
    bundle = ModelBundle(cfg, dict(encoder_spec), np.empty(0))
    bundle.flat = init_parameters(bundle.layout, rng)
    return bundle


# ---------------------------------------------------------------------------
# Forward / backward plumbing shared by training, prediction, and gradcheck
# ---------------------------------------------------------------------------


def _context_forward(bundle: ModelBundle, X: np.ndarray):
    kind = bundle.cfg.context_kind
    if kind == "none":
        return X, None
    p = bundle.params[_CONTEXT_BLOCK[kind]]
    if kind == "bilstm":
        return ctx.bilstm_forward_cache(X, p)
    if kind == "attention":
        return ctx.attention_stack_forward_cache(X, p)
    threshold = bundle.cfg.gcn_sim_threshold
    a_hat = ctx.build_graph(X.shape[0], X if threshold is not None else None, threshold)
    return ctx.gcn_forward_cache(X, a_hat, p)


def _context_backward(bundle: ModelBundle, cache, dH: np.ndarray) -> None:
    kind = bundle.cfg.context_kind
    if kind != "none":
        backward = {"bilstm": ctx.bilstm_backward, "attention": ctx.attention_stack_backward, "gcn": ctx.gcn_backward}
        block = _CONTEXT_BLOCK[kind]
        backward[kind](cache, bundle.params[block], bundle.grads[block], dH)


def _softmax_loss_and_grads(H: np.ndarray, y: np.ndarray, p: ctx.Params, g: ctx.Params, cw: np.ndarray):
    m = H.shape[0]
    W = p["W"]
    E = H @ W + p["b"]
    shifted = E - E.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_norm[:, None]
    weights = cw[y]
    loss = float(-(weights * log_probs[np.arange(m), y]).sum() / m)
    dE = np.exp(log_probs)
    dE[np.arange(m), y] -= 1.0
    dE *= (weights / m)[:, None]
    g["W"][...], g["b"][...] = H.T @ dE, dE.sum(axis=0)
    return loss, dE @ W.T


def _rr_loss_and_grads(bundle: ModelBundle, H: np.ndarray, y: np.ndarray, cw: np.ndarray):
    """Head loss and dH; writes the head block's gradients."""
    p, g = bundle.params[bundle.cfg.head], bundle.grads[bundle.cfg.head]
    if bundle.cfg.head == "crf":
        E = crf_mod.emissions(H, p)
        loss, dE = crf_mod.nll_and_grad(E, y, p, g)
        g["W_e"][...], g["b_e"][...] = H.T @ dE, dE.sum(axis=0)
        return loss, dE @ p["W_e"].T
    return _softmax_loss_and_grads(H, y, p, g, cw)


def document_loss_and_grads(
    bundle: ModelBundle,
    X: np.ndarray,
    y: np.ndarray,
    shift_bits: np.ndarray | None,
    lam: float,
    cw: np.ndarray,
) -> float:
    """Composite loss; writes the gradient of every parameter to bundle.grad.

    With the shift head present its term is always computed and scaled by
    lambda; lambda = 0 zeroes the contribution through exact float identities.
    """
    H, cache = _context_forward(bundle, X)
    rr_loss, dH_rr = _rr_loss_and_grads(bundle, H, y, cw)
    rr_scale = 1.0 - lam
    for grad in bundle.grads[bundle.cfg.head].values():
        grad *= rr_scale
    dH = rr_scale * dH_rr
    total = rr_scale * rr_loss
    if "shift" in bundle.params:
        if shift_bits is None:
            raise DataError("shift bits required when the shift head is enabled")
        s_loss, dH_shift = shift_loss(H, shift_bits, bundle.params["shift"], bundle.grads["shift"])
        total = total + lam * s_loss
        for grad in bundle.grads["shift"].values():
            grad *= lam
        dH = dH + lam * dH_shift
    _context_backward(bundle, cache, dH)
    return total


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Sgd:
    """Updates a bundle's parameter vector in place from a gradient vector of
    the same layout, which it only reads. The update is formed in one buffer
    allocated once."""

    def __init__(self, layout: dict[str, ParamSpec], lr: float):
        self.update = np.empty(layout_size(layout))
        self.lr = lr

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        flat -= np.multiply(grad, self.lr, out=self.update)


class _Adam(_Sgd):
    """Kingma & Ba's Adam at their suggested constants, with in-place vector
    ops; each element sees the same operations in the same order as the
    textbook per-tensor update."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, layout: dict[str, ParamSpec], lr: float):
        super().__init__(layout, lr)
        self.t = 0
        self.m = np.zeros_like(self.update)
        self.v = np.zeros_like(self.update)
        self.scratch = np.empty_like(self.update)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        g, u, s, m, v = grad, self.update, self.scratch, self.m, self.v
        m *= b1  # m = b1*m + (1-b1)*g
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2  # v = b2*v + ((1-b2)*g)*g
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v += s
        np.divide(v, bias2, out=s)  # p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
        np.sqrt(s, out=s)
        s += self.eps
        np.divide(m, bias1, out=u)
        u *= self.lr
        u /= s
        flat -= u


def make_optimizer(cfg: TrainConfig, layout: dict[str, ParamSpec]):
    if cfg.optimizer == "sgd":
        return _Sgd(layout, cfg.learning_rate)
    return _Adam(layout, cfg.learning_rate)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _features(bundle: ModelBundle, base: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Features of one document. With label features on, row j's previous
    label is y[j-1] when the label ids y are given, and none on every row
    otherwise, as at the start of a free-running decode."""
    cfg, prev = bundle.cfg, None
    if cfg.label_mode != "off":
        prev = np.full(base.shape[0], -1)
        if y is not None:
            prev[1:] = y[:-1]
    return featurize(base, cfg.window, cfg.positional, cfg.sin_dim, prev)


def _targets(bundle: ModelBundle, gold) -> tuple[np.ndarray, np.ndarray | None]:
    """Label ids, and the shift bits when the model has a shift head."""
    y = np.asarray(gold, np.int64)
    return y, label_shift_sequence(y) if "shift" in bundle.params else None


def _predict_chunk(bundle: ModelBundle, bases: list, mode: str, ys=None) -> list[list[int]]:
    """Label ids for a few documents from their sentence vectors, given the
    gold label ids ys in teacher-forced mode. Free-running decoding with
    label features steps through the chunk a sentence at a time; every other
    configuration featurizes per document, then runs the BiLSTM recurrence
    and the CRF Viterbi pass once over the padded chunk."""
    if bundle.cfg.label_mode != "off" and mode == "free_running":
        return [labels for labels, _, _ in _free_running(bundle, bases)]
    ys = ys or [None] * len(bases)
    Hs = _context_rows(bundle, [_features(bundle, base, y) for base, y in zip(bases, ys)])
    p = bundle.params[bundle.cfg.head]
    if bundle.cfg.head == "crf":
        return crf_mod.viterbi_decode_batch([crf_mod.emissions(H, p) for H in Hs], p)
    return [[int(v) for v in (H @ p["W"] + p["b"]).argmax(axis=1)] for H in Hs]


def _context_rows(bundle: ModelBundle, Xs: list) -> list[np.ndarray]:
    """Context output of each document: the BiLSTM runs once over the padded
    batch, the other encoders per document."""
    if bundle.cfg.context_kind == "bilstm":
        return ctx.bilstm_forward_batch(Xs, bundle.params["bilstm"])[0]
    return [_context_forward(bundle, X)[0] for X in Xs]


def _step_head(bundle: ModelBundle, m: np.ndarray):
    """score(j, H, prev): greedy scores of position j of each document of
    lengths m from its context row in H (B, d), given the labels prev
    committed at j - 1 (-1 at j = 0). Each row meets the head weights in its
    own product."""
    p = bundle.params[bundle.cfg.head]
    if bundle.cfg.head == "softmax":
        W, b = p["W"], p["b"]
        return lambda j, H, prev: (H[:, None] @ W)[:, 0] + b
    W_e, b_e = p["W_e"], p["b_e"]
    before = np.vstack([p["T"], p["start"]])  # row c: the transition from label c; row -1: start
    last = (np.arange(m.max())[:, None] == m - 1)[..., None] * p["end"]  # end on each document's last row
    return lambda j, H, prev: (H[:, None] @ W_e)[:, 0] + b_e + before.take(prev, axis=0) + last[j]


class _FullForwardSteps:
    """The chunk-step interface (see the chunk steps in context) for stacked
    attention and GCN with similarity edges, where one committed label
    reaches every output row: row j of a document is read from a full
    forward pass over its features, into which each commit is written."""

    name = None  # each forward pass checks its own output

    def __init__(self, bundle: ModelBundle, Xs: list):
        self.bundle, self.Xs = bundle, Xs

    def step(self, j: int, prev: np.ndarray) -> np.ndarray:
        rows = np.zeros((len(self.Xs), self.bundle.context_dim))
        for b, X in enumerate(self.Xs):
            if j < X.shape[0]:
                if prev[b] >= 0:
                    X[j, prev[b] - NUM_ROLES] = 1.0
                rows[b] = _context_forward(self.bundle, X)[0][j]
        return rows


def _chunk_steps(bundle: ModelBundle, Xs: list):
    kind = bundle.cfg.context_kind
    if kind == "none":
        return ctx.FeatureSteps(Xs)
    p = bundle.params[_CONTEXT_BLOCK[kind]]
    if kind == "bilstm":
        return ctx.BilstmSteps(Xs, p)
    if kind == "attention" and "layer1.Q" not in p:
        return ctx.AttentionSteps(Xs, p)
    if kind == "gcn" and bundle.cfg.gcn_sim_threshold is None:
        return ctx.GcnSteps(Xs, p)
    return _FullForwardSteps(bundle, Xs)


def _free_running(bundle: ModelBundle, bases: list) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """Greedy left-to-right decode of a chunk of documents that feeds each
    committed label into the next sentence's previous-label block. Returns,
    per document, the labels, the (m, 7) step scores they were taken from,
    and the features with every committed label in place.

    Committing label j-1 changes only row j of the features, so each document
    is featurized and projected once, and each step computes row j of every
    document of the chunk at once. A document's numbers do not depend on the
    rest of its chunk."""
    Xs = [_features(bundle, base) for base in bases]
    m = np.array([X.shape[0] for X in Xs])
    T, B = m.max(), len(Xs)
    steps, score = _chunk_steps(bundle, Xs), _step_head(bundle, m)
    H, scores, labels = [], [], []
    prev = np.full(B, -1)
    for j in range(T):
        H.append(steps.step(j, prev))
        scores.append(score(j, H[-1], prev))
        prev = scores[-1].argmax(axis=1)
        labels.append(prev)
    if steps.name is not None:  # concatenate, not stack: a few times faster on many small rows
        ctx.check_finite(steps.name, np.concatenate(H).reshape(T, B, -1)[np.arange(T)[:, None] < m])
    scores, labels = np.concatenate(scores).reshape(T, B, -1), np.concatenate(labels).reshape(T, B)
    out = []
    for b, X in enumerate(Xs):
        y = labels[: m[b], b]
        X[np.arange(1, m[b]), y[:-1] - NUM_ROLES] = 1.0
        out.append((y.tolist(), scores[: m[b], b], X))
    return out


# Documents per batched forward pass: enough to amortize the per-step
# overhead of the recurrence, few enough to keep the padded arrays small.
_CHUNK_DOCS = 16


def _chunks(docs) -> list[tuple[list[int], list]]:
    """(input positions, documents) of each chunk, cut from a stable sort by
    sentence count so that a padded batch holds documents of near-equal length."""
    order = sorted(range(len(docs)), key=lambda i: len(docs[i]))
    cuts = [order[lo : lo + _CHUNK_DOCS] for lo in range(0, len(docs), _CHUNK_DOCS)]
    return [(idx, [docs[i] for i in idx]) for idx in cuts]


def predict_documents(
    docs, bundle: ModelBundle, mode: str = "free_running", encoder=None
) -> list[list[RhetoricalRole]]:
    """Label documents, a chunk at a time; every number is the same as when
    labelling each document on its own. With label_mode=off both modes
    coincide; otherwise teacher_forced feeds gold previous labels and
    free_running feeds the model's own greedy predictions."""
    if mode not in ("free_running", "teacher_forced"):
        raise DataError(f"unknown prediction mode {mode!r}")
    if encoder is None:
        encoder = bundle.make_encoder()
    docs = list(docs)
    forced = bundle.cfg.label_mode != "off" and mode == "teacher_forced"
    ys = [np.asarray(doc.gold_labels(), np.int64) for doc in docs] if forced else None
    out: list = [None] * len(docs)
    for idx, chunk in _chunks(docs):
        chunk_ys = [ys[i] for i in idx] if ys else None
        for i, ids in zip(idx, _predict_chunk(bundle, encoder.encode_documents(chunk), mode, chunk_ys)):
            out[i] = [RhetoricalRole(v) for v in ids]
    return out


def predict_document(
    doc: Document, bundle: ModelBundle, mode: str = "free_running", encoder=None
) -> list[RhetoricalRole]:
    """Label one document; see predict_documents."""
    return predict_documents([doc], bundle, mode, encoder)[0]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _validation_macro_f1(bundle: ModelBundle, val: Corpus, base_map: dict) -> float:
    gold_seqs, pred_seqs = [], []  # paired a chunk at a time; the confusion counts ignore the order
    for _, chunk in _chunks(val.documents):
        gold_seqs += [[int(r) for r in doc.gold_labels()] for doc in chunk]
        pred_seqs += _predict_chunk(bundle, [base_map[doc.doc_id] for doc in chunk], "free_running")
    cm = confusion(gold_seqs, pred_seqs)
    _, _, macro_f1, _ = macro_prf(cm)
    return macro_f1


def _shift_validation_accuracy(bundle: ModelBundle, val: Corpus, base_map: dict):
    """Shift-head accuracy and the majority-bit baseline over the validation
    sentences, a chunk of documents at a time. Features are teacher-forced
    when label features are on."""
    correct = total = ones = 0
    shift = bundle.params["shift"]
    for _, chunk in _chunks(val.documents):
        targets = [_targets(bundle, doc.gold_labels()) for doc in chunk]
        Xs = [_features(bundle, base_map[doc.doc_id], y) for doc, (y, _) in zip(chunk, targets)]
        for H, (_, bits) in zip(_context_rows(bundle, Xs), targets):
            z = H @ shift["w"] + shift["b"][0]
            pred_bits = (z > 0).astype(np.float64)
            correct += int((pred_bits == bits).sum())
            total += len(bits)
            ones += int(bits.sum())
    majority = max(ones, total - ones) / total
    return correct / total, majority


def train_model(
    train: Corpus, val: Corpus, cfg: TrainConfig, encoder
) -> tuple[ModelBundle, TrainReport]:
    """Train on per-document updates; track validation macro-F1 each epoch and
    return the best-validation checkpoint (strict improvement, earliest wins).
    early_stopping_patience = 0 disables early stopping."""
    if len(val) == 0:
        raise DataError("validation corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    base_train, base_val = ({doc.doc_id: x for _, chunk in _chunks(part.documents)  # coded a chunk at a time
                             for doc, x in zip(chunk, encoder.encode_documents(chunk))} for part in (train, val))
    bundle = build_model(cfg, encoder.spec(), rng)
    cw = inverse_frequency_weights(train) if cfg.class_weights == "auto" else np.ones(NUM_ROLES)
    lam = cfg.mtl_lambda if cfg.mtl else 0.0
    optimizer = make_optimizer(cfg, bundle.layout)

    # Targets and teacher-forced features are fixed across epochs, so the
    # latter's sentence vectors are dropped once featurized; free-running
    # label features depend on current parameters and are rebuilt per visit.
    targets = {doc.doc_id: _targets(bundle, doc.gold_labels()) for doc in train}
    fixed_X: dict[str, np.ndarray] = {}
    if cfg.label_mode != "predicted":
        for doc in train:
            fixed_X[doc.doc_id] = _features(bundle, base_train.pop(doc.doc_id), targets[doc.doc_id][0])

    docs = list(train)
    train_losses: list[float] = []
    val_scores: list[float] = []
    best_f1 = -np.inf
    best_epoch = 0
    best_state: np.ndarray | None = None
    since_best = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for di in order:
            doc = docs[di]
            y, bits = targets[doc.doc_id]
            if cfg.label_mode == "predicted":
                [(_, _, X)] = _free_running(bundle, [base_train[doc.doc_id]])
            else:
                X = fixed_X[doc.doc_id]
            loss = document_loss_and_grads(bundle, X, y, bits, lam, cw)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, document {doc.doc_id!r}"
                )
            optimizer.step(bundle.flat, bundle.grad)
            epoch_loss += loss
        train_losses.append(epoch_loss / len(docs))
        val_f1 = _validation_macro_f1(bundle, val, base_val)
        val_scores.append(val_f1)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best_state = bundle.flat.copy()
            since_best = 0
        else:
            since_best += 1
            if cfg.early_stopping_patience > 0 and since_best >= cfg.early_stopping_patience:
                break
    if best_state is not None:
        bundle.flat[:] = best_state
    shift_acc = None
    shift_majority = None
    if "shift" in bundle.params:
        shift_acc, shift_majority = _shift_validation_accuracy(bundle, val, base_val)
    report = TrainReport(
        train_losses=tuple(train_losses),
        val_macro_f1=tuple(val_scores),
        best_epoch=best_epoch,
        shift_val_accuracy=shift_acc,
        shift_majority_baseline=shift_majority,
    )
    return bundle, report


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


# Gradcheck checks a block of at most this many entries exhaustively, a
# larger one on this many seeded sample coordinates.
_GRADCHECK_COORDS = 60


def gradcheck(
    bundle: ModelBundle,
    doc: Document,
    step: float = 1e-4,
    tolerance: float = 1e-3,
    encoder=None,
) -> GradCheckReport:
    """Central finite differences against the analytic gradients of the
    composite loss (lambda = 0.5 when the shift head exists, else 0).

    Blocks of at most _GRADCHECK_COORDS entries are checked exhaustively;
    larger ones on that many seeded sample coordinates. Relative error guards
    the denominator at 1e-6 so near-zero pairs are compared absolutely."""
    if not (step > 0 and math.isfinite(step)):
        raise DataError(f"finite-difference step must be positive and finite, got {step}")
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise DataError(f"gradcheck tolerance must be finite and >= 0, got {tolerance}")
    if encoder is None:
        encoder = bundle.make_encoder()
    y, bits = _targets(bundle, doc.gold_labels())
    X = _features(bundle, encoder.encode_document(doc), y)
    lam = 0.5 if "shift" in bundle.params else 0.0
    cw = np.ones(NUM_ROLES)

    def loss_fn() -> float:
        return document_loss_and_grads(bundle, X, y, bits, lam, cw)

    loss_fn()
    analytic = _views(bundle.grad.copy(), bundle.layout)  # each loss_fn() call overwrites bundle.grad
    rng = np.random.default_rng(0)
    report: dict[str, float] = {}
    for name, tensor in bundle.parameter_blocks().items():
        flat = tensor.reshape(-1)
        size = flat.shape[0]
        coords = np.arange(size) if size <= _GRADCHECK_COORDS else rng.choice(size, _GRADCHECK_COORDS, replace=False)
        grad_flat = analytic[name].reshape(-1)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            up = loss_fn()
            flat[c] = original - step
            down = loss_fn()
            flat[c] = original
            fd = (up - down) / (2.0 * step)
            denom = max(1e-6, abs(fd) + abs(grad_flat[c]))
            worst = max(worst, abs(fd - grad_flat[c]) / denom)
        report[name] = worst
    return GradCheckReport(max_rel_error=report, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """A line of JSON with sorted keys and no timestamps, holding the settings, listing each tensor's
    [name, shape] in layout order and giving the CRC-32 of the parameter bytes, then the parameter vector
    as little-endian float64 bytes: identical bundles give identical bytes, and every value round-trips
    exactly."""
    payload = bundle.flat.astype("<f8", copy=False).tobytes()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "rhetseg-checkpoint",
        "labels": list(ROLE_NAMES),
        "encoder": bundle.encoder_spec,
        "config": bundle.cfg.to_echo(),
        "tensors": [[name, list(spec.shape)] for name, spec in bundle.layout.items()],
        "crc32": zlib.crc32(payload),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


# The keys of a checkpoint header, all of which save_checkpoint writes.
_HEADER_KEYS = {"format_version", "kind", "labels", "encoder", "config", "tensors", "crc32"}


def _is_int(value) -> bool:
    return type(value) is int


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_like(default):
    """The test that a config value has its field's type, read from the
    default: an int passes for a float and a list of ints for a tuple."""
    if isinstance(default, tuple):
        return _is_int_list
    return _is_number if type(default) is float else lambda v: type(v) is type(default)


# Checkpoint fields: section -> key -> the values it may take, or a test of
# its value. "hash" lists the further encoder fields of a hashing encoder.
_FIELDS = {
    "encoder": {"kind": ("hash", "precomputed"), "dim": lambda v: _is_int(v) and v > 0},
    "hash": {"ngram_orders": _is_int_list, "seed": lambda v: _is_int(v) and -(2**63) <= v < 2**63},
    "config": {f.name: _is_like(f.default) for f in dataclasses.fields(TrainConfig)}
    | {"gcn_sim_threshold": lambda v: v is None or _is_number(v)},
}


def _check_fields(entry: dict, name: str, fields: dict) -> None:
    """Every key of fields is in entry with a valid value, and entry has no other key."""
    for key, valid in fields.items():
        if key not in entry:
            raise DataError(f"checkpoint {name} is missing {key!r}")
        if not (valid(entry[key]) if callable(valid) else entry[key] in valid):
            raise DataError(f"checkpoint {name}.{key} has an invalid value")
    if entry.keys() - fields.keys():
        raise DataError(f"checkpoint {name} has unknown key {min(entry.keys() - fields.keys())!r}")


def load_checkpoint(path) -> ModelBundle:
    """Read a checkpoint, checking that its header has no unknown key, then the
    encoder fields and the config, then the tensor list and the byte count
    against the layout the config implies, then the parameter bytes against
    their CRC-32."""
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.find(b"\n")
    try:
        header = json.loads((data[:cut] if cut >= 0 else data).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 ({exc.reason}): {str(path)!r}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint is not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise DataError("checkpoint is not valid JSON (nesting too deep)") from None
    if not isinstance(header, dict) or header.get("kind") != "rhetseg-checkpoint":
        raise DataError("not a model checkpoint")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint has unsupported version {header.get('format_version')!r}, "
                        f"expected {CHECKPOINT_VERSION}")
    if header.get("labels") != list(ROLE_NAMES):
        raise DataError("checkpoint label set does not match this package")
    for entry in ("encoder", "config"):
        if not isinstance(header.get(entry), dict):
            raise DataError(f"checkpoint entry {entry!r} is missing or not an object")
    if not isinstance(header.get("tensors"), list):
        raise DataError("checkpoint entry 'tensors' is missing or not a list")
    if not _is_int(header.get("crc32")):
        raise DataError("checkpoint entry 'crc32' is missing or not an integer")
    if header.keys() - _HEADER_KEYS:
        raise DataError(f"checkpoint has unknown key {min(header.keys() - _HEADER_KEYS)!r}")
    encoder, echo, tensors = header["encoder"], header["config"], header["tensors"]
    _check_fields(encoder, "encoder", _FIELDS["encoder"] | (_FIELDS["hash"] if encoder.get("kind") == "hash" else {}))
    _check_fields(echo, "config", _FIELDS["config"])
    if encoder["kind"] == "hash":
        _hash_config(encoder)  # checks the width and the n-gram orders
    try:  # TrainConfig checks the values; OverflowError: an int too large for a float's check
        cfg = TrainConfig(**echo)
    except (DataError, OverflowError) as exc:
        raise DataError(f"checkpoint config: {exc}") from None
    if cfg.context_kind == "attention" and 4 * cfg.attention_layers > len(tensors):  # before building their layout
        raise DataError(f"checkpoint lists {len(tensors)} tensors, too few for {cfg.attention_layers} attention layers")
    payload = len(data) - cut - 1
    # the bundle first views the file's bytes, so its layout is checked
    # before a vector is allocated, and that vector never holds more than the file does
    bundle = ModelBundle(cfg, encoder, np.frombuffer(data, "<f8", payload // 8, cut + 1))
    wanted = [[name, list(spec.shape)] for name, spec in bundle.layout.items()]
    for i, (got, want) in enumerate(itertools.zip_longest(tensors, wanted)):
        if got != want:
            raise DataError(f"checkpoint tensor {i} is listed as {got!r}, expected {want!r}")
    if cut < 0:
        raise DataError("checkpoint has no newline after its header")
    size = layout_size(bundle.layout)
    if payload != 8 * size:
        raise DataError(f"checkpoint holds {payload} parameter bytes, expected {8 * size}")
    if zlib.crc32(memoryview(data)[cut + 1 :]) != header["crc32"]:
        raise DataError("checkpoint parameter bytes do not match their CRC-32")
    bundle.flat = bundle.flat.copy()
    if not np.isfinite(bundle.flat).all():
        name = next(name for name, view in bundle.parameter_blocks().items() if not np.isfinite(view).all())
        raise DataError(f"checkpoint tensor {name!r} holds a non-finite value")
    return bundle
