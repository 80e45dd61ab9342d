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

import copy
import json
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import context as ctx
from . import crf as crf_mod
from .corpus import Corpus, Document, label_shift_sequence
from .encode import HashEncoderConfig, HashingEncoder, featurize, feature_width
from .errors import DataError, NumericError
from .metrics import confusion, macro_prf
from .roles import NUM_ROLES, ROLE_NAMES, RhetoricalRole

CHECKPOINT_VERSION = 1

_LABEL_MODE_ALIASES = {
    "off": "off",
    "gold": "gold",
    "gold_previous": "gold",
    "predicted": "predicted",
    "predicted_previous": "predicted",
}


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    class_weights: dict | None = None  # role -> positive weight, softmax head only
    early_stopping_patience: int = 3
    lstm_hidden: int = 32
    attention_layers: int = 1
    gcn_hidden: int = 128
    gcn_sim_threshold: float | None = None

    def __post_init__(self) -> None:
        self.label_mode = _LABEL_MODE_ALIASES.get(self.label_mode, self.label_mode)
        if self.head not in ("crf", "softmax"):
            raise DataError(f"unknown head {self.head!r}")
        if self.context_kind not in ("none", "bilstm", "attention", "gcn"):
            raise DataError(f"unknown context kind {self.context_kind!r}")
        if self.label_mode not in ("off", "gold", "predicted"):
            raise DataError(f"unknown label mode {self.label_mode!r}")
        if self.positional not in ("none", "normalized", "sinusoidal"):
            raise DataError(f"unknown positional mode {self.positional!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise DataError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.mtl_lambda <= 1.0:
            raise DataError(f"lambda must lie in [0, 1], got {self.mtl_lambda}")
        if self.learning_rate <= 0:
            raise DataError("learning rate must be positive")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.early_stopping_patience < 0:
            raise DataError("patience must be >= 0")
        self.window = tuple(self.window)
        if self.class_weights is not None:
            if self.head != "softmax":
                raise DataError("class weights apply to the softmax head only")
            for role, w in self.class_weights.items():
                if w <= 0:
                    raise DataError(f"class weight for {role} must be positive")

    def to_echo(self) -> dict:
        echo = {
            "head": self.head,
            "context_kind": self.context_kind,
            "window": list(self.window),
            "positional": self.positional,
            "sin_dim": self.sin_dim,
            "label_mode": self.label_mode,
            "mtl": self.mtl,
            "mtl_lambda": self.mtl_lambda,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "seed": self.seed,
            "optimizer": self.optimizer,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_eps": self.adam_eps,
            "early_stopping_patience": self.early_stopping_patience,
            "lstm_hidden": self.lstm_hidden,
            "attention_layers": self.attention_layers,
            "gcn_hidden": self.gcn_hidden,
            "gcn_sim_threshold": self.gcn_sim_threshold,
            "class_weights": (
                {str(int(RhetoricalRole.parse(k))): float(v) for k, v in self.class_weights.items()}
                if self.class_weights is not None
                else None
            ),
        }
        return echo


@dataclass
class SoftmaxParams:
    W: np.ndarray  # (context_dim, 7)
    b: np.ndarray  # (7,)


@dataclass
class ShiftParams:
    w: np.ndarray  # (context_dim,)
    b: np.ndarray  # (1,)


@dataclass
class TrainReport:
    train_losses: tuple[float, ...]
    val_macro_f1: tuple[float, ...]
    best_epoch: int  # 1-based
    wall_clock_seconds: float
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


@dataclass
class ModelBundle:
    encoder_spec: dict
    window: tuple[int, ...]
    positional: str
    sin_dim: int
    label_mode: str
    context_kind: str
    context_params: object  # BilstmParams | list[AttentionParams] | GcnParams | None
    gcn_sim_threshold: float | None
    head_kind: str
    head_params: object  # CrfParams | SoftmaxParams
    shift_params: ShiftParams | None
    feat_dim: int
    context_dim: int
    labels: tuple[str, ...] = ROLE_NAMES
    config_echo: dict = field(default_factory=dict)

    def parameter_blocks(self) -> dict[str, np.ndarray]:
        """Live views of every trainable tensor, in a stable order."""
        blocks: dict[str, np.ndarray] = {}
        if self.context_kind == "bilstm":
            p = self.context_params
            for direction in ("fwd", "bwd"):
                lp = getattr(p, direction)
                blocks[f"bilstm.{direction}.Wx"] = lp.Wx
                blocks[f"bilstm.{direction}.Wh"] = lp.Wh
                blocks[f"bilstm.{direction}.b"] = lp.b
        elif self.context_kind == "attention":
            for idx, layer in enumerate(self.context_params):
                for name in ("Q", "K", "V", "O"):
                    blocks[f"attn.layer{idx}.{name}"] = getattr(layer, name)
        elif self.context_kind == "gcn":
            blocks["gcn.W1"] = self.context_params.W1
            blocks["gcn.W2"] = self.context_params.W2
        if self.head_kind == "crf":
            hp = self.head_params
            blocks["crf.W_e"] = hp.W_e
            blocks["crf.b_e"] = hp.b_e
            blocks["crf.T"] = hp.T
            blocks["crf.start"] = hp.start
            blocks["crf.end"] = hp.end
        else:
            blocks["softmax.W"] = self.head_params.W
            blocks["softmax.b"] = self.head_params.b
        if self.shift_params is not None:
            blocks["shift.w"] = self.shift_params.w
            blocks["shift.b"] = self.shift_params.b
        return blocks

    def make_encoder(self):
        if self.encoder_spec["kind"] == "hash":
            return HashingEncoder(
                HashEncoderConfig(
                    dim=self.encoder_spec["dim"],
                    ngram_orders=tuple(self.encoder_spec["ngram_orders"]),
                    seed=self.encoder_spec["seed"],
                    signed=self.encoder_spec["signed"],
                )
            )
        raise DataError("bundle uses precomputed embeddings; pass an encoder explicitly")


def mtl_loss(rr_loss: float, shift_loss_value: float, lam: float) -> float:
    """L = lambda * L_shift + (1 - lambda) * L_RR."""
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"lambda must lie in [0, 1], got {lam}")
    if not (np.isfinite(rr_loss) and np.isfinite(shift_loss_value)):
        raise NumericError("non-finite loss passed to mtl_loss")
    return lam * shift_loss_value + (1.0 - lam) * rr_loss


def shift_loss(features: np.ndarray, shifts, head: ShiftParams) -> tuple[float, dict]:
    """Mean binary cross-entropy of sigmoid(features w + b) against the bits.

    Returns (loss, grads) with grads holding "w", "b", and "features". Uses
    log(1 + e^z) - y z per position, which is stable for any z.
    """
    bits = np.asarray(getattr(shifts, "bits", shifts), dtype=np.float64)
    m = features.shape[0]
    if bits.shape != (m,):
        raise DataError(f"shift bits length {bits.shape} does not match {m} rows")
    z = features @ head.w + head.b[0]
    loss = float(np.mean(np.logaddexp(0.0, z) - bits * z))
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
    dz = (p - bits) / m
    grads = {
        "w": features.T @ dz,
        "b": np.array([dz.sum()]),
        "features": np.outer(dz, head.w),
    }
    return loss, grads


def inverse_frequency_weights(corpus: Corpus) -> dict[RhetoricalRole, float]:
    """w_r proportional to 1/count_r, normalized to mean 1 over the 7 roles.

    Roles absent from the corpus are treated as count 1 so the weights stay
    finite.
    """
    counts = {role: 0 for role in RhetoricalRole}
    for doc in corpus:
        for sent in doc.sentences:
            if sent.gold is not None:
                counts[sent.gold] += 1
    raw = {role: 1.0 / max(counts[role], 1) for role in RhetoricalRole}
    mean = sum(raw.values()) / NUM_ROLES
    return {role: raw[role] / mean for role in RhetoricalRole}


def _class_weight_vector(cfg: TrainConfig) -> np.ndarray:
    vec = np.ones(NUM_ROLES)
    if cfg.class_weights is not None:
        for role, w in cfg.class_weights.items():
            vec[int(RhetoricalRole.parse(role))] = float(w)
    return vec


def build_model(cfg: TrainConfig, encoder_spec: dict, rng: np.random.Generator) -> ModelBundle:
    """Assemble a fresh bundle. Parameters draw from rng in a fixed order
    (context, head); the shift head starts at zero and draws nothing."""
    base_dim = encoder_spec["dim"]
    with_labels = cfg.label_mode != "off"
    feat_dim = feature_width(base_dim, cfg.window, cfg.positional, cfg.sin_dim, with_labels)
    if cfg.context_kind == "none":
        context_params = None
        context_dim = feat_dim
    elif cfg.context_kind == "bilstm":
        context_params = ctx.init_bilstm_params(feat_dim, cfg.lstm_hidden, rng)
        context_dim = 2 * cfg.lstm_hidden
    elif cfg.context_kind == "attention":
        context_params = ctx.init_attention_stack(feat_dim, cfg.attention_layers, rng)
        context_dim = feat_dim
    else:
        context_params = ctx.init_gcn_params(feat_dim, cfg.gcn_hidden, rng)
        context_dim = cfg.gcn_hidden
    if cfg.head == "crf":
        head_params = crf_mod.init_crf_params(context_dim, rng)
    else:
        bound = 1.0 / np.sqrt(context_dim)
        head_params = SoftmaxParams(
            W=rng.uniform(-bound, bound, size=(context_dim, NUM_ROLES)),
            b=np.zeros(NUM_ROLES),
        )
    shift_params = ShiftParams(w=np.zeros(context_dim), b=np.zeros(1)) if cfg.mtl else None
    return ModelBundle(
        encoder_spec=dict(encoder_spec),
        window=cfg.window,
        positional=cfg.positional,
        sin_dim=cfg.sin_dim,
        label_mode=cfg.label_mode,
        context_kind=cfg.context_kind,
        context_params=context_params,
        gcn_sim_threshold=cfg.gcn_sim_threshold,
        head_kind=cfg.head,
        head_params=head_params,
        shift_params=shift_params,
        feat_dim=feat_dim,
        context_dim=context_dim,
        config_echo=cfg.to_echo(),
    )


# ---------------------------------------------------------------------------
# Forward / backward plumbing shared by training, prediction, and gradcheck
# ---------------------------------------------------------------------------


def _context_forward(bundle: ModelBundle, X: np.ndarray):
    if bundle.context_kind == "none":
        return X, None
    if bundle.context_kind == "bilstm":
        return ctx.bilstm_forward_cache(X, bundle.context_params)
    if bundle.context_kind == "attention":
        return ctx.attention_stack_forward_cache(X, bundle.context_params)
    graph = ctx.build_graph(
        X.shape[0],
        X if bundle.gcn_sim_threshold is not None else None,
        bundle.gcn_sim_threshold,
    )
    return ctx.gcn_forward_cache(X, graph, bundle.context_params)


def _context_backward(bundle: ModelBundle, cache, dH: np.ndarray):
    if bundle.context_kind == "none":
        return {}, dH
    if bundle.context_kind == "bilstm":
        grads, dX = ctx.bilstm_backward(cache, bundle.context_params, dH)
        return {f"bilstm.{k}": v for k, v in grads.items()}, dX
    if bundle.context_kind == "attention":
        grads, dX = ctx.attention_stack_backward(cache, bundle.context_params, dH)
        return {f"attn.{k}": v for k, v in grads.items()}, dX
    grads, dX = ctx.gcn_backward(cache, bundle.context_params, dH)
    return {f"gcn.{k}": v for k, v in grads.items()}, dX


def _softmax_loss_and_grads(H: np.ndarray, y: np.ndarray, p: SoftmaxParams, cw: np.ndarray):
    m = H.shape[0]
    E = H @ p.W + p.b
    shifted = E - E.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_norm[:, None]
    weights = cw[y]
    loss = float(-(weights * log_probs[np.arange(m), y]).sum() / m)
    dE = np.exp(log_probs)
    dE[np.arange(m), y] -= 1.0
    dE *= (weights / m)[:, None]
    grads = {"softmax.W": H.T @ dE, "softmax.b": dE.sum(axis=0)}
    return loss, grads, dE @ p.W.T


def _rr_loss_and_grads(bundle: ModelBundle, H: np.ndarray, y: np.ndarray, cw: np.ndarray):
    if bundle.head_kind == "crf":
        p = bundle.head_params
        E = crf_mod.emissions(H, p)
        loss, dE, g = crf_mod.nll_and_grad(E, y, p)
        grads = {
            "crf.W_e": H.T @ dE,
            "crf.b_e": dE.sum(axis=0),
            "crf.T": g.transitions,
            "crf.start": g.start,
            "crf.end": g.end,
        }
        return loss, grads, dE @ p.W_e.T
    return _softmax_loss_and_grads(H, y, bundle.head_params, cw)


def document_loss_and_grads(
    bundle: ModelBundle,
    X: np.ndarray,
    y: np.ndarray,
    shift_bits: np.ndarray | None,
    lam: float,
    cw: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Composite loss and gradients for every parameter block.

    With the shift head present its term is always computed and scaled by
    lambda; lambda = 0 zeroes the contribution through exact float identities.
    """
    H, cache = _context_forward(bundle, X)
    rr_loss, grads, dH_rr = _rr_loss_and_grads(bundle, H, y, cw)
    rr_scale = 1.0 - lam
    for k in grads:
        grads[k] = rr_scale * grads[k]
    dH = rr_scale * dH_rr
    total = rr_scale * rr_loss
    if bundle.shift_params is not None:
        if shift_bits is None:
            raise DataError("shift bits required when the shift head is enabled")
        s_loss, s_grads = shift_loss(H, shift_bits, bundle.shift_params)
        total = total + lam * s_loss
        grads["shift.w"] = lam * s_grads["w"]
        grads["shift.b"] = lam * s_grads["b"]
        dH = dH + lam * s_grads["features"]
    ctx_grads, _ = _context_backward(bundle, cache, dH)
    grads.update(ctx_grads)
    return total, grads


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        for name, p in params.items():
            p -= self.lr * grads[name]


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return _Sgd(cfg.learning_rate)
    return _Adam(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _prev_labels(labels: list, m: int) -> list:
    """Entry j is the label of sentence j-1; missing entries are None."""
    prevs = [None] + list(labels)
    prevs = prevs[:m]
    return prevs + [None] * (m - len(prevs))


def _decode_full(bundle: ModelBundle, H: np.ndarray) -> list[int]:
    if bundle.head_kind == "crf":
        E = crf_mod.emissions(H, bundle.head_params)
        labels, _ = crf_mod.viterbi_decode(E, bundle.head_params)
        return labels
    E = H @ bundle.head_params.W + bundle.head_params.b
    return [int(v) for v in E.argmax(axis=1)]


def _featurize_doc(bundle: ModelBundle, base: np.ndarray, prevs) -> np.ndarray:
    return featurize(base, bundle.window, bundle.positional, bundle.sin_dim, prevs)


def _predict_from_base(bundle: ModelBundle, base: np.ndarray, mode: str, gold=None) -> list[int]:
    m = base.shape[0]
    if bundle.label_mode == "off":
        H, _ = _context_forward(bundle, _featurize_doc(bundle, base, None))
        return _decode_full(bundle, H)
    if mode == "teacher_forced":
        if gold is None:
            raise DataError("teacher-forced prediction requires gold labels")
        H, _ = _context_forward(bundle, _featurize_doc(bundle, base, _prev_labels(gold, m)))
        return _decode_full(bundle, H)
    if mode != "free_running":
        raise DataError(f"unknown prediction mode {mode!r}")
    preds, _ = _free_running(bundle, base)
    return preds


def _step_score(bundle: ModelBundle, h: np.ndarray, j: int, m: int, preds: list[int]) -> np.ndarray:
    """Greedy score of position j from its context row h, given the labels
    already committed before it."""
    p = bundle.head_params
    if bundle.head_kind == "softmax":
        return h @ p.W + p.b
    score = crf_mod.emissions(h[None, :], p)[0]
    score += p.start if j == 0 else p.T[preds[j - 1]]
    if j == m - 1:
        score += p.end
    return score


def _row_encoder(bundle: ModelBundle, X0: np.ndarray):
    """row(j, x) -> context output row j (see the row encoders in context),
    or None where one committed label reaches every output row: stacked
    attention and GCN with similarity edges."""
    kind = bundle.context_kind
    if kind == "none":
        return lambda j, x: x
    if kind == "bilstm":
        return ctx.BilstmRows(X0, bundle.context_params).row
    if kind == "attention":
        if len(bundle.context_params) > 1:
            return None
        return ctx.AttentionRows(X0, bundle.context_params[0]).row
    if bundle.gcn_sim_threshold is not None:
        return None
    return ctx.GcnRows(X0, ctx.build_graph(X0.shape[0]), bundle.context_params).row


def _free_running(bundle: ModelBundle, base: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy left-to-right decode that feeds each committed label into the
    next sentence's previous-label block. Returns the labels and the (m, 7)
    step scores they were taken from.

    Committing label j-1 changes only row j of the features, so the document
    is featurized once and one context row is computed per sentence; the
    configurations without a row encoder re-encode per sentence."""
    m = base.shape[0]
    X = _featurize_doc(bundle, base, [None] * m)
    row = _row_encoder(bundle, X)
    if row is None:
        return _free_running_reencode(bundle, base)
    label_col = X.shape[1] - NUM_ROLES
    preds: list[int] = []
    scores = np.empty((m, NUM_ROLES))
    for j in range(m):
        if j > 0:
            X[j, label_col + preds[-1]] = 1.0
        scores[j] = _step_score(bundle, row(j, X[j]), j, m, preds)
        preds.append(int(np.argmax(scores[j])))
    return preds, scores


def _free_running_reencode(bundle: ModelBundle, base: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The same decode by re-encoding the whole document once per sentence,
    O(m^2): the path for configurations without a row encoder, and the
    reference the row encoders are tested against."""
    m = base.shape[0]
    preds: list[int] = []
    scores = np.empty((m, NUM_ROLES))
    for j in range(m):
        prevs = _prev_labels([RhetoricalRole(v) for v in preds], m)
        H, _ = _context_forward(bundle, _featurize_doc(bundle, base, prevs))
        scores[j] = _step_score(bundle, H[j], j, m, preds)
        preds.append(int(np.argmax(scores[j])))
    return preds, scores


def predict_document(
    doc: Document, bundle: ModelBundle, mode: str = "free_running", encoder=None
) -> list[RhetoricalRole]:
    """Label one document. With label_mode=off both modes coincide; otherwise
    teacher_forced feeds gold previous labels and free_running feeds the
    model's own greedy predictions."""
    if encoder is None:
        encoder = bundle.make_encoder()
    base = encoder.encode_document(doc)
    gold = doc.gold_labels() if (bundle.label_mode != "off" and mode == "teacher_forced") else None
    ids = _predict_from_base(bundle, base, mode, gold)
    return [RhetoricalRole(v) for v in ids]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _validation_macro_f1(bundle: ModelBundle, val: Corpus, base_map: dict) -> float:
    gold_seqs = []
    pred_seqs = []
    for doc in val:
        gold = [int(r) for r in doc.gold_labels()]
        pred = _predict_from_base(bundle, base_map[doc.doc_id], "free_running")
        gold_seqs.append(gold)
        pred_seqs.append(pred)
    cm = confusion(gold_seqs, pred_seqs)
    _, _, macro_f1, _ = macro_prf(cm)
    return macro_f1


def _shift_validation_accuracy(bundle: ModelBundle, val: Corpus, base_map: dict):
    """Shift-head accuracy and the majority-bit baseline over the validation
    sentences. Features are teacher-forced when label features are on."""
    correct = 0
    total = 0
    ones = 0
    for doc in val:
        gold = doc.gold_labels()
        bits = np.array(label_shift_sequence(gold).bits, dtype=np.float64)
        prevs = _prev_labels(gold, len(doc)) if bundle.label_mode != "off" else None
        X = _featurize_doc(bundle, base_map[doc.doc_id], prevs)
        H, _ = _context_forward(bundle, X)
        z = H @ bundle.shift_params.w + bundle.shift_params.b[0]
        pred_bits = (z > 0).astype(np.float64)
        correct += int((pred_bits == bits).sum())
        total += len(bits)
        ones += int(bits.sum())
    majority = max(ones, total - ones) / total
    return correct / total, majority


def _snapshot(blocks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in blocks.items()}


def _restore(blocks: dict[str, np.ndarray], snapshot: dict[str, np.ndarray]) -> None:
    for k, v in blocks.items():
        v[...] = snapshot[k]


def train_model(
    train: Corpus, val: Corpus, cfg: TrainConfig, encoder
) -> tuple[ModelBundle, TrainReport]:
    """Train on per-document updates; track validation macro-F1 each epoch and
    return the best-validation checkpoint (strict improvement, earliest wins).
    early_stopping_patience = 0 disables early stopping."""
    started = time.perf_counter()
    if len(val) == 0:
        raise DataError("validation corpus is empty")
    gold_by_doc: dict[str, list[RhetoricalRole]] = {}
    for doc in train:
        gold_by_doc[doc.doc_id] = doc.gold_labels()
    rng = np.random.default_rng(cfg.seed)
    base_train = {doc.doc_id: encoder.encode_document(doc) for doc in train}
    base_val = {doc.doc_id: encoder.encode_document(doc) for doc in val}
    bundle = build_model(cfg, encoder.spec(), rng)
    cw = _class_weight_vector(cfg)
    lam = cfg.mtl_lambda if cfg.mtl else 0.0
    blocks = bundle.parameter_blocks()
    optimizer = _make_optimizer(cfg)

    # Teacher-forced features are fixed across epochs; free-running label
    # features depend on current parameters and are rebuilt per visit.
    fixed_X: dict[str, np.ndarray] = {}
    if cfg.label_mode != "predicted":
        for doc in train:
            prevs = (
                _prev_labels(gold_by_doc[doc.doc_id], len(doc))
                if cfg.label_mode == "gold"
                else None
            )
            fixed_X[doc.doc_id] = _featurize_doc(bundle, base_train[doc.doc_id], prevs)

    docs = list(train)
    train_losses: list[float] = []
    val_scores: list[float] = []
    best_f1 = -np.inf
    best_epoch = 0
    best_state: dict[str, np.ndarray] | None = None
    since_best = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(docs))
        epoch_loss = 0.0
        for di in order:
            doc = docs[di]
            y = np.array([int(r) for r in gold_by_doc[doc.doc_id]], dtype=np.int64)
            if cfg.label_mode == "predicted":
                preds = _predict_from_base(bundle, base_train[doc.doc_id], "free_running")
                prevs = _prev_labels([RhetoricalRole(v) for v in preds], len(doc))
                X = _featurize_doc(bundle, base_train[doc.doc_id], prevs)
            else:
                X = fixed_X[doc.doc_id]
            bits = (
                np.array(label_shift_sequence(gold_by_doc[doc.doc_id]).bits, dtype=np.float64)
                if bundle.shift_params is not None
                else None
            )
            loss, grads = document_loss_and_grads(bundle, X, y, bits, lam, cw)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, document {doc.doc_id!r}"
                )
            optimizer.step(blocks, grads)
            epoch_loss += loss
        train_losses.append(epoch_loss / len(docs))
        val_f1 = _validation_macro_f1(bundle, val, base_val)
        val_scores.append(val_f1)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best_state = _snapshot(blocks)
            since_best = 0
        else:
            since_best += 1
            if cfg.early_stopping_patience > 0 and since_best >= cfg.early_stopping_patience:
                break
    if best_state is not None:
        _restore(blocks, best_state)
    shift_acc = None
    shift_majority = None
    if bundle.shift_params is not None:
        shift_acc, shift_majority = _shift_validation_accuracy(bundle, val, base_val)
    report = TrainReport(
        train_losses=tuple(train_losses),
        val_macro_f1=tuple(val_scores),
        best_epoch=best_epoch,
        wall_clock_seconds=time.perf_counter() - started,
        shift_val_accuracy=shift_acc,
        shift_majority_baseline=shift_majority,
    )
    return bundle, report


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def gradcheck(
    bundle: ModelBundle,
    doc: Document,
    step: float = 1e-4,
    tolerance: float = 1e-3,
    encoder=None,
    max_coords: int = 60,
) -> GradCheckReport:
    """Central finite differences against the analytic gradients of the
    composite loss (lambda = 0.5 when the shift head exists, else 0).

    Blocks with at most max_coords entries are checked exhaustively; larger
    ones on max_coords seeded sample coordinates. Relative error guards the
    denominator at 1e-6 so near-zero pairs are compared absolutely."""
    if step <= 0:
        raise DataError("finite-difference step must be positive")
    if encoder is None:
        encoder = bundle.make_encoder()
    base = encoder.encode_document(doc)
    gold = doc.gold_labels()
    y = np.array([int(r) for r in gold], dtype=np.int64)
    prevs = _prev_labels(gold, len(doc)) if bundle.label_mode != "off" else None
    X = _featurize_doc(bundle, base, prevs)
    bits = (
        np.array(label_shift_sequence(gold).bits, dtype=np.float64)
        if bundle.shift_params is not None
        else None
    )
    lam = 0.5 if bundle.shift_params is not None else 0.0
    cw = np.ones(NUM_ROLES)

    def loss_fn() -> float:
        value, _ = document_loss_and_grads(bundle, X, y, bits, lam, cw)
        return value

    _, analytic = document_loss_and_grads(bundle, X, y, bits, lam, cw)
    rng = np.random.default_rng(0)
    report: dict[str, float] = {}
    for name, tensor in bundle.parameter_blocks().items():
        flat = tensor.reshape(-1)
        size = flat.shape[0]
        coords = np.arange(size) if size <= max_coords else rng.choice(size, max_coords, replace=False)
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
    """Versioned JSON with named tensors. repr-round-trip floats, sorted keys,
    no timestamps: identical bundles serialize to identical bytes."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "rhetseg-checkpoint",
        "encoder": bundle.encoder_spec,
        "feature": {
            "window": list(bundle.window),
            "positional": bundle.positional,
            "sin_dim": bundle.sin_dim,
            "label_mode": bundle.label_mode,
        },
        "context": {
            "kind": bundle.context_kind,
            "sim_threshold": bundle.gcn_sim_threshold,
        },
        "head": {"kind": bundle.head_kind},
        "labels": list(bundle.labels),
        "dims": {"feat_dim": bundle.feat_dim, "context_dim": bundle.context_dim},
        "tensors": {k: v.tolist() for k, v in bundle.parameter_blocks().items()},
        "config": bundle.config_echo,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _tensor(payload: dict, name: str) -> np.ndarray:
    if name not in payload["tensors"]:
        raise DataError(f"checkpoint missing tensor {name!r}")
    try:
        arr = np.array(payload["tensors"][name], dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"checkpoint tensor {name!r} is not a numeric array") from None
    if not np.all(np.isfinite(arr)):
        raise DataError(f"checkpoint tensor {name!r} holds a non-finite value")
    return arr


def load_checkpoint(path) -> ModelBundle:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"checkpoint is not valid JSON ({exc.msg})") from None
    if payload.get("kind") != "rhetseg-checkpoint":
        raise DataError("not a model checkpoint")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {payload.get('format_version')!r}")
    if payload.get("labels") != list(ROLE_NAMES):
        raise DataError("checkpoint label set does not match this package")
    feature = payload["feature"]
    context_kind = payload["context"]["kind"]
    head_kind = payload["head"]["kind"]
    feat_dim = payload["dims"]["feat_dim"]
    context_dim = payload["dims"]["context_dim"]
    if context_kind == "none":
        context_params = None
    elif context_kind == "bilstm":
        context_params = ctx.BilstmParams(
            fwd=ctx.LstmParams(
                Wx=_tensor(payload, "bilstm.fwd.Wx"),
                Wh=_tensor(payload, "bilstm.fwd.Wh"),
                b=_tensor(payload, "bilstm.fwd.b"),
            ),
            bwd=ctx.LstmParams(
                Wx=_tensor(payload, "bilstm.bwd.Wx"),
                Wh=_tensor(payload, "bilstm.bwd.Wh"),
                b=_tensor(payload, "bilstm.bwd.b"),
            ),
        )
        if context_params.output_dim != context_dim:
            raise DataError("checkpoint dims inconsistent with LSTM tensors")
    elif context_kind == "attention":
        layers = []
        idx = 0
        while f"attn.layer{idx}.Q" in payload["tensors"]:
            layers.append(
                ctx.AttentionParams(
                    Q=_tensor(payload, f"attn.layer{idx}.Q"),
                    K=_tensor(payload, f"attn.layer{idx}.K"),
                    V=_tensor(payload, f"attn.layer{idx}.V"),
                    O=_tensor(payload, f"attn.layer{idx}.O"),
                )
            )
            idx += 1
        if not layers:
            raise DataError("checkpoint missing attention tensors")
        context_params = layers
    elif context_kind == "gcn":
        context_params = ctx.GcnParams(
            W1=_tensor(payload, "gcn.W1"), W2=_tensor(payload, "gcn.W2")
        )
    else:
        raise DataError(f"unknown context kind {context_kind!r} in checkpoint")
    if head_kind == "crf":
        head_params = crf_mod.CrfParams(
            W_e=_tensor(payload, "crf.W_e"),
            b_e=_tensor(payload, "crf.b_e"),
            T=_tensor(payload, "crf.T"),
            start=_tensor(payload, "crf.start"),
            end=_tensor(payload, "crf.end"),
        )
        if head_params.context_dim != context_dim:
            raise DataError("checkpoint dims inconsistent with CRF tensors")
    elif head_kind == "softmax":
        head_params = SoftmaxParams(
            W=_tensor(payload, "softmax.W"), b=_tensor(payload, "softmax.b")
        )
        if head_params.W.shape != (context_dim, NUM_ROLES):
            raise DataError("checkpoint dims inconsistent with softmax tensors")
    else:
        raise DataError(f"unknown head kind {head_kind!r} in checkpoint")
    shift_params = None
    if "shift.w" in payload["tensors"]:
        shift_params = ShiftParams(
            w=_tensor(payload, "shift.w"), b=_tensor(payload, "shift.b")
        )
    return ModelBundle(
        encoder_spec=payload["encoder"],
        window=tuple(feature["window"]),
        positional=feature["positional"],
        sin_dim=feature["sin_dim"],
        label_mode=feature["label_mode"],
        context_kind=context_kind,
        context_params=context_params,
        gcn_sim_threshold=payload["context"]["sim_threshold"],
        head_kind=head_kind,
        head_params=head_params,
        shift_params=shift_params,
        feat_dim=feat_dim,
        context_dim=context_dim,
        labels=tuple(payload["labels"]),
        config_echo=payload.get("config", {}),
    )


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
    """Bitwise equality of every tensor plus structural fields; used by the
    determinism and MTL-consistency checks."""
    blocks_a = a.parameter_blocks()
    blocks_b = b.parameter_blocks()
    if blocks_a.keys() != blocks_b.keys():
        return False
    return all(np.array_equal(blocks_a[k], blocks_b[k]) for k in blocks_a)
