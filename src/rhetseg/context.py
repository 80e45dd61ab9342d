"""Document-level contextualizers: BiLSTM, single-head self-attention, 2-layer GCN.

Each encoder maps an (m, d) sentence matrix to an (m, d_out) matrix and ships
with an analytic backward pass (no autodiff). Forward-with-cache variants
return what the backward pass needs; plain encode variants are for inference.

LSTM parameters use the stacked-gate layout: rows of Wx/Wh/b hold the four
gates in (input, forget, output, candidate) order, h rows each. This stores
the per-gate matrices W_i..W_g and U_i..U_g contiguously so the recurrence is
one matmul per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, NumericError


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _check_finite(name: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"numeric overflow in {name}")


# ---------------------------------------------------------------------------
# LSTM / BiLSTM
# ---------------------------------------------------------------------------


@dataclass
class LstmParams:
    Wx: np.ndarray  # (4h, d)
    Wh: np.ndarray  # (4h, h)
    b: np.ndarray  # (4h,)

    @property
    def hidden_dim(self) -> int:
        return self.Wh.shape[1]

    @property
    def input_dim(self) -> int:
        return self.Wx.shape[1]


@dataclass
class BilstmParams:
    fwd: LstmParams
    bwd: LstmParams

    @property
    def output_dim(self) -> int:
        return self.fwd.hidden_dim + self.bwd.hidden_dim


def init_lstm_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmParams:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); forget-gate bias starts at 1."""
    h = hidden_dim
    Wx = _uniform_init(rng, (4 * h, input_dim), input_dim)
    Wh = _uniform_init(rng, (4 * h, h), h)
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    return LstmParams(Wx=Wx, Wh=Wh, b=b)


def init_bilstm_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> BilstmParams:
    return BilstmParams(
        fwd=init_lstm_params(input_dim, hidden_dim, rng),
        bwd=init_lstm_params(input_dim, hidden_dim, rng),
    )


def _lstm_forward_cache(X: np.ndarray, p: LstmParams):
    XW = X @ p.Wx.T
    G, C, H = kernels.lstm_recurrence(XW, p.Wh, p.b)
    return H, {"X": X, "G": G, "C": C, "H": H}


def lstm_forward(X: np.ndarray, p: LstmParams) -> np.ndarray:
    """One direction: h_t from the standard gate equations, h_0 = c_0 = 0."""
    if X.shape[1] != p.input_dim:
        raise DataError(f"input width {X.shape[1]} != lstm input dim {p.input_dim}")
    H, _ = _lstm_forward_cache(X, p)
    _check_finite("lstm_forward", H)
    return H


def _lstm_backward(cache: dict, p: LstmParams, dH: np.ndarray):
    G, C, H, X = cache["G"], cache["C"], cache["H"], cache["X"]
    WhT = np.ascontiguousarray(p.Wh.T)
    dA = kernels.lstm_recurrence_backward(G, C, WhT, dH)
    h = p.hidden_dim
    H_prev = np.vstack([np.zeros((1, h)), H[:-1]])
    dWx = dA.T @ X
    dWh = dA.T @ H_prev
    db = dA.sum(axis=0)
    dX = dA @ p.Wx
    return {"Wx": dWx, "Wh": dWh, "b": db}, dX


def bilstm_forward_cache(X: np.ndarray, p: BilstmParams):
    Hf, cache_f = _lstm_forward_cache(X, p.fwd)
    Hb_rev, cache_b = _lstm_forward_cache(X[::-1], p.bwd)
    H = np.hstack([Hf, Hb_rev[::-1]])
    _check_finite("bilstm_encode", H)
    return H, {"fwd": cache_f, "bwd": cache_b}


def bilstm_encode(X: np.ndarray, fwd: LstmParams, bwd: LstmParams) -> np.ndarray:
    """Row t is [forward h_t || backward h_t]; the backward direction runs on
    the reversed sequence and is re-reversed."""
    H, _ = bilstm_forward_cache(X, BilstmParams(fwd=fwd, bwd=bwd))
    return H


def bilstm_backward(cache: dict, p: BilstmParams, dH: np.ndarray):
    h = p.fwd.hidden_dim
    grads_f, dX_f = _lstm_backward(cache["fwd"], p.fwd, np.ascontiguousarray(dH[:, :h]))
    dHb_rev = np.ascontiguousarray(dH[:, h:][::-1])
    grads_b, dX_b_rev = _lstm_backward(cache["bwd"], p.bwd, dHb_rev)
    dX = dX_f + dX_b_rev[::-1]
    grads = {f"fwd.{k}": v for k, v in grads_f.items()}
    grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
    return grads, dX


# ---------------------------------------------------------------------------
# Single-head self-attention with residual
# ---------------------------------------------------------------------------


@dataclass
class AttentionParams:
    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray
    O: np.ndarray

    @property
    def d_model(self) -> int:
        return self.Q.shape[0]


def init_attention_params(d_model: int, rng: np.random.Generator) -> AttentionParams:
    return AttentionParams(
        Q=_uniform_init(rng, (d_model, d_model), d_model),
        K=_uniform_init(rng, (d_model, d_model), d_model),
        V=_uniform_init(rng, (d_model, d_model), d_model),
        O=_uniform_init(rng, (d_model, d_model), d_model),
    )


def _softmax_rows(S: np.ndarray) -> np.ndarray:
    shifted = S - S.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def attention_forward_cache(X: np.ndarray, p: AttentionParams):
    if X.shape[1] != p.d_model:
        raise DataError(f"input width {X.shape[1]} != attention d_model {p.d_model}")
    scale = 1.0 / math.sqrt(p.d_model)
    Qx = X @ p.Q
    Kx = X @ p.K
    Vx = X @ p.V
    A = _softmax_rows((Qx @ Kx.T) * scale)
    Z = A @ Vx
    Y = Z @ p.O + X
    _check_finite("self_attention_encode", Y)
    return Y, {"X": X, "Qx": Qx, "Kx": Kx, "Vx": Vx, "A": A, "Z": Z, "scale": scale}


def self_attention_encode(X: np.ndarray, p: AttentionParams) -> np.ndarray:
    """Y = softmax(XQ (XK)^T / sqrt(d)) XV O + X."""
    Y, _ = attention_forward_cache(X, p)
    return Y


def attention_weights(X: np.ndarray, p: AttentionParams) -> np.ndarray:
    """The (m, m) row-stochastic attention matrix, for inspection and tests."""
    _, cache = attention_forward_cache(X, p)
    return cache["A"]


def attention_backward(cache: dict, p: AttentionParams, dY: np.ndarray):
    X, Qx, Kx, Vx, A, Z = cache["X"], cache["Qx"], cache["Kx"], cache["Vx"], cache["A"], cache["Z"]
    scale = cache["scale"]
    dO = Z.T @ dY
    dZ = dY @ p.O.T
    dA = dZ @ Vx.T
    dVx = A.T @ dZ
    # softmax rows: dS_r = A_r * (dA_r - <dA_r, A_r>)
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    dQx = (dS @ Kx) * scale
    dKx = (dS.T @ Qx) * scale
    grads = {"Q": X.T @ dQx, "K": X.T @ dKx, "V": X.T @ dVx, "O": dO}
    dX = dY + dQx @ p.Q.T + dKx @ p.K.T + dVx @ p.V.T
    return grads, dX


def init_attention_stack(d_model: int, n_layers: int, rng: np.random.Generator) -> list[AttentionParams]:
    return [init_attention_params(d_model, rng) for _ in range(n_layers)]


def attention_stack_forward_cache(X: np.ndarray, layers: list[AttentionParams]):
    caches = []
    H = X
    for p in layers:
        H, cache = attention_forward_cache(H, p)
        caches.append(cache)
    return H, caches


def attention_stack_backward(caches: list[dict], layers: list[AttentionParams], dY: np.ndarray):
    grads: dict[str, np.ndarray] = {}
    for idx in range(len(layers) - 1, -1, -1):
        layer_grads, dY = attention_backward(caches[idx], layers[idx], dY)
        for k, v in layer_grads.items():
            grads[f"layer{idx}.{k}"] = v
    return grads, dY


# ---------------------------------------------------------------------------
# 2-layer GCN over the sentence graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DocumentGraph:
    m: int
    edges: tuple[tuple[int, int], ...]
    a_hat: np.ndarray  # D^{-1/2} (A + I) D^{-1/2}


@dataclass
class GcnParams:
    W1: np.ndarray  # (d_in, hidden)
    W2: np.ndarray  # (hidden, hidden)

    @property
    def output_dim(self) -> int:
        return self.W2.shape[1]


def init_gcn_params(d_in: int, hidden: int, rng: np.random.Generator) -> GcnParams:
    return GcnParams(
        W1=_uniform_init(rng, (d_in, hidden), d_in),
        W2=_uniform_init(rng, (hidden, hidden), hidden),
    )


def build_graph(
    m: int, X: np.ndarray | None = None, sim_threshold: float | None = None
) -> DocumentGraph:
    """Path graph over sentence order, plus optional cosine-similarity edges,
    normalized as A_hat = D^{-1/2}(A + I)D^{-1/2}."""
    if m < 1:
        raise DataError(f"graph needs m >= 1, got {m}")
    if sim_threshold is not None and X is None:
        raise DataError("similarity threshold given without sentence vectors")
    edges = {(j, j + 1) for j in range(m - 1)}
    if sim_threshold is not None:
        norms = np.linalg.norm(X, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        unit = X / safe[:, None]
        sims = unit @ unit.T
        for i in range(m):
            for j in range(i + 1, m):
                if norms[i] > 0 and norms[j] > 0 and sims[i, j] >= sim_threshold:
                    edges.add((i, j))
    A = np.eye(m)
    for i, j in edges:
        A[i, j] = 1.0
        A[j, i] = 1.0
    degrees = A.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    a_hat = A * inv_sqrt[:, None] * inv_sqrt[None, :]
    return DocumentGraph(m=m, edges=tuple(sorted(edges)), a_hat=a_hat)


def gcn_layer(H: np.ndarray, g: DocumentGraph, W: np.ndarray, activate: bool) -> np.ndarray:
    """H' = A_hat H W, with elementwise ReLU when activate is set."""
    if H.shape[0] != g.m:
        raise DataError(f"feature rows {H.shape[0]} != graph nodes {g.m}")
    if H.shape[1] != W.shape[0]:
        raise DataError(f"feature width {H.shape[1]} != weight rows {W.shape[0]}")
    Z = (g.a_hat @ H) @ W
    return np.maximum(Z, 0.0) if activate else Z


def gcn_forward_cache(X: np.ndarray, g: DocumentGraph, p: GcnParams):
    P1 = g.a_hat @ X
    Z1 = P1 @ p.W1
    H1 = np.maximum(Z1, 0.0)
    P2 = g.a_hat @ H1
    Z2 = P2 @ p.W2
    H2 = np.maximum(Z2, 0.0)
    _check_finite("gcn_encode", H2)
    return H2, {"P1": P1, "Z1": Z1, "P2": P2, "Z2": Z2, "a_hat": g.a_hat}


def gcn_encode(X: np.ndarray, g: DocumentGraph, p: GcnParams) -> np.ndarray:
    """Two gcn_layer applications with ReLU after each."""
    H, _ = gcn_forward_cache(X, g, p)
    return H


def gcn_backward(cache: dict, p: GcnParams, dH2: np.ndarray):
    a_hat = cache["a_hat"]
    dZ2 = dH2 * (cache["Z2"] > 0)
    dW2 = cache["P2"].T @ dZ2
    dH1 = a_hat @ (dZ2 @ p.W2.T)
    dZ1 = dH1 * (cache["Z1"] > 0)
    dW1 = cache["P1"].T @ dZ1
    dX = a_hat @ (dZ1 @ p.W1.T)
    return {"W1": dW1, "W2": dW2}, dX


# ---------------------------------------------------------------------------
# Row-at-a-time forward passes for free-running decoding
#
# Free-running decoding commits one label per sentence, and committing the
# label of sentence j-1 changes only row j of the feature matrix (its
# previous-label block). Each encoder below starts from X0, the features with
# every previous-label block empty, and row(j, x) takes row j's final
# features and returns row j of the context output that the full forward
# pass would give on the matrix whose rows < j were passed in earlier, row j
# is x and rows > j are still X0. Rows must be visited in order 0..m-1, once
# each.
# ---------------------------------------------------------------------------


def lstm_cell_step(xw: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: LstmParams):
    """One step of kernels.lstm_recurrence for xw = x @ Wx.T: gate order
    (i, f, o, g), pre-activations clipped to +-60. Returns (h, c)."""
    h = p.hidden_dim
    a = np.clip(xw + p.Wh @ h_prev + p.b, -kernels._CLIP, kernels._CLIP)
    i = 1.0 / (1.0 + np.exp(-a[:h]))
    f = 1.0 / (1.0 + np.exp(-a[h : 2 * h]))
    o = 1.0 / (1.0 + np.exp(-a[2 * h : 3 * h]))
    g = np.tanh(a[3 * h :])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


class BilstmRows:
    """Forward direction: one cell step per row. Backward direction: the
    state after rows > j comes from one pass over reversed X0, then one cell
    step on row j."""

    def __init__(self, X0: np.ndarray, p: BilstmParams):
        self.p = p
        h = p.fwd.hidden_dim
        _, self.Cb, self.Hb = kernels.lstm_recurrence(X0[::-1] @ p.bwd.Wx.T, p.bwd.Wh, p.bwd.b)
        self.hf = np.zeros(h)
        self.cf = np.zeros(h)
        self.zero = np.zeros(p.bwd.hidden_dim)

    def row(self, j: int, x: np.ndarray) -> np.ndarray:
        p = self.p
        self.hf, self.cf = lstm_cell_step(p.fwd.Wx @ x, self.hf, self.cf, p.fwd)
        after = self.Hb.shape[0] - 2 - j  # reversed index of row j + 1
        h_next, c_next = (self.Hb[after], self.Cb[after]) if after >= 0 else (self.zero, self.zero)
        hb, _ = lstm_cell_step(p.bwd.Wx @ x, h_next, c_next, p.bwd)
        out = np.concatenate([self.hf, hb])
        _check_finite("bilstm_encode", out)
        return out


class AttentionRows:
    """Single attention layer: keys and values start as X0 K and X0 V, and
    row j's are overwritten when row j arrives."""

    def __init__(self, X0: np.ndarray, p: AttentionParams):
        if X0.shape[1] != p.d_model:
            raise DataError(f"input width {X0.shape[1]} != attention d_model {p.d_model}")
        self.p = p
        self.scale = 1.0 / math.sqrt(p.d_model)
        self.Kx = X0 @ p.K
        self.Vx = X0 @ p.V

    def row(self, j: int, x: np.ndarray) -> np.ndarray:
        p = self.p
        self.Kx[j] = x @ p.K
        self.Vx[j] = x @ p.V
        a = _softmax_rows(((x @ p.Q) @ self.Kx.T)[None, :] * self.scale)[0]
        out = (a @ self.Vx) @ p.O + x
        _check_finite("self_attention_encode", out)
        return out


class GcnRows:
    """Two GCN layers over a graph without similarity edges, whose a_hat is
    tridiagonal: output row j reads only input rows j-2..j+2."""

    def __init__(self, X0: np.ndarray, g: DocumentGraph, p: GcnParams):
        self.X = X0.copy()
        self.a_hat = g.a_hat
        self.p = p

    def row(self, j: int, x: np.ndarray) -> np.ndarray:
        self.X[j] = x
        m = self.X.shape[0]
        lo, hi = max(0, j - 2), min(m, j + 3)
        mid = slice(max(0, j - 1), min(m, j + 2))
        H1 = np.maximum((self.a_hat[mid, lo:hi] @ self.X[lo:hi]) @ self.p.W1, 0.0)
        out = np.maximum((self.a_hat[j, mid] @ H1) @ self.p.W2, 0.0)
        _check_finite("gcn_encode", out)
        return out
