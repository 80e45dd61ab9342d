"""Document-level contextualizers: BiLSTM, single-head self-attention, 2-layer GCN.

Each encoder maps an (m, d) sentence matrix to an (m, d_out) matrix and ships
with an analytic backward pass (no autodiff). Each forward pass returns its
output and the cache its backward pass needs, and training, validation and
batched prediction all run it. The row encoders at the end serve
free-running decoding.

Each encoder reads its tensors from `p`, one block of the parameter layout
keyed by the rest of the layout name ("fwd.Wx", "layer0.Q", "W1"); each
backward pass writes its gradients to those keys of `g`, the block's gradient.

LSTM parameters use the stacked-gate layout: rows of Wx/Wh/b hold the four
gates in (input, forget, output, candidate) order, h rows each. This stores
the per-gate matrices W_i..W_g and U_i..U_g contiguously so the recurrence is
one matmul per step.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from . import kernels
from .errors import DataError, NumericError


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"numeric overflow in {name}")


# ---------------------------------------------------------------------------
# LSTM / BiLSTM
# ---------------------------------------------------------------------------


Params = Mapping[str, np.ndarray]


def _lstm_backward(cache: dict, p: Params, g: Params, d: str, dH: np.ndarray) -> np.ndarray:
    """Writes the gradients of direction d ("fwd" or "bwd") to "d.Wx", "d.Wh", "d.b"."""
    G, C, H, X = cache["G"], cache["C"], cache["H"], cache["X"]
    Wh = p[f"{d}.Wh"]
    dA = kernels.lstm_recurrence_backward(G, C, np.ascontiguousarray(Wh.T), dH)
    H_prev = np.vstack([np.zeros((1, Wh.shape[1])), H[:-1]])
    g[f"{d}.Wx"][...], g[f"{d}.Wh"][...], g[f"{d}.b"][...] = dA.T @ X, dA.T @ H_prev, dA.sum(axis=0)
    return dA @ p[f"{d}.Wx"]


def _stacked_recurrent(p: Params):
    """Wh as (2, 1, 4h, h) and b as (2, 1, 4h), forward direction first: the
    recurrent weights of kernels.lstm_recurrence over both directions."""
    return np.stack([p["fwd.Wh"], p["bwd.Wh"]])[:, None], np.stack([p["fwd.b"], p["bwd.b"]])[:, None]


def bilstm_forward_batch(Xs: list[np.ndarray], p: Params):
    """Row t of a document's output is [forward h_t || backward h_t]; the
    backward direction runs on the reversed document and is re-reversed. One
    recurrence runs both directions over the zero-padded batch, (T, 2, B, 4h);
    the input projections stay per document and direction, as stacked rows
    would sum in a different order. Returns the outputs and each document's
    cache for bilstm_backward."""
    T = max(X.shape[0] for X in Xs)
    Wx_f, Wx_b = p["fwd.Wx"], p["bwd.Wx"]
    XW = np.zeros((T, 2, len(Xs), Wx_f.shape[0]))
    for j, X in enumerate(Xs):
        m = X.shape[0]
        XW[:m, 0, j] = X @ Wx_f.T
        XW[:m, 1, j] = X[::-1] @ Wx_b.T
    G, C, H = kernels.lstm_recurrence(XW, *_stacked_recurrent(p))
    Hs, caches = [], []
    for j, X in enumerate(Xs):
        m = X.shape[0]
        cache = {
            direction: {"X": Xd, "G": G[:m, k, j], "C": C[:m, k, j], "H": H[:m, k, j]}
            for k, (direction, Xd) in enumerate((("fwd", X), ("bwd", X[::-1])))
        }
        out = np.hstack([cache["fwd"]["H"], cache["bwd"]["H"][::-1]])
        _check_finite("bilstm_encode", out)
        Hs.append(out)
        caches.append(cache)
    return Hs, caches


def bilstm_forward_cache(X: np.ndarray, p: Params):
    """bilstm_forward_batch of one document."""
    Hs, caches = bilstm_forward_batch([X], p)
    return Hs[0], caches[0]


def bilstm_backward(cache: dict, p: Params, g: Params, dH: np.ndarray) -> np.ndarray:
    h = p["fwd.Wh"].shape[1]
    dX_f = _lstm_backward(cache["fwd"], p, g, "fwd", np.ascontiguousarray(dH[:, :h]))
    dX_b_rev = _lstm_backward(cache["bwd"], p, g, "bwd", np.ascontiguousarray(dH[:, h:][::-1]))
    return dX_f + dX_b_rev[::-1]


# ---------------------------------------------------------------------------
# Single-head self-attention with residual
# ---------------------------------------------------------------------------


def _softmax_rows(S: np.ndarray) -> np.ndarray:
    shifted = S - S.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _layer(p: Params, idx: int) -> list[np.ndarray]:
    """Q, K, V, O of attention layer idx."""
    return [p[f"layer{idx}.{n}"] for n in "QKVO"]


def _attention_scale(X: np.ndarray, Q: np.ndarray) -> float:
    if X.shape[1] != Q.shape[0]:
        raise DataError(f"input width {X.shape[1]} != attention d_model {Q.shape[0]}")
    return 1.0 / math.sqrt(Q.shape[0])


def attention_forward_cache(X: np.ndarray, p: Params, idx: int = 0):
    """Layer idx: Y = softmax(XQ (XK)^T / sqrt(d)) XV O + X; cache["A"] holds
    the attention weights."""
    Q, K, V, O = _layer(p, idx)
    scale = _attention_scale(X, Q)
    Qx = X @ Q
    Kx = X @ K
    Vx = X @ V
    A = _softmax_rows((Qx @ Kx.T) * scale)
    Z = A @ Vx
    Y = Z @ O + X
    _check_finite("self_attention_encode", Y)
    return Y, {"X": X, "Qx": Qx, "Kx": Kx, "Vx": Vx, "A": A, "Z": Z, "scale": scale}


def attention_backward(cache: dict, p: Params, g: Params, dY: np.ndarray, idx: int = 0) -> np.ndarray:
    Q, K, V, O = _layer(p, idx)
    X, Qx, Kx, Vx, A, Z = cache["X"], cache["Qx"], cache["Kx"], cache["Vx"], cache["A"], cache["Z"]
    scale = cache["scale"]
    dO = Z.T @ dY
    dZ = dY @ O.T
    dA = dZ @ Vx.T
    dVx = A.T @ dZ
    # softmax rows: dS_r = A_r * (dA_r - <dA_r, A_r>)
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    dQx = (dS @ Kx) * scale
    dKx = (dS.T @ Qx) * scale
    for n, grad in zip("QKVO", (X.T @ dQx, X.T @ dKx, X.T @ dVx, dO)):
        g[f"layer{idx}.{n}"][...] = grad
    return dY + dQx @ Q.T + dKx @ K.T + dVx @ V.T


def attention_stack_forward_cache(X: np.ndarray, p: Params):
    """Every layer of p in order, four tensors (Q, K, V, O) each."""
    caches = []
    H = X
    for idx in range(len(p) // 4):
        H, cache = attention_forward_cache(H, p, idx)
        caches.append(cache)
    return H, caches


def attention_stack_backward(caches: list[dict], p: Params, g: Params, dY: np.ndarray) -> np.ndarray:
    for idx in range(len(caches) - 1, -1, -1):
        dY = attention_backward(caches[idx], p, g, dY, idx)
    return dY


# ---------------------------------------------------------------------------
# 2-layer GCN over the sentence graph
# ---------------------------------------------------------------------------


def build_graph(
    m: int, X: np.ndarray | None = None, sim_threshold: float | None = None
) -> np.ndarray:
    """A_hat = D^{-1/2}(A + I)D^{-1/2} of the path graph over sentence order,
    plus optional cosine-similarity edges: (i, j) with i < j is an edge iff
    A_hat[i, j] is nonzero."""
    if m < 1:
        raise DataError(f"graph needs m >= 1, got {m}")
    if sim_threshold is not None and X is None:
        raise DataError("similarity threshold given without sentence vectors")
    upper = np.eye(m, k=1, dtype=bool)  # edge (i, j), i < j
    if sim_threshold is not None:
        norms = np.linalg.norm(X, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        unit = X / safe[:, None]
        nonzero = norms > 0
        # only sims[i, j] with i < j is read: unit @ unit.T need not be symmetric bit for bit
        upper |= np.triu(unit @ unit.T >= sim_threshold, 1) & nonzero[:, None] & nonzero[None, :]
    A = np.eye(m) + upper + upper.T
    degrees = A.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return A * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward_cache(X: np.ndarray, a_hat: np.ndarray, p: Params):
    """H2 = relu(A_hat relu(A_hat X W1) W2); W1 is (d_in, hidden), W2 (hidden, hidden)."""
    P1 = a_hat @ X
    Z1 = P1 @ p["W1"]
    H1 = np.maximum(Z1, 0.0)
    P2 = a_hat @ H1
    Z2 = P2 @ p["W2"]
    H2 = np.maximum(Z2, 0.0)
    _check_finite("gcn_encode", H2)
    return H2, {"P1": P1, "Z1": Z1, "P2": P2, "Z2": Z2, "a_hat": a_hat}


def gcn_backward(cache: dict, p: Params, g: Params, dH2: np.ndarray) -> np.ndarray:
    a_hat = cache["a_hat"]
    dZ2 = dH2 * (cache["Z2"] > 0)
    g["W2"][...] = cache["P2"].T @ dZ2
    dH1 = a_hat @ (dZ2 @ p["W2"].T)
    dZ1 = dH1 * (cache["Z1"] > 0)
    g["W1"][...] = cache["P1"].T @ dZ1
    return a_hat @ (dZ1 @ p["W1"].T)


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


class BilstmRows:
    """Both directions take one kernels.lstm_step per row, with the stacked
    Wh and b of bilstm_forward_batch. The forward state carries from row to
    row; the backward state after rows > j comes from one pass over reversed
    X0."""

    def __init__(self, X0: np.ndarray, p: Params):
        self.Wx_f, self.Wx_b = p["fwd.Wx"], p["bwd.Wx"]
        Wh, b = _stacked_recurrent(p)
        self.Wh, self.b = Wh[:, 0], b[:, 0]  # (2, 4h, h), (2, 4h): one state per direction
        _, self.Cb, self.Hb = kernels.lstm_recurrence(X0[::-1] @ self.Wx_b.T, p["bwd.Wh"], p["bwd.b"])
        h = self.Wh.shape[2]
        self.xw = np.empty((2, 4 * h))
        self.h_prev = np.zeros((2, h))  # rows: forward state, backward state
        self.c_prev = np.zeros((2, h))

    def row(self, j: int, x: np.ndarray) -> np.ndarray:
        np.matmul(self.Wx_f, x, out=self.xw[0])
        np.matmul(self.Wx_b, x, out=self.xw[1])
        after = self.Hb.shape[0] - 2 - j  # reversed index of row j + 1
        if after >= 0:
            self.h_prev[1], self.c_prev[1] = self.Hb[after], self.Cb[after]
        else:
            self.h_prev[1] = self.c_prev[1] = 0.0
        _, c, hs = kernels.lstm_step(self.xw, self.Wh, self.b, self.h_prev, self.c_prev)
        self.h_prev[0], self.c_prev[0] = hs[0], c[0]
        out = hs.reshape(-1)
        _check_finite("bilstm_encode", out)
        return out


class AttentionRows:
    """Attention layer 0: keys and values start as X0 K and X0 V, and row
    j's are overwritten when row j arrives."""

    def __init__(self, X0: np.ndarray, p: Params):
        self.Q, self.K, self.V, self.O = _layer(p, 0)
        self.scale = _attention_scale(X0, self.Q)
        self.Kx = X0 @ self.K
        self.Vx = X0 @ self.V

    def row(self, j: int, x: np.ndarray) -> np.ndarray:
        self.Kx[j] = x @ self.K
        self.Vx[j] = x @ self.V
        a = _softmax_rows(((x @ self.Q) @ self.Kx.T)[None, :] * self.scale)[0]
        out = (a @ self.Vx) @ self.O + x
        _check_finite("self_attention_encode", out)
        return out


class GcnRows:
    """Two GCN layers over a graph without similarity edges, whose a_hat is
    tridiagonal: output row j reads only input rows j-2..j+2."""

    def __init__(self, X0: np.ndarray, a_hat: np.ndarray, p: Params):
        self.X = X0.copy()
        self.a_hat = a_hat
        self.W1, self.W2 = p["W1"], p["W2"]

    def row(self, j: int, x: np.ndarray) -> np.ndarray:
        self.X[j] = x
        m = self.X.shape[0]
        lo, hi = max(0, j - 2), min(m, j + 3)
        mid = slice(max(0, j - 1), min(m, j + 2))
        H1 = np.maximum((self.a_hat[mid, lo:hi] @ self.X[lo:hi]) @ self.W1, 0.0)
        out = np.maximum((self.a_hat[j, mid] @ H1) @ self.W2, 0.0)
        _check_finite("gcn_encode", out)
        return out
