"""Document-level contextualizers: BiLSTM, single-head self-attention, 2-layer GCN.

Each encoder maps an (m, d) sentence matrix to an (m, d_out) matrix and ships
with an analytic backward pass (no autodiff). Each forward pass returns its
output and the cache its backward pass needs, and training, validation and
batched prediction all run it. The chunk steps at the end serve
free-running decoding.

Each encoder reads its tensors from `p`, one block of the parameter layout
keyed by the rest of the layout name ("fwd.Wx", "layer0.Q", "W1"); each
backward pass writes its gradients to those keys of `g`, the block's gradient.
Training never reads the gradient of an encoder's input, so only
attention_backward returns one, and only for a layer with a layer below it.

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
from .roles import NUM_ROLES


def check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"numeric overflow in {name}")


# ---------------------------------------------------------------------------
# LSTM / BiLSTM
# ---------------------------------------------------------------------------


Params = Mapping[str, np.ndarray]


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
    cache for bilstm_backward: X and (m, 2, ·) views of the recurrence's G,
    C and H at its rows and column, forward direction first."""
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
        out = np.hstack([H[:m, 0, j], H[:m, 1, j][::-1]])
        check_finite("bilstm_encode", out)
        Hs.append(out)
        caches.append((X, G[:m, :, j], C[:m, :, j], H[:m, :, j]))
    return Hs, caches


def bilstm_forward_cache(X: np.ndarray, p: Params):
    """bilstm_forward_batch of one document."""
    Hs, caches = bilstm_forward_batch([X], p)
    return Hs[0], caches[0]


def bilstm_backward(cache: tuple, p: Params, g: Params, dH: np.ndarray) -> None:
    """Writes both directions' "Wx", "Wh" and "b" gradients from one
    backward recurrence over both. The backward direction ran on the
    reversed document, so it reads X and its half of dH reversed."""
    X, G, C, H = cache
    h = H.shape[-1]
    WhT = np.stack([p["fwd.Wh"].T, p["bwd.Wh"].T])
    dA = kernels.lstm_backward(G, C, WhT, np.stack([dH[:, :h], dH[::-1, h:]], axis=1))
    H_prev = np.zeros(H.shape)
    H_prev[1:] = H[:-1]
    for k, (d, Xd) in enumerate((("fwd", X), ("bwd", X[::-1]))):
        dAd = dA[:, k]
        g[f"{d}.Wx"][...], g[f"{d}.Wh"][...], g[f"{d}.b"][...] = dAd.T @ Xd, dAd.T @ H_prev[:, k], dAd.sum(axis=0)


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
    check_finite("self_attention_encode", Y)
    return Y, {"X": X, "Qx": Qx, "Kx": Kx, "Vx": Vx, "A": A, "Z": Z, "scale": scale}


def attention_backward(cache: dict, p: Params, g: Params, dY: np.ndarray, idx: int = 0) -> np.ndarray | None:
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
    return dY + dQx @ Q.T + dKx @ K.T + dVx @ V.T if idx else None


def attention_stack_forward_cache(X: np.ndarray, p: Params):
    """Every layer of p in order, four tensors (Q, K, V, O) each."""
    caches = []
    H = X
    for idx in range(len(p) // 4):
        H, cache = attention_forward_cache(H, p, idx)
        caches.append(cache)
    return H, caches


def attention_stack_backward(caches: list[dict], p: Params, g: Params, dY: np.ndarray) -> None:
    for idx in range(len(caches) - 1, -1, -1):
        dY = attention_backward(caches[idx], p, g, dY, idx)


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
    check_finite("gcn_encode", H2)
    return H2, {"P1": P1, "Z1": Z1, "P2": P2, "Z2": Z2, "a_hat": a_hat}


def gcn_backward(cache: dict, p: Params, g: Params, dH2: np.ndarray) -> None:
    dZ2 = dH2 * (cache["Z2"] > 0)
    g["W2"][...] = cache["P2"].T @ dZ2
    dZ1 = (cache["a_hat"] @ (dZ2 @ p["W2"].T)) * (cache["Z1"] > 0)
    g["W1"][...] = cache["P1"].T @ dZ1


# ---------------------------------------------------------------------------
# Chunk steps for free-running decoding
#
# Free-running decoding commits one label per sentence, and committing label c
# to row j changes only row j of the features: its previous-label block, the
# last NUM_ROLES columns, gains a 1 in column c of the block. Each step
# encoder below takes Xs, a chunk of documents' features with every
# previous-label block empty (X0), and projects each document once through its
# first-layer weights. step(j, prev) takes the label ids prev (B,) committed
# to row j of each document, -1 for none, and returns row j of each
# document's context output, (B, d_out): the row the full forward pass would
# give on features whose rows < j carry the labels committed before, row j
# carries prev and rows > j are still X0. A commit adds the label's row of
# the first-layer weight to row j's projection. Steps run in order j = 0,
# 1, ..., T-1; a document's rows past its end are padding, and their outputs
# mean nothing.
#
# A document's outputs do not depend on the rest of its chunk: projections
# run per document, each state meets a weight matrix in its own product, as
# in kernels.lstm_step, and a sum over a document's rows adds them in row
# order, so that padding rows add exact zeros at its end.
# ---------------------------------------------------------------------------


def _padded(parts: list[np.ndarray], length: int, offset: int = 0) -> np.ndarray:
    """(B, length, n) zeros holding the rows of part b at offset.. of block b."""
    out = np.zeros((len(parts), length, parts[0].shape[1]))
    for b, part in enumerate(parts):
        out[b, offset : offset + part.shape[0]] = part
    return out


def _commit_rows(W: np.ndarray) -> np.ndarray:
    """The previous-label rows of W (d_in, n), then a zero row: row c is what
    committing label c adds to a projected row, and row -1 adds nothing."""
    return np.vstack([W[-NUM_ROLES:], np.zeros((1, W.shape[1]))])


class FeatureSteps:
    """No context: row j is the features themselves."""

    name = None  # nothing to check

    def __init__(self, Xs: list[np.ndarray]):
        d = Xs[0].shape[1]
        self.X = _padded(Xs, max(X.shape[0] for X in Xs))
        self.commit = _commit_rows(np.eye(NUM_ROLES, d, d - NUM_ROLES))  # the identity's previous-label rows

    def step(self, j: int, prev: np.ndarray) -> np.ndarray:
        return self.X[:, j] + self.commit.take(prev, axis=0)


class BilstmSteps:
    """Both directions take one kernels.lstm_step per row, each state
    multiplied by its own direction's Wh. The forward state carries from row
    to row; the backward state after rows > j comes from one recurrence over
    the chunk's reversed X0 projections. A document's two states sit side by
    side, (B, 2, h), so that its output row is a view of them."""

    name = "bilstm_encode"

    def __init__(self, Xs: list[np.ndarray], p: Params):
        T, B, h = max(X.shape[0] for X in Xs), len(Xs), p["fwd.Wh"].shape[1]
        self.XW = np.zeros((T, B, 2, 4 * h))  # both directions' projections of X0
        reverse = np.zeros((T, B, 4 * h))  # the backward ones in reverse row order
        for b, X in enumerate(Xs):
            m = X.shape[0]
            self.XW[:m, b, 0], self.XW[:m, b, 1] = X @ p["fwd.Wx"].T, X @ p["bwd.Wx"].T
            reverse[:m, b] = self.XW[m - 1 :: -1, b, 1]
        self.commit = np.stack([_commit_rows(p[f"{d}.Wx"].T) for d in ("fwd", "bwd")], axis=1)  # (8, 2, 4h)
        _, C, H = kernels.lstm_recurrence(reverse, p["bwd.Wh"], p["bwd.b"])
        # H[j] and C[j] hold the states step j starts from: the forward state
        # of step j - 1 and the backward state after row j
        self.H, self.C = np.zeros((2, T + 1, B, 2, h))
        for b, X in enumerate(Xs):
            m = X.shape[0]
            self.H[: m - 1, b, 1], self.C[: m - 1, b, 1] = H[: m - 1, b][::-1], C[: m - 1, b][::-1]
        self.Wh = np.stack([p["fwd.Wh"], p["bwd.Wh"]])
        self.b = np.stack([p["fwd.b"], p["bwd.b"]])

    def step(self, j: int, prev: np.ndarray) -> np.ndarray:
        xw = self.XW[j] + self.commit.take(prev, axis=0)
        _, c, h = kernels.lstm_step(xw, self.Wh, self.b, self.H[j], self.C[j])
        self.H[j + 1, :, 0], self.C[j + 1, :, 0] = h[:, 0], c[:, 0]
        return h.reshape(len(prev), -1)


# Keys per block of AttentionSteps: each block of keys meets its query in
# its own product, so a document's blocks are the same alone and in a chunk.
_KEY_BLOCK = 32


class AttentionSteps:
    """Attention layer 0. Each row holds its key, its scaled query, its value
    through O with a trailing 1, and its features (the residual): X0 K,
    X0 Q / sqrt(d), X0 V O and X0 at first, and a commit adds its label's
    rows of K, Q / sqrt(d), V O and the identity. Keys and values are read in
    blocks of _KEY_BLOCK rows; the trailing 1 makes the weighted sum of the
    values also sum the softmax weights that normalize it."""

    name = "self_attention_encode"

    def __init__(self, Xs: list[np.ndarray], p: Params):
        Q, K, V, O = _layer(p, 0)
        self.d = d = Q.shape[0]
        scale = _attention_scale(Xs[0], Q)
        m = np.array([X.shape[0] for X in Xs])
        keys = -(-m.max() // _KEY_BLOCK) * _KEY_BLOCK
        self.rows = _padded([np.hstack([X @ K, (X @ Q) * scale, (X @ V) @ O, np.ones((len(X), 1)), X])
                             for X in Xs], keys)
        L = slice(d - NUM_ROLES, d)  # the previous-label rows of each weight
        self.commit = _commit_rows(np.hstack([K[L], Q[L] * scale, V[L] @ O, np.zeros((NUM_ROLES, 1)),
                                              np.eye(NUM_ROLES, d, d - NUM_ROLES)]))
        blocks = (len(Xs), keys // _KEY_BLOCK, _KEY_BLOCK)
        self.keys = self.rows[..., :d].reshape(blocks + (d,))
        self.values = self.rows[..., 2 * d : 3 * d + 1].reshape(blocks + (d + 1,))
        self.mask = np.where(np.arange(keys) < m[:, None], 0.0, -np.inf)  # (B, keys)

    def step(self, j: int, prev: np.ndarray) -> np.ndarray:
        d = self.d
        row = self.rows[:, j]
        row += self.commit.take(prev, axis=0)
        S = (self.keys @ row[:, None, d : 2 * d, None]).reshape(self.mask.shape) + self.mask
        S = np.exp(S - S.max(axis=1, keepdims=True))
        U = (S.reshape(self.keys.shape[:2] + (1, _KEY_BLOCK)) @ self.values).sum(axis=1)[:, 0]
        return U[:, :d] / U[:, d:] + row[:, 3 * d + 1 :]


class GcnSteps:
    """Two GCN layers over a graph without similarity edges, whose a_hat is
    tridiagonal: output row j reads input rows j-2..j+2. As A (X W1) =
    (A X) W1, each document's X0 W1 is projected once, and a commit adds its
    label's row of W1 to row j's."""

    name = "gcn_encode"

    def __init__(self, Xs: list[np.ndarray], p: Params):
        W1, self.W2 = p["W1"], p["W2"]
        T = max(X.shape[0] for X in Xs)
        self.XW = _padded([X @ W1 for X in Xs], T + 4, offset=2)  # row i at i + 2
        bands = []
        for X in Xs:
            a_hat = build_graph(X.shape[0])
            band = np.zeros((X.shape[0], 3))  # row i: a_hat[i, i-1], a_hat[i, i], a_hat[i, i+1]
            band[1:, 0], band[:, 1], band[:-1, 2] = (np.diagonal(a_hat, k) for k in (-1, 0, 1))
            bands.append(band)
        band = _padded(bands, T + 2, offset=1).transpose(1, 0, 2)  # row i at i + 1, (T + 2, B, 3)
        self.out = band[1:-1, :, None]  # (T, B, 1, 3): a_hat row j over rows j-1..j+1
        self.hidden = np.zeros((T, len(Xs), 3, 5))  # a_hat rows j-1..j+1 over rows j-2..j+2
        for r in range(3):
            self.hidden[:, :, r, r : r + 3] = band[r : r + T]
        self.commit = _commit_rows(W1)

    def step(self, j: int, prev: np.ndarray) -> np.ndarray:
        row = self.XW[:, j + 2]
        row += self.commit.take(prev, axis=0)
        H1 = np.maximum(self.hidden[j] @ self.XW[:, j : j + 5], 0.0)
        return np.maximum((self.out[j] @ H1) @ self.W2, 0.0)[:, 0]
