"""Hot numeric kernels: CRF dynamic programs and the LSTM time recurrence.

Only genuinely sequential loops live here, written in vectorised numpy.
Matmul-bound work (gate pre-activations, parameter-gradient assembly,
attention, GCN) is done by the callers in BLAS-backed numpy.

``lstm_step`` is the LSTM gate formula, written once: ``lstm_recurrence``
runs it per time step, writing into its output rows, and free-running
decoding runs it per sentence. ``lstm_recurrence`` and
``crf_viterbi_tables`` are rank-polymorphic: they take one sequence as an
(m, n) array or B sequences padded to T steps as a (T, B, n) array, and run
one body with ``...`` indexing. Each batch column is bit-identical to the
same sequence run on its own, and a sequence's padding steps come after its
last real step, so they never reach its outputs.

Two kernels take a direction axis, so that both directions of a BiLSTM run
in one loop, each state still multiplied by its own direction's weights:
``lstm_recurrence`` takes (T, 2, B, 4h) with Wh stacked as (2, 1, 4h, h) and
b as (2, 1, 4h), and ``lstm_recurrence_backward`` takes (m, 2, 4h) gates with
WhT stacked as (2, h, 4h). Each direction is bit-identical to its own 2-D run.

``crf_forward_backward`` is the CRF training sweep: both passes in one loop.
``crf_forward`` and ``crf_backward`` are its separate passes, kept only as
the references the tests compare it with bit for bit and as names that
rhetbench's tracer wraps; the package does not call them.
"""

from __future__ import annotations

import numpy as np


def _as_c(x):
    return np.ascontiguousarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# CRF dynamic programs. Score of a path y for emissions E (m, K), transitions
# T (K, K), start/end vectors (K,):
#   start[y0] + sum_t E[t, y_t] + sum_t T[y_{t-1}, y_t] + end[y_{m-1}]
# All recursions run in log space with max-shifted logsumexp.
# ---------------------------------------------------------------------------


def crf_forward(E, T, start, end):
    """Log-space forward pass. Returns (log_partition, alpha)."""
    E, T, start, end = _as_c(E), _as_c(T), _as_c(start), _as_c(end)
    m, k = E.shape
    alpha = np.empty((m, k))
    alpha[0] = start + E[0]
    for t in range(1, m):
        scores = alpha[t - 1][:, None] + T
        mx = scores.max(axis=0)
        alpha[t] = mx + np.log(np.exp(scores - mx).sum(axis=0)) + E[t]
    final = alpha[m - 1] + end
    mx = final.max()
    log_z = mx + np.log(np.exp(final - mx).sum())
    return log_z, alpha


def crf_backward(E, T, end):
    """Log-space backward pass. Returns beta with beta[m-1] = end."""
    E, T, end = _as_c(E), _as_c(T), _as_c(end)
    m, k = E.shape
    beta = np.empty((m, k))
    beta[m - 1] = end
    for t in range(m - 2, -1, -1):
        scores = T + (E[t + 1] + beta[t + 1])[None, :]
        mx = scores.max(axis=1)
        beta[t] = mx + np.log(np.exp(scores - mx[:, None]).sum(axis=1))
    return beta


def crf_forward_backward(E, T, start, end):
    """crf_forward and crf_backward in one loop. Returns (log_z, alpha, beta),
    bit-identical to theirs.

    Step i computes alpha[i] and beta[m-1-i] from one (2, K, K) score array:
    alpha's scores as crf_forward forms them, and beta's transposed, so that
    both reduce over axis 1, predecessor labels for alpha and successor labels
    for beta, in label order as the two passes do. W[i] holds alpha[i] and
    E[m-1-i] + beta[m-1-i], the rows the next step's scores add to T and T.T;
    R[i, 1] holds beta[m-1-i]."""
    E, T, start, end = _as_c(E), _as_c(T), _as_c(start), _as_c(end)
    m, k = E.shape
    TT = np.stack([T, T.T])
    EE = np.stack([E, E[::-1]], axis=1)  # EE[i] = E[i], E[m-1-i]
    W = np.empty((m, 2, k))
    R = np.empty((m, 2, k))
    W[0, 0] = start + E[0]
    R[0, 1] = end
    W[0, 1] = E[m - 1] + end
    S = np.empty((2, k, k))
    for i in range(1, m):
        np.add(W[i - 1][:, :, None], TT, out=S)
        mx = S.max(axis=1)
        np.subtract(S, mx[:, None, :], out=S)
        np.exp(S, out=S)
        np.add(mx, np.log(S.sum(axis=1)), out=R[i])
        np.add(R[i], EE[i], out=W[i])
    alpha = W[:, 0]
    final = alpha[m - 1] + end
    mx = final.max()
    log_z = mx + np.log(np.exp(final - mx).sum())
    return log_z, alpha, R[::-1, 1]


def crf_viterbi_tables(E, T, start):
    """Viterbi tables for E (m, K) or a padded batch (T, B, K): delta[t] holds
    the best score of a path ending in each label at step t, back[t] that
    path's predecessor, the lowest-id one among equals."""
    E, T, start = _as_c(E), _as_c(T), _as_c(start)
    delta = np.empty(E.shape)
    back = np.zeros(E.shape, dtype=np.int64)
    delta[0] = start + E[0]
    for t in range(1, E.shape[0]):
        scores = delta[t - 1][..., :, None] + T
        # argmax along the predecessor axis returns the first (lowest-id) maximizer
        back[t] = scores.argmax(axis=-2)
        delta[t] = scores.max(axis=-2) + E[t]
    return delta, back


def viterbi_backtrack(final, back):
    """Best path from the final scores delta[m-1] + end and back (m, K) of
    one sequence. Ties break toward the lowest label id."""
    m = back.shape[0]
    path = np.empty(m, dtype=np.int64)
    path[m - 1] = int(np.argmax(final))
    for t in range(m - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path


def crf_viterbi(E, T, start, end):
    """Best-path decode of one sequence. Ties break toward the lowest label id.

    Reference entry point: prediction backtracks crf_viterbi_tables itself."""
    delta, back = crf_viterbi_tables(E, T, start)
    return viterbi_backtrack(delta[-1] + end, back)


# ---------------------------------------------------------------------------
# LSTM time recurrence. Gate layout is stacked (i, f, o, g) along the 4h axis:
#   a_t = XW[t] + Wh h_{t-1} + b
#   i, f, o = sigmoid(a[:h]), sigmoid(a[h:2h]), sigmoid(a[2h:3h])
#   g = tanh(a[3h:]);  c_t = f*c_{t-1} + i*g;  h_t = o * tanh(c_t)
# XW = X @ Wx.T is precomputed by the caller (one big BLAS matmul).
# Pre-activations are clipped to [-60, 60]; in float64 the clip is invisible
# downstream but keeps exp() overflow-free.
# ---------------------------------------------------------------------------

_CLIP = 60.0


def lstm_step(xw, Wh, b, h_prev, c_prev, out=(None, None, None)):
    """One gate step for one state, h_prev and c_prev of shape (h,), or a
    batch of states, (B, h), with xw = x @ Wx.T of shape (4h,) or (B, 4h).
    Returns (gates, c, h): the activated gates in (i, f, o, g) order and the
    new cell and hidden states, written to the arrays in `out` where given.

    The recurrent term is one matrix-vector product per state,
    Wh @ h_prev[..., None]: a single (B, h) @ Wh.T product sums in a
    different order and is not bit-identical per state."""
    gates, c, hidden = out
    h = h_prev.shape[-1]
    h3 = 3 * h
    pre = xw + (Wh @ h_prev[..., None])[..., 0] + b
    np.maximum(pre, -_CLIP, out=pre)
    np.minimum(pre, _CLIP, out=pre)
    # the sigmoid runs over every pre-activation, so that its four ufuncs see
    # whole rows and not the strided i, f, o block; the g block then takes tanh
    gates = np.negative(pre, out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    g = gates[..., h3:]
    np.tanh(pre[..., h3:], out=g)
    c = np.multiply(gates[..., h : 2 * h], c_prev, out=c)
    c += gates[..., :h] * g
    hidden = np.tanh(c, out=hidden)
    hidden *= gates[..., 2 * h : h3]
    return gates, c, hidden


def lstm_recurrence(XW, Wh, b):
    """Run lstm_step over XW (m, 4h), or (T, B, 4h) for B padded sequences,
    from zero states. Returns (gates G, cells C, hiddens H) with XW's leading
    axes.

    XW may carry a direction axis, (T, 2, B, 4h), with Wh of shape
    (2, 1, 4h, h) and b of shape (2, 1, 4h): the size-1 axis broadcasts each
    direction's Wh and b over its B states, and every state is still one
    matrix-vector product, so each direction and column is bit-identical to
    its own 2-D run."""
    XW, Wh, b = _as_c(XW), _as_c(Wh), _as_c(b)
    G = np.empty(XW.shape)
    C = np.empty(XW.shape[:-1] + (XW.shape[-1] // 4,))
    H = np.empty(C.shape)
    h_prev = c_prev = np.zeros(C.shape[1:])
    for t in range(XW.shape[0]):
        lstm_step(XW[t], Wh, b, h_prev, c_prev, out=(G[t], C[t], H[t]))
        h_prev, c_prev = H[t], C[t]
    return G, C, H


def lstm_recurrence_backward(G, C, WhT, dH):
    """Backpropagate through time. Returns pre-activation grads dA with G's
    shape, (m, 4h), or (m, 2, 4h) with a direction axis and WhT stacked per
    direction as (2, h, 4h): each direction is then bit-identical to its own
    2-D run, as every state meets its WhT in its own matrix-vector product.

    Per gate, with dh the hidden-state gradient and dc the cell gradient:
      dA_i = dc * g * i * (1-i)          dA_f = dc * c_prev * f * (1-f)
      dA_o = dh * tanh(c) * o * (1-o)    dA_g = dc * i * (1-g*g)
    The factors that do not depend on dh or dc are stacked once over the
    whole sequence as V1, V2, V3, so each step forms dA[t] as one product
    u * V1[t] * V2[t] * V3[t] with u = [dc, dc, dh * tanh(c), dc], left to
    right as in the formulas; the 1s that pad V3 multiply exactly. The gates
    are copied out of G before the loop, so that each step reads whole
    rows."""
    G, C, WhT, dH = _as_c(G), _as_c(C), _as_c(WhT), _as_c(dH)
    m, h = C.shape[0], C.shape[-1]
    i, f, o, g = (np.ascontiguousarray(G[..., k * h : (k + 1) * h]) for k in range(4))
    tc = np.tanh(C)
    dtc = 1.0 - tc * tc
    C_prev = np.concatenate([np.zeros((1,) + C.shape[1:]), C[:-1]])
    ones = np.ones(C.shape)
    V1 = np.concatenate([g, C_prev, o, i], axis=-1)
    V2 = np.concatenate([i, f, 1.0 - o, 1.0 - g * g], axis=-1)
    V3 = np.concatenate([1.0 - i, 1.0 - f, ones, ones], axis=-1)
    dA = np.empty(G.shape)
    dh_next = dc_next = np.zeros(C.shape[1:])
    for t in range(m - 1, -1, -1):
        dh = dH[t] + dh_next
        dc = dh * o[t] * dtc[t] + dc_next
        da = np.multiply(np.concatenate((dc, dc, dh * tc[t], dc), axis=-1), V1[t], out=dA[t])
        da *= V2[t]
        da *= V3[t]
        dc_next = dc * f[t]
        dh_next = (WhT @ da[..., None])[..., 0]
    return dA


# context.bilstm_backward calls the kernel by this second name: rhetbench's
# tracer wraps lstm_recurrence_backward and reads rows and h from a 2-D C.
lstm_backward = lstm_recurrence_backward
