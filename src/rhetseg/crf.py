"""Linear-chain CRF over the 7 roles: scoring, exact inference, NLL gradients.

Path score for labels y on emissions E:

    start[y_0] + sum_t E[t, y_t] + sum_{t>=1} T[y_{t-1}, y_t] + end[y_{m-1}]

All dynamic programs run in log space with max-shifted logsumexp through the
kernels module. The label axis is fixed at 7.

`p` is the "crf" block of the parameter layout: the emission projection W_e
(context_dim, 7) and b_e (7,), the transitions T (7, 7) with T[a, b] scoring
a -> b, and start (7,) and end (7,); `g` is its block of the gradient.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import kernels
from .errors import DataError, NumericError
from .roles import NUM_ROLES

Params = Mapping[str, np.ndarray]


def emissions(H: np.ndarray, p: Params) -> np.ndarray:
    """Project context features to per-label scores: E = H W_e + b_e."""
    W_e = p["W_e"]
    if H.shape[1] != W_e.shape[0]:
        raise DataError(f"context width {H.shape[1]} != emission projection rows {W_e.shape[0]}")
    return H @ W_e + p["b_e"]


def _validate_labels(E: np.ndarray, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (E.shape[0],):
        raise DataError(f"label sequence length {y.shape} does not match emissions {E.shape[0]}")
    if y.size and (y.min() < 0 or y.max() >= NUM_ROLES):
        raise DataError(f"label ids must lie in 0..{NUM_ROLES - 1}")
    return y


def sequence_score(E: np.ndarray, y, p: Params) -> float:
    y = _validate_labels(E, y)
    m = E.shape[0]
    score = p["start"][y[0]] + p["end"][y[m - 1]] + E[np.arange(m), y].sum()
    if m > 1:
        score += p["T"][y[:-1], y[1:]].sum()
    return float(score)


def _sweep(E: np.ndarray, p: Params):
    return kernels.crf_forward_backward(E, p["T"], p["start"], p["end"])


def log_partition(E: np.ndarray, p: Params, sweep=None) -> float:
    """log Z. `sweep` is crf_forward_backward's (log_z, alpha, beta) for E
    when the caller already has it; marginals takes it too."""
    log_z = (sweep or _sweep(E, p))[0]
    if not np.isfinite(log_z):
        raise NumericError("non-finite log partition")
    return float(log_z)


def marginals(E: np.ndarray, p: Params, sweep=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior node (m, 7) and edge (m-1, 7, 7) marginals."""
    m = E.shape[0]
    log_z, alpha, beta = sweep or _sweep(E, p)
    node = np.exp(alpha + beta - log_z)
    if m > 1:
        # edge[t, a, b] = P(y_t = a, y_{t+1} = b)
        edge = np.exp(
            alpha[:-1, :, None]
            + p["T"][None, :, :]
            + (E[1:, None, :] + beta[1:, None, :])
            - log_z
        )
    else:
        edge = np.zeros((0, NUM_ROLES, NUM_ROLES))
    if not (np.all(np.isfinite(node)) and np.all(np.isfinite(edge))):
        raise NumericError("non-finite marginals")
    return node, edge


def nll_and_grad(E: np.ndarray, y, p: Params, g: Params) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of y and its gradient grad_E, from one
    forward-backward sweep; writes the gradients of "T", "start" and "end"
    to g.

    grad_E = node_marginals - onehot(y); the others are expected counts minus
    empirical counts. The caller forms the emission-projection gradients from
    grad_E and the context features.
    """
    y = _validate_labels(E, y)
    m = E.shape[0]
    sweep = _sweep(E, p)
    loss = log_partition(E, p, sweep) - sequence_score(E, y, p)
    node, edge = marginals(E, p, sweep)
    grad_E = node.copy()
    grad_E[np.arange(m), y] -= 1.0
    g["T"][...] = edge.sum(axis=0)
    np.add.at(g["T"], (y[:-1], y[1:]), -1.0)
    g["start"][...] = node[0]
    g["start"][y[0]] -= 1.0
    g["end"][...] = node[-1]
    g["end"][y[-1]] -= 1.0
    if not np.isfinite(loss):
        raise NumericError("non-finite CRF loss")
    return float(loss), grad_E


def viterbi_decode(E: np.ndarray, p: Params) -> tuple[list[int], float]:
    """Highest-scoring label sequence; ties break toward the lowest label id.

    Reference entry point for one document: prediction decodes through
    viterbi_decode_batch, which must agree with it. The returned score is
    recomputed with sequence_score on the decoded path so it matches that
    function exactly.
    """
    path = kernels.crf_viterbi(E, p["T"], p["start"], p["end"])
    labels = [int(v) for v in path]
    return labels, sequence_score(E, labels, p)


def viterbi_decode_batch(Es: list[np.ndarray], p: Params) -> list[list[int]]:
    """viterbi_decode's label sequences for several documents, from one
    Viterbi pass over their zero-padded emissions."""
    batch = np.zeros((max(E.shape[0] for E in Es), len(Es), NUM_ROLES))
    for j, E in enumerate(Es):
        batch[: E.shape[0], j] = E
    delta, back = kernels.crf_viterbi_tables(batch, p["T"], p["start"])
    return [
        [int(v) for v in kernels.viterbi_backtrack(delta[E.shape[0] - 1, j] + p["end"], back[: E.shape[0], j])]
        for j, E in enumerate(Es)
    ]
