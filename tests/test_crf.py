"""CRF inference against exhaustive enumeration.

Every quantity the analytic code produces (partition function, marginals,
Viterbi path, NLL gradients) is recomputed here by brute force over all
7**m label sequences, so the oracle shares no code with the implementation.
"""

import itertools

import numpy as np
import pytest

from rhetseg import kernels
from rhetseg.crf import (
    emissions,
    log_partition,
    marginals,
    nll_and_grad,
    sequence_score,
    viterbi_decode,
)
from rhetseg.errors import DataError
from test_parameter_init import draw_params, grad_block

K = 7


def crf_params(T=None, start=None, end=None):
    """A "crf" block with a zero emission projection; T, start and end
    default to zero."""
    return dict(W_e=np.zeros((1, K)), b_e=np.zeros(K),
                T=np.zeros((K, K)) if T is None else T,
                start=np.zeros(K) if start is None else start,
                end=np.zeros(K) if end is None else end)


def random_params(rng, scale=1.0):
    T = rng.uniform(-scale, scale, size=(K, K))
    start = rng.uniform(-scale, scale, size=K)
    return crf_params(T, start, rng.uniform(-scale, scale, size=K))


def brute_force(E, p):
    """Enumerate all label sequences; return logZ, per-path scores, paths."""
    m = E.shape[0]
    paths = list(itertools.product(range(K), repeat=m))
    scores = np.array([sequence_score(E, list(y), p) for y in paths])
    return np.logaddexp.reduce(scores), scores, paths


def test_sequence_score_hand_summed():
    # m=2: score = start[y0] + E[0,y0] + T[y0,y1] + E[1,y1] + end[y1]
    E = np.arange(14, dtype=float).reshape(2, K) / 10.0
    p = crf_params(
        T=np.arange(49, dtype=float).reshape(K, K) / 100.0,
        start=np.linspace(-0.3, 0.3, K),
        end=np.linspace(0.2, -0.4, K),
    )
    y = [2, 5]
    expected = p["start"][2] + E[0, 2] + p["T"][2, 5] + E[1, 5] + p["end"][5]
    assert sequence_score(E, y, p) == pytest.approx(expected, abs=1e-12)


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        E = rng.uniform(-1.0, 1.0, size=(m, K))
        p = random_params(rng)
        brute, _, _ = brute_force(E, p)
        np.testing.assert_allclose(log_partition(E, p), brute, rtol=0, atol=1e-9)


def test_log_partition_zero_params_single_position():
    # all-zero potentials, m=1: Z = 7 equally weighted labels
    E = np.zeros((1, K))
    p = crf_params()
    np.testing.assert_allclose(log_partition(E, p), np.log(K), atol=1e-12)


def test_marginals_match_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        E = rng.uniform(-1.5, 1.5, size=(m, K))
        p = random_params(rng)
        logz, scores, paths = brute_force(E, p)
        probs = np.exp(scores - logz)
        node = np.zeros((m, K))
        edge = np.zeros((m - 1, K, K))
        for pr, path in zip(probs, paths):
            for t, a in enumerate(path):
                node[t, a] += pr
            for t in range(m - 1):
                edge[t, path[t], path[t + 1]] += pr
        got_node, got_edge = marginals(E, p)
        np.testing.assert_allclose(got_node, node, atol=1e-9)
        np.testing.assert_allclose(got_edge, edge, atol=1e-9)


def test_marginals_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        E = rng.uniform(-2.0, 2.0, size=(m, K))
        node, edge = marginals(E, random_params(rng, scale=2.0))
        np.testing.assert_allclose(node.sum(axis=1), np.ones(m), atol=1e-10)
        if m > 1:
            np.testing.assert_allclose(edge.sum(axis=(1, 2)), np.ones(m - 1), atol=1e-10)


def test_marginals_single_position_edge_shape():
    node, edge = marginals(np.zeros((1, K)), random_params(np.random.default_rng(0)))
    assert node.shape == (1, K)
    assert edge.shape == (0, K, K)


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        E = rng.uniform(-1.0, 1.0, size=(m, K))
        p = random_params(rng)
        _, scores, paths = brute_force(E, p)
        best = int(np.argmax(scores))  # product order is lexicographic
        path, score = viterbi_decode(E, p)
        assert path == list(paths[best])
        np.testing.assert_allclose(score, scores[best], atol=1e-9)


def test_viterbi_tie_prefers_lowest_ids():
    # identical potentials everywhere: every sequence ties, decode must be all zeros
    for m in (1, 2, 3, 5):
        E = np.zeros((m, K))
        p = crf_params()
        path, score = viterbi_decode(E, p)
        assert path == [0] * m
        assert score == 0.0


def test_viterbi_partial_tie_lowest_id_wins():
    # labels 1 and 4 tie for the max at every position
    E = np.zeros((3, K))
    E[:, 1] = 2.0
    E[:, 4] = 2.0
    p = crf_params()
    path, _ = viterbi_decode(E, p)
    assert path == [1, 1, 1]


def test_viterbi_score_equals_sequence_score_exactly():
    # decoded score must be reproducible through the scoring function bit for bit
    rng = np.random.default_rng(101)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        E = rng.normal(size=(m, K))
        p = random_params(rng)
        path, score = viterbi_decode(E, p)
        assert score == sequence_score(E, path, p)


def test_viterbi_invariant_under_row_constant_shift():
    # adding a constant to one emission row shifts scores but not the argmax
    rng = np.random.default_rng(77)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        E = rng.normal(size=(m, K))
        p = random_params(rng)
        base, _ = viterbi_decode(E, p)
        shifted = E.copy()
        shifted[rng.integers(m)] += rng.uniform(-5.0, 5.0)
        got, _ = viterbi_decode(shifted, p)
        assert got == base


def test_nll_nonnegative_and_zero_grad_at_uniform():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        E = rng.normal(size=(m, K))
        p = random_params(rng)
        y = [int(v) for v in rng.integers(0, K, size=m)]
        loss, _ = nll_and_grad(E, y, p, grad_block(p))
        assert loss >= 0.0


def test_nll_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    step = 1e-6
    for _ in range(5):
        m = int(rng.integers(2, 4))
        E = rng.uniform(-1.0, 1.0, size=(m, K))
        p = random_params(rng)
        y = [int(v) for v in rng.integers(0, K, size=m)]
        grad = grad_block(p)
        _, dE = nll_and_grad(E, y, p, grad)

        def loss_at(E2, p2):
            return nll_and_grad(E2, y, p2, grad_block(p2))[0]

        for t in range(m):
            for a in range(K):
                bump = E.copy()
                bump[t, a] += step
                dip = E.copy()
                dip[t, a] -= step
                fd = (loss_at(bump, p) - loss_at(dip, p)) / (2 * step)
                np.testing.assert_allclose(dE[t, a], fd, atol=1e-6)
        for a in range(K):
            for b in range(K):
                up = {**p, "T": p["T"].copy()}
                up["T"][a, b] += step
                dn = {**p, "T": p["T"].copy()}
                dn["T"][a, b] -= step
                fd = (loss_at(E, up) - loss_at(E, dn)) / (2 * step)
                np.testing.assert_allclose(grad["T"][a, b], fd, atol=1e-6)


def test_nll_grad_start_end_match_marginal_identity():
    # d logZ / d start[a] = P(y_0 = a); subtracting the observed one-hot
    rng = np.random.default_rng(41)
    m = 3
    E = rng.normal(size=(m, K))
    p = random_params(rng)
    y = [4, 0, 2]
    grad = grad_block(p)
    nll_and_grad(E, y, p, grad)
    node, _ = marginals(E, p)
    want_start = node[0].copy()
    want_start[y[0]] -= 1.0
    want_end = node[-1].copy()
    want_end[y[-1]] -= 1.0
    np.testing.assert_allclose(grad["start"], want_start, atol=1e-12)
    np.testing.assert_allclose(grad["end"], want_end, atol=1e-12)


def test_emissions_affine():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(4, 5))
    p = draw_params("crf", rng, 5)
    np.testing.assert_allclose(emissions(H, p), H @ p["W_e"] + p["b_e"])


def test_init_shapes_and_zero_structure():
    p = draw_params("crf", np.random.default_rng(0), 12)
    assert p["W_e"].shape == (12, K)
    assert p["b_e"].shape == (K,)
    assert np.all(p["T"] == 0.0) and np.all(p["start"] == 0.0) and np.all(p["end"] == 0.0)
    assert np.all(np.abs(p["W_e"]) <= 1.0 / np.sqrt(12))
    assert emissions(np.zeros((1, 12)), p).shape == (1, K)


def test_label_validation():
    E = np.zeros((2, K))
    p = random_params(np.random.default_rng(0))
    with pytest.raises(DataError):
        sequence_score(E, [0, 7], p)
    with pytest.raises(DataError):
        sequence_score(E, [0], p)
    with pytest.raises(DataError):
        sequence_score(E, [-1, 0], p)


def test_nll_and_grad_runs_one_forward_pass(monkeypatch):
    rng = np.random.default_rng(31)
    p = random_params(rng)
    E = rng.uniform(-1.0, 1.0, size=(9, K))
    y = rng.integers(0, K, size=9)
    node, edge = marginals(E, p)
    expected_loss = log_partition(E, p) - sequence_score(E, y, p)
    calls = []
    for name in ("crf_forward_backward", "crf_forward", "crf_backward"):
        monkeypatch.setattr(kernels, name, lambda *args, name=name, kernel=getattr(kernels, name):
                            calls.append(name) or kernel(*args))
    g = grad_block(p)
    loss, grad_E = nll_and_grad(E, y, p, g)
    assert calls == ["crf_forward_backward"]
    assert loss == expected_loss
    onehot = np.eye(K)[y]
    assert np.array_equal(grad_E, node - onehot)
    assert np.array_equal(g["start"], node[0] - onehot[0])
