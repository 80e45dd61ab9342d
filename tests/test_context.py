"""Context encoders against independent recurrences and finite differences."""

import itertools

import numpy as np
import pytest

from rhetseg import kernels
from rhetseg.context import (
    attention_backward,
    attention_forward_cache,
    attention_stack_backward,
    attention_stack_forward_cache,
    bilstm_backward,
    bilstm_forward_batch,
    bilstm_forward_cache,
    build_graph,
    gcn_backward,
    gcn_forward_cache,
)
from rhetseg.errors import DataError
from rhetseg.train import CONTEXT_KINDS, HEADS, TrainConfig, build_model
from test_parameter_init import bilstm_block, direction, draw_params, grad_block


# --------------------------------------------------------------------------
# oracle: per-gate LSTM written directly from the update equations, one
# matrix per gate, no shared code with the kernels
# --------------------------------------------------------------------------


def _sig(v):
    return 1.0 / (1.0 + np.exp(-np.clip(v, -60, 60)))


def _gate_blocks(A, h):
    return A[:h], A[h:2 * h], A[2 * h:3 * h], A[3 * h:]


def oracle_lstm_states(X, p):
    """Per-step gates (i, f, o, g), cells and hiddens, one matrix per gate;
    p is one direction, keyed "Wx", "Wh", "b"."""
    h = p["Wh"].shape[1]
    Wi, Wf, Wo, Wg = _gate_blocks(p["Wx"], h)
    Ui, Uf, Uo, Ug = _gate_blocks(p["Wh"], h)
    bi, bf, bo, bg = _gate_blocks(p["b"], h)
    gates, cells, hiddens = [], [], []
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for x in X:
        i = _sig(Wi @ x + Ui @ h_prev + bi)
        f = _sig(Wf @ x + Uf @ h_prev + bf)
        o = _sig(Wo @ x + Uo @ h_prev + bo)
        g = np.tanh(np.clip(Wg @ x + Ug @ h_prev + bg, -60, 60))
        c = f * c_prev + i * g
        h_prev = o * np.tanh(c)
        c_prev = c
        gates.append(np.concatenate([i, f, o, g]))
        cells.append(c)
        hiddens.append(h_prev.copy())
    return np.array(gates), np.array(cells), np.array(hiddens)


def oracle_lstm(X, p):
    return oracle_lstm_states(X, p)[2]


def oracle_lstm_backward(X, p, dH):
    """Gradients of sum(H * dH) with respect to each step's gate
    pre-activations, by backpropagation through time per gate."""
    h = p["Wh"].shape[1]
    gates, cells, _ = oracle_lstm_states(X, p)
    U = _gate_blocks(p["Wh"], h)
    dA = np.zeros(gates.shape)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(len(X) - 1, -1, -1):
        i, f, o, g = _gate_blocks(gates[t], h)
        c_prev = cells[t - 1] if t > 0 else np.zeros(h)
        dh = dH[t] + dh_next
        tc = np.tanh(cells[t])
        dc = dh * o * (1.0 - tc ** 2) + dc_next
        d_gates = (dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                   dh * tc * o * (1.0 - o), dc * i * (1.0 - g ** 2))
        dA[t] = np.concatenate(d_gates)
        dh_next = sum(Uk.T @ dk for Uk, dk in zip(U, d_gates))
        dc_next = dc * f
    return dA


def lstm_hiddens(X, p):
    """One direction's hidden states from the kernel recurrence."""
    return kernels.lstm_recurrence(X @ p["Wx"].T, p["Wh"], p["b"])[2]


def fixed_bilstm_params():
    d = h = 2
    Wx_f = (np.arange(8 * d, dtype=float).reshape(8, d) - 7.5) / 10.0
    Wh_f = (np.arange(8 * h, dtype=float).reshape(8, h) - 8.0) / 12.0
    b_f = np.linspace(-0.4, 0.4, 8)
    fwd = dict(Wx=Wx_f, Wh=Wh_f, b=b_f)
    bwd = dict(Wx=-Wx_f[::-1].copy(), Wh=Wh_f[::-1].copy() / 2.0,
               b=np.linspace(0.3, -0.3, 8))
    return fwd, bwd


def test_lstm_forward_matches_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 6))
        h = int(rng.integers(1, 6))
        p = direction(draw_params("bilstm", rng, d, h), "fwd")
        X = rng.normal(size=(m, d))
        np.testing.assert_allclose(lstm_hiddens(X, p), oracle_lstm(X, p),
                                   rtol=0, atol=1e-12)


def test_bilstm_frozen_golden():
    # values frozen from the per-gate oracle above on these fixed inputs
    fwd, bwd = fixed_bilstm_params()
    X = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])
    want = np.array([
        [-0.0088905017973771837, -0.0057447921038073649, -0.081293769226838605, -0.084067195973280509],
        [0.064565315002981183, 0.1313375327286449, 0.11829530507963507, 0.19899892577817566],
        [0.1289833571222965, 0.23799815525607751, 0.042541225904370296, 0.078879252138025088],
    ])
    np.testing.assert_allclose(bilstm_forward_cache(X, bilstm_block(fwd, bwd))[0], want,
                               rtol=0, atol=1e-15)


def test_lstm_causality():
    # forward output at t is untouched by changes to inputs after t
    rng = np.random.default_rng(4)
    p = direction(draw_params("bilstm", rng, 3, 4), "fwd")
    X = rng.normal(size=(6, 3))
    H = lstm_hiddens(X, p)
    X2 = X.copy()
    X2[4:] += rng.normal(size=(2, 3))
    H2 = lstm_hiddens(X2, p)
    np.testing.assert_array_equal(H[:4], H2[:4])
    assert not np.allclose(H[4:], H2[4:])


def test_bilstm_uses_both_directions():
    rng = np.random.default_rng(8)
    p = draw_params("bilstm", rng, 3, 4)
    X = rng.normal(size=(5, 3))
    H = bilstm_forward_cache(X, p)[0]
    assert H.shape == (5, 8)
    X2 = X.copy()
    X2[-1] += 1.0
    H2 = bilstm_forward_cache(X2, p)[0]
    # last input feeds every backward state, so every row moves
    assert np.all(np.any(H != H2, axis=1))


def test_lstm_zero_params_zero_output():
    p = dict(Wx=np.zeros((8, 3)), Wh=np.zeros((8, 2)), b=np.zeros(8))
    H = lstm_hiddens(np.random.default_rng(0).normal(size=(4, 3)), p)
    np.testing.assert_array_equal(H, np.zeros((4, 2)))


def test_lstm_forget_bias_init():
    bilstm = draw_params("bilstm", np.random.default_rng(0), 5, 3)
    for b in (bilstm["fwd.b"], bilstm["bwd.b"]):
        np.testing.assert_array_equal(b[3:6], np.ones(3))
        np.testing.assert_array_equal(np.delete(b, [3, 4, 5]), np.zeros(9))


def test_bilstm_backward_finite_differences():
    rng = np.random.default_rng(33)
    p = draw_params("bilstm", rng, 3, 2)
    X = rng.normal(size=(4, 3))
    R = rng.normal(size=(4, 4))
    H, cache = bilstm_forward_cache(X, p)
    grads = grad_block(p)
    bilstm_backward(cache, p, grads, R)
    step = 1e-6

    def loss():
        return float((bilstm_forward_cache(X, p)[0] * R).sum())

    for name in ("fwd.Wx", "fwd.Wh", "fwd.b", "bwd.Wx", "bwd.Wh", "bwd.b"):
        arr = p[name]
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(0, flat.size, 7):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss()
            flat[idx] = orig - step
            dn = loss()
            flat[idx] = orig
            np.testing.assert_allclose(gflat[idx], (up - dn) / (2 * step),
                                       atol=1e-6, err_msg=name)


def test_bilstm_forward_batch_equals_2d_kernel_runs():
    """Padded batches and batches of one, at a small width and the default
    training width h=32."""
    rng = np.random.default_rng(17)
    for h, lengths in ((3, (1, 2, 13, 40)), (32, (1, 2, 13, 40)), (3, (14,)), (32, (14,)), (32, (1,))):
        p = draw_params("bilstm", rng, 5, h)
        Xs = [rng.normal(size=(m, 5)) for m in lengths]
        Hs, caches = bilstm_forward_batch(Xs, p)
        for X, H, (cache_X, *states) in zip(Xs, Hs, caches):
            assert cache_X is X
            want = {}
            for k, (d, Xd) in enumerate((("fwd", X), ("bwd", X[::-1]))):
                lp = direction(p, d)
                want[d] = kernels.lstm_recurrence(Xd @ lp["Wx"].T, lp["Wh"], lp["b"])
                for key, state, arr in zip("GCH", states, want[d]):
                    assert np.array_equal(state[:, k], arr), (h, len(X), d, key)
            assert np.array_equal(H, np.hstack([want["fwd"][2], want["bwd"][2][::-1]]))


def test_bilstm_backward_of_batch_cache_equals_batch_of_one():
    rng = np.random.default_rng(18)
    p = draw_params("bilstm", rng, 5, 3)
    Xs = [rng.normal(size=(m, 5)) for m in (1, 2, 13, 40)]
    _, caches = bilstm_forward_batch(Xs, p)
    for X, cache in zip(Xs, caches):
        dH = rng.normal(size=(len(X), 6))
        grads, want_grads = grad_block(p), grad_block(p)
        bilstm_backward(cache, p, grads, dH)
        bilstm_backward(bilstm_forward_cache(X, p)[1], p, want_grads, dH)
        assert grads.keys() == want_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), (len(X), name)


def per_direction_lstm_backward(cache, p, g, d, dH):
    """Reference: one direction's backward pass on its cache dict, keyed "X",
    "G", "C", "H"; writes "d.Wx", "d.Wh", "d.b" and returns the input
    gradient."""
    G, C, H, X = cache["G"], cache["C"], cache["H"], cache["X"]
    Wh = p[f"{d}.Wh"]
    dA = kernels.lstm_recurrence_backward(G, C, np.ascontiguousarray(Wh.T), dH)
    H_prev = np.vstack([np.zeros((1, Wh.shape[1])), H[:-1]])
    g[f"{d}.Wx"][...], g[f"{d}.Wh"][...], g[f"{d}.b"][...] = dA.T @ X, dA.T @ H_prev, dA.sum(axis=0)
    return dA @ p[f"{d}.Wx"]


def per_direction_bilstm_backward(cache, p, g, dH):
    """Reference: the two directions' backward passes, each on its own
    cache dict, and the input gradient they sum to."""
    h = p["fwd.Wh"].shape[1]
    dX_f = per_direction_lstm_backward(cache["fwd"], p, g, "fwd", np.ascontiguousarray(dH[:, :h]))
    dX_b_rev = per_direction_lstm_backward(cache["bwd"], p, g, "bwd", np.ascontiguousarray(dH[:, h:][::-1]))
    return dX_f + dX_b_rev[::-1]


def test_bilstm_backward_equals_per_direction_reference():
    """Every parameter gradient bit for bit, from caches of padded batches
    and of batches of one, at a small width and the default h=32."""
    rng = np.random.default_rng(23)
    lengths = (1, 2, 13, 40)
    for h in (3, 32):
        p = draw_params("bilstm", rng, 5, h)
        Xs = [rng.normal(size=(m, 5)) for m in lengths]
        caches = bilstm_forward_batch(Xs, p)[1] + [bilstm_forward_cache(X, p)[1] for X in Xs]
        for X, G, C, H in caches:
            dH = rng.normal(size=(len(X), 2 * h))
            reference = {
                d: {"X": Xd, "G": G[:, k], "C": C[:, k], "H": H[:, k]}
                for k, (d, Xd) in enumerate((("fwd", X), ("bwd", X[::-1])))
            }
            grads, want = grad_block(p), grad_block(p)
            bilstm_backward((X, G, C, H), p, grads, dH)
            per_direction_bilstm_backward(reference, p, want, dH)
            for name in grads:
                assert np.array_equal(grads[name], want[name]), (h, len(X), name)


def test_attention_rows_are_stochastic():
    rng = np.random.default_rng(6)
    for m in (1, 2, 5):
        p = draw_params("attention", rng, 4)
        X = rng.normal(size=(m, 4))
        A = attention_forward_cache(X, p)[1]["A"]
        assert A.shape == (m, m)
        np.testing.assert_allclose(A.sum(axis=1), np.ones(m), atol=1e-12)
        assert np.all(A >= 0)


def test_attention_single_row_weight_is_one():
    p = draw_params("attention", np.random.default_rng(1), 3)
    A = attention_forward_cache(np.array([[0.2, -1.0, 0.5]]), p)[1]["A"]
    np.testing.assert_allclose(A, [[1.0]], atol=1e-15)


def test_attention_uniform_weights_give_mean_plus_residual():
    # Q = K = 0 makes all scores equal; V = O = I passes the mean through
    d = 3
    p = {"layer0.Q": np.zeros((d, d)), "layer0.K": np.zeros((d, d)),
         "layer0.V": np.eye(d), "layer0.O": np.eye(d)}
    X = np.array([[1.0, 2.0, 3.0], [3.0, 0.0, -1.0], [-1.0, 4.0, 1.0]])
    Y, _ = attention_forward_cache(X, p)
    np.testing.assert_allclose(Y, X.mean(axis=0) + X, atol=1e-12)


def test_attention_backward_finite_differences():
    """Every layer's parameter gradients; the input gradient only of layer 1,
    the one with a layer below it."""
    rng = np.random.default_rng(12)
    p = draw_params("attention", rng, 3, layers=2)
    X = rng.normal(size=(4, 3))
    R = rng.normal(size=(4, 3))
    step = 1e-6
    for layer in (0, 1):
        _, cache = attention_forward_cache(X, p, layer)
        grads = grad_block(p)
        dX = attention_backward(cache, p, grads, R, layer)

        def loss():
            return float((attention_forward_cache(X, p, layer)[0] * R).sum())

        for name in (f"layer{layer}.{n}" for n in "QKVO"):
            arr = p[name]
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss()
                flat[idx] = orig - step
                dn = loss()
                flat[idx] = orig
                np.testing.assert_allclose(gflat[idx], (up - dn) / (2 * step),
                                           atol=1e-6, err_msg=name)
    assert attention_backward(attention_forward_cache(X, p)[1], p, grad_block(p), R) is None
    for idx in range(X.size):
        r, c = divmod(idx, 3)
        orig = X[r, c]
        X[r, c] = orig + step
        up = loss()
        X[r, c] = orig - step
        dn = loss()
        X[r, c] = orig
        np.testing.assert_allclose(dX[r, c], (up - dn) / (2 * step), atol=1e-6)


def test_attention_stack_composes():
    rng = np.random.default_rng(21)
    layers = draw_params("attention", rng, 4, layers=3)
    X = rng.normal(size=(5, 4))
    got, _ = attention_stack_forward_cache(X, layers)
    want = X
    for idx in range(3):
        want, _ = attention_forward_cache(want, layers, idx)
    np.testing.assert_array_equal(got, want)


def test_attention_stack_backward_finite_differences():
    rng = np.random.default_rng(22)
    layers = draw_params("attention", rng, 3, layers=2)
    X = rng.normal(size=(3, 3))
    R = rng.normal(size=(3, 3))
    _, caches = attention_stack_forward_cache(X, layers)
    grads = grad_block(layers)
    attention_stack_backward(caches, layers, grads, R)
    step = 1e-6
    assert set(grads) == {f"layer{i}.{n}" for i in range(2) for n in "QKVO"}
    assert all(np.isfinite(grad).all() for grad in grads.values())  # every layer's tensors were written
    for i in range(2):
        arr = layers[f"layer{i}.Q"]
        flat = arr.reshape(-1)
        gflat = grads[f"layer{i}.Q"].reshape(-1)
        for idx in range(0, flat.size, 3):
            orig = flat[idx]
            flat[idx] = orig + step
            up = float((attention_stack_forward_cache(X, layers)[0] * R).sum())
            flat[idx] = orig - step
            dn = float((attention_stack_forward_cache(X, layers)[0] * R).sum())
            flat[idx] = orig
            np.testing.assert_allclose(gflat[idx], (up - dn) / (2 * step), atol=1e-6)


# --------------------------------------------------------------------------
# sentence graph and GCN
# --------------------------------------------------------------------------


def graph_edges(a_hat):
    """(i, j), i < j, of every nonzero entry of a_hat above its diagonal."""
    rows, cols = np.nonzero(np.triu(a_hat, 1))
    return tuple(zip(rows.tolist(), cols.tolist()))


def test_graph_single_node():
    a_hat = build_graph(1)
    assert graph_edges(a_hat) == ()
    np.testing.assert_array_equal(a_hat, [[1.0]])


def test_graph_two_nodes_hand_normalized():
    # A+I = ones(2,2), degrees 2 -> every entry 1/2
    a_hat = build_graph(2)
    assert graph_edges(a_hat) == ((0, 1),)
    np.testing.assert_allclose(a_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_graph_path_edges_and_normalization():
    a_hat = build_graph(4)
    assert graph_edges(a_hat) == ((0, 1), (1, 2), (2, 3))
    # degrees with self loops: 2, 3, 3, 2
    d = np.array([2.0, 3.0, 3.0, 2.0])
    A = np.eye(4)
    for i, j in graph_edges(a_hat):
        A[i, j] = A[j, i] = 1.0
    want = A / np.sqrt(np.outer(d, d))
    np.testing.assert_allclose(a_hat, want, atol=1e-15)


def test_graph_similarity_edges():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.01]])
    a_hat = build_graph(3, X=X, sim_threshold=0.9)
    # 0 and 2 are nearly parallel; path edges always present
    assert (0, 2) in graph_edges(a_hat)
    assert set(graph_edges(a_hat)) == {(0, 1), (0, 2), (1, 2)}


def test_graph_similarity_skips_zero_rows():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    a_hat = build_graph(3, X=X, sim_threshold=0.5)
    assert (1, 2) in graph_edges(a_hat)
    assert (0, 2) not in graph_edges(a_hat)


def test_graph_a_hat_symmetric_and_bounded():
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 8):
        X = rng.normal(size=(m, 4))
        a_hat = build_graph(m, X=X, sim_threshold=0.3)
        np.testing.assert_array_equal(a_hat, a_hat.T)
        assert np.all(a_hat >= 0) and np.all(a_hat <= 1.0 + 1e-12)


def loop_graph(m, X=None, sim_threshold=None):
    """Reference graph: edges from a double loop over sentence pairs, then
    A_hat = D^{-1/2}(A + I)D^{-1/2} with A filled edge by edge."""
    edges = {(j, j + 1) for j in range(m - 1)}
    if sim_threshold is not None:
        norms = np.linalg.norm(X, axis=1)
        unit = X / np.where(norms > 0, norms, 1.0)[:, None]
        sims = unit @ unit.T
        for i in range(m):
            for j in range(i + 1, m):
                if norms[i] > 0 and norms[j] > 0 and sims[i, j] >= sim_threshold:
                    edges.add((i, j))
    A = np.eye(m)
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(A.sum(axis=1))
    return tuple(sorted(edges)), A * inv_sqrt[:, None] * inv_sqrt[None, :]


def test_graph_similarity_mask_matches_pair_loop():
    rng = np.random.default_rng(17)
    for case in range(400):
        m = int(rng.integers(1, 25))
        X = rng.normal(size=(m, 5))
        X[rng.random(m) < 0.2] = 0.0  # zero rows take no similarity edges
        threshold = 0.0 if case % 4 == 0 else float(rng.uniform(-1.0, 1.0))
        a_hat = build_graph(m, X=X, sim_threshold=threshold)
        edges, want = loop_graph(m, X, threshold)
        assert graph_edges(a_hat) == edges
        assert np.array_equal(a_hat, want)
    a_hat = build_graph(6)
    edges, want = loop_graph(6)
    assert graph_edges(a_hat) == edges and np.array_equal(a_hat, want)


def test_graph_threshold_requires_vectors():
    with pytest.raises(DataError):
        build_graph(3, X=None, sim_threshold=0.5)
    with pytest.raises(DataError):
        build_graph(0)


def test_gcn_identity_hand_example():
    # identity features and weights: output is A_hat itself (entries >= 0)
    a_hat = build_graph(2)
    p = {"W1": np.eye(2), "W2": np.eye(2)}
    np.testing.assert_allclose(gcn_forward_cache(np.eye(2), a_hat, p)[0],
                               [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_gcn_layer_relu_toggle():
    # both layers see negative pre-activations, so each ReLU zeroes something
    a_hat = build_graph(3)
    X = np.array([[1.0, -4.0], [-2.0, 3.0], [0.5, -1.0]])
    p = {"W1": np.array([[1.0, -1.0, 0.5], [0.5, 1.0, -2.0]]),
         "W2": np.array([[1.0, -1.0], [-1.0, 0.5], [2.0, -0.25]])}

    def relu(v):
        return np.maximum(v, 0.0)

    Z1 = a_hat @ X @ p["W1"]
    Z2 = a_hat @ relu(Z1) @ p["W2"]
    assert np.any(Z1 < 0) and np.any(Z2 < 0)
    np.testing.assert_allclose(gcn_forward_cache(X, a_hat, p)[0], relu(Z2), atol=1e-15)


def test_gcn_backward_finite_differences():
    rng = np.random.default_rng(44)
    a_hat = build_graph(4)
    p = draw_params("gcn", rng, 3, 5)
    X = rng.normal(size=(4, 3))
    R = rng.normal(size=(4, 5))
    _, cache = gcn_forward_cache(X, a_hat, p)
    grads = grad_block(p)
    gcn_backward(cache, p, grads, R)
    step = 1e-6

    def loss():
        return float((gcn_forward_cache(X, a_hat, p)[0] * R).sum())

    for name in ("W1", "W2"):
        arr = p[name]
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss()
            flat[idx] = orig - step
            dn = loss()
            flat[idx] = orig
            np.testing.assert_allclose(gflat[idx], (up - dn) / (2 * step),
                                       atol=1e-6, err_msg=name)


def test_init_bounds_follow_fan_in():
    rng = np.random.default_rng(2)
    p = draw_params("gcn", rng, 16, 4)
    assert np.all(np.abs(p["W1"]) <= 0.25)
    assert np.all(np.abs(p["W2"]) <= 0.5)
    a = draw_params("attention", rng, 25)
    for arr in (a["layer0.Q"], a["layer0.K"], a["layer0.V"], a["layer0.O"]):
        assert np.all(np.abs(arr) <= 0.2)
    # every uniform entry of every context and head; fan_in is the width of
    # the input a matrix multiplies: columns of the LSTM Wx and Wh, rows of
    # the others
    spec = {"kind": "precomputed", "dim": 16}
    for context_kind, head in itertools.product(CONTEXT_KINDS, HEADS):
        cfg = TrainConfig(context_kind=context_kind, head=head, lstm_hidden=5, gcn_hidden=9, attention_layers=2)
        bundle = build_model(cfg, spec, rng)
        for name, tensor in bundle.parameter_blocks().items():
            if bundle.layout[name].init == "uniform":
                fan_in = tensor.shape[1 if name.startswith("bilstm.") else 0]
                assert bundle.layout[name].fan_in == fan_in, name
                assert np.all(np.abs(tensor) <= 1.0 / np.sqrt(fan_in)), name
