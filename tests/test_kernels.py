"""Kernels against independent oracles: CRF dynamic programs against
enumeration of every label sequence (and, for sequences too long to
enumerate, against scalar per-label loops), the LSTM recurrence and its
backward pass against the per-gate oracle of tests/test_context.py and,
bit for bit, against a per-step loop, the forward-backward sweep against
the separate forward and backward passes, and padded batches and stacked
directions against the same sequences run one at a time. A
`*_paths_agree` test checks that the kernel and its oracle agree."""

import itertools
import math

import numpy as np
import pytest
from test_context import oracle_lstm_backward, oracle_lstm_states
from test_crf import brute_force, crf_params, random_params

from rhetseg import kernels

K = 7


def crf_instance(rng, m):
    E = rng.normal(size=(m, K))
    T = rng.normal(size=(K, K))
    start = rng.normal(size=K)
    end = rng.normal(size=K)
    return E, T, start, end


def enumerated_scores(E, T, start, lo, hi):
    """Every label sequence over steps lo..hi-1 and its score from E and T,
    plus start when the sequence begins at step 0."""
    paths = np.array(list(itertools.product(range(K), repeat=hi - lo)))
    scores = E[np.arange(lo, hi), paths].sum(axis=1)
    scores += T[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    if lo == 0:
        scores += start[paths[:, 0]]
    return paths, scores


def scalar_logsumexp(xs):
    top = max(xs)
    return top + math.log(sum(math.exp(x - top) for x in xs))


def scalar_crf(E, T, start, end):
    """logZ, alpha, beta and the Viterbi path by explicit loops over labels.
    Viterbi keeps the first (lowest) predecessor and final label among
    equal scores."""
    m = len(E)
    alpha = [[start[b] + E[0][b] for b in range(K)]]
    delta = [alpha[0][:]]
    back = []
    for t in range(1, m):
        alpha.append([E[t][b] + scalar_logsumexp([alpha[-1][a] + T[a][b] for a in range(K)])
                      for b in range(K)])
        row, ptr = [], []
        for b in range(K):
            best = 0
            for a in range(1, K):
                if delta[-1][a] + T[a][b] > delta[-1][best] + T[best][b]:
                    best = a
            row.append(delta[-1][best] + T[best][b] + E[t][b])
            ptr.append(best)
        delta.append(row)
        back.append(ptr)
    beta = [list(end)]
    for t in range(m - 2, -1, -1):
        beta.insert(0, [scalar_logsumexp([T[a][b] + E[t + 1][b] + beta[0][b] for b in range(K)])
                        for a in range(K)])
    log_z = scalar_logsumexp([alpha[-1][b] + end[b] for b in range(K)])
    last = 0
    for b in range(1, K):
        if delta[-1][b] + end[b] > delta[-1][last] + end[last]:
            last = b
    path = [last]
    for ptr in reversed(back):
        path.insert(0, ptr[path[0]])
    return log_z, np.array(alpha), np.array(beta), path


@pytest.mark.parametrize("m", [1, 2, 3, 5, 30])
def test_crf_forward_paths_agree(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        E, T, start, end = crf_instance(rng, m)
        log_z, alpha = kernels.crf_forward(E, T, start, end)
        want_z, want_alpha, _, _ = scalar_crf(E, T, start, end)
        np.testing.assert_allclose(log_z, want_z, rtol=0, atol=1e-10)
        np.testing.assert_allclose(alpha, want_alpha, rtol=0, atol=1e-10)
        if m > 5:
            continue  # too many label sequences to enumerate
        want_z, _, _ = brute_force(E, crf_params(T, start, end))
        np.testing.assert_allclose(log_z, want_z, rtol=0, atol=1e-10)
        for t in range(m):
            # alpha[t, b]: log-sum over prefixes y_0..y_t ending in b
            paths, scores = enumerated_scores(E, T, start, 0, t + 1)
            want = [np.logaddexp.reduce(scores[paths[:, -1] == b]) for b in range(K)]
            np.testing.assert_allclose(alpha[t], want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 30])
def test_crf_backward_paths_agree(m):
    rng = np.random.default_rng(m + 100)
    for _ in range(5):
        E, T, start, end = crf_instance(rng, m)
        beta = kernels.crf_backward(E, T, end)
        np.testing.assert_allclose(beta, scalar_crf(E, T, start, end)[2], rtol=0, atol=1e-10)
        np.testing.assert_allclose(beta[m - 1], end, rtol=0, atol=1e-10)
        if m > 5:
            continue  # too many label sequences to enumerate
        for t in range(m - 1):
            # beta[t, a]: log-sum over suffixes y_{t+1}..y_{m-1} after label a
            paths, scores = enumerated_scores(E, T, start, t + 1, m)
            scores = scores + end[paths[:, -1]]
            want = [np.logaddexp.reduce(scores + T[a, paths[:, 0]]) for a in range(K)]
            np.testing.assert_allclose(beta[t], want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 37])
def test_crf_forward_backward_equals_two_passes(m):
    """The one-loop sweep against crf_forward and crf_backward, bit for bit,
    with emissions from unit scale to 1e6, where the max shift matters."""
    rng = np.random.default_rng(m + 300)
    for scale in (1.0, 30.0, 1e3, 1e6):
        for _ in range(10):
            E, T, start, end = crf_instance(rng, m)
            E *= scale
            log_z, alpha, beta = kernels.crf_forward_backward(E, T, start, end)
            want_z, want_alpha = kernels.crf_forward(E, T, start, end)
            assert log_z == want_z
            assert np.array_equal(alpha, want_alpha)
            assert np.array_equal(beta, kernels.crf_backward(E, T, end))


def tie_breaking_best(E, T, start, end):
    """The kernels' tie rule over enumerated paths: among the best-scoring
    paths, the lowest last label, then the lowest label before it, ..."""
    _, scores, paths = brute_force(E, crf_params(T, start, end))
    best = [path for path, s in zip(paths, scores) if s == scores.max()]
    return list(min(best, key=lambda path: path[::-1]))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 30])
def test_crf_viterbi_paths_agree(m):
    rng = np.random.default_rng(m + 200)
    for _ in range(10):
        E, T, start, end = crf_instance(rng, m)
        got = list(kernels.crf_viterbi(E, T, start, end))
        assert got == scalar_crf(E, T, start, end)[3]
        if m <= 5:
            assert got == tie_breaking_best(E, T, start, end)


def test_crf_viterbi_paths_agree_on_ties():
    # all-zero potentials tie everywhere
    E = np.zeros((4, K))
    T = np.zeros((K, K))
    z = np.zeros(K)
    assert list(kernels.crf_viterbi(E, T, z, z)) == [0, 0, 0, 0]
    # small integer potentials: exact sums, many ties
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        E = rng.integers(-1, 2, size=(m, K)).astype(float)
        p = random_params(rng)
        T, start, end = (np.round(p[k]) for k in ("T", "start", "end"))
        want = tie_breaking_best(E, T, start, end)
        assert want == scalar_crf(E, T, start, end)[3]
        assert list(kernels.crf_viterbi(E, T, start, end)) == want


def padded(seqs):
    out = np.zeros((max(len(s) for s in seqs), len(seqs), seqs[0].shape[1]))
    for j, s in enumerate(seqs):
        out[: len(s), j] = s
    return out


def test_batched_viterbi_tables_match_per_sequence_decode_on_ties():
    rng = np.random.default_rng(8)
    T = rng.integers(-1, 2, size=(K, K)).astype(float)
    start = rng.integers(-1, 2, size=K).astype(float)
    end = rng.integers(-1, 2, size=K).astype(float)
    Es = [rng.integers(-1, 2, size=(m, K)).astype(float) for m in (1, 2, 13, 40, 13, 5, 1, 40, 3)]
    Es.append(np.zeros((6, K)))
    delta, back = kernels.crf_viterbi_tables(padded(Es), T, start)
    for j, E in enumerate(Es):
        m = E.shape[0]
        one_delta, one_back = kernels.crf_viterbi_tables(E, T, start)
        assert np.array_equal(delta[:m, j], one_delta)
        assert np.array_equal(back[:m, j], one_back)
        path = kernels.viterbi_backtrack(delta[m - 1, j] + end, back[:m, j])
        assert list(path) == list(kernels.crf_viterbi(E, T, start, end))


def lstm_instance(rng, m, d, h):
    X = rng.normal(size=(m, d))
    p = dict(Wx=rng.normal(size=(4 * h, d)) / np.sqrt(d),
             Wh=rng.normal(size=(4 * h, h)) / np.sqrt(h),
             b=rng.normal(size=4 * h))
    return X, p


@pytest.mark.parametrize("m,h", [(1, 3), (4, 5), (25, 8)])
def test_lstm_recurrence_paths_agree(m, h):
    rng = np.random.default_rng(m * 31 + h)
    X, p = lstm_instance(rng, m, 6, h)
    got = kernels.lstm_recurrence(X @ p["Wx"].T, p["Wh"], p["b"])
    for part, want in zip(got, oracle_lstm_states(X, p)):  # gates, cells, hiddens
        np.testing.assert_allclose(part, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("m,h", [(1, 3), (4, 5), (25, 8)])
def test_lstm_backward_paths_agree(m, h):
    rng = np.random.default_rng(m * 17 + h)
    X, p = lstm_instance(rng, m, 6, h)
    G, C, _ = kernels.lstm_recurrence(X @ p["Wx"].T, p["Wh"], p["b"])
    dH = rng.normal(size=(m, h))
    dA = kernels.lstm_recurrence_backward(G, C, np.ascontiguousarray(p["Wh"].T), dH)
    np.testing.assert_allclose(dA, oracle_lstm_backward(X, p, dH), rtol=0, atol=1e-10)


def loop_lstm_backward(G, C, WhT, dH):
    """Reference backward pass: slices every gate and recomputes each factor
    at every step, in the left-to-right order the kernel keeps."""
    m, h4 = G.shape
    h = h4 // 4
    dA = np.empty((m, h4))
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(m - 1, -1, -1):
        i = G[t, :h]
        f = G[t, h : 2 * h]
        o = G[t, 2 * h : 3 * h]
        g = G[t, 3 * h :]
        c_prev = C[t - 1] if t > 0 else np.zeros(h)
        tc = np.tanh(C[t])
        dh = dH[t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dA[t, :h] = dc * g * i * (1.0 - i)
        dA[t, h : 2 * h] = dc * c_prev * f * (1.0 - f)
        dA[t, 2 * h : 3 * h] = do * o * (1.0 - o)
        dA[t, 3 * h :] = dc * i * (1.0 - g * g)
        dc_next = dc * f
        dh_next = WhT @ dA[t]
    return dA


def test_lstm_backward_equals_per_step_loop():
    """The hoisted kernel against the per-step loop, bit for bit, on 300
    random sequences whose pre-activations reach past the +-60 clip."""
    rng = np.random.default_rng(2024)
    clipped = 0
    for _ in range(300):
        m = int(rng.integers(1, 40))
        h = int(rng.integers(1, 40))
        scale = float(rng.uniform(0.1, 30.0))
        XW = rng.normal(size=(m, 4 * h)) * scale
        Wh = rng.normal(size=(4 * h, h)) * scale / np.sqrt(h)
        G, C, _ = kernels.lstm_recurrence(XW, Wh, rng.normal(size=4 * h))
        clipped += bool(np.any(np.abs(XW) > 60.0))
        WhT = np.ascontiguousarray(Wh.T)
        dH = rng.normal(size=(m, h)) * rng.uniform(0.1, 10.0)
        assert np.array_equal(kernels.lstm_recurrence_backward(G, C, WhT, dH),
                              loop_lstm_backward(G, C, WhT, dH)), (m, h, scale)
    assert clipped >= 50


@pytest.mark.parametrize("h", [3, 32])
@pytest.mark.parametrize("m", [1, 2, 13, 40])
def test_lstm_backward_direction_axis_equals_2d_loops(m, h):
    """(m, 2, 4h) gates with WhT stacked as (2, h, 4h): each direction equals
    the per-step loop on that direction alone, bit for bit, on both
    kernel names, with pre-activations past the +-60 clip."""
    rng = np.random.default_rng(m * 7 + h)
    for scale in (0.5, 3.0, 30.0):
        XW = rng.normal(size=(m, 2, 1, 4 * h)) * scale
        Wh = rng.normal(size=(2, 1, 4 * h, h)) * scale / np.sqrt(h)
        G, C, _ = kernels.lstm_recurrence(XW, Wh, rng.normal(size=(2, 1, 4 * h)))
        G, C = G[:, :, 0], C[:, :, 0]
        WhT = np.ascontiguousarray(Wh[:, 0].transpose(0, 2, 1))
        dH = rng.normal(size=(m, 2, h))
        for kernel in (kernels.lstm_recurrence_backward, kernels.lstm_backward):
            dA = kernel(G, C, WhT, dH)
            assert dA.shape == (m, 2, 4 * h)
            for k in range(2):
                assert np.array_equal(dA[:, k], loop_lstm_backward(G[:, k], C[:, k], WhT[k], dH[:, k])), (scale, k)


def test_lstm_step_clamp_equals_clip():
    """The in-place clamp gives np.clip's values, NaN and infinities included."""
    h = 3
    xw = np.array([np.nan, np.inf, -np.inf, 60.0, -60.0, 60.5, -61.0, 0.0, -0.0, 59.9, 1e300, -1e-300])
    Wh = np.zeros((4 * h, h))
    b = np.zeros(4 * h)
    with np.errstate(invalid="ignore"):
        gates, c, hh = kernels.lstm_step(xw, Wh, b, np.zeros(h), np.zeros(h))
    want = np.clip(xw, -60.0, 60.0)
    want[: 3 * h] = 1.0 / (1.0 + np.exp(-want[: 3 * h]))
    want[3 * h :] = np.tanh(want[3 * h :])
    np.testing.assert_array_equal(gates, want)
    assert np.isnan(gates[0]) and np.isnan(c[0]) and np.isnan(hh[0])


def test_saturation_matches_across_paths():
    # huge pre-activations exercise the +-60 clip
    h = 4
    X = np.ones((3, 4 * h))
    X[1] = -1.0
    p = dict(Wx=500.0 * np.eye(4 * h), Wh=np.zeros((4 * h, h)), b=np.zeros(4 * h))
    got = kernels.lstm_recurrence(X @ p["Wx"].T, p["Wh"], p["b"])
    for part, want in zip(got, oracle_lstm_states(X, p)):
        np.testing.assert_allclose(part, want, rtol=0, atol=1e-12)
        assert np.all(np.isfinite(part))


def test_batched_recurrence_columns_equal_single_runs():
    """(T, B, 4h) padded batches, and a direction axis (T, 2, B, 4h) with Wh
    stacked as (2, 1, 4h, h): every column equals its own 2-D run."""
    rng = np.random.default_rng(12)
    for h in (4, 17, 32):
        Wh = rng.normal(size=(4 * h, h)) / np.sqrt(h)
        b = rng.normal(size=4 * h)
        XWs = [rng.normal(size=(m, 4 * h)) * 3.0 for m in (1, 2, 13, 40, 13, 7, 1, 40, 25)]
        XWs[3][5] *= 100.0  # past the clip
        batch = kernels.lstm_recurrence(padded(XWs), Wh, b)
        for j, XW in enumerate(XWs):
            for part, one in zip(batch, kernels.lstm_recurrence(XW, Wh, b)):
                assert np.array_equal(part[: len(XW), j], one)
        Wh2 = np.stack([Wh, rng.normal(size=(4 * h, h)) / np.sqrt(h)])
        b2 = np.stack([b, rng.normal(size=4 * h)])
        for lengths in ((14,), (1, 2, 13, 40, 7)):
            dirs = [[rng.normal(size=(m, 4 * h)) * 3.0 for m in lengths] for _ in range(2)]
            dirs[1][-1][0] *= 100.0  # past the clip
            batch = kernels.lstm_recurrence(np.stack([padded(d) for d in dirs], axis=1),
                                            Wh2[:, None], b2[:, None])
            for k, d in enumerate(dirs):
                for j, XW in enumerate(d):
                    for part, one in zip(batch, kernels.lstm_recurrence(XW, Wh2[k], b2[k])):
                        assert np.array_equal(part[: len(XW), k, j], one), (h, k, j)


def test_dispatchers_accept_noncontiguous_input():
    rng = np.random.default_rng(0)
    wide = rng.normal(size=(5, 2 * K))
    E = wide[:, ::2]  # stride trick: not C-contiguous
    assert not E.flags["C_CONTIGUOUS"]
    T = rng.normal(size=(K, K))
    start = rng.normal(size=K)
    end = rng.normal(size=K)
    logz, _ = kernels.crf_forward(E, T, start, end)
    ref, _ = kernels.crf_forward(np.ascontiguousarray(E), T, start, end)
    assert logz == ref
