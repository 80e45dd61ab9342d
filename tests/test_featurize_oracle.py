"""featurize against the pipeline it replaced, which built each block with its
own helper and stacked them with np.hstack: the same bits for every window,
positional mode, previous-label block and document length, and the same
error line for each rejected input."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from rhetseg.encode import WINDOW_SPECS, featurize
from rhetseg.errors import DataError
from rhetseg.roles import NUM_ROLES

# ---------------------------------------------------------------------------
# The reference: the three block helpers and featurize, as they were.
# ---------------------------------------------------------------------------


def validate_offsets(offsets: tuple[int, ...]) -> None:
    if 0 not in offsets:
        raise DataError(f"window offsets must contain 0, got {offsets}")
    if list(offsets) != sorted(set(offsets)):
        raise DataError(f"window offsets must be strictly increasing, got {offsets}")
    if not set(offsets) <= {-2, -1, 0, 1}:
        raise DataError(f"window offsets must come from {{-2,-1,0,+1}}, got {offsets}")


def window_features(M: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """Concatenate rows j+o for each offset o; out-of-range rows are zero."""
    validate_offsets(offsets)
    m, d = M.shape
    out = np.zeros((m, d * len(offsets)))
    for k, off in enumerate(offsets):
        lo = max(0, -off)
        hi = min(m, m - off)
        if lo < hi:
            out[lo:hi, k * d : (k + 1) * d] = M[lo + off : hi + off]
    return out


def label_feature(M: np.ndarray, labels_prev: np.ndarray) -> np.ndarray:
    """Append a 7-wide one-hot of each row's previous-label id (zeros for -1, no label)."""
    m = M.shape[0]
    if len(labels_prev) != m:
        raise DataError(f"labels_prev has length {len(labels_prev)}, expected {m}")
    return np.hstack([M, np.arange(NUM_ROLES) == labels_prev[:, None]])


def positional_features(M: np.ndarray, mode: str, sin_dim: int = 8) -> np.ndarray:
    """Append position features per row: [(j+1)/m, 1/m], or interleaved
    sin/cos of the raw position j with frequency base 10000."""
    m = M.shape[0]
    if mode == "normalized":
        j = np.arange(1, m + 1)[:, None] / m
        inv = np.full((m, 1), 1.0 / m)
        return np.hstack([M, j, inv])
    if mode == "sinusoidal":
        if sin_dim < 2 or sin_dim % 2 != 0:
            raise DataError(f"sin_dim must be even and >= 2, got {sin_dim}")
        pos = np.arange(m)[:, None]
        freq_idx = np.arange(sin_dim // 2)[None, :]
        angle = pos / np.power(10000.0, 2.0 * freq_idx / sin_dim)
        block = np.empty((m, sin_dim))
        block[:, 0::2] = np.sin(angle)
        block[:, 1::2] = np.cos(angle)
        return np.hstack([M, block])
    raise DataError(f"unknown positional mode {mode!r}")


def reference_featurize(base, offsets, positional, sin_dim, labels_prev):
    """Window, then positional, then previous-label block."""
    X = window_features(base, offsets)
    if positional != "none":
        X = positional_features(X, positional, sin_dim)
    if labels_prev is not None:
        X = label_feature(X, labels_prev)
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite value in feature matrix")
    return X


# ---------------------------------------------------------------------------
# The same bits
# ---------------------------------------------------------------------------

WINDOWS = [*WINDOW_SPECS.values(), (-2, -1, 0, 1)]
POSITIONAL = [("none", 8), ("normalized", 8), ("sinusoidal", 2), ("sinusoidal", 4), ("sinusoidal", 8)]


@pytest.mark.parametrize("positional, sin_dim", POSITIONAL)
@pytest.mark.parametrize("offsets", WINDOWS, ids=str)
def test_featurize_equals_reference(offsets, positional, sin_dim):
    rng = np.random.default_rng(zlib.crc32(repr((offsets, positional, sin_dim)).encode()))
    for m in (1, 2, 3, 37):
        base = rng.normal(size=(m, 5))
        for labels in (None, np.full(m, -1), rng.integers(-1, NUM_ROLES, size=m)):
            got = featurize(base, offsets, positional, sin_dim, labels)
            want = reference_featurize(base, offsets, positional, sin_dim, labels)
            assert got.dtype == want.dtype and np.array_equal(got, want), (m, labels)


def test_zero_width_base_equals_reference():
    for positional, sin_dim in POSITIONAL:
        base = np.zeros((4, 0))
        labels = np.array([-1, 0, 6, 3])
        assert np.array_equal(featurize(base, (-1, 0), positional, sin_dim, labels),
                              reference_featurize(base, (-1, 0), positional, sin_dim, labels))


# ---------------------------------------------------------------------------
# The same rejections
# ---------------------------------------------------------------------------

REJECTED = {
    "offset -1 only": (np.zeros((2, 1)), (-1,), "none", 8, None),
    "offsets out of order": (np.zeros((2, 1)), (0, -1), "none", 8, None),
    "offset +2": (np.zeros((2, 1)), (0, 2), "none", 8, None),
    "odd sin_dim": (np.zeros((2, 1)), (0,), "sinusoidal", 5, None),
    "sin_dim 0": (np.zeros((2, 1)), (0,), "sinusoidal", 0, None),
    "unknown positional mode": (np.zeros((2, 1)), (0,), "nowhere", 8, None),
    "short labels": (np.zeros((3, 2)), (0,), "none", 8, np.array([-1, -1])),
    "long labels": (np.zeros((3, 2)), (0,), "normalized", 8, np.array([-1, -1, 2, 4])),
    "infinite base": (np.array([[np.inf, 0.0], [0.0, 0.0]]), (-1, 0), "normalized", 8, None),
    "nan base": (np.array([[0.0], [np.nan]]), (0, 1), "sinusoidal", 4, np.array([-1, 2])),
    "bad offsets and labels": (np.zeros((3, 2)), (1,), "none", 8, np.array([-1])),
    "bad sin_dim and infinite base": (np.array([[np.inf]]), (0,), "sinusoidal", 3, None),
    "short labels and nan base": (np.array([[np.nan]]), (0,), "none", 8, np.array([], dtype=np.int64)),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_featurize_rejects_as_reference(case):
    args = REJECTED[case]
    with pytest.raises(DataError) as want:
        reference_featurize(*args)
    with pytest.raises(DataError) as got:
        featurize(*args)
    assert str(got.value) == str(want.value)
