"""Sentence-level features: tokens, hashed n-grams, windows, labels, positions.

Pretrained sentence encoders are replaced by a pluggable interface with two
built-ins: a self-contained hashed bag-of-n-grams encoder and a loader for
externally computed embedding files. Downstream code only sees (m, d) float
matrices, one row per sentence.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import DataError
from .roles import NUM_ROLES, RhetoricalRole

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Corpus, Document

_TOKEN = re.compile(r"[0-9a-z]+|[^\s0-9a-z]+")

WINDOW_SPECS: dict[str, tuple[int, ...]] = {
    "i": (0,),
    "i-1:i": (-1, 0),
    "i-2:i-1:i": (-2, -1, 0),
    "i-1:i:i+1": (-1, 0, 1),
}


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; punctuation runs are single tokens."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class HashEncoderConfig:
    dim: int = 128
    ngram_orders: tuple[int, ...] = (1, 2)
    seed: int = 0
    signed: bool = True

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise DataError(f"hash encoder dim must be >= 8, got {self.dim}")
        if not self.ngram_orders or not set(self.ngram_orders) <= {1, 2}:
            raise DataError(f"ngram orders must be a non-empty subset of {{1, 2}}, got {self.ngram_orders}")


def _hash64(text: str, key: bytes) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hash_embed(tokens: list[str], cfg: HashEncoderConfig) -> np.ndarray:
    """Hash n-grams into a fixed-width vector, then L2-normalize.

    Bucket comes from the low bits of a keyed blake2b digest, the sign from
    bit 63, so identical inputs map identically for a fixed seed regardless
    of process state. An empty token list yields the zero vector.
    """
    vec = np.zeros(cfg.dim)
    if not tokens:
        return vec
    key = cfg.seed.to_bytes(8, "little", signed=True)
    for order in cfg.ngram_orders:
        for j in range(len(tokens) - order + 1):
            gram = f"{order}:" + " ".join(tokens[j : j + order])
            h = _hash64(gram, key)
            sign = 1.0
            if cfg.signed and (h >> 63) & 1:
                sign = -1.0
            vec[h % cfg.dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


# Most n-grams of a corpus recur, so each HashingEncoder remembers the hash
# of up to this many distinct n-grams; n-grams met once it is full are
# hashed on every occurrence.
_MEMO_CAP = 1 << 16


class HashingEncoder:
    """Self-contained sentence encoder over hashed n-grams.

    Produces exactly the rows of hash_embed. Each n-gram's bucket and sign
    are looked up in a per-encoder memo, packed as 2 * bucket + (1 if the
    sign is negative), and one document's entries are summed with a single
    bincount. Entries before normalization are integer sums of +-1, so they
    and their squared norms are exact in any summation order."""

    kind = "hash"

    def __init__(self, cfg: HashEncoderConfig):
        self.cfg = cfg
        self.dim = cfg.dim
        self._key = cfg.seed.to_bytes(8, "little", signed=True)
        self._memo: dict[str, int] = {}

    def _code(self, gram: str) -> int:
        h = _hash64(gram, self._key)
        code = 2 * (h % self.dim) + (1 if self.cfg.signed and (h >> 63) & 1 else 0)
        if len(self._memo) < _MEMO_CAP:
            self._memo[gram] = code
        return code

    def encode_document(self, doc: "Document") -> np.ndarray:
        memo = self._memo
        codes: list[int] = []
        counts = []
        for s in doc.sentences:
            tokens = tokenize(s.text)
            grams = []
            for order in self.cfg.ngram_orders:  # the strings hash_embed hashes
                if order == 1:
                    grams += ["1:" + t for t in tokens]
                else:
                    grams += [f"2:{a} {b}" for a, b in zip(tokens, tokens[1:])]
            codes += [memo[g] if g in memo else self._code(g) for g in grams]
            counts.append(len(grams))
        m = len(counts)
        codes_arr = np.array(codes, dtype=np.int64)
        rows = np.repeat(np.arange(m), counts)
        signs = 1.0 - 2.0 * (codes_arr & 1)
        M = np.bincount(rows * self.dim + (codes_arr >> 1), weights=signs, minlength=m * self.dim)
        M = M.reshape(m, self.dim)
        norms = np.sqrt(np.einsum("ij,ij->i", M, M))
        norms[norms == 0.0] = 1.0  # empty rows stay zero
        return M / norms[:, None]

    def spec(self) -> dict:
        return {
            "kind": "hash",
            "dim": self.cfg.dim,
            "ngram_orders": list(self.cfg.ngram_orders),
            "seed": self.cfg.seed,
            "signed": self.cfg.signed,
        }


class PrecomputedEncoder:
    """Serves externally computed sentence vectors keyed by doc_id."""

    kind = "precomputed"

    def __init__(self, matrices: Mapping[str, np.ndarray], dim: int):
        self.matrices = dict(matrices)
        self.dim = dim

    def encode_document(self, doc: "Document") -> np.ndarray:
        if doc.doc_id not in self.matrices:
            raise DataError(f"no embeddings for document {doc.doc_id!r}")
        mat = self.matrices[doc.doc_id]
        if mat.shape[0] != len(doc):
            raise DataError(
                f"embeddings for {doc.doc_id!r} cover {mat.shape[0]} sentences, document has {len(doc)}"
            )
        return mat

    def spec(self) -> dict:
        return {"kind": "precomputed", "dim": self.dim}


def load_embeddings(path, corpus: "Corpus") -> dict[str, np.ndarray]:
    """Read the embedding file format: "dim=<d>" header, then
    "<doc_id>\\t<sentence_index>\\t<v1> <v2> ... <vd>" per line.

    Every (doc_id, index) pair of the corpus must be covered at the declared
    width with finite values.
    """
    rows: dict[str, dict[int, np.ndarray]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        match = re.fullmatch(r"dim=(\d+)", header)
        if not match:
            raise DataError(f"embedding file header must be 'dim=<d>', got {header!r}")
        dim = int(match.group(1))
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise DataError(f"line {line_no}: expected 3 tab-separated fields")
            doc_id, idx_str, values = parts
            try:
                idx = int(idx_str)
            except ValueError:
                raise DataError(f"line {line_no}: bad sentence index {idx_str!r}") from None
            try:
                vec = np.array([float(v) for v in values.split()], dtype=np.float64)
            except ValueError:
                raise DataError(f"line {line_no}: non-numeric embedding value") from None
            if vec.shape[0] != dim:
                raise DataError(
                    f"line {line_no}: width mismatch, expected {dim} values, got {vec.shape[0]}"
                )
            if not np.all(np.isfinite(vec)):
                raise DataError(f"line {line_no}: non-finite value in embedding for {doc_id}:{idx}")
            rows.setdefault(doc_id, {})[idx] = vec
    out: dict[str, np.ndarray] = {}
    for doc in corpus:
        per_doc = rows.get(doc.doc_id, {})
        mat = np.zeros((len(doc), dim))
        for sent in doc.sentences:
            if sent.index not in per_doc:
                raise DataError(f"{doc.doc_id}:{sent.index} missing from embedding file")
            mat[sent.index] = per_doc[sent.index]
        out[doc.doc_id] = mat
    return out


def parse_window_spec(spec: str) -> tuple[int, ...]:
    if spec not in WINDOW_SPECS:
        raise DataError(
            f"unknown window spec {spec!r}; expected one of {', '.join(WINDOW_SPECS)}"
        )
    return WINDOW_SPECS[spec]


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


def label_feature(M: np.ndarray, labels_prev: list[RhetoricalRole | None]) -> np.ndarray:
    """Append a 7-wide one-hot of the previous sentence's label (zeros if absent)."""
    m = M.shape[0]
    if len(labels_prev) != m:
        raise DataError(f"labels_prev has length {len(labels_prev)}, expected {m}")
    block = np.zeros((m, NUM_ROLES))
    for j, role in enumerate(labels_prev):
        if role is not None:
            block[j, int(role)] = 1.0
    return np.hstack([M, block])


def positional_features(M: np.ndarray, mode: str, sin_dim: int = 8) -> np.ndarray:
    """Append position features per row.

    normalized: [(j+1)/m, 1/m], carrying both relative position and total
    document length. sinusoidal: interleaved sin/cos of the raw position j
    with frequency base 10000.
    """
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


def featurize(
    base: np.ndarray,
    offsets: tuple[int, ...],
    positional: str,
    sin_dim: int,
    labels_prev: list[RhetoricalRole | None] | None,
) -> np.ndarray:
    """Window, then positional, then previous-label block. Widths compose additively."""
    X = window_features(base, offsets)
    if positional != "none":
        X = positional_features(X, positional, sin_dim)
    if labels_prev is not None:
        X = label_feature(X, labels_prev)
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite value in feature matrix")
    return X


def feature_width(
    base_dim: int, offsets: tuple[int, ...], positional: str, sin_dim: int, with_labels: bool
) -> int:
    width = base_dim * len(offsets)
    if positional == "normalized":
        width += 2
    elif positional == "sinusoidal":
        width += sin_dim
    elif positional != "none":
        raise DataError(f"unknown positional mode {positional!r}")
    if with_labels:
        width += NUM_ROLES
    return width
