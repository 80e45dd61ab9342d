"""Sentence-level features: tokens, hashed n-grams, windows, labels, positions.

Pretrained sentence encoders are replaced by a pluggable interface with two
built-ins: a self-contained hashed bag-of-n-grams encoder and a loader for
externally computed embedding files. Downstream code only sees (m, d) float
matrices, one row per sentence.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import DataError, open_text
from .roles import NUM_ROLES

if TYPE_CHECKING:  # pragma: no cover
    from .corpus import Document

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
        orders = self.ngram_orders
        if not orders or not set(orders) <= {1, 2} or len(set(orders)) < len(orders):
            raise DataError(f"ngram orders must be a non-empty subset of {{1, 2}}, got {orders}")


def _hash64(texts: list[str], keyed) -> np.ndarray:
    """Keyed 8-byte blake2b of each text as a little-endian uint64; copying keyed skips the key block."""
    digests = []
    for text in texts:
        h = keyed.copy()
        h.update(text.encode("utf-8"))
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), "<u8")


# Each HashingEncoder keeps ids for up to this many distinct tokens and codes for up
# to this many distinct n-grams; n-grams past it are hashed in each chunk they occur in.
_MEMO_CAP = 1 << 16


class HashingEncoder:
    """Self-contained sentence encoder over hashed n-grams.

    Row j is the L2-normalized sum of +-1 over sentence j's n-grams: bucket
    keyed blake2b("<order>:<tokens joined by spaces>") mod dim, negative where
    bit 63 is set unless unsigned. A chunk is coded at once: tokens map to int
    ids, n-grams to int64 keys (id, or (id_a + 1) << 32 | id_b), distinct keys
    to codes 2 * bucket + (1 if negative) through a key -> code memo dict, and
    one bincount sums the chunk, exactly: entries are integer sums of +-1."""

    kind = "hash"

    def __init__(self, cfg: HashEncoderConfig):
        self.cfg = cfg
        self.dim = cfg.dim
        self._keyed = hashlib.blake2b(key=cfg.seed.to_bytes(8, "little", signed=True), digest_size=8)
        self._ids, self._names = {}, []  # token -> id, and the tokens by id
        self._codes: dict[int, int] = {}  # n-gram key -> code

    def encode_document(self, doc: "Document") -> np.ndarray:
        return self.encode_documents([doc])[0]

    def encode_documents(self, docs) -> list[np.ndarray]:
        """One (m, dim) matrix per document."""
        sentences = [tokenize(text) for doc in docs for text in doc.texts]
        tokens = list(itertools.chain.from_iterable(sentences))
        ids, cap = self._ids, _MEMO_CAP
        new = [t for t in dict.fromkeys(tokens) if t not in ids]
        ids.update(zip(new, itertools.count(len(ids))))
        self._names += new
        tid = np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))
        m = len(sentences)
        cell = np.repeat(np.arange(0, m * self.dim, self.dim), [len(t) for t in sentences])  # row j starts at j * dim
        pair = cell[1:] == cell[:-1]  # the bigrams within one sentence
        grams = {1: (tid, cell), 2: (((tid[:-1] + 1) << 32 | tid[1:])[pair], cell[1:][pair])}
        keys, rows = (np.concatenate(parts) for parts in zip(*(grams[n] for n in self.cfg.ngram_orders)))
        uniq, inverse = np.unique(keys, return_inverse=True)
        codes = np.fromiter(map(self._codes.get, uniq.tolist(), itertools.repeat(-1)), np.int64, len(uniq))
        miss = np.flatnonzero(codes < 0)
        if len(miss):
            codes[miss] = self._hash_keys(uniq[miss])
        for t in self._names[cap:]:  # ids from the cap up last for this chunk only
            del ids[t]
        del self._names[cap:]
        codes = codes[inverse]
        M = np.bincount(rows + (codes >> 1), weights=1.0 - 2.0 * (codes & 1), minlength=m * self.dim).reshape(m, -1)
        M = M / np.maximum(np.sqrt(np.einsum("ij,ij->i", M, M)), 1.0)[:, None]  # nonzero rows have norm >= 1
        ends = list(itertools.accumulate(map(len, docs)))
        return [M[lo:hi] for lo, hi in zip([0, *ends], ends)]

    def _hash_keys(self, keys: np.ndarray) -> np.ndarray:
        """Codes of distinct keys the memo lacks; keys of lasting tokens are kept while there is room."""
        memo, names, cap = self._codes, self._names, _MEMO_CAP
        texts = [f"2:{names[(k >> 32) - 1]} {names[k & 0xFFFFFFFF]}" if k >> 32 else "1:" + names[k]
                 for k in keys.tolist()]
        h = _hash64(texts, self._keyed)
        codes = (2 * (h % self.dim) + (h >> 63 if self.cfg.signed else 0)).astype(np.int64)
        lasting = np.flatnonzero(((keys >> 32) <= cap) & ((keys & 0xFFFFFFFF) < cap))[: cap - len(memo)]
        memo.update(zip(keys[lasting].tolist(), codes[lasting].tolist()))
        return codes

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
        return self.encode_documents([doc])[0]

    def encode_documents(self, docs) -> list[np.ndarray]:
        for doc in docs:
            mat = self.matrices.get(doc.doc_id)
            if mat is None:
                raise DataError(f"no embeddings for document {doc.doc_id!r}")
            if mat.shape[0] != len(doc):
                raise DataError(f"embeddings for {doc.doc_id!r} cover {mat.shape[0]} sentences, document has {len(doc)}")
        return [self.matrices[doc.doc_id] for doc in docs]

    def spec(self) -> dict:
        return {"kind": "precomputed", "dim": self.dim}


def load_embeddings(path, docs: "Iterable[Document]") -> dict[str, np.ndarray]:
    """Read the embedding file format: "dim=<d>" header, then
    "<doc_id>\\t<sentence_index>\\t<v1> <v2> ... <vd>" per line.

    Every (doc_id, index) pair of docs must be covered at the declared
    width with finite values. A doc id that occurs twice maps to the matrix
    of its last document.
    """
    rows: dict[str, dict[int, np.ndarray]] = {}
    with open_text(path) as fh:
        header = fh.readline().strip()
        match = re.fullmatch(r"dim=(\d+)", header)
        if not match:
            raise DataError(f"embedding file header must be 'dim=<d>', got {header!r}")
        dim = int(match.group(1))
        if dim == 0:
            raise DataError("embedding file header declares dim=0; vectors need at least one value")
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
    for doc in docs:
        per_doc = rows.get(doc.doc_id, {})
        for j in range(len(doc)):
            if j not in per_doc:
                raise DataError(f"{doc.doc_id}:{j} missing from embedding file")
        # built from the rows read, so never larger than the file, whatever the header says
        out[doc.doc_id] = np.array([per_doc[j] for j in range(len(doc))]).reshape(len(doc), dim)
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


def label_feature(M: np.ndarray, labels_prev: np.ndarray) -> np.ndarray:
    """Append a 7-wide one-hot of each row's previous-label id (zeros for -1, no label)."""
    m = M.shape[0]
    if len(labels_prev) != m:
        raise DataError(f"labels_prev has length {len(labels_prev)}, expected {m}")
    return np.hstack([M, np.arange(NUM_ROLES) == labels_prev[:, None]])


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
    labels_prev: np.ndarray | None,
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
