"""Rhetorical-role sequence labeling for legal judgments.

Pipeline: sentence features (hashed n-grams or precomputed embeddings, plus
window/positional/previous-label blocks) -> document context encoder (BiLSTM,
self-attention, or GCN) -> CRF or softmax head, with an optional label-shift
auxiliary head trained jointly. All gradients are analytic and the CRF
inference is exact.
"""

from .corpus import (
    Corpus,
    CorpusStats,
    Document,
    compute_stats,
    label_shift_sequence,
    load_jsonl,
    segment_text,
    split_corpus,
    write_jsonl,
)
from .errors import DataError, NumericError
from .roles import NUM_ROLES, ROLE_NAMES, RhetoricalRole

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusStats",
    "DataError",
    "Document",
    "NUM_ROLES",
    "NumericError",
    "ROLE_NAMES",
    "RhetoricalRole",
    "compute_stats",
    "label_shift_sequence",
    "load_jsonl",
    "segment_text",
    "split_corpus",
    "write_jsonl",
    "__version__",
]
