"""Synthetic labeled corpora with a controllable difficulty dial.

Documents follow the canonical role order Facts -> Issue -> ArgumentsOfPetitioner
-> ArgumentsOfRespondent -> Reasoning -> Decision with None sentences
interspersed at segment gaps. Each role owns a keyword pool; every sentence
mixes keywords from its role's pool with shared filler tokens. With
probability `noise` a sentence draws its keywords from a random other role's
pool while keeping its gold label, so the label is no longer recoverable from
that sentence alone. Fully deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, Document
from .errors import DataError
from .roles import RhetoricalRole

_CORE_ORDER = (
    RhetoricalRole.FACTS,
    RhetoricalRole.ISSUE,
    RhetoricalRole.ARGUMENTS_OF_PETITIONER,
    RhetoricalRole.ARGUMENTS_OF_RESPONDENT,
    RhetoricalRole.REASONING,
    RhetoricalRole.DECISION,
)

_POOL_STEMS = {
    RhetoricalRole.NONE: "none",
    RhetoricalRole.FACTS: "facts",
    RhetoricalRole.ISSUE: "issue",
    RhetoricalRole.ARGUMENTS_OF_PETITIONER: "petitioner",
    RhetoricalRole.ARGUMENTS_OF_RESPONDENT: "respondent",
    RhetoricalRole.REASONING: "reasoning",
    RhetoricalRole.DECISION: "decision",
}


def _keyword_pools(role_vocab: int) -> dict[RhetoricalRole, list[str]]:
    return {
        role: [f"{stem}kw{i}" for i in range(role_vocab)]
        for role, stem in _POOL_STEMS.items()
    }


def _label_sequence(m: int, rng: np.random.Generator) -> list[RhetoricalRole]:
    """Core roles in canonical order, each with at least one sentence when m
    allows, plus None sentences distributed over the segment gaps."""
    if m >= len(_CORE_ORDER) + 1:
        none_count = int(round(m * rng.uniform(0.10, 0.25)))
        none_count = min(none_count, m - len(_CORE_ORDER))
    else:
        none_count = 0
    core_total = m - none_count
    core_roles = list(_CORE_ORDER[:core_total])
    lengths = np.ones(len(core_roles), dtype=np.int64)
    extra = core_total - len(core_roles)
    if extra > 0:
        lengths += rng.multinomial(extra, np.full(len(core_roles), 1.0 / len(core_roles)))
    gaps = np.zeros(len(core_roles) + 1, dtype=np.int64)
    if none_count > 0:
        gaps += rng.multinomial(none_count, np.full(len(gaps), 1.0 / len(gaps)))
    labels: list[RhetoricalRole] = []
    for g in range(len(core_roles) + 1):
        labels.extend([RhetoricalRole.NONE] * int(gaps[g]))
        if g < len(core_roles):
            labels.extend([core_roles[g]] * int(lengths[g]))
    return labels


def _sentence_text(
    role: RhetoricalRole,
    pools: dict[RhetoricalRole, list[str]],
    fillers: list[str],
    noise: float,
    rng: np.random.Generator,
) -> str:
    pool_role = role
    if noise > 0 and rng.random() < noise:
        others = [r for r in RhetoricalRole if r != role]
        pool_role = others[int(rng.integers(0, len(others)))]
    pool = pools[pool_role]
    n_kw = int(rng.integers(2, 5))
    n_fill = int(rng.integers(3, 8))
    tokens = [pool[int(i)] for i in rng.integers(0, len(pool), size=n_kw)]
    tokens += [fillers[int(i)] for i in rng.integers(0, len(fillers), size=n_fill)]
    order = rng.permutation(len(tokens))
    return " ".join(tokens[int(k)] for k in order) + "."


def generate_corpus(
    n_docs: int,
    min_sentences: int,
    max_sentences: int,
    role_vocab: int = 12,
    filler_vocab: int = 30,
    noise: float = 0.1,
    seed: int = 0,
) -> Corpus:
    if n_docs < 1:
        raise DataError(f"n_docs must be >= 1, got {n_docs}")
    if min_sentences < 1 or max_sentences < min_sentences:
        raise DataError(
            f"invalid sentence range [{min_sentences}, {max_sentences}]"
        )
    if not 0.0 <= noise < 1.0:
        raise DataError(f"noise must lie in [0, 1), got {noise}")
    if role_vocab < 1 or filler_vocab < 1:
        raise DataError("vocabulary sizes must be >= 1")
    rng = np.random.default_rng(seed)
    pools = _keyword_pools(role_vocab)
    fillers = [f"filler{i}" for i in range(filler_vocab)]
    documents = []
    for d in range(n_docs):
        m = int(rng.integers(min_sentences, max_sentences + 1))
        labels = tuple(_label_sequence(m, rng))
        texts = tuple(_sentence_text(role, pools, fillers, noise, rng) for role in labels)
        documents.append(Document(doc_id=f"synth-{d:04d}", texts=texts, labels=labels))
    return Corpus(documents=tuple(documents))
