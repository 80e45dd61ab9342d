"""Tokenizer, hashed n-gram vectors, and the feature pipeline."""

import hashlib
import types
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetseg import encode as encode_mod
from rhetseg import train as train_mod
from rhetseg.corpus import Corpus, Document
from rhetseg.encode import (
    WINDOW_SPECS,
    HashEncoderConfig,
    HashingEncoder,
    PrecomputedEncoder,
    feature_width,
    featurize,
    label_feature,
    load_embeddings,
    parse_window_spec,
    positional_features,
    tokenize,
    window_features,
)
from rhetseg.errors import DataError
from rhetseg.roles import NUM_ROLES, RhetoricalRole


def hash_embed(tokens, cfg):
    """The hashing oracle: one sentence's n-grams hashed one at a time into a
    fixed-width vector, then L2-normalized.

    Bucket comes from the low bits of a keyed blake2b digest, the sign from
    bit 63, so identical inputs map identically for a fixed seed regardless
    of process state. An empty token list yields the zero vector."""
    vec = np.zeros(cfg.dim)
    if not tokens:
        return vec
    key = cfg.seed.to_bytes(8, "little", signed=True)
    for order in cfg.ngram_orders:
        for j in range(len(tokens) - order + 1):
            gram = f"{order}:" + " ".join(tokens[j : j + order])
            h = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), key=key, digest_size=8).digest(), "little")
            sign = 1.0
            if cfg.signed and (h >> 63) & 1:
                sign = -1.0
            vec[h % cfg.dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("The Court held: dismissed.") == \
            ["the", "court", "held", ":", "dismissed", "."]

    def test_alphanumeric_runs_stay_joined(self):
        assert tokenize("Section 80IA applies") == ["section", "80ia", "applies"]

    def test_punctuation_runs_are_single_tokens(self):
        assert tokenize("what?! yes...") == ["what", "?!", "yes", "..."]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []


class TestHashEmbed:
    CFG = HashEncoderConfig(dim=32, ngram_orders=(1, 2), seed=0)

    def test_empty_tokens_zero_vector(self):
        np.testing.assert_array_equal(hash_embed([], self.CFG), np.zeros(32))

    def test_unit_norm_when_nonempty(self):
        v = hash_embed(["court", "held"], self.CFG)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_deterministic_across_calls(self):
        a = hash_embed(["appeal", "dismissed"], self.CFG)
        b = hash_embed(["appeal", "dismissed"], self.CFG)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_mapping(self):
        other = HashEncoderConfig(dim=32, ngram_orders=(1, 2), seed=1)
        a = hash_embed(["appeal", "dismissed"], self.CFG)
        b = hash_embed(["appeal", "dismissed"], other)
        assert not np.array_equal(a, b)

    def test_unigram_only_is_order_invariant(self):
        cfg = HashEncoderConfig(dim=32, ngram_orders=(1,), seed=0)
        a = hash_embed(["alpha", "beta", "gamma"], cfg)
        b = hash_embed(["gamma", "alpha", "beta"], cfg)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_bigrams_are_order_sensitive(self):
        a = hash_embed(["alpha", "beta", "gamma"], self.CFG)
        b = hash_embed(["gamma", "alpha", "beta"], self.CFG)
        assert not np.allclose(a, b)

    def test_unigram_and_bigram_buckets_are_distinct(self):
        # the order prefix keeps the unigram "a b"-style collisions away
        cfg1 = HashEncoderConfig(dim=64, ngram_orders=(1,), seed=0)
        cfg2 = HashEncoderConfig(dim=64, ngram_orders=(2,), seed=0)
        v1 = hash_embed(["appeal"], cfg1)
        v2 = hash_embed(["appeal", "appeal"], cfg2)
        assert not np.array_equal(np.nonzero(v1), np.nonzero(v2))

    def test_unsigned_mode_nonnegative(self):
        cfg = HashEncoderConfig(dim=32, ngram_orders=(1, 2), seed=0, signed=False)
        rng = np.random.default_rng(0)
        toks = [f"w{i}" for i in rng.integers(0, 50, size=20)]
        assert np.all(hash_embed(toks, cfg) >= 0)

    def test_config_validation(self):
        with pytest.raises(DataError):
            HashEncoderConfig(dim=4)
        with pytest.raises(DataError):
            HashEncoderConfig(ngram_orders=(3,))
        with pytest.raises(DataError):
            HashEncoderConfig(ngram_orders=())


def unlabeled(doc_id, texts):
    return Document(doc_id=doc_id, texts=tuple(texts), labels=(None,) * len(texts))


def two_sentence_doc():
    return unlabeled("d", ["The appeal is allowed.", "Costs follow the event."])


class TestEncoders:
    def test_hashing_encoder_shape_and_spec(self):
        enc = HashingEncoder(HashEncoderConfig(dim=16))
        M = enc.encode_document(two_sentence_doc())
        assert M.shape == (2, 16)
        assert enc.spec() == {"kind": "hash", "dim": 16, "ngram_orders": [1, 2],
                              "seed": 0, "signed": True}

    def test_precomputed_encoder_serves_rows(self):
        doc = two_sentence_doc()
        mat = np.arange(8, dtype=float).reshape(2, 4)
        enc = PrecomputedEncoder({"d": mat}, dim=4)
        np.testing.assert_array_equal(enc.encode_document(doc), mat)
        assert enc.spec() == {"kind": "precomputed", "dim": 4}

    def test_precomputed_encoder_missing_doc(self):
        enc = PrecomputedEncoder({}, dim=4)
        with pytest.raises(DataError, match="'d'"):
            enc.encode_document(two_sentence_doc())

    def test_precomputed_encoder_row_count_mismatch(self):
        enc = PrecomputedEncoder({"d": np.zeros((3, 4))}, dim=4)
        with pytest.raises(DataError, match="3 sentences"):
            enc.encode_document(two_sentence_doc())


WORDS = ["court", "held", "appeal", "§", "münchen", "naïve", "€€", "?!", "80ia", "a", "ß", "x1"]


def random_doc(rng, n_sentences):
    """Sentences of random words, some repeated, some non-ASCII, some a single token."""
    texts = []
    for idx in range(n_sentences):
        n = 1 if idx % 4 == 0 else int(rng.integers(2, 12))
        texts.append(" ".join(rng.choice(WORDS, size=n)))
    return unlabeled("r", texts)


def uncached(doc, cfg):
    return np.vstack([hash_embed(tokenize(text), cfg) for text in doc.texts])


def ngrams(text, orders):
    """The n-gram strings of one sentence that hash_embed hashes."""
    toks = tokenize(text)
    return [f"{order}:" + " ".join(toks[j : j + order]) for order in orders for j in range(len(toks) - order + 1)]


CHUNK_WORDS = WORDS + ["MÜNCHEN", "İstanbul", "ΟΔΟΣ", "x,y", "日本"]
SENTENCE = st.lists(st.sampled_from(CHUNK_WORDS), min_size=1, max_size=6).map(" ".join)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    texts=st.lists(st.lists(SENTENCE, min_size=1, max_size=5), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
    cuts=st.lists(st.integers(1, 4), max_size=12),
    orders=st.sampled_from([(1,), (2,), (1, 2)]),
    signed=st.booleans(),
    capped=st.booleans(),
)
def test_chunk_coder_matches_hash_embed(texts, picks, cuts, orders, signed, capped):
    """Random documents, some repeated, coded in random chunks: every row is
    the oracle's, and below the cap every distinct n-gram is hashed once."""
    pool = [unlabeled(f"d{i}", doc) for i, doc in enumerate(texts)]
    docs = [pool[p % len(pool)] for p in picks]
    chunks, lo = [], 0
    for size in cuts + [len(docs)]:  # the last chunk takes what is left
        if docs[lo : lo + size]:
            chunks.append(docs[lo : lo + size])
        lo += size
    cfg = HashEncoderConfig(dim=8, ngram_orders=orders, seed=7, signed=signed)
    enc = HashingEncoder(cfg)
    calls = []
    real = encode_mod._hash64
    cap = 5 if capped else encode_mod._MEMO_CAP
    with mock.patch.object(encode_mod, "_hash64", lambda texts, key: calls.extend(texts) or real(texts, key)), \
            mock.patch.object(encode_mod, "_MEMO_CAP", cap):
        for chunk in chunks:
            start = len(calls)
            rows = enc.encode_documents(chunk)
            assert len(rows) == len(chunk)
            for doc, got in zip(chunk, rows):
                np.testing.assert_array_equal(got, uncached(doc, cfg))
            hashed = calls[start:]
            assert len(hashed) == len(set(hashed))
            assert set(hashed) <= {g for doc in chunk for text in doc.texts for g in ngrams(text, orders)}
    assert len(enc._codes) <= cap and len(enc._ids) <= cap
    if not capped:
        assert sorted(calls) == sorted({g for doc in docs for text in doc.texts for g in ngrams(text, orders)})


class TestHashingMemo:
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("orders", [(1,), (2,), (1, 2)])
    def test_matches_uncached_hash_embed(self, signed, orders):
        cfg = HashEncoderConfig(dim=16, ngram_orders=orders, seed=3, signed=signed)
        enc = HashingEncoder(cfg)
        rng = np.random.default_rng(len(orders) + 2 * signed)
        for _ in range(6):  # later documents mostly hit the memo
            doc = random_doc(rng, 9)
            np.testing.assert_array_equal(enc.encode_document(doc), uncached(doc, cfg))

    def test_hashes_each_distinct_ngram_once(self, monkeypatch):
        calls = []
        real = encode_mod._hash64
        monkeypatch.setattr(encode_mod, "_hash64", lambda texts, key: calls.extend(texts) or real(texts, key))
        enc = HashingEncoder(HashEncoderConfig(dim=16))
        doc = random_doc(np.random.default_rng(1), 12)
        first = enc.encode_document(doc)
        assert sorted(calls) == sorted({g for text in doc.texts for g in ngrams(text, (1, 2))})
        calls.clear()
        np.testing.assert_array_equal(enc.encode_document(doc), first)
        assert calls == []

    def test_memo_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(encode_mod, "_MEMO_CAP", 5)
        cfg = HashEncoderConfig(dim=16)
        enc = HashingEncoder(cfg)
        rng = np.random.default_rng(2)
        for _ in range(3):
            doc = random_doc(rng, 10)
            np.testing.assert_array_equal(enc.encode_document(doc), uncached(doc, cfg))
        assert len(enc._codes) == 5
        assert len(enc._ids) == 5

    def test_chunk_only_ids_never_join_the_table(self, monkeypatch):
        """With the token ids full and the n-gram table not, a bigram of two
        chunk-only ids is not kept: the next chunk gives the same ids to other
        tokens."""
        monkeypatch.setattr(encode_mod, "_MEMO_CAP", 5)
        cfg = HashEncoderConfig(dim=16, ngram_orders=(2,))
        enc = HashingEncoder(cfg)
        texts = [["a", "b", "c", "d", "e", "court held"], ["appeal dismissed"]]
        for n, chunk in enumerate(texts):
            doc = unlabeled(f"d{n}", chunk)
            np.testing.assert_array_equal(enc.encode_documents([doc])[0], uncached(doc, cfg))


class TestLoadEmbeddings:
    def corpus(self):
        return Corpus(documents=(two_sentence_doc(),))

    def write(self, tmp_path, body):
        path = tmp_path / "emb.tsv"
        path.write_text(body)
        return path

    def test_reads_declared_width(self, tmp_path):
        path = self.write(tmp_path, "dim=3\nd\t0\t1 2 3\nd\t1\t4 5 6\n")
        mats = load_embeddings(path, self.corpus())
        np.testing.assert_array_equal(mats["d"], [[1, 2, 3], [4, 5, 6]])

    def test_repeated_doc_id_takes_its_last_document(self, tmp_path):
        """Training and validation documents are read in one call, the
        validation ones last: a doc id in both maps to its validation rows."""
        path = self.write(tmp_path, "dim=3\nd\t0\t1 2 3\nd\t1\t4 5 6\n")
        short = unlabeled("d", ["A."])
        np.testing.assert_array_equal(load_embeddings(path, [two_sentence_doc(), short])["d"], [[1, 2, 3]])
        np.testing.assert_array_equal(load_embeddings(path, [short, two_sentence_doc()])["d"], [[1, 2, 3], [4, 5, 6]])

    def test_missing_row_named(self, tmp_path):
        path = self.write(tmp_path, "dim=3\nd\t0\t1 2 3\n")
        with pytest.raises(DataError, match="d:1 missing"):
            load_embeddings(path, self.corpus())

    def test_width_mismatch(self, tmp_path):
        path = self.write(tmp_path, "dim=3\nd\t0\t1 2\nd\t1\t4 5 6\n")
        with pytest.raises(DataError, match="line 2.*expected 3"):
            load_embeddings(path, self.corpus())

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "dim=2\nd\t0\t1 nan\nd\t1\t3 4\n")
        with pytest.raises(DataError, match="non-finite"):
            load_embeddings(path, self.corpus())

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "width=3\n")
        with pytest.raises(DataError, match="header"):
            load_embeddings(path, self.corpus())

    def test_bad_field_count(self, tmp_path):
        path = self.write(tmp_path, "dim=2\nd 0 1 2\n")
        with pytest.raises(DataError, match="3 tab-separated"):
            load_embeddings(path, self.corpus())


class TestWindow:
    def test_known_specs(self):
        assert parse_window_spec("i") == (0,)
        assert parse_window_spec("i-2:i-1:i") == (-2, -1, 0)
        assert parse_window_spec("i-1:i:i+1") == (-1, 0, 1)
        with pytest.raises(DataError, match="i-3"):
            parse_window_spec("i-3:i")

    def test_identity_window(self):
        M = np.arange(6, dtype=float).reshape(3, 2)
        np.testing.assert_array_equal(window_features(M, (0,)), M)

    def test_padding_at_edges(self):
        M = np.array([[1.0], [2.0], [3.0]])
        out = window_features(M, (-1, 0, 1))
        want = np.array([
            [0.0, 1.0, 2.0],
            [1.0, 2.0, 3.0],
            [2.0, 3.0, 0.0],
        ])
        np.testing.assert_array_equal(out, want)

    def test_two_back_window(self):
        M = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = window_features(M, (-2, -1, 0))
        want = np.array([
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 2.0],
            [1.0, 2.0, 3.0],
            [2.0, 3.0, 4.0],
        ])
        np.testing.assert_array_equal(out, want)

    def test_offsets_validated(self):
        M = np.zeros((2, 1))
        with pytest.raises(DataError):
            window_features(M, (-1,))
        with pytest.raises(DataError):
            window_features(M, (0, -1))
        with pytest.raises(DataError):
            window_features(M, (0, 2))


class TestPositional:
    def test_normalized_values(self):
        M = np.zeros((4, 1))
        out = positional_features(M, "normalized")
        np.testing.assert_allclose(out[:, 1], [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(out[:, 2], [0.25, 0.25, 0.25, 0.25])

    def test_normalized_single_sentence(self):
        out = positional_features(np.zeros((1, 2)), "normalized")
        np.testing.assert_allclose(out[0, 2:], [1.0, 1.0])

    def test_sinusoidal_position_zero(self):
        out = positional_features(np.zeros((3, 1)), "sinusoidal", sin_dim=6)
        np.testing.assert_allclose(out[0, 1:], [0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_sinusoidal_matches_definition(self):
        out = positional_features(np.zeros((5, 0)), "sinusoidal", sin_dim=4)
        for j in range(5):
            for k in range(2):
                angle = j / 10000.0 ** (2 * k / 4)
                assert out[j, 2 * k] == pytest.approx(np.sin(angle))
                assert out[j, 2 * k + 1] == pytest.approx(np.cos(angle))

    def test_sin_dim_validated(self):
        with pytest.raises(DataError):
            positional_features(np.zeros((2, 1)), "sinusoidal", sin_dim=5)
        with pytest.raises(DataError):
            positional_features(np.zeros((2, 1)), "nowhere")


def role_list_features(bundle, base, labels=()):
    """Reference features of one document with the previous-label block
    built from roles: row j's previous label is labels[j-1], None past the
    end of labels, and the one-hot is filled one row at a time."""
    X = featurize(base, bundle.cfg.window, bundle.cfg.positional, bundle.cfg.sin_dim, None)
    if bundle.cfg.label_mode == "off":
        return X
    m = base.shape[0]
    prevs = ([None] + list(labels))[:m]
    prevs += [None] * (m - len(prevs))
    block = np.zeros((m, NUM_ROLES))
    for j, role in enumerate(prevs):
        if role is not None:
            block[j, int(role)] = 1.0
    return np.hstack([X, block])


class TestLabelFeature:
    def test_one_hot_blocks(self):
        M = np.zeros((3, 2))
        out = label_feature(M, np.array([-1, RhetoricalRole.FACTS, RhetoricalRole.DECISION]))
        assert out.shape == (3, 9)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out[0, 2:], np.zeros(7))
        assert out[1, 2 + 1] == 1.0 and out[1, 2:].sum() == 1.0
        assert out[2, 2 + 6] == 1.0

    def test_length_checked(self):
        with pytest.raises(DataError, match="labels_prev has length 2, expected 3"):
            label_feature(np.zeros((3, 2)), np.array([-1, -1]))

    @pytest.mark.parametrize("positional", ["none", "normalized", "sinusoidal"])
    @pytest.mark.parametrize("window", list(WINDOW_SPECS))
    def test_label_ids_match_role_list_reference(self, window, positional):
        """Features with previous-label ids equal the role-list reference bit
        for bit, with gold labels and at the free-running start."""
        rng = np.random.default_rng(zlib.crc32(repr((window, positional)).encode()))
        for label_mode in ("off", "gold"):
            bundle = types.SimpleNamespace(cfg=train_mod.TrainConfig(window=WINDOW_SPECS[window], positional=positional,
                                                                     sin_dim=4, label_mode=label_mode))
            for m in (1, 2, 3, 8, 25):
                base = rng.normal(size=(m, 5))
                y = rng.integers(0, NUM_ROLES, size=m)
                roles = [RhetoricalRole(int(v)) for v in y]
                assert np.array_equal(train_mod._features(bundle, base, y), role_list_features(bundle, base, roles))
                assert np.array_equal(train_mod._features(bundle, base), role_list_features(bundle, base))


class TestFeaturize:
    def test_width_matches_feature_width(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 16))
        for spec in WINDOW_SPECS.values():
            for positional, sd in (("none", 8), ("normalized", 8), ("sinusoidal", 4)):
                for labels in (None, np.full(5, -1)):
                    X = featurize(base, spec, positional, sd, labels)
                    want = feature_width(16, spec, positional, sd, labels is not None)
                    assert X.shape == (5, want)

    def test_block_order_window_positional_label(self):
        base = np.ones((2, 3))
        X = featurize(base, (0,), "normalized", 8, np.array([RhetoricalRole.ISSUE, -1]))
        np.testing.assert_array_equal(X[0, :3], np.ones(3))
        np.testing.assert_allclose(X[:, 3], [0.5, 1.0])
        assert X[0, 5 + 2] == 1.0
        np.testing.assert_array_equal(X[1, 5:], np.zeros(7))

    def test_non_finite_rejected(self):
        base = np.array([[np.inf, 0.0]])
        with pytest.raises(DataError, match="non-finite"):
            featurize(base, (0,), "none", 8, None)
