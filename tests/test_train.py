"""Training loop, composite objective, checkpoints, and prediction modes."""

import dataclasses

import numpy as np
import pytest

from rhetseg import train as train_mod
from rhetseg.corpus import Corpus, label_shift_sequence, split_corpus
from rhetseg.encode import HashEncoderConfig, HashingEncoder
from rhetseg.errors import DataError
from rhetseg.roles import RhetoricalRole
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    CONTEXT_KINDS,
    HEADS,
    ModelBundle,
    TrainConfig,
    build_model,
    document_loss_and_grads,
    gradcheck,
    inverse_frequency_weights,
    load_checkpoint,
    predict_document,
    save_checkpoint,
    shift_loss,
    train_model,
)
from test_checkpoint import bundles_equal, read_checkpoint, write_checkpoint
from test_parameter_init import grad_block


def small_data(n=24, lo=5, hi=10, noise=0.1, seed=5, split_seed=2):
    corpus = generate_corpus(n, lo, hi, noise=noise, seed=seed)
    return split_corpus(corpus, (0.7, 0.2, 0.1), seed=split_seed)


def encoder(dim=32, seed=0):
    return HashingEncoder(HashEncoderConfig(dim=dim, seed=seed))


FAST = dict(epochs=3, lstm_hidden=8, early_stopping_patience=0, seed=0)


def mtl_case(head, seed=0):
    """A model with a shift head, one document's features, labels and shift
    bits, and the RR and shift losses computed separately."""
    cfg = TrainConfig(head=head, lstm_hidden=4, seed=seed)
    bundle = build_model(cfg, encoder(dim=8).spec(), np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    bundle.parameter_blocks()["shift.w"][:] = rng.normal(size=bundle.context_dim)
    X = rng.normal(size=(6, bundle.feat_dim))
    gold = [RhetoricalRole(int(v)) for v in rng.integers(0, 7, size=6)]
    y, bits = train_mod._targets(bundle, gold)
    H, _ = train_mod._context_forward(bundle, X)
    cw = np.ones(7)
    rr, _ = train_mod._rr_loss_and_grads(bundle, H, y, cw)
    shift, _ = shift_loss(H, bits, bundle.params["shift"], bundle.grads["shift"])
    return bundle, X, y, bits, cw, rr, shift


class TestMtlLoss:
    """The composite objective as training computes it."""

    def test_convex_mix(self):
        for head in ("crf", "softmax"):
            bundle, X, y, bits, cw, rr, shift = mtl_case(head)
            for lam in (0.5, 0.0, 1.0, 0.3):
                total = document_loss_and_grads(bundle, X, y, bits, lam, cw)
                assert total == lam * shift + (1 - lam) * rr

    def test_lambda_zero_is_exact_identity(self):
        for head in ("crf", "softmax"):
            for seed in range(4):
                bundle, X, y, bits, cw, rr, _ = mtl_case(head, seed)
                total = document_loss_and_grads(bundle, X, y, bits, 0.0, cw)
                assert total == rr

    @pytest.mark.parametrize("mtl", [True, False], ids=["shift", "no-shift"])
    @pytest.mark.parametrize("head", HEADS)
    @pytest.mark.parametrize("kind", CONTEXT_KINDS)
    def test_every_gradient_entry_is_written(self, kind, head, mtl):
        """Every entry of the gradient vector is overwritten, so it needs no
        zeroing, and every gradient view is a view of that vector."""
        cfg = TrainConfig(context_kind=kind, head=head, mtl=mtl, lstm_hidden=3, gcn_hidden=5, attention_layers=2,
                          label_mode="gold", window=(-1, 0))
        bundle = build_model(cfg, encoder(dim=8).spec(), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, bundle.feat_dim))
        y, bits = train_mod._targets(bundle, [RhetoricalRole(int(v)) for v in rng.integers(0, 7, size=5)])
        bundle.grad[:] = np.nan
        document_loss_and_grads(bundle, X, y, bits, 0.3 if mtl else 0.0, np.ones(7))
        assert np.isfinite(bundle.grad).all()
        for block, grads in bundle.grads.items():
            for rest, grad in grads.items():
                assert np.shares_memory(grad, bundle.grad), f"{block}.{rest}"

    def test_rejects_bad_inputs(self):
        for lam in (1.5, -0.1, float("nan")):
            with pytest.raises(DataError, match="lambda"):
                TrainConfig(mtl_lambda=lam)


class TestShiftLoss:
    def test_zero_head_gives_log_two(self):
        head = dict(w=np.zeros(3), b=np.zeros(1))
        X = np.random.default_rng(0).normal(size=(5, 3))
        loss, _ = shift_loss(X, (1, 0, 1, 1, 0), head, grad_block(head))
        assert loss == pytest.approx(np.log(2.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 4))
        bits = tuple(int(v) for v in rng.integers(0, 2, size=6))
        head = dict(w=rng.normal(size=4), b=rng.normal(size=1))
        grads = grad_block(head)
        _, d_features = shift_loss(X, bits, head, grads)
        step = 1e-7
        for i in range(4):
            head["w"][i] += step
            up, _ = shift_loss(X, bits, head, grad_block(head))
            head["w"][i] -= 2 * step
            dn, _ = shift_loss(X, bits, head, grad_block(head))
            head["w"][i] += step
            np.testing.assert_allclose(grads["w"][i], (up - dn) / (2 * step), atol=1e-6)
        head["b"][0] += step
        up, _ = shift_loss(X, bits, head, grad_block(head))
        head["b"][0] -= 2 * step
        dn, _ = shift_loss(X, bits, head, grad_block(head))
        head["b"][0] += step
        np.testing.assert_allclose(grads["b"][0], (up - dn) / (2 * step), atol=1e-6)
        for r, c in ((0, 0), (3, 2), (5, 3)):
            X[r, c] += step
            up, _ = shift_loss(X, bits, head, grad_block(head))
            X[r, c] -= 2 * step
            dn, _ = shift_loss(X, bits, head, grad_block(head))
            X[r, c] += step
            np.testing.assert_allclose(d_features[r, c], (up - dn) / (2 * step),
                                       atol=1e-6)

    def test_separable_fixture_learns(self):
        # one feature equal to the bit sign: plain SGD must drive loss under 0.1
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        X = np.array([[1.0 if b else -1.0] for b in bits])
        head = dict(w=np.zeros(1), b=np.zeros(1))
        grads = grad_block(head)
        for _ in range(200):
            shift_loss(X, bits, head, grads)
            head["w"] -= 1.0 * grads["w"]
            head["b"] -= 1.0 * grads["b"]
        loss, _ = shift_loss(X, bits, head, grad_block(head))
        assert loss < 0.1

    def test_accepts_shift_sequence_objects(self):
        """shift_loss takes label_shift_sequence's float64 bits as they come."""
        head = dict(w=np.zeros(2), b=np.zeros(1))
        bits = label_shift_sequence([RhetoricalRole.FACTS, RhetoricalRole.ISSUE])
        loss, _ = shift_loss(np.zeros((2, 2)), bits, head, grad_block(head))
        assert loss == pytest.approx(np.log(2.0))

    def test_length_mismatch(self):
        head = dict(w=np.zeros(2), b=np.zeros(1))
        with pytest.raises(DataError):
            shift_loss(np.zeros((3, 2)), (1, 0), head, grad_block(head))


class TestClassWeights:
    def test_inverse_frequency_mean_one(self):
        corpus = generate_corpus(10, 8, 14, seed=0)
        weights = inverse_frequency_weights(corpus)
        assert set(weights) == set(RhetoricalRole)
        assert np.mean(list(weights.values())) == pytest.approx(1.0)
        counts = {role: 0 for role in RhetoricalRole}
        for doc in corpus:
            for g in doc.gold_labels():
                counts[g] += 1
        # rarer roles get larger weights
        rare = min((r for r in RhetoricalRole if counts[r]), key=lambda r: counts[r])
        common = max(RhetoricalRole, key=lambda r: counts[r])
        assert weights[rare] > weights[common]

    def test_absent_role_stays_finite(self):
        corpus = generate_corpus(1, 6, 6, noise=0.0, seed=1)
        weights = inverse_frequency_weights(corpus)
        assert all(np.isfinite(w) and w > 0 for w in weights.values())

    def test_rejected_for_crf_head(self):
        with pytest.raises(DataError, match="softmax"):
            TrainConfig(head="crf", class_weights={RhetoricalRole.FACTS: 2.0})
        with pytest.raises(DataError, match="positive"):
            TrainConfig(head="softmax", class_weights={RhetoricalRole.FACTS: 0.0})

    def test_doubled_weights_match_halved_sgd_rate_exactly(self):
        # scaling every class weight by 2 scales gradients by exactly 2;
        # SGD with half the rate must therefore trace identical parameters
        train, val, _ = small_data()
        enc = encoder()
        common = dict(head="softmax", context_kind="none", mtl=False,
                      optimizer="sgd", **FAST)
        doubled = TrainConfig(
            class_weights={r: 2.0 for r in RhetoricalRole}, learning_rate=5e-4, **common)
        plain = TrainConfig(class_weights=None, learning_rate=1e-3, **common)
        b_doubled, _ = train_model(train, val, doubled, enc)
        b_plain, _ = train_model(train, val, plain, enc)
        for k, v in b_doubled.parameter_blocks().items():
            np.testing.assert_array_equal(v, b_plain.parameter_blocks()[k], err_msg=k)


class TestMtlEquivalence:
    def test_lambda_zero_matches_disabled_bitwise(self):
        train, val, _ = small_data()
        enc = encoder()
        on = TrainConfig(mtl=True, mtl_lambda=0.0, learning_rate=1e-3, **FAST)
        off = TrainConfig(mtl=False, learning_rate=1e-3, **FAST)
        b_on, r_on = train_model(train, val, on, enc)
        b_off, r_off = train_model(train, val, off, enc)
        blocks_on = b_on.parameter_blocks()
        blocks_off = b_off.parameter_blocks()
        assert set(blocks_on) - set(blocks_off) == {"shift.w", "shift.b"}
        for k in blocks_off:
            np.testing.assert_array_equal(blocks_on[k], blocks_off[k], err_msg=k)
        assert r_on.train_losses == r_off.train_losses
        assert r_on.val_macro_f1 == r_off.val_macro_f1
        # the shift head never moves at lambda = 0
        assert np.all(blocks_on["shift.w"] == 0.0)
        assert np.all(blocks_on["shift.b"] == 0.0)
        assert r_off.shift_val_accuracy is None

    def test_positive_lambda_changes_shared_weights(self):
        train, val, _ = small_data()
        enc = encoder()
        b_zero, _ = train_model(train, val, TrainConfig(mtl_lambda=0.0, **FAST), enc)
        b_mix, rep = train_model(train, val, TrainConfig(mtl_lambda=0.4, **FAST), enc)
        assert not bundles_equal(b_zero, b_mix)
        assert np.any(b_mix.parameter_blocks()["shift.w"] != 0.0)
        assert rep.shift_val_accuracy is not None
        assert rep.shift_majority_baseline is not None


class TestTrainLoop:
    def test_loss_decreases(self):
        train, val, _ = small_data(noise=0.0)
        cfg = TrainConfig(learning_rate=3e-3, epochs=6, lstm_hidden=8,
                          early_stopping_patience=0, seed=0)
        _, report = train_model(train, val, cfg, encoder())
        assert len(report.train_losses) == 6
        assert report.train_losses[-1] < report.train_losses[0]

    def test_patience_zero_runs_all_epochs(self):
        train, val, _ = small_data()
        cfg = TrainConfig(learning_rate=1e-15, optimizer="sgd", epochs=5,
                          lstm_hidden=4, early_stopping_patience=0, seed=0)
        _, report = train_model(train, val, cfg, encoder())
        assert len(report.train_losses) == 5

    def test_early_stopping_on_plateau(self):
        # a rate this small freezes the model, so validation never improves
        train, val, _ = small_data()
        cfg = TrainConfig(learning_rate=1e-15, optimizer="sgd", epochs=10,
                          lstm_hidden=4, early_stopping_patience=2, seed=0)
        _, report = train_model(train, val, cfg, encoder())
        assert report.best_epoch == 1
        assert len(report.train_losses) == 3

    def test_best_epoch_weights_are_returned(self):
        train, val, _ = small_data()
        cfg = TrainConfig(learning_rate=3e-3, epochs=4, lstm_hidden=8,
                          early_stopping_patience=0, seed=0)
        bundle, report = train_model(train, val, cfg, encoder())
        assert report.best_epoch == int(np.argmax(report.val_macro_f1)) + 1
        assert max(report.val_macro_f1) == report.val_macro_f1[report.best_epoch - 1]

    def test_deterministic_across_runs(self):
        train, val, _ = small_data()
        cfg = TrainConfig(learning_rate=1e-3, **FAST)
        a, _ = train_model(train, val, cfg, encoder())
        b, _ = train_model(train, val, cfg, encoder())
        assert bundles_equal(a, b)

    def test_seed_changes_outcome(self):
        train, val, _ = small_data()
        a, _ = train_model(train, val, TrainConfig(learning_rate=1e-3, **FAST), encoder())
        kw = dict(FAST, seed=1)
        b, _ = train_model(train, val, TrainConfig(learning_rate=1e-3, **kw), encoder())
        assert not bundles_equal(a, b)

    def test_unlabeled_training_doc_rejected(self):
        train, val, _ = small_data()
        first = train.documents[0]
        stripped = dataclasses.replace(first, labels=(None, *first.labels[1:]))
        train = Corpus(documents=(stripped, *train.documents[1:]))
        with pytest.raises(DataError):
            train_model(train, val, TrainConfig(**FAST), encoder())

    def test_report_csv_format(self):
        train, val, _ = small_data()
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, lstm_hidden=4,
                          early_stopping_patience=0, seed=0)
        _, report = train_model(train, val, cfg, encoder())
        lines = report.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,val_macro_f1"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        for row in lines[1:]:
            epoch, loss, f1 = row.split(",")
            float(loss), float(f1)


class TestLabelFeatures:
    def test_modes_coincide_when_label_features_off(self):
        train, val, test = small_data()
        bundle, _ = train_model(train, val, TrainConfig(label_mode="off", **FAST), encoder())
        enc = encoder()
        for doc in test:
            free = predict_document(doc, bundle, mode="free_running", encoder=enc)
            forced = predict_document(doc, bundle, mode="teacher_forced", encoder=enc)
            assert free == forced

    def test_gold_mode_trains_and_predicts(self):
        train, val, test = small_data()
        cfg = TrainConfig(label_mode="gold", learning_rate=1e-3, **FAST)
        bundle, _ = train_model(train, val, cfg, encoder())
        doc = test.documents[0]
        free = predict_document(doc, bundle, mode="free_running", encoder=encoder())
        forced = predict_document(doc, bundle, mode="teacher_forced", encoder=encoder())
        assert len(free) == len(doc) and len(forced) == len(doc)

    def test_predicted_mode_trains(self):
        train, val, _ = small_data(n=12)
        cfg = TrainConfig(label_mode="predicted", epochs=2, lstm_hidden=4,
                          early_stopping_patience=0, seed=0)
        bundle, report = train_model(train, val, cfg, encoder())
        assert len(report.train_losses) == 2

    def test_teacher_forced_requires_gold(self):
        train, val, test = small_data()
        cfg = TrainConfig(label_mode="gold", **FAST)
        bundle, _ = train_model(train, val, cfg, encoder())
        doc = test.documents[0]
        doc = dataclasses.replace(doc, labels=(None,) * len(doc))
        with pytest.raises(DataError, match="gold"):
            predict_document(doc, bundle, mode="teacher_forced", encoder=encoder())

    def test_alias_names_accepted(self):
        assert TrainConfig(label_mode="gold_previous").label_mode == "gold"
        assert TrainConfig(label_mode="predicted_previous").label_mode == "predicted"


class TestPredict:
    def test_bundle_builds_its_own_hash_encoder(self):
        train, val, test = small_data()
        bundle, _ = train_model(train, val, TrainConfig(**FAST), encoder())
        doc = test.documents[0]
        assert predict_document(doc, bundle) == predict_document(doc, bundle, encoder=encoder())

    def test_unknown_mode_rejected(self):
        train, val, test = small_data()
        bundle, _ = train_model(train, val, TrainConfig(label_mode="gold", **FAST), encoder())
        with pytest.raises(DataError, match="mode"):
            predict_document(test.documents[0], bundle, mode="beam", encoder=encoder())

    def test_returns_roles(self):
        train, val, test = small_data()
        bundle, _ = train_model(train, val, TrainConfig(**FAST), encoder())
        preds = predict_document(test.documents[0], bundle, encoder=encoder())
        assert all(isinstance(p, RhetoricalRole) for p in preds)


class TestGradcheck:
    def test_all_blocks_pass_default_config(self):
        train, val, _ = small_data(n=8, lo=3, hi=5)
        bundle, _ = train_model(train, val, TrainConfig(lstm_hidden=6, epochs=2,
                                                        early_stopping_patience=0, seed=0),
                                encoder(dim=16))
        report = gradcheck(bundle, train.documents[0], encoder=encoder(dim=16))
        assert set(report.max_rel_error) == set(bundle.parameter_blocks())
        assert report.passed, report.max_rel_error

    def test_fresh_untrained_model_passes(self):
        corpus = generate_corpus(4, 3, 5, seed=9)
        cfg = TrainConfig(head="softmax", context_kind="attention", window=(-1, 0),
                          label_mode="gold", positional="sinusoidal", sin_dim=4,
                          attention_layers=2, seed=3)
        bundle = build_model(cfg, encoder(dim=16).spec(), np.random.default_rng(3))
        report = gradcheck(bundle, corpus.documents[0], encoder=encoder(dim=16))
        assert report.passed, report.max_rel_error

    def test_bad_step_rejected(self):
        cfg = TrainConfig(context_kind="none", mtl=False, seed=0)
        bundle = build_model(cfg, encoder(dim=16).spec(), np.random.default_rng(0))
        corpus = generate_corpus(1, 3, 3, seed=0)
        with pytest.raises(DataError):
            gradcheck(bundle, corpus.documents[0], step=0.0, encoder=encoder(dim=16))


class TestCheckpoint:
    def trained(self, tmp_path, **overrides):
        train, val, _ = small_data()
        cfg = TrainConfig(**{**FAST, **overrides})
        bundle, _ = train_model(train, val, cfg, encoder())
        path = tmp_path / "model.json"
        save_checkpoint(bundle, path)
        return bundle, path

    def test_round_trip_identical(self, tmp_path):
        bundle, path = self.trained(tmp_path)
        loaded = load_checkpoint(path)
        assert bundles_equal(bundle, loaded)
        assert loaded.encoder_spec == bundle.encoder_spec
        assert loaded.cfg == bundle.cfg

    def test_round_trip_preserves_predictions(self, tmp_path):
        train, val, test = small_data()
        bundle, _ = train_model(train, val, TrainConfig(**FAST), encoder())
        path = tmp_path / "model.json"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        for doc in test:
            assert predict_document(doc, bundle) == predict_document(doc, loaded)

    def test_loaded_model_predicts_without_a_gradient(self, tmp_path):
        """Prediction never builds the gradient vector; training code gets a
        zero one, viewed by block, on first use."""
        _, path = self.trained(tmp_path)
        _, _, test = small_data()
        loaded = load_checkpoint(path)
        predict_document(test.documents[0], loaded)
        assert "grad" not in vars(loaded) and "grads" not in vars(loaded)
        assert np.array_equal(loaded.grad, np.zeros_like(loaded.flat))
        assert loaded.grads.keys() == loaded.params.keys()
        for block, grads in loaded.grads.items():
            for rest, grad in grads.items():
                assert np.shares_memory(grad, loaded.grad) and grad.shape == loaded.params[block][rest].shape

    def test_saves_are_byte_identical(self, tmp_path):
        bundle, path = self.trained(tmp_path)
        second = tmp_path / "again.json"
        save_checkpoint(bundle, second)
        assert path.read_bytes() == second.read_bytes()
        third = tmp_path / "reloaded.json"
        save_checkpoint(load_checkpoint(path), third)
        assert path.read_bytes() == third.read_bytes()

    def test_all_architectures_round_trip(self, tmp_path):
        train, val, _ = small_data(n=10)
        for i, kw in enumerate([
            dict(context_kind="none", head="softmax"),
            dict(context_kind="attention", attention_layers=2),
            dict(context_kind="gcn", gcn_hidden=8, gcn_sim_threshold=0.5),
            dict(context_kind="bilstm", label_mode="gold"),
        ]):
            cfg = TrainConfig(epochs=1, lstm_hidden=4, early_stopping_patience=0,
                              seed=0, **kw)
            bundle, _ = train_model(train, val, cfg, encoder(dim=16))
            path = tmp_path / f"m{i}.json"
            save_checkpoint(bundle, path)
            assert bundles_equal(bundle, load_checkpoint(path))

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(DataError, match="not a model checkpoint"):
            load_checkpoint(path)
        path.write_text("{broken")
        with pytest.raises(DataError, match="JSON"):
            load_checkpoint(path)

    def test_rejects_missing_tensor(self, tmp_path):
        bundle, path = self.trained(tmp_path)
        header, tensors = read_checkpoint(path)
        header["tensors"] = [entry for entry in header["tensors"] if entry[0] != "crf.T"]
        del tensors["crf.T"]
        write_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match="crf.T"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["crf.T", "bilstm.fwd.Wx"])
    def test_rejects_non_finite_tensor(self, tmp_path, name):
        bundle, path = self.trained(tmp_path)
        for bad in (float("nan"), float("inf"), float("-inf")):
            header, tensors = read_checkpoint(path)
            tensors[name][1, 0] = bad
            broken = tmp_path / "broken.json"
            write_checkpoint(broken, header, tensors)
            with pytest.raises(DataError, match=f"{name}.*non-finite"):
                load_checkpoint(broken)

    def test_rejects_non_numeric_tensor(self, tmp_path):
        """A tensor listed with a shape that is not a list of integers."""
        bundle, path = self.trained(tmp_path)
        for bad in ("abc", [[1.0, 2.0], [3.0]], {"a": 1}):
            header, tensors = read_checkpoint(path)
            header["tensors"] = [[name, bad if name == "crf.T" else shape] for name, shape in header["tensors"]]
            broken = tmp_path / "broken.json"
            write_checkpoint(broken, header, tensors)
            with pytest.raises(DataError, match=r"listed as \['crf.T', .*\], expected \['crf.T', \[7, 7\]\]"):
                load_checkpoint(broken)

    def test_rejects_wrong_version_and_labels(self, tmp_path):
        bundle, path = self.trained(tmp_path)
        header, tensors = read_checkpoint(path)
        header["format_version"] = 99
        write_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
        header["format_version"] = 4
        header["labels"] = ["A", "B"]
        write_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match="label set"):
            load_checkpoint(path)

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        for text in ("[1, 2]", '"rhetseg-checkpoint"', "3"):
            path.write_text(text)
            with pytest.raises(DataError, match="not a model checkpoint"):
                load_checkpoint(path)

    @pytest.mark.parametrize("entry", ["encoder", "config", "tensors"])
    def test_rejects_missing_entry(self, tmp_path, entry):
        """Every entry is an object but "tensors", the list of [name, shape] pairs."""
        bundle, path = self.trained(tmp_path)
        kind = "a list" if entry == "tensors" else "an object"
        for bad in (None, {"a": 1} if entry == "tensors" else [1, 2]):
            header, tensors = read_checkpoint(path)
            if bad is None:
                del header[entry]
            else:
                header[entry] = bad
            broken = tmp_path / "broken.json"
            write_checkpoint(broken, header, tensors)
            with pytest.raises(DataError, match=f"'{entry}' is missing or not {kind}"):
                load_checkpoint(broken)

    @pytest.mark.parametrize("kind,name", [
        ("bilstm", "bilstm.fwd.Wx"),
        ("bilstm", "bilstm.bwd.Wh"),
        ("bilstm", "bilstm.fwd.b"),
        ("attention", "attn.layer0.K"),
        ("gcn", "gcn.W1"),
        ("gcn", "gcn.W2"),
    ])
    def test_rejects_context_tensor_of_wrong_shape(self, tmp_path, kind, name):
        """A tensor stored, and listed, one row short."""
        bundle, path = self.trained(tmp_path, context_kind=kind, gcn_hidden=6, epochs=1)
        header, tensors = read_checkpoint(path)
        tensors[name] = tensors[name][:-1]
        header["tensors"] = [[n, list(tensors[n].shape)] for n in tensors]
        write_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match=rf"listed as \['{name}', \[.*\]\], expected \['{name}'"):
            load_checkpoint(path)

    def test_rejects_inconsistent_dims(self, tmp_path):
        """A config whose context width differs from the one the tensors were stored at."""
        bundle, path = self.trained(tmp_path)
        header, tensors = read_checkpoint(path)
        header["config"]["lstm_hidden"] = 99
        write_checkpoint(path, header, tensors)
        with pytest.raises(DataError, match=r"tensor 0 is listed as \['bilstm.fwd.Wx', \[32, 34\]\], "
                                            r"expected \['bilstm.fwd.Wx', \[396, 34\]\]"):
            load_checkpoint(path)
