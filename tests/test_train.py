"""Training loop, composite objective, checkpoints, and prediction modes."""

import numpy as np
import pytest

from rhetseg.corpus import label_shift_sequence, split_corpus
from rhetseg.encode import HashEncoderConfig, HashingEncoder
from rhetseg.errors import DataError, NumericError
from rhetseg.roles import RhetoricalRole
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    ModelBundle,
    ShiftParams,
    TrainConfig,
    build_model,
    bundles_equal,
    gradcheck,
    inverse_frequency_weights,
    load_checkpoint,
    mtl_loss,
    predict_document,
    save_checkpoint,
    shift_loss,
    train_model,
)


def small_data(n=24, lo=5, hi=10, noise=0.1, seed=5, split_seed=2):
    corpus = generate_corpus(n, lo, hi, noise=noise, seed=seed)
    return split_corpus(corpus, (0.7, 0.2, 0.1), seed=split_seed)


def encoder(dim=32, seed=0):
    return HashingEncoder(HashEncoderConfig(dim=dim, seed=seed))


FAST = dict(epochs=3, lstm_hidden=8, early_stopping_patience=0, seed=0)


class TestMtlLoss:
    def test_convex_mix(self):
        assert mtl_loss(2.0, 4.0, 0.5) == 3.0
        assert mtl_loss(2.0, 4.0, 0.0) == 2.0
        assert mtl_loss(2.0, 4.0, 1.0) == 4.0
        assert mtl_loss(1.0, 0.0, 0.3) == pytest.approx(0.7)

    def test_lambda_zero_is_exact_identity(self):
        for rr in (0.1, 1.7, 313.25, 1e-12):
            assert mtl_loss(rr, 99.0, 0.0) == rr

    def test_rejects_bad_inputs(self):
        with pytest.raises(DataError):
            mtl_loss(1.0, 1.0, 1.5)
        with pytest.raises(NumericError):
            mtl_loss(float("nan"), 1.0, 0.5)
        with pytest.raises(NumericError):
            mtl_loss(1.0, float("inf"), 0.5)


class TestShiftLoss:
    def test_zero_head_gives_log_two(self):
        head = ShiftParams(w=np.zeros(3), b=np.zeros(1))
        X = np.random.default_rng(0).normal(size=(5, 3))
        loss, _ = shift_loss(X, (1, 0, 1, 1, 0), head)
        assert loss == pytest.approx(np.log(2.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 4))
        bits = tuple(int(v) for v in rng.integers(0, 2, size=6))
        head = ShiftParams(w=rng.normal(size=4), b=rng.normal(size=1))
        _, grads = shift_loss(X, bits, head)
        step = 1e-7
        for i in range(4):
            head.w[i] += step
            up, _ = shift_loss(X, bits, head)
            head.w[i] -= 2 * step
            dn, _ = shift_loss(X, bits, head)
            head.w[i] += step
            np.testing.assert_allclose(grads["w"][i], (up - dn) / (2 * step), atol=1e-6)
        head.b[0] += step
        up, _ = shift_loss(X, bits, head)
        head.b[0] -= 2 * step
        dn, _ = shift_loss(X, bits, head)
        head.b[0] += step
        np.testing.assert_allclose(grads["b"][0], (up - dn) / (2 * step), atol=1e-6)
        for r, c in ((0, 0), (3, 2), (5, 3)):
            X[r, c] += step
            up, _ = shift_loss(X, bits, head)
            X[r, c] -= 2 * step
            dn, _ = shift_loss(X, bits, head)
            X[r, c] += step
            np.testing.assert_allclose(grads["features"][r, c], (up - dn) / (2 * step),
                                       atol=1e-6)

    def test_separable_fixture_learns(self):
        # one feature equal to the bit sign: plain SGD must drive loss under 0.1
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        X = np.array([[1.0 if b else -1.0] for b in bits])
        head = ShiftParams(w=np.zeros(1), b=np.zeros(1))
        for _ in range(200):
            loss, grads = shift_loss(X, bits, head)
            head.w -= 1.0 * grads["w"]
            head.b -= 1.0 * grads["b"]
        loss, _ = shift_loss(X, bits, head)
        assert loss < 0.1

    def test_accepts_shift_sequence_objects(self):
        head = ShiftParams(w=np.zeros(2), b=np.zeros(1))
        seq = label_shift_sequence([RhetoricalRole.FACTS, RhetoricalRole.ISSUE])
        loss, _ = shift_loss(np.zeros((2, 2)), seq, head)
        assert loss == pytest.approx(np.log(2.0))

    def test_length_mismatch(self):
        head = ShiftParams(w=np.zeros(2), b=np.zeros(1))
        with pytest.raises(DataError):
            shift_loss(np.zeros((3, 2)), (1, 0), head)


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
        stripped = train.documents[0]
        object.__setattr__(stripped.sentences[0], "gold", None)
        with pytest.raises(DataError):
            train_model(train, val, TrainConfig(**FAST), encoder())
        object.__setattr__(stripped.sentences[0], "gold", RhetoricalRole.FACTS)

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
        for s in doc.sentences:
            object.__setattr__(s, "gold", None)
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
        assert loaded.window == bundle.window
        assert loaded.config_echo == bundle.config_echo

    def test_round_trip_preserves_predictions(self, tmp_path):
        train, val, test = small_data()
        bundle, _ = train_model(train, val, TrainConfig(**FAST), encoder())
        path = tmp_path / "model.json"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        for doc in test:
            assert predict_document(doc, bundle) == predict_document(doc, loaded)

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
        import json

        bundle, path = self.trained(tmp_path)
        payload = json.loads(path.read_text())
        del payload["tensors"]["crf.T"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="crf.T"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["crf.T", "bilstm.fwd.Wx"])
    def test_rejects_non_finite_tensor(self, tmp_path, name):
        import json

        bundle, path = self.trained(tmp_path)
        for bad in (float("nan"), float("inf"), float("-inf")):
            payload = json.loads(path.read_text())
            payload["tensors"][name][1][0] = bad
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps(payload))
            with pytest.raises(DataError, match=f"{name}.*non-finite"):
                load_checkpoint(broken)

    def test_rejects_non_numeric_tensor(self, tmp_path):
        import json

        bundle, path = self.trained(tmp_path)
        for bad in ("abc", [[1.0, 2.0], [3.0]], {"a": 1}):
            payload = json.loads(path.read_text())
            payload["tensors"]["crf.T"] = bad
            broken = tmp_path / "broken.json"
            broken.write_text(json.dumps(payload))
            with pytest.raises(DataError, match="crf.T.*not a numeric array"):
                load_checkpoint(broken)

    def test_rejects_wrong_version_and_labels(self, tmp_path):
        import json

        bundle, path = self.trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
        payload["format_version"] = 1
        payload["labels"] = ["A", "B"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="label set"):
            load_checkpoint(path)

    def test_rejects_inconsistent_dims(self, tmp_path):
        import json

        bundle, path = self.trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["dims"]["context_dim"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="inconsistent"):
            load_checkpoint(path)
