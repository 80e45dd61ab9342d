"""End-to-end command-line behavior: outputs, exit codes, idempotency."""

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetseg.cli import main
from rhetseg.corpus import Corpus, Document, load_jsonl, write_jsonl
from rhetseg.instructions import INSTRUCTION_TEMPLATES
from rhetseg.train import load_checkpoint, predict_documents
from test_checkpoint import read_checkpoint, write_checkpoint

# frozen digest of `synth` with builtin defaults (100 docs, noise 0.1, seed 0)
SYNTH_DEFAULT_SHA256 = "1db6869e5d39cf231fa08ae8efc6b6e871d925ef62fd09139b3b4d7b850e557b"


def run(capsys, *argv):
    capsys.readouterr()  # drop output of any setup helpers
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_corpus(tmp_path, name="corpus.jsonl", n="20", noise="0.1", seed="0",
                lo="5", hi="10"):
    path = tmp_path / name
    assert main(["synth", "--output", str(path), "--n-docs", n, "--noise", noise,
                 "--seed", seed, "--min-sentences", lo, "--max-sentences", hi]) == 0
    return path


def train_small(tmp_path, corpus, **flags):
    model = tmp_path / "model.json"
    val = tmp_path / "val_part" / "validation.jsonl"
    out_dir = tmp_path / "val_part"
    assert main(["split", "--input", str(corpus), "--output-dir", str(out_dir),
                 "--seed", "1"]) == 0
    argv = ["train", "--input", str(out_dir / "train.jsonl"), "--val", str(val),
            "--output", str(model), "--epochs", "2", "--lstm-hidden", "6",
            "--patience", "0", "--hash-dim", "32"]
    for k, v in flags.items():
        argv += [k, v]
    assert main(argv) == 0
    return model, out_dir


class TestUsage:
    def test_no_command_exits_one(self, capsys):
        code, _, err = run(capsys, *[])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--output", "x.jsonl", "--bogus"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--input", "x.jsonl"])
        assert exc.value.code == 1

    def test_help_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("ingest", "stats", "split", "synth", "train", "predict",
                    "evaluate", "gradcheck", "export-instructions"):
            assert cmd in out

    def test_train_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        for flag in ("--head", "--context", "--window", "--label-mode", "--lambda",
                     "--no-mtl", "--optimizer", "--lr", "--epochs", "--patience",
                     "--class-weights", "--hash-dim", "--embeddings", "--config"):
            assert flag in out

    def test_missing_input_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--input", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        "stats --input BAD",
        "stats --input DIR",
        "ingest --input BAD --output OUT",
        "train --input DIR --val CORPUS --output OUT",
        "train --input CORPUS --val CORPUS --output OUT --embeddings BAD",
        "train --config DIR --input CORPUS --val CORPUS --output OUT",
        "train --config BAD --input CORPUS --val CORPUS --output OUT",
        "predict --model BAD --input CORPUS --output OUT",
        "predict --model DIR --input CORPUS --output OUT",
        "train --input BAD --val CORPUS --output OUT",
        "train --input CORPUS --val BAD --output OUT",
        "predict --model MODEL --input BAD --output OUT",
        "evaluate --input CORPUS --pred BAD",
        "evaluate --input BAD --pred CORPUS",
        "gradcheck --model BAD --input CORPUS",
        "export-instructions --input BAD --output OUT",
    ])
    def test_unreadable_input_exits_two(self, capsys, tmp_path, argv):
        """A path that is a directory, or a file that is not UTF-8, is a data
        error, and the line names the path."""
        corpus = make_corpus(tmp_path, n="4", lo="3", hi="4")
        bad = tmp_path / "bad"
        bad.write_bytes(b'\xff\xfe{"doc_id": "d"}\n')
        model = tmp_path / "model.json"
        if "MODEL" in argv:
            assert main(["train", "--input", str(corpus), "--val", str(corpus), "--output", str(model),
                         "--epochs", "1", "--lstm-hidden", "4", "--hash-dim", "16"]) == 0
        paths = {"BAD": bad, "DIR": tmp_path, "CORPUS": corpus, "OUT": tmp_path / "out", "MODEL": model}
        code, out, err = run(capsys, *(str(paths.get(word, word)) for word in argv.split()))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(bad if "BAD" in argv else tmp_path)) in err

    @pytest.mark.parametrize("argv, message", [
        ("stats --input DEEP", "line 2: malformed JSON (nesting too deep)"),
        ("predict --model DEEP --input CORPUS --output OUT", "checkpoint is not valid JSON (nesting too deep)"),
    ], ids=["corpus", "checkpoint"])
    def test_deeply_nested_json_exits_two(self, capsys, tmp_path, argv, message):
        """JSON nested deeper than the parser recurses: a doc_id in a corpus
        line, or a whole checkpoint header, of 100,000 nested lists."""
        corpus = make_corpus(tmp_path, n="2", lo="3", hi="4")
        nested = "[" * 100_000 + "]" * 100_000
        deep = tmp_path / "deep"
        if "stats" in argv:
            first = corpus.read_text(encoding="utf-8").splitlines()[0]
            deep.write_text(first + '\n{"doc_id": ' + nested + ', "sentences": [{"text": "x"}]}\n', encoding="utf-8")
        else:
            deep.write_text(nested + "\n", encoding="utf-8")
        paths = {"DEEP": deep, "CORPUS": corpus, "OUT": tmp_path / "out"}
        code, out, err = run(capsys, *(str(paths.get(word, word)) for word in argv.split()))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["text", "doc_id"])
    @pytest.mark.parametrize("argv", [
        "predict --model MODEL --input BAD --output OUT",
        "split --input BAD --output-dir OUT",
        "train --input BAD --val CORPUS --output OUT",
        "export-instructions --input BAD --output OUT",
    ])
    def test_lone_surrogate_exits_two(self, capsys, tmp_path, argv, field):
        """A \\ud800 escape decodes to a str no UTF-8 output can hold: the
        loader refuses the line it is on."""
        corpus = make_corpus(tmp_path, n="4", lo="3", hi="4")
        lines = corpus.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        if field == "text":
            record["sentences"][1]["text"] += " \ud800"
        else:
            record["doc_id"] += "\udfff"
        lines[2] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="ascii")
        model = tmp_path / "model.json"
        if "MODEL" in argv:
            assert main(["train", "--input", str(corpus), "--val", str(corpus), "--output", str(model),
                         "--epochs", "1", "--lstm-hidden", "4", "--hash-dim", "16"]) == 0
        paths = {"BAD": bad, "CORPUS": corpus, "OUT": tmp_path / "out", "MODEL": model}
        code, out, err = run(capsys, *(str(paths.get(word, word)) for word in argv.split()))
        assert (code, out) == (2, "")
        assert err == "error: line 3: unpaired surrogate escape, not Unicode text\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", "99999999999999999999", str(2**63), "0", str(2**63 - 1)])
    @pytest.mark.parametrize("command", ["synth", "split", "train", "train --config"])
    def test_seed_range(self, tmp_path, capsys, command, seed):
        corpus = make_corpus(tmp_path)
        parts = tmp_path / "parts"
        assert main(["split", "--input", str(corpus), "--output-dir", str(parts)]) == 0
        argv = {
            "synth": ["synth", "--output", str(tmp_path / "out.jsonl"), "--n-docs", "3"],
            "split": ["split", "--input", str(corpus), "--output-dir", str(tmp_path / "out")],
            "train": ["train", "--input", str(parts / "train.jsonl"), "--val", str(parts / "validation.jsonl"),
                      "--output", str(tmp_path / "model.json"), "--epochs", "1", "--lstm-hidden", "4",
                      "--hash-dim", "16"],
        }[command.split()[0]]
        if command == "train --config":
            config = tmp_path / "train.cfg"
            config.write_text(f"seed={seed}\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--seed", seed]
        code, out, err = run(capsys, *argv)
        if 0 <= int(seed) < 2**63:
            assert code == 0
            assert err == ""
        else:
            assert code == 2
            assert out == ""
            assert err == f"error: seed must lie in [0, 2**63), got {seed}\n"


def printing_argv(tmp_path, command):
    """Arguments under which `command` succeeds and prints to stdout."""
    if command == "--help":
        return ["--help"]
    if command == "synth":
        return ["synth", "--output", str(tmp_path / "out.jsonl"), "--n-docs", "2"]
    if command == "ingest":
        (tmp_path / "one.txt").write_text("The court heard counsel. The appeal fails.")
        return ["ingest", "--input", str(tmp_path / "one.txt"), "--output", str(tmp_path / "out.jsonl")]
    corpus = make_corpus(tmp_path, n="10", lo="3", hi="5")
    if command == "stats":
        return ["stats", "--input", str(corpus)]
    if command == "export-instructions":
        return ["export-instructions", "--input", str(corpus), "--output", str(tmp_path / "out.jsonl")]
    if command == "split":
        return ["split", "--input", str(corpus), "--output-dir", str(tmp_path / "parts")]
    if command == "evaluate":
        return ["evaluate", "--input", str(corpus), "--pred", str(corpus)]
    model, out_dir = train_small(tmp_path, corpus)
    if command == "train":
        return ["train", "--input", str(out_dir / "train.jsonl"), "--val", str(out_dir / "validation.jsonl"),
                "--output", str(tmp_path / "again.json"), "--epochs", "1", "--lstm-hidden", "4",
                "--hash-dim", "16"]
    if command == "predict":
        return ["predict", "--input", str(corpus), "--model", str(model),
                "--output", str(tmp_path / "out.jsonl")]
    return ["gradcheck", "--model", str(model), "--input", str(out_dir / "train.jsonl")]


class TestClosedStdout:
    @pytest.mark.parametrize("buffering", [1, -1], ids=["line", "block"])
    @pytest.mark.parametrize("command", ["ingest", "stats", "split", "synth", "train", "predict",
                                         "evaluate", "gradcheck", "export-instructions", "--help"])
    def test_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch, command, buffering):
        argv = printing_argv(tmp_path, command)
        capsys.readouterr()
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=buffering) as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            code = main(argv)
        monkeypatch.undo()
        assert code == 1
        assert capsys.readouterr().err == ""


class TestSynth:
    def test_default_output_is_frozen(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        code, out, _ = run(capsys, "synth", "--output", str(path))
        assert code == 0
        assert "generated 100 documents" in out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_DEFAULT_SHA256

    def test_seed_controls_content(self, tmp_path, capsys):
        a = make_corpus(tmp_path, "a.jsonl", seed="3")
        b = make_corpus(tmp_path, "b.jsonl", seed="3")
        c = make_corpus(tmp_path, "c.jsonl", seed="4")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_invalid_noise_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--output", str(tmp_path / "x.jsonl"),
                           "--noise", "1.5")
        assert code == 2


class TestIngest:
    def test_directory_of_txt_files(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "case1.txt").write_text("The court heard counsel. The appeal fails.")
        (raw / "case2.txt").write_text("Mr. Rao appeared. Costs were awarded.")
        out = tmp_path / "corpus.jsonl"
        code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--output", str(out))
        assert code == 0
        assert "ingested 2 documents" in stdout
        corpus = load_jsonl(out)
        assert corpus.doc_ids() == ["case1", "case2"]
        doc1 = corpus.documents[0]
        assert doc1.texts == ("The court heard counsel.", "The appeal fails.")
        assert doc1.labels == (None, None)
        # "Mr." must not split
        assert len(corpus.documents[1]) == 2

    def test_single_file(self, tmp_path, capsys):
        src = tmp_path / "one.txt"
        src.write_text("Only sentence here.")
        out = tmp_path / "corpus.jsonl"
        code, _, _ = run(capsys, "ingest", "--input", str(src), "--output", str(out))
        assert code == 0
        assert load_jsonl(out).doc_ids() == ["one"]

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        code, _, err = run(capsys, "ingest", "--input", str(raw),
                           "--output", str(tmp_path / "c.jsonl"))
        assert code == 2
        assert "no .txt files" in err


class TestStatsAndSplit:
    def test_stats_rows(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        out_json = tmp_path / "stats.json"
        code, out, _ = run(capsys, "stats", "--input", str(corpus),
                           "--output", str(out_json))
        assert code == 0
        assert out.startswith("n_docs,20\n")
        assert "count_Facts," in out and "avg_tokens_Decision," in out
        payload = json.loads(out_json.read_text())
        assert payload["n_docs"] == 20
        assert set(payload["per_label_sentence_counts"]) == {
            "None", "Facts", "Issue", "ArgumentsOfPetitioner",
            "ArgumentsOfRespondent", "Reasoning", "Decision"}

    def test_split_counts_and_files(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        out_dir = tmp_path / "splits"
        code, out, _ = run(capsys, "split", "--input", str(corpus),
                           "--output-dir", str(out_dir), "--seed", "5")
        assert code == 0
        assert out == "train,14\nvalidation,4\ntest,2\n"
        total = []
        for name, count in (("train", 14), ("validation", 4), ("test", 2)):
            part = load_jsonl(out_dir / f"{name}.jsonl")
            assert len(part) == count
            total.extend(part.doc_ids())
        assert sorted(total) == sorted(load_jsonl(corpus).doc_ids())

    def test_bad_ratio_string_exits_two(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        code, _, _ = run(capsys, "split", "--input", str(corpus),
                         "--output-dir", str(tmp_path / "s"), "--ratios", "0.5,0.5")
        assert code == 2


class TestTrainPredictEvaluate:
    def test_full_pipeline(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n="30", noise="0.0", lo="7", hi="12")
        model, out_dir = train_small(tmp_path, corpus, **{"--epochs": "5", "--lr": "3e-3"})
        out = capsys.readouterr().out
        assert "epochs_run,5" in out
        assert "best_epoch," in out
        assert "best_val_macro_f1," in out
        assert "shift_val_accuracy," in out
        assert "shift_majority_baseline," in out

        preds = tmp_path / "preds.jsonl"
        code, stdout, _ = run(capsys, "predict", "--input", str(out_dir / "test.jsonl"),
                              "--model", str(model), "--output", str(preds))
        assert code == 0
        assert "predicted" in stdout

        report = tmp_path / "report.csv"
        cm_path = tmp_path / "cm.csv"
        code, stdout, _ = run(capsys, "evaluate", "--input", str(out_dir / "test.jsonl"),
                              "--pred", str(preds), "--output", str(report),
                              "--confusion", str(cm_path))
        assert code == 0
        rows = dict(line.split(",") for line in stdout.strip().splitlines())
        assert set(rows) == {"macro_precision", "macro_recall", "macro_f1",
                             "accuracy", "mcc"}
        assert float(rows["accuracy"]) > 0.5
        text = report.read_text()
        assert text.startswith("label,precision,recall,f1,support\n")
        assert "gold\\pred," in cm_path.read_text()

    def test_gold_vs_gold_is_perfect(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        code, out, _ = run(capsys, "evaluate", "--input", str(corpus),
                           "--pred", str(corpus))
        assert code == 0
        assert "macro_f1,1.0000" in out
        assert "accuracy,1.0000" in out
        assert "mcc,1.0000" in out

    def test_markdown_report(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        report = tmp_path / "report.md"
        code, _, _ = run(capsys, "evaluate", "--input", str(corpus),
                         "--pred", str(corpus), "--format", "markdown",
                         "--output", str(report))
        assert code == 0
        assert report.read_text().startswith("| label |")

    def test_exclude_none_changes_macro(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n="12", noise="0.4", seed="8")
        model, out_dir = train_small(tmp_path, corpus)
        preds = tmp_path / "preds.jsonl"
        run(capsys, "predict", "--input", str(out_dir / "test.jsonl"),
            "--model", str(model), "--output", str(preds))
        _, with_none, _ = run(capsys, "evaluate", "--input", str(out_dir / "test.jsonl"),
                              "--pred", str(preds))
        _, without, _ = run(capsys, "evaluate", "--input", str(out_dir / "test.jsonl"),
                            "--pred", str(preds), "--exclude-none")
        # accuracy and mcc ignore the flag; macros may move
        assert dict(r.split(",") for r in with_none.strip().splitlines())["accuracy"] == \
            dict(r.split(",") for r in without.strip().splitlines())["accuracy"]

    @pytest.mark.parametrize("labeled", [False, True])
    def test_predict_writes_the_rebuilt_corpus(self, tmp_path, capsys, labeled):
        """`rhetseg predict` writes the bytes of write_jsonl on the input
        corpus rebuilt with the predicted labels, for non-ASCII ids and text
        and for unlabeled input."""
        corpus = make_corpus(tmp_path, n="12")
        model, _ = train_small(tmp_path, corpus)
        docs = []
        for i, doc in enumerate(load_jsonl(corpus)):
            texts = tuple(text + (" «§ naïve» 日本\u2028ß" if i % 2 else "") for text in doc.texts)
            labels = doc.labels if labeled else (None,) * len(doc)
            docs.append(Document(doc_id=f"dok-{i}-ü€" if i % 3 else f"d{i}", texts=texts, labels=labels))
        given = tmp_path / "given.jsonl"
        write_jsonl(Corpus(documents=tuple(docs)), given)
        assert ('"label": null' in given.read_text(encoding="utf-8")) != labeled
        code, _, _ = run(capsys, "predict", "--input", str(given), "--model", str(model),
                         "--output", str(tmp_path / "pred.jsonl"))
        assert code == 0
        predictions = predict_documents(docs, load_checkpoint(model))
        rebuilt = [Document(doc_id=doc.doc_id, texts=doc.texts, labels=tuple(labels))
                   for doc, labels in zip(docs, predictions)]
        write_jsonl(Corpus(documents=tuple(rebuilt)), tmp_path / "rebuilt.jsonl")
        assert (tmp_path / "pred.jsonl").read_bytes() == (tmp_path / "rebuilt.jsonl").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        model_a, _ = train_small(tmp_path, corpus)
        bytes_a = model_a.read_bytes()
        model_b, _ = train_small(tmp_path, corpus)
        assert bytes_a == model_b.read_bytes()

    def test_evaluate_missing_document_exits_two(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        partial = tmp_path / "partial.jsonl"
        lines = corpus.read_text().splitlines()[:-1]
        partial.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "evaluate", "--input", str(corpus),
                           "--pred", str(partial))
        assert code == 2
        assert "missing document" in err

    def test_predict_non_finite_checkpoint_exits_two(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        model, _ = train_small(tmp_path, corpus)
        header, tensors = read_checkpoint(model)
        tensors["crf.T"][2, 3] = float("nan")
        write_checkpoint(model, header, tensors)
        preds = tmp_path / "preds.jsonl"
        code, out, err = run(capsys, "predict", "--input", str(corpus),
                             "--model", str(model), "--output", str(preds))
        assert code == 2
        assert out == ""
        assert err == "error: checkpoint tensor 'crf.T' holds a non-finite value\n"
        assert not preds.exists()

    @pytest.mark.parametrize("damage", ["drop config", "list payload", "short Wx"])
    def test_predict_malformed_checkpoint_exits_two(self, tmp_path, capsys, damage):
        corpus = make_corpus(tmp_path)
        model, _ = train_small(tmp_path, corpus)
        header, tensors = read_checkpoint(model)
        if damage == "drop config":
            del header["config"]
        elif damage == "list payload":
            header = [header]
        else:  # one row of the (4h, feat_dim) input weights short
            tensors["bilstm.fwd.Wx"] = tensors["bilstm.fwd.Wx"][:-1]
        write_checkpoint(model, header, tensors)
        code, out, err = run(capsys, "predict", "--input", str(corpus),
                             "--model", str(model), "--output", str(tmp_path / "preds.jsonl"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_train_report_csv_written(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        report = tmp_path / "train_report.csv"
        train_small(tmp_path, corpus, **{"--report": str(report)})
        lines = report.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_macro_f1"
        assert len(lines) == 3


class TestConfigFile:
    def test_precedence_flag_over_config_over_default(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# defaults for this corpus\nepochs=4\nlr=0.002\nlstm_hidden=6\n")
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus), "--output-dir", str(out_dir)])
        model = tmp_path / "model.json"
        code, out, _ = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                           "--val", str(out_dir / "validation.jsonl"),
                           "--output", str(model), "--config", str(cfg),
                           "--epochs", "2", "--patience", "0", "--hash-dim", "32")
        assert code == 0
        echo = read_checkpoint(model)[0]["config"]
        assert echo["epochs"] == 2          # flag beats config
        assert echo["learning_rate"] == 0.002  # config beats default
        assert echo["lstm_hidden"] == 6
        assert echo["optimizer"] == "adam"  # untouched default

    def test_no_mtl_flag_and_config(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus), "--output-dir", str(out_dir)])
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mtl=false\n")
        model = tmp_path / "m.json"
        code, out, _ = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                           "--val", str(out_dir / "validation.jsonl"),
                           "--output", str(model), "--config", str(cfg),
                           "--epochs", "1", "--lstm-hidden", "4", "--patience", "0",
                           "--hash-dim", "32")
        assert code == 0
        assert "shift_val_accuracy" not in out
        assert "shift.w" not in read_checkpoint(model)[1]

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus), "--output-dir", str(out_dir)])
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning=fast\n")
        code, _, err = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                           "--val", str(out_dir / "validation.jsonl"),
                           "--output", str(tmp_path / "m.json"), "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_malformed_line_exits_two(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus), "--output-dir", str(out_dir)])
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs 4\n")
        code, _, err = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                           "--val", str(out_dir / "validation.jsonl"),
                           "--output", str(tmp_path / "m.json"), "--config", str(cfg))
        assert code == 2
        assert "config line 1" in err


class TestGradcheckCommand:
    def test_pass_run(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n="10", lo="3", hi="5")
        model, out_dir = train_small(tmp_path, corpus)
        code, out, _ = run(capsys, "gradcheck", "--model", str(model),
                           "--input", str(out_dir / "train.jsonl"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "gradcheck,PASS"
        names = [l.split(",")[0] for l in lines[:-1]]
        assert names == sorted(names)
        assert all(l.endswith(",PASS") for l in lines[:-1])

    def test_failure_exits_three(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n="10", lo="3", hi="5")
        model, out_dir = train_small(tmp_path, corpus)
        code, out, err = run(capsys, "gradcheck", "--model", str(model),
                             "--input", str(out_dir / "train.jsonl"),
                             "--step", "5.0", "--tolerance", "1e-12")
        assert code == 3
        assert "gradcheck,FAIL" in out
        assert "numeric error" in err

    def test_doc_index_out_of_range(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n="10", lo="3", hi="5")
        model, out_dir = train_small(tmp_path, corpus)
        code, _, _ = run(capsys, "gradcheck", "--model", str(model),
                         "--input", str(out_dir / "train.jsonl"),
                         "--doc-index", "999")
        assert code == 2


class TestExportInstructions:
    def test_records_cycle_and_verbatim_first_template(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path, n="5", lo="8", hi="8")
        out = tmp_path / "records.jsonl"
        code, stdout, _ = run(capsys, "export-instructions", "--input", str(corpus),
                              "--output", str(out))
        assert code == 0
        assert "exported 40 records" in stdout
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 40
        assert records[0]["instruction"] == INSTRUCTION_TEMPLATES[0]
        assert records[17]["instruction"] == INSTRUCTION_TEMPLATES[1]
        outputs = {r["output"] for r in records}
        assert outputs <= {str(i) for i in range(7)}
        gold = load_jsonl(corpus)
        assert [r["input"] for r in records] == [t for d in gold for t in d.texts]
        assert [r["output"] for r in records] == [str(int(label)) for d in gold for label in d.labels]

    def test_unlabeled_corpus_exits_two(self, tmp_path, capsys):
        raw = tmp_path / "one.txt"
        raw.write_text("A sentence.")
        corpus = tmp_path / "c.jsonl"
        main(["ingest", "--input", str(raw), "--output", str(corpus)])
        code, _, err = run(capsys, "export-instructions", "--input", str(corpus),
                           "--output", str(tmp_path / "r.jsonl"))
        assert code == 2


def write_embeddings(path, corpus, dim=16):
    """An embedding file with a random row of width dim for every sentence."""
    import numpy as np

    rng = np.random.default_rng(0)
    with open(path, "w") as fh:
        fh.write(f"dim={dim}\n")
        for doc in corpus:
            for j in range(len(doc)):
                vec = " ".join(f"{v:.6f}" for v in rng.normal(size=dim))
                fh.write(f"{doc.doc_id}\t{j}\t{vec}\n")


class TestEmbeddingWorkflow:
    def test_train_predict_gradcheck_with_precomputed_vectors(self, tmp_path, capsys):
        corpus_path = make_corpus(tmp_path, n="12", lo="4", hi="6")
        emb = tmp_path / "emb.tsv"
        write_embeddings(emb, load_jsonl(corpus_path))
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus_path), "--output-dir", str(out_dir)])
        model = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                         "--val", str(out_dir / "validation.jsonl"),
                         "--output", str(model), "--embeddings", str(emb),
                         "--epochs", "1", "--lstm-hidden", "4", "--patience", "0")
        assert code == 0
        assert read_checkpoint(model)[0]["encoder"]["kind"] == "precomputed"

        preds = tmp_path / "p.jsonl"
        code, _, _ = run(capsys, "predict", "--input", str(out_dir / "test.jsonl"),
                         "--model", str(model), "--output", str(preds),
                         "--embeddings", str(emb))
        assert code == 0

        # the checkpoint cannot rebuild this encoder on its own
        code, _, err = run(capsys, "predict", "--input", str(out_dir / "test.jsonl"),
                           "--model", str(model), "--output", str(preds))
        assert code == 2
        assert "--embeddings" in err

        code, out, _ = run(capsys, "gradcheck", "--model", str(model),
                           "--input", str(out_dir / "train.jsonl"),
                           "--embeddings", str(emb))
        assert code == 0
        assert "gradcheck,PASS" in out

    @pytest.mark.parametrize("context", ["none", "bilstm", "attention", "gcn"])
    def test_train_refuses_zero_width_embeddings(self, tmp_path, capsys, context):
        """A dim=0 file would train a model on position features alone, which
        the loader then refuses for its encoder width."""
        corpus = make_corpus(tmp_path, n="6", lo="3", hi="4")
        emb = tmp_path / "emb.tsv"
        emb.write_text("dim=0\n" + "".join(f"{doc.doc_id}\t{j}\t\n" for doc in load_jsonl(corpus)
                                            for j in range(len(doc))))
        model = tmp_path / "m.json"
        code, out, err = run(capsys, "train", "--input", str(corpus), "--val", str(corpus), "--output", str(model),
                             "--embeddings", str(emb), "--context", context, "--epochs", "1", "--lstm-hidden", "2")
        assert (code, out) == (2, "")
        assert err == "error: embedding file header declares dim=0; vectors need at least one value\n"
        assert not model.exists()

    @pytest.mark.parametrize("command", ["predict", "gradcheck"])
    def test_embedding_width_must_match_the_model(self, tmp_path, capsys, command):
        """A model trained on width-16 vectors, given a width-8 file."""
        corpus = make_corpus(tmp_path, n="6", lo="3", hi="4")
        emb, narrow = tmp_path / "emb.tsv", tmp_path / "narrow.tsv"
        write_embeddings(emb, load_jsonl(corpus))
        write_embeddings(narrow, load_jsonl(corpus), dim=8)
        model = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--input", str(corpus), "--val", str(corpus), "--output", str(model),
                         "--embeddings", str(emb), "--epochs", "1", "--lstm-hidden", "2")
        assert code == 0
        argv = {"predict": ("--output", str(tmp_path / "p.jsonl")), "gradcheck": ()}[command]
        code, out, err = run(capsys, command, "--input", str(corpus), "--model", str(model),
                             "--embeddings", str(narrow), *argv)
        assert (code, out) == (2, "")
        assert err == "error: embedding file has width 8, but the model was trained on width 16\n"
        assert not (tmp_path / "p.jsonl").exists()

    def test_train_reads_the_embedding_file_once(self, tmp_path, capsys, monkeypatch):
        """One read serves the training and the validation corpus."""
        import rhetseg.encode

        corpus_path = make_corpus(tmp_path, n="6", lo="3", hi="4")
        emb = tmp_path / "emb.tsv"
        write_embeddings(emb, load_jsonl(corpus_path))
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus_path), "--output-dir", str(out_dir)])
        opened, open_text = [], rhetseg.encode.open_text

        def counting_open_text(path, *args, **kwargs):
            opened.append(str(path))
            return open_text(path, *args, **kwargs)

        monkeypatch.setattr(rhetseg.encode, "open_text", counting_open_text)
        code, _, _ = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                         "--val", str(out_dir / "validation.jsonl"),
                         "--output", str(tmp_path / "m.json"), "--embeddings", str(emb),
                         "--epochs", "1", "--lstm-hidden", "2")
        assert code == 0
        assert opened == [str(emb)]


# ---------------------------------------------------------------------------
# Mutated corpus JSONL through every command that reads a corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reader_workspace(tmp_path_factory):
    """A small labeled corpus and a model trained on it."""
    root = tmp_path_factory.mktemp("corpus_readers")
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--output", str(corpus), "--n-docs", "4", "--min-sentences", "2",
                 "--max-sentences", "3", "--seed", "5"]) == 0
    assert main(["train", "--input", str(corpus), "--val", str(corpus), "--output", str(root / "model.json"),
                 "--epochs", "1", "--lstm-hidden", "2", "--hash-dim", "8"]) == 0
    return root


# Values that a corpus field may hold in a damaged file: wrong types,
# non-finite and out-of-range labels, blank text, lone surrogates, and values
# that some fields accept.
FIELD_VALUES = st.one_of(
    st.sampled_from([None, True, 0, -1, 7, 3.0, float("nan"), float("inf"), -float("inf"), "", "  ", "Bogus",
                     "\ud800", "x\udfffy", [], {}, ["Facts"], {"text": "x"}]),
    st.sampled_from(["Facts", "Decision", 6, "The appeal fails.", "\U0001f600 \u00e9t\u00e9"]),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)
RAW_LINES = st.one_of(
    st.sampled_from(["", "{", "null", "[]", '"x"', "NaN", '{"doc_id": "d"', '"\\ud800"',
                     '{"doc_id": "\\udbff", "sentences": [{"text": "a", "label": "Facts"}]}']),
    st.text(max_size=8),
)
KEYS = ["doc_id", "sentences", "text", "label"]
# (record, sentence, change); each record of the reader_workspace corpus has two
# sentences or more.
MUTATIONS = st.tuples(
    st.integers(0, 3),
    st.integers(0, 1),
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(KEYS), FIELD_VALUES),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("line"), RAW_LINES),
        st.tuples(st.just("duplicate")),
    ),
)


def mutate(lines, k, j, change):
    """Set or delete one key of record k or of its sentence j, replace line
    k, or repeat record k at the end."""
    records = [json.loads(line) for line in lines]
    record = records[k]
    action, *args = change
    if action == "line":
        lines[k] = args[0]
        return
    if action == "duplicate":
        records.append(record)
    else:
        owner = record if args[0] in ("doc_id", "sentences") else record["sentences"][j]
        if action == "set":
            owner[args[0]] = args[1]
        else:
            del owner[args[0]]
    lines[:] = [json.dumps(r) for r in records]  # NaN, Infinity and \\uXXXX escapes as json writes them


def run_real_streams(argv):
    """Run the CLI in-process with stdout and stderr encoding to UTF-8 as a
    real process does: (exit code, stderr lines, warnings)."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    err.flush()
    return code, err.buffer.getvalue().decode("utf-8").splitlines(), [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutation=MUTATIONS)
@example(mutation=(0, 1, ("set", "text", "\ud800")))
@example(mutation=(1, 0, ("set", "doc_id", "d\udfff")))
@example(mutation=(2, 1, ("set", "label", float("nan"))))
@example(mutation=(3, 0, ("set", "label", float("inf"))))
@example(mutation=(0, 0, ("set", "label", 2.0)))
@example(mutation=(1, 1, ("set", "label", ["Facts"])))
def test_mutated_corpus_exits_zero_or_two_with_one_line(reader_workspace, mutation):
    """stats, split, train, predict, evaluate (either side) and
    export-instructions on a damaged corpus: exit 0, or 2 with one stderr
    line; never a traceback, a warning or an output that cannot be encoded."""
    root = reader_workspace
    good = root / "corpus.jsonl"
    lines = good.read_text(encoding="utf-8").splitlines()
    mutate(lines, *mutation)
    bad = root / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = root / "out"
    for argv in (["stats", "--input", bad],
                 ["split", "--input", bad, "--output-dir", out, "--seed", "1"],
                 ["train", "--input", bad, "--val", good, "--output", out / "model.json", "--epochs", "1",
                  "--lstm-hidden", "2", "--hash-dim", "8"],
                 ["predict", "--model", root / "model.json", "--input", bad, "--output", out / "pred.jsonl"],
                 ["evaluate", "--input", good, "--pred", bad],
                 ["evaluate", "--input", bad, "--pred", good],
                 ["export-instructions", "--input", bad, "--output", out / "records.jsonl"]):
        out.mkdir(exist_ok=True)
        code, err, caught = run_real_streams([str(word) for word in argv])
        assert caught == [], argv
        assert (code == 0 and err == []) or (code == 2 and len(err) == 1 and err[0].startswith("error: ")), \
            (argv, code, err)
