"""End-to-end command-line behavior: outputs, exit codes, idempotency."""

import hashlib
import json

import pytest

from rhetseg.cli import main
from rhetseg.corpus import load_jsonl
from rhetseg.instructions import INSTRUCTION_TEMPLATES

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
        assert [s.text for s in doc1.sentences] == \
            ["The court heard counsel.", "The appeal fails."]
        assert all(s.gold is None for s in doc1.sentences)
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

    def test_predict_jobs_deterministic(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path)
        model, out_dir = train_small(tmp_path, corpus)
        one = tmp_path / "one.jsonl"
        four = tmp_path / "four.jsonl"
        run(capsys, "predict", "--input", str(corpus), "--model", str(model),
            "--output", str(one))
        run(capsys, "predict", "--input", str(corpus), "--model", str(model),
            "--output", str(four), "--jobs", "4")
        assert one.read_bytes() == four.read_bytes()

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
        payload = json.loads(model.read_text())
        payload["tensors"]["crf.T"][2][3] = float("nan")
        model.write_text(json.dumps(payload))
        preds = tmp_path / "preds.jsonl"
        code, out, err = run(capsys, "predict", "--input", str(corpus),
                             "--model", str(model), "--output", str(preds))
        assert code == 2
        assert out == ""
        assert err == "error: checkpoint tensor 'crf.T' holds a non-finite value\n"
        assert not preds.exists()

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
        echo = json.loads(model.read_text())["config"]
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
        assert "shift.w" not in json.loads(model.read_text())["tensors"]

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
        flat = [s for d in gold for s in d.sentences]
        assert [r["input"] for r in records] == [s.text for s in flat]
        assert [r["output"] for r in records] == [str(int(s.gold)) for s in flat]

    def test_unlabeled_corpus_exits_two(self, tmp_path, capsys):
        raw = tmp_path / "one.txt"
        raw.write_text("A sentence.")
        corpus = tmp_path / "c.jsonl"
        main(["ingest", "--input", str(raw), "--output", str(corpus)])
        code, _, err = run(capsys, "export-instructions", "--input", str(corpus),
                           "--output", str(tmp_path / "r.jsonl"))
        assert code == 2


class TestEmbeddingWorkflow:
    def test_train_predict_gradcheck_with_precomputed_vectors(self, tmp_path, capsys):
        import numpy as np

        corpus_path = make_corpus(tmp_path, n="12", lo="4", hi="6")
        corpus = load_jsonl(corpus_path)
        rng = np.random.default_rng(0)
        emb = tmp_path / "emb.tsv"
        with open(emb, "w") as fh:
            fh.write("dim=16\n")
            for doc in corpus:
                for s in doc.sentences:
                    vec = " ".join(f"{v:.6f}" for v in rng.normal(size=16))
                    fh.write(f"{doc.doc_id}\t{s.index}\t{vec}\n")
        out_dir = tmp_path / "sp"
        main(["split", "--input", str(corpus_path), "--output-dir", str(out_dir)])
        model = tmp_path / "m.json"
        code, _, _ = run(capsys, "train", "--input", str(out_dir / "train.jsonl"),
                         "--val", str(out_dir / "validation.jsonl"),
                         "--output", str(model), "--embeddings", str(emb),
                         "--epochs", "1", "--lstm-hidden", "4", "--patience", "0")
        assert code == 0
        assert json.loads(model.read_text())["encoder"]["kind"] == "precomputed"

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
