"""Self-tests for the benchmark harness.

    python3 -m pytest rhetbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# End-to-end metrics the benchmark's specification names, per workload.
NAMED_END_TO_END = {
    "train_short": {"setup_s", "train_sentences_per_s", "best_val_macro_f1", "peak_rss_mb", "failed_op_share"},
    "predict_bulk": {
        "setup_s", "predict_sentences_per_s", "predict_doc_ms_p50", "predict_doc_ms_p90",
        "evaluate_sentences_per_s", "test_macro_f1", "peak_rss_mb", "failed_op_share",
    },
    "predict_long_free": {
        "setup_s", "predict_sentences_per_s", "predict_doc_ms_p50", "test_macro_f1", "peak_rss_mb",
        "failed_op_share",
    },
}

NAMED_PER_LAYER = {
    "corpus.load_jsonl.self_s", "corpus.load_jsonl.sentences", "corpus.write_jsonl.self_s",
    "encode.encode_document.self_s", "encode.encode_document.sentences", "encode.ngrams",
    "encode.distinct_ngram_share", "encode.featurize.calls", "encode.featurize.self_s",
    "context.fwd.calls", "context.fwd.self_s", "context.fwd.rows", "context.build_graph.self_s",
    "context.rows_per_predicted_sentence", "context.bwd.calls", "context.bwd.self_s",
    "crf.emissions.self_s", "crf.nll_and_grad.self_s", "crf.viterbi_decode.self_s",
    "train.optimizer_step.calls", "train.optimizer_step.self_s", "train.document_loss_and_grads.self_s",
    "train.validate.self_s", "train.save_checkpoint.self_s", "train.load_checkpoint.self_s",
    "train.predict_document.self_s", "metrics.self_s", "trace.overhead_share", "trace.unattributed_s",
} | {
    f"context.fwd.{kind}.{key}" for kind in tracing.CONTEXT_KINDS for key in ("calls", "self_s", "rows")
} | {
    f"kernels.{k}.{key}" for k in tracing.KERNELS for key in ("calls", "self_s", "rows", "macs")
}

LONG_LEN = 12
TINY_SIZES = {
    "train_short": {"train": (8, 3, 6), "val": (4, 3, 6), "epochs": 2},
    "predict_bulk": {"fit": (8, 3, 6), "fit_val": (4, 3, 6), "fit_epochs": 1, "eval": (110, 1, 3)},
    "predict_long_free": {"fit": (8, 3, 6), "fit_val": (4, 3, 6), "fit_epochs": 1, "eval": (2, LONG_LEN, LONG_LEN)},
}


def test_self_times_of_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("b", 2.0, 3.0, 1),
        S("c", 5.0, 9.0, 0),
        S("b", 6.0, 7.0, 3),
        S("d", 7.5, 8.0, 3),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "b": 2.0, "c": 2.5, "d": 0.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_by_call_order():
    tracer = tracing.Tracer()
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end


def test_wrappers_restore_every_attribute():
    owners = [(tracing.resolve_owner(o), attr) for o, attr, _, _ in tracing.TARGETS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    wrappers = tracing.Wrappers(tracing.Tracer())
    with wrappers:
        assert wrappers.missing == []
        for (owner, attr), original in zip(owners, before):
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    for (owner, attr), original in zip(owners, before):
        assert owner.__dict__[attr] is original


def test_wrappers_report_missing_call_sites():
    targets = (("rhetseg.kernels", "no_such_kernel", "kernels.none", None),)
    with tracing.Wrappers(tracing.Tracer(), targets) as wrappers:
        assert wrappers.missing == ["rhetseg.kernels.no_such_kernel"]


def test_kernel_counts_are_computed_from_shapes():
    import rhetseg.kernels as kernels

    tracer = tracing.Tracer()
    m, h, k = 5, 3, 7
    rng = np.random.default_rng(0)
    with tracing.Wrappers(tracer):
        kernels.lstm_recurrence(rng.standard_normal((m, 4 * h)), rng.standard_normal((4 * h, h)), np.zeros(4 * h))
        kernels.crf_viterbi(rng.standard_normal((m, k)), np.zeros((k, k)), np.zeros(k), np.zeros(k))
    assert tracer.counts["kernels.lstm_recurrence.rows"] == m
    assert tracer.counts["kernels.lstm_recurrence.macs"] == m * 4 * h * h
    assert tracer.counts["kernels.crf_viterbi.macs"] == m * k * k
    assert [s.name for s in tracer.spans] == ["kernels.lstm_recurrence", "kernels.crf_viterbi"]


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table in (workloads.END_TO_END, workloads.PER_LAYER):
        for name in table:
            assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert NAMED_PER_LAYER <= set(workloads.PER_LAYER)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY_SIZES)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", (2, 2))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_every_named_metric(tiny, tmp_path, name):
    result = workloads.run(name, 3, 0.0, False, tmp_path)
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == set(workloads.END_TO_END)
    assert NAMED_END_TO_END[name] <= set(result.report)
    for name_, (value, unit) in result.metrics.items():
        assert unit == workloads.END_TO_END[name_][0]
        assert value > 0, name_


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(tiny, tmp_path, name):
    result = workloads.run(name, 3, 0.0, True, tmp_path)
    assert result.correct, result.failures
    metrics = {k: v for k, (v, _) in result.metrics.items()}
    assert set(metrics) == set(workloads.PER_LAYER)
    assert metrics["trace.targets_missing"] == 0
    trains = name == "train_short"
    assert (metrics["train.optimizer_step.calls"] > 0) == trains
    assert (metrics["context.bwd.calls"] > 0) == trains
    expected_rows = LONG_LEN if name == "predict_long_free" else 1.0
    assert metrics["context.rows_per_predicted_sentence"] == expected_rows
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k.count(".") == 2
                 and not k.startswith("context.fwd."))
    layers += metrics["context.fwd.self_s"] + metrics["metrics.self_s"]
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_failed_check_marks_run_incorrect(tiny, tmp_path, monkeypatch):
    digests = iter(range(10**6))
    monkeypatch.setattr(workloads, "_digest", lambda path: str(next(digests)))
    result = workloads.run("train_short", 3, 0.0, False, tmp_path)
    assert not result.correct
    assert result.failed > 0
    assert any("identical" in f for f in result.failures)


def test_exits_nonzero_without_source_tree(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "train_short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
