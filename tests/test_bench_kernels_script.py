"""benchmarks/bench_kernels.py runs at a small size and prints one JSON object a line."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_kernels", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py")
bench_kernels = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_kernels)


def test_every_line_is_a_json_row(capsys):
    assert bench_kernels.main(["--doc-len", "20", "--hidden", "4", "--repeats", "1"]) == 0
    settings, *rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert settings.keys() == {"doc_len", "hidden", "repeats", "seed", "python", "numpy"}
    assert (settings["doc_len"], settings["hidden"], settings["repeats"]) == (20, 4, 1)
    for row in rows:
        assert row.keys() == {"row", "shape", "best_s", "median_s", "repeats"}
        assert 0 <= row["best_s"] <= row["median_s"] and row["repeats"] == 1
    shapes = {row["row"]: row["shape"] for row in rows}
    assert len(shapes) == len(rows)  # no two rows share a name
    T = shapes["kernels.lstm_recurrence chunk"][0]
    assert 8 <= T <= 20
    # the shapes context passes each kernel, with m = 20, h = 4 and a chunk of 16
    assert {name: shape for name, shape in shapes.items() if not name.startswith("train.")} == {
        "kernels.crf_forward_backward document": [20, 7],
        "kernels.lstm_recurrence document": [20, 2, 1, 16],
        "kernels.lstm_recurrence_backward document": [20, 2, 16],
        "crf.viterbi_decode_batch chunk": [T, 16, 7],
        "kernels.lstm_recurrence chunk": [T, 2, 16, 16],
        "kernels.lstm_recurrence chunk backward direction": [T, 16, 16],
        "kernels.lstm_step chunk": [16, 2, 16],
    }
    assert shapes["train._Adam.step"] == shapes["train.save_checkpoint bilstm"] == shapes["train.load_checkpoint bilstm"]
    assert shapes["train.save_checkpoint attention"] == shapes["train.load_checkpoint attention"]
    assert {name: shape for name, shape in shapes.items() if name.startswith("train._free_running")} == {
        f"train._free_running {label} {part}": shape for label in bench_kernels.FREE_RUNNING
        for part, shape in (("chunk", [T, 16]), ("document", [120, 1]))}
    assert len(shapes) == 7 + 5 + 2 * len(bench_kernels.FREE_RUNNING)
