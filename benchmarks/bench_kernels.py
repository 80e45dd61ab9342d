#!/usr/bin/env python3
"""Time the code the package runs, at the shapes it runs it, one JSON line each.

The first line holds the settings and the Python and numpy versions. Each
further line is one row: {"row", "shape", "best_s", "median_s", "repeats"},
the best and median seconds of --repeats calls, to the nanosecond. No two
rows share a name.

The "document" rows are one training update of rhetbench's train_short,
which trains on documents of 8 to 20 sentences, one at a time: on one
document of --doc-len sentences (default 14), kernels.crf_forward_backward,
the CRF sweep, on (m, 7) emissions, and kernels.lstm_recurrence on
(m, 2, 1, 4h) and kernels.lstm_recurrence_backward on (m, 2, 4h), as
context.bilstm_forward_batch and context.bilstm_backward call them. The
"chunk" rows are prediction as predict_bulk runs it, on one chunk of
train._CHUNK_DOCS documents of CHUNK_LENS sentences: crf.viterbi_decode_batch
on their (T, B, 7) padded emissions, kernels.lstm_recurrence on
(T, 2, B, 4h), and, as context.BilstmSteps calls them, kernels.lstm_recurrence
on the backward direction, (T, B, 4h), and kernels.lstm_step on (B, 2, 4h).
Then come one Adam step of the default model (BiLSTM with --hidden units over
128 hashed buckets, CRF and shift heads), a checkpoint save and load of that
model and of the default attention model, and train._free_running of a
label_mode=gold model of each configuration in FREE_RUNNING, on the chunk and
on one FREE_LEN-sentence document, as predict_long_free decodes it. A "shape"
is (T, B) for those last rows and the parameter count for the Adam and
checkpoint rows.

The script checks no result: the test suite does that.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/bench_kernels.py
"""

import argparse
import json
import platform
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from rhetseg import context, crf, kernels, train
from rhetseg.roles import NUM_ROLES
from rhetseg.train import TrainConfig, build_model, load_checkpoint, make_optimizer, save_checkpoint

HASH_SPEC = {"kind": "hash", "dim": 128, "ngram_orders": [1, 2], "seed": 0}
CHUNK_LENS = (8, 20)
FREE_LEN = 120
FREE_RUNNING = {  # label -> TrainConfig settings
    "bilstm+crf": {"context_kind": "bilstm"},
    "attention+softmax": {"context_kind": "attention", "head": "softmax"},
    "gcn+crf": {"context_kind": "gcn"},
    "attention layers=2": {"context_kind": "attention", "attention_layers": 2},
    "gcn sim_threshold=0.3": {"context_kind": "gcn", "gcn_sim_threshold": 0.3},
}


def timed(row: str, shape, repeats: int, fn, *args) -> None:
    """Print the row of fn(*args) called `repeats` times."""
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        seconds.append(time.perf_counter() - t0)
    print(json.dumps({"row": row, "shape": [int(n) for n in shape], "best_s": round(min(seconds), 9),
                      "median_s": round(statistics.median(seconds), 9), "repeats": repeats}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc-len", type=int, default=14,
                        help="sentences of the training document (default 14)")
    parser.add_argument("--hidden", type=int, default=32,
                        help="LSTM hidden size (default 32)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="calls per row (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    m, h, repeats, rng = args.doc_len, args.hidden, args.repeats, np.random.default_rng(args.seed)
    print(json.dumps({"doc_len": m, "hidden": h, "repeats": repeats, "seed": args.seed,
                      "python": platform.python_version(), "numpy": np.__version__}))

    model = build_model(TrainConfig(lstm_hidden=h), HASH_SPEC, rng)
    p, p_crf = model.params["bilstm"], model.params["crf"]
    E = rng.standard_normal((m, NUM_ROLES))
    timed("kernels.crf_forward_backward document", E.shape, repeats, kernels.crf_forward_backward,
          E, p_crf["T"], p_crf["start"], p_crf["end"])
    Wh, b = context._stacked_recurrent(p)  # (2, 1, 4h, h) and (2, 1, 4h)
    XW = rng.standard_normal((m, 2, 1, 4 * h))
    timed("kernels.lstm_recurrence document", XW.shape, repeats, kernels.lstm_recurrence, XW, Wh, b)
    G, C, _ = kernels.lstm_recurrence(XW, Wh, b)
    WhT = np.ascontiguousarray(Wh[:, 0].transpose(0, 2, 1))
    timed("kernels.lstm_recurrence_backward document", G[:, :, 0].shape, repeats,
          kernels.lstm_recurrence_backward, G[:, :, 0], C[:, :, 0], WhT, rng.standard_normal((m, 2, h)))

    lengths = rng.integers(*CHUNK_LENS, endpoint=True, size=train._CHUNK_DOCS)
    T, B = lengths.max(), train._CHUNK_DOCS
    timed("crf.viterbi_decode_batch chunk", (T, B, NUM_ROLES), repeats, crf.viterbi_decode_batch,
          [rng.standard_normal((n, NUM_ROLES)) for n in lengths], p_crf)
    XW = rng.standard_normal((T, 2, B, 4 * h))
    timed("kernels.lstm_recurrence chunk", XW.shape, repeats, kernels.lstm_recurrence, XW, Wh, b)
    XW = rng.standard_normal((T, B, 4 * h))
    timed("kernels.lstm_recurrence chunk backward direction", XW.shape, repeats, kernels.lstm_recurrence,
          XW, p["bwd.Wh"], p["bwd.b"])
    xw, (H, C) = rng.standard_normal((B, 2, 4 * h)), rng.standard_normal((2, B, 2, h))
    timed("kernels.lstm_step chunk", xw.shape, repeats, kernels.lstm_step, xw, Wh[:, 0], b[:, 0], H, C)

    optimizer = make_optimizer(model.cfg, model.layout)
    timed("train._Adam.step", model.flat.shape, repeats, optimizer.step,
          model.flat, rng.standard_normal(model.flat.size))
    with tempfile.TemporaryDirectory() as workdir:
        for kind, bundle in (("bilstm", model),
                             ("attention", build_model(TrainConfig(context_kind="attention"), HASH_SPEC, rng))):
            path = Path(workdir) / f"{kind}.ckpt"
            timed(f"train.save_checkpoint {kind}", bundle.flat.shape, repeats, save_checkpoint, bundle, path)
            timed(f"train.load_checkpoint {kind}", bundle.flat.shape, repeats, load_checkpoint, path)

    document = [rng.standard_normal((FREE_LEN, HASH_SPEC["dim"]))]
    chunk = [rng.standard_normal((n, HASH_SPEC["dim"])) for n in lengths]
    for label, settings in FREE_RUNNING.items():
        bundle = build_model(TrainConfig(label_mode="gold", lstm_hidden=h, **settings), HASH_SPEC, rng)
        timed(f"train._free_running {label} chunk", (T, B), repeats, train._free_running, bundle, chunk)
        timed(f"train._free_running {label} document", (FREE_LEN, 1), repeats, train._free_running,
              bundle, document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
