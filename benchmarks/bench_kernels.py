#!/usr/bin/env python3
"""Time the numeric kernels, the LSTM recurrence over padded batches, one
optimizer step, a checkpoint save and load, and free-running decoding.

Each kernel in ``rhetseg.kernels`` runs on one document of --doc-len
sentences; the best of --repeats runs is printed. The recurrence is also run
over batches of B sequences of BATCH_LEN steps, (T, B, 4h) inputs, and
reported as time per sequence, with a check that every batch column equals
the same sequence run on its own. The BiLSTM rows time, on one
BATCH_LEN-sentence document of FEAT_DIM feature columns with --hidden units,
the training forward context.bilstm_forward_cache (both directions in one
recurrence) against the same forward as two 2-D recurrences, one per
direction, with a check that both give the same bits, and the training
backward context.bilstm_backward (both directions in one backward
recurrence) against the per-direction backward kept in tests/test_context.py,
asserting that both write the same gradient bits. The crf_forward_backward
row times the one-loop training sweep; it asserts that the sweep equals
crf_forward and crf_backward bit for bit. The Adam step updates the parameter vector
of the default model (BiLSTM with --hidden units over hashed features of
width FEAT_DIM, CRF head, shift head) from a gradient vector. The checkpoint
rows save and load the default BiLSTM and attention models with random
parameters, and assert that the loaded vector and a second save are
bit-identical to the first. The free-running rows time the greedy decode,
train._free_running, of one FREE_LEN-sentence document for a label_mode=gold
model of each configuration in FREE_RUNNING, and, for the first three, of
one chunk of CHUNK_DOCS documents of CHUNK_LENS sentences, as one call and as
one call per document. Each row checks that its labels equal those of the
per-row decode it replaced, kept in tests/test_free_running.py as an oracle.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --doc-len 2000 --hidden 32
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from rhetseg import context, kernels, train
from rhetseg.train import (
    TrainConfig,
    build_model,
    layout_size,
    load_checkpoint,
    make_optimizer,
    parameter_layout,
    save_checkpoint,
)

K = 7
BATCH_SIZES = (1, 64)
BATCH_LEN = 14
FEAT_DIM = 130  # 128 hashed buckets plus 2 normalized-position columns
HASH_SPEC = {"kind": "hash", "dim": FEAT_DIM - 2, "ngram_orders": [1, 2], "seed": 0, "signed": True}
FREE_LEN = 120
FREE_RUNNING = {  # row label -> TrainConfig settings
    "bilstm+crf": {"context_kind": "bilstm"},
    "attention+softmax": {"context_kind": "attention", "head": "softmax"},
    "gcn+crf": {"context_kind": "gcn"},
    "attention layers=2": {"context_kind": "attention", "attention_layers": 2},
    "gcn sim_threshold=0.3": {"context_kind": "gcn", "gcn_sim_threshold": 0.3},
}
CHUNK_DOCS = 16  # train._CHUNK_DOCS
CHUNK_LENS = (8, 20)


def build_cases(doc_len: int, hidden: int, rng) -> dict[str, tuple]:
    E = rng.standard_normal((doc_len, K))
    T = rng.standard_normal((K, K))
    start = rng.standard_normal(K)
    end = rng.standard_normal(K)
    XW = rng.standard_normal((doc_len, 4 * hidden))
    Wh = rng.standard_normal((4 * hidden, hidden)) * 0.1
    b = rng.standard_normal(4 * hidden)
    G, C, H = kernels.lstm_recurrence(XW, Wh, b)
    dH = rng.standard_normal(H.shape)
    return {
        "crf_forward": (E, T, start, end),
        "crf_backward": (E, T, end),
        "crf_forward_backward": (E, T, start, end),
        "crf_viterbi": (E, T, start, end),
        "lstm_recurrence": (XW, Wh, b),
        "lstm_recurrence_backward": (G, C, Wh.T.copy(), dH),
    }


def two_direction_runs(X, p):
    """The BiLSTM forward as one 2-D recurrence per direction."""
    (_, _, Hf), (_, _, Hb) = (kernels.lstm_recurrence(Xd @ p[f"{d}.Wx"].T, p[f"{d}.Wh"], p[f"{d}.b"])
                              for d, Xd in (("fwd", X), ("bwd", X[::-1])))
    return np.hstack([Hf, Hb[::-1]])


def best_of(fn, args: tuple, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def checkpoint_times(context_kind: str, hidden: int, repeats: int, rng, workdir: Path) -> tuple[float, float, int]:
    """Best save and load seconds of a default model of this context kind
    with random parameters, and its parameter count. Asserts that the loaded
    vector and a second save are bit-identical to the first."""
    bundle = build_model(TrainConfig(context_kind=context_kind, lstm_hidden=hidden), HASH_SPEC, rng)
    bundle.flat[:] = rng.standard_normal(bundle.flat.size)
    path, again = workdir / f"{context_kind}.json", workdir / f"{context_kind}.again.json"
    save_s = best_of(save_checkpoint, (bundle, path), repeats)
    load_s = best_of(load_checkpoint, (path,), repeats)
    loaded = load_checkpoint(path)
    save_checkpoint(loaded, again)
    assert loaded.flat.tobytes() == bundle.flat.tobytes(), f"{context_kind}: loaded parameters differ"
    assert again.read_bytes() == path.read_bytes(), f"{context_kind}: second save differs"
    return save_s, load_s, bundle.flat.size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--doc-len", type=int, default=2000,
                        help="sentences per document (default 2000)")
    parser.add_argument("--hidden", type=int, default=32,
                        help="LSTM hidden size (default 32)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="repeats per kernel, best run reported (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"doc_len={args.doc_len} hidden={args.hidden} "
          f"repeats={args.repeats}")
    rng = np.random.default_rng(args.seed)
    print(f"{'kernel':<34}{'ms':>12}")
    cases = build_cases(args.doc_len, args.hidden, rng)
    for name, inputs in cases.items():
        seconds = best_of(getattr(kernels, name), inputs, args.repeats)
        print(f"{name:<34}{1000 * seconds:>12.3f}")
    log_z, alpha, beta = kernels.crf_forward_backward(*cases["crf_forward_backward"])
    want_z, want_alpha = kernels.crf_forward(*cases["crf_forward"])
    assert log_z == want_z and np.array_equal(alpha, want_alpha), "sweep's forward half differs"
    assert np.array_equal(beta, kernels.crf_backward(*cases["crf_backward"])), "sweep's backward half differs"
    print(f"{'sweep bit-identical to two passes':<34}{'True':>12}")

    h = args.hidden
    Wh = rng.standard_normal((4 * h, h)) * 0.1
    b = rng.standard_normal(4 * h)
    print(f"{'batched recurrence':<34}{'us/sequence':>12}")
    for B in BATCH_SIZES:
        XW = rng.standard_normal((BATCH_LEN, B, 4 * h))
        seconds = best_of(kernels.lstm_recurrence, (XW, Wh, b), args.repeats)
        batch = kernels.lstm_recurrence(XW, Wh, b)
        exact = all(
            np.array_equal(part[:, j], one)
            for j in range(B)
            for part, one in zip(batch, kernels.lstm_recurrence(XW[:, j], Wh, b))
        )
        label = f"lstm_recurrence B={B}"
        print(f"{label:<34}{1e6 * seconds / B:>12.1f}  columns bit-identical: {exact}")

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from test_context import per_direction_bilstm_backward
    from test_free_running import reencode_one, row_decode

    model = build_model(TrainConfig(lstm_hidden=h), HASH_SPEC, rng)
    bilstm, grads = model.params["bilstm"], model.grads["bilstm"]
    want = {name: np.empty_like(grad) for name, grad in grads.items()}
    X = rng.standard_normal((BATCH_LEN, FEAT_DIM))
    H, cache = context.bilstm_forward_cache(X, bilstm)
    _, G, C, Hs = cache
    per_direction = {d: {"X": Xd, "G": G[:, k], "C": C[:, k], "H": Hs[:, k]}
                     for k, (d, Xd) in enumerate((("fwd", X), ("bwd", X[::-1])))}
    dH = rng.standard_normal(H.shape)
    exact = np.array_equal(H, two_direction_runs(X, bilstm))
    print(f"{f'bilstm training, m={BATCH_LEN}':<34}{'us':>12}")
    for label, fn, inputs in (
        ("bilstm_forward_cache", context.bilstm_forward_cache, (X, bilstm)),
        ("two 2-D direction runs", two_direction_runs, (X, bilstm)),
        ("bilstm_backward", context.bilstm_backward, (cache, bilstm, grads, dH)),
        ("per-direction backward", per_direction_bilstm_backward, (per_direction, bilstm, want, dH)),
    ):
        seconds = best_of(fn, inputs, 10 * args.repeats)
        print(f"{label:<34}{1e6 * seconds:>12.1f}")
    print(f"{'forward bit-identical to 2-D runs':<34}{str(exact):>12}")
    assert all(np.array_equal(grads[name], want[name]) for name in grads), "backward differs per direction"
    print(f"{'backward bit-identical':<34}{'True':>12}")

    layout = parameter_layout("bilstm", "crf", FEAT_DIM, 2 * h, 1, True)
    optimizer = make_optimizer(TrainConfig(), layout)
    flat = rng.standard_normal(layout_size(layout))
    grad = rng.standard_normal(layout_size(layout))
    seconds = best_of(optimizer.step, (flat, grad), args.repeats)
    print(f"{'optimizer step':<34}{'ms':>12}")
    print(f"{f'adam_step params={flat.size}':<34}{1000 * seconds:>12.3f}")

    print(f"{'checkpoint':<34}{'save ms':>12}{'load ms':>12}")
    with tempfile.TemporaryDirectory() as workdir:
        for kind in ("bilstm", "attention"):
            save_s, load_s, size = checkpoint_times(kind, h, args.repeats, rng, Path(workdir))
            label = f"{kind} params={size}"
            print(f"{label:<34}{1000 * save_s:>12.3f}{1000 * load_s:>12.3f}  round trip bit-exact")

    print(f"{f'free-running decode m={FREE_LEN}':<34}{'ms':>12}")
    base = rng.standard_normal((FREE_LEN, HASH_SPEC["dim"]))
    chunk = [rng.standard_normal((m, HASH_SPEC["dim"])) for m in rng.integers(*CHUNK_LENS, endpoint=True,
                                                                                size=CHUNK_DOCS)]
    chunked = {}
    for label, settings in FREE_RUNNING.items():
        bundle = build_model(TrainConfig(label_mode="gold", lstm_hidden=h, **settings), HASH_SPEC, rng)
        oracle = reencode_one if len(chunked) == 3 else row_decode
        seconds = best_of(train._free_running, (bundle, [base]), args.repeats)
        same = train._free_running(bundle, [base])[0][0] == oracle(bundle, base)[0]
        print(f"{label:<34}{1000 * seconds:>12.3f}  labels equal the per-row decode's: {same}")
        if len(chunked) < 3:
            chunked[label] = bundle
    print(f"{f'free-running decode, {CHUNK_DOCS} documents':<34}{'ms':>12}{'us/sentence':>12}{'one call each':>16}")
    for label, bundle in chunked.items():
        seconds = best_of(train._free_running, (bundle, chunk), args.repeats)
        each = best_of(lambda: [train._free_running(bundle, [one]) for one in chunk], (), args.repeats)
        same = [labels for labels, _, _ in train._free_running(bundle, chunk)] == [
            row_decode(bundle, one)[0] for one in chunk]
        sentences = sum(len(one) for one in chunk)
        print(f"{label:<34}{1000 * seconds:>12.3f}{1e6 * seconds / sentences:>12.1f}{1000 * each:>13.3f} ms"
              f"  labels equal the per-row decode's: {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
