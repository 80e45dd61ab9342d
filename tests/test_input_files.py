"""The input contract for precomputed-embedding files and --config files:
whatever a damaged file holds, train, predict and gradcheck exit 0, 2 (a
data error) or 3 (a numeric error) with at most one stderr line, and never
a traceback or a warning."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhetseg.cli import main
from test_cli import run_real_streams

DIM = 4


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus, a model trained on embeddings of its sentences, and
    the lines of that embedding file."""
    root = tmp_path_factory.mktemp("input_files")
    corpus = root / "corpus.jsonl"
    assert main(["synth", "--output", str(corpus), "--n-docs", "3", "--min-sentences", "2",
                 "--max-sentences", "3", "--seed", "4"]) == 0
    rng = np.random.default_rng(0)
    lines = [f"dim={DIM}"]
    for record in corpus.read_text(encoding="utf-8").splitlines():
        doc_id = record.split('"doc_id": "')[1].split('"')[0]
        for i in range(record.count('"text"')):
            lines.append(f"{doc_id}\t{i}\t" + " ".join(f"{v:.6f}" for v in rng.normal(size=DIM)))
    (root / "emb.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", "--input", str(corpus), "--val", str(corpus), "--output", str(root / "model.json"),
                 "--epochs", "1", "--lstm-hidden", "2", "--embeddings", str(root / "emb.tsv")]) == 0
    return root, lines


def write_lines(path, lines):
    """Lines as UTF-8, a lone surrogate as the bytes no UTF-8 reader takes;
    a bytes line goes in as it is."""
    path.write_bytes(b"".join((line if isinstance(line, bytes) else line.encode("utf-8", "surrogatepass")) + b"\n"
                              for line in lines))


def assert_contract(argv):
    code, err, caught = run_real_streams([str(word) for word in argv])
    assert caught == [], argv
    assert code in (0, 2, 3) and len(err) <= 1, (argv, code, err)
    assert (code == 0) == (err == []), (argv, code, err)


BAD_BYTES = [b"\xff\xfe", b"caf\xe9", b"\xed\xa0\x80"]
NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "1e308", "x", "", "0x10", "1_0", "\ud800",
                           "1,5", "١", "+1", "-0", "1e-320"])
HEADERS = st.sampled_from([f"dim={DIM - 1}", f"dim={DIM + 1}", "dim=0", "dim=-4", "dim=", "dim=x", "", "DIM=4",
                           "dim=04", "dim=99999999999999999999", "dim=4 extra", "dim=\ud800", "\udcff"])
INDICES = st.sampled_from(["-1", "x", "99", "1.0", " 1", "١", "", "00", "1e0", "\ud800"])
DOC_IDS = st.sampled_from(["", "unknown", "synth-0001", "d\ud800", " synth-0000"])
# (data row, change); the workspace file has six data rows or more.
EMBEDDING_CHANGES = st.tuples(
    st.integers(1, 6),
    st.one_of(
        st.tuples(st.just("header"), HEADERS),
        st.tuples(st.just("value"), st.integers(0, DIM - 1), NUMBERS),
        st.tuples(st.just("width"), st.sampled_from([-1, 1, -DIM])),
        st.tuples(st.just("index"), INDICES),
        st.tuples(st.just("doc_id"), DOC_IDS),
        st.tuples(st.just("fields"), st.sampled_from([2, 4])),
        st.tuples(st.just("delete")),
        st.tuples(st.just("duplicate")),
        st.tuples(st.just("bytes"), st.sampled_from(BAD_BYTES)),
    ),
)


def change_embeddings(lines, row, change):
    action, *args = change
    doc_id, idx, values = lines[row].split("\t")
    values = values.split(" ")
    if action == "header":
        lines[0] = args[0]
    elif action == "value":
        values[args[0]] = args[1]
    elif action == "width":
        values = values[: args[0]] if args[0] < 0 else values + ["0.5"]
    elif action == "index":
        idx = args[0]
    elif action == "doc_id":
        doc_id = args[0]
    elif action == "delete":
        del lines[row]
        return
    elif action == "duplicate":
        lines.append(lines[row])
        return
    elif action == "bytes":
        lines[row] = lines[row].encode("utf-8") + args[0]
        return
    fields = [doc_id, idx, " ".join(values)]
    lines[row] = "\t".join(fields[: args[0]] + ["x"] * (args[0] - 3) if action == "fields" else fields)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(changes=st.lists(EMBEDDING_CHANGES, min_size=1, max_size=3))
@example(changes=[(1, ("header", "dim=99999999999999999999"))] + [(1, ("delete",))] * 9)
@example(changes=[(1, ("header", "dim=0"))] + [(row, ("width", -4)) for row in range(1, 7)])
def test_mutated_embedding_file(workspace, tmp_path_factory, changes):
    """train, predict and gradcheck read a damaged embedding file."""
    root, good = workspace
    lines = list(good)
    for row, change in changes:
        if row < len(lines) and isinstance(lines[row], str) and lines[row].count("\t") == 2:
            change_embeddings(lines, row, change)
    out = tmp_path_factory.mktemp("embedding_run")
    bad = out / "emb.tsv"
    write_lines(bad, lines)
    corpus = root / "corpus.jsonl"
    for argv in (["train", "--input", corpus, "--val", corpus, "--output", out / "model.json", "--epochs", "1",
                  "--lstm-hidden", "2", "--embeddings", bad],
                 ["predict", "--input", corpus, "--model", root / "model.json", "--output", out / "pred.jsonl",
                  "--embeddings", bad],
                 ["gradcheck", "--input", corpus, "--model", root / "model.json", "--embeddings", bad]):
        assert_contract(argv)


CONFIG = ["epochs=1", "lstm_hidden=2", "hash_dim=8", "seed=3", "# a comment", "context=bilstm"]
CONFIG_KEYS = st.sampled_from(["epochs", "lstm_hidden", "gcn_hidden", "attention_layers", "hash_dim", "sin_dim",
                               "seed", "lr", "lambda", "patience", "gcn_sim_threshold", "context", "head",
                               "window", "label_mode", "positional", "optimizer", "class_weights", "mtl",
                               "ngram_orders", "bogus", "", "EPOCHS", "no_mtl", "lstm-hidden", "\ud800"])
CONFIG_VALUES = st.sampled_from(["0", "1", "2", "-1", "x", "", "nan", "inf", "-inf", "1e-3", "0.5", "1e999",
                                 "true", "no", "bilstm", "gcn", "attention", "softmax", "auto", "none", "1,2", "3",
                                 "i-1:i:i+1", "predicted", "sinusoidal", "sgd", "\ud800", "é"])
CONFIG_LINES = st.sampled_from(["no equals", "=", "=1", "epochs", "epochs==1", " epochs = 1 ", "epochs=1=2",
                                "\t", "#", "\ud800=1", "seed=1 # note"])
CONFIG_CHANGES = st.one_of(
    st.tuples(st.just("set"), CONFIG_KEYS, CONFIG_VALUES),
    st.tuples(st.just("line"), st.integers(0, len(CONFIG) - 1), CONFIG_LINES),
    st.tuples(st.just("delete"), st.integers(1, len(CONFIG) - 1)),  # line 0 keeps epochs small
    st.tuples(st.just("duplicate"), st.integers(0, len(CONFIG) - 1)),
    st.tuples(st.just("bytes"), st.integers(0, len(CONFIG) - 1), st.sampled_from(BAD_BYTES)),
)


def change_config(lines, change):
    action, *args = change
    if action == "set":
        lines.append(f"{args[0]}={args[1]}")
    elif action == "line":
        lines[args[0]] = args[1]
    elif action == "delete":
        del lines[args[0]]
    elif action == "duplicate":
        lines.append(lines[args[0]])
    else:
        lines.append((lines[args[0]].encode("utf-8", "surrogatepass") if isinstance(lines[args[0]], str)
                      else lines[args[0]]) + args[1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(changes=st.lists(CONFIG_CHANGES, min_size=1, max_size=3))
@example(changes=[("set", "seed", "9" * 30)])
@example(changes=[("set", "lstm_hidden", "x"), ("set", "lstm_hidden", "2")])
def test_mutated_config_file(workspace, tmp_path_factory, changes):
    """train reads a damaged --config file."""
    root, _ = workspace
    lines = list(CONFIG)
    for change in changes:
        if change[0] in ("set", "bytes") or change[1] < len(lines):
            change_config(lines, change)
    out = tmp_path_factory.mktemp("config_run")
    config = out / "train.cfg"
    write_lines(config, lines)
    corpus = root / "corpus.jsonl"
    assert_contract(["train", "--input", corpus, "--val", corpus, "--output", out / "model.json",
                     "--config", config])
