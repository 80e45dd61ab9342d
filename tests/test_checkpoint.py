"""Checkpoint bytes and the checkpoint loader: the writer against json.dump
of the whole payload with independently encoded tensors, and malformed files
against exit code 2 with a one-line message."""

import base64
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetseg.cli import main
from rhetseg.corpus import write_jsonl
from rhetseg.encode import feature_width
from rhetseg.roles import ROLE_NAMES
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    TrainConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

SPEC = {"kind": "hash", "dim": 8, "ngram_orders": [1, 2], "seed": 0, "signed": True}

KINDS = {
    "none": dict(context_kind="none"),
    "bilstm": dict(context_kind="bilstm", lstm_hidden=3),
    "attention": dict(context_kind="attention", attention_layers=2),
    "gcn": dict(context_kind="gcn", gcn_hidden=5, gcn_sim_threshold=0.5),
}


def model(kind="bilstm", head="crf", mtl=True, seed=0, **extra):
    cfg = TrainConfig(head=head, mtl=mtl, window=(-1, 0), label_mode="gold", **KINDS[kind], **extra)
    return build_model(cfg, SPEC, np.random.default_rng(seed))


def bundles_equal(a, b) -> bool:
    """Bitwise equality of every tensor and of the layout; used by the
    determinism and MTL-consistency checks."""
    return a.layout == b.layout and np.array_equal(a.flat, b.flat)


def read_tensor(payload, name) -> np.ndarray:
    """Tensor entry `name` of a checkpoint payload as a flat, writable float64
    vector, decoded without the loader."""
    return np.frombuffer(base64.b64decode(payload["tensors"][name]), "<f8").copy()


def write_tensor(payload, name, values) -> None:
    """Store `values` (any shape, C order) as tensor entry `name`, encoded
    without the writer."""
    payload["tensors"][name] = base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def json_dump_bytes(bundle) -> bytes:
    """The checkpoint as json.dump writes the whole payload in one call."""
    payload = {
        "format_version": 2,
        "kind": "rhetseg-checkpoint",
        "encoder": bundle.encoder_spec,
        "feature": {
            "window": list(bundle.window),
            "positional": bundle.positional,
            "sin_dim": bundle.sin_dim,
            "label_mode": bundle.label_mode,
        },
        "context": {"kind": bundle.context_kind, "sim_threshold": bundle.gcn_sim_threshold},
        "head": {"kind": bundle.head_kind},
        "labels": list(ROLE_NAMES),
        "dims": {"feat_dim": bundle.feat_dim, "context_dim": bundle.context_dim},
        "tensors": {},
        "config": bundle.config_echo,
    }
    for name, tensor in bundle.parameter_blocks().items():
        write_tensor(payload, name, tensor)
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("mtl", [True, False])
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_bytes_equal_json_dump(tmp_path, kind, head, mtl):
    bundle = model(kind, head, mtl)
    rng = np.random.default_rng(3)
    n = bundle.flat.size
    bundle.flat[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    bundle.flat[:4] = (-0.0, 5e-324, 1.7976931348623157e308, 0.1)
    path = tmp_path / "model.json"
    save_checkpoint(bundle, path)
    assert path.read_bytes() == json_dump_bytes(bundle)
    loaded = load_checkpoint(path)
    assert bundles_equal(bundle, loaded)
    assert loaded.flat.tobytes() == bundle.flat.tobytes()
    again = tmp_path / "again.json"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_loaded_parameters_are_views_of_one_vector(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(model("attention", "softmax"), path)
    bundle = load_checkpoint(path)
    assert set(bundle.params) == {"attn", "softmax", "shift"}
    assert {name for block in bundle.params.values() for name in block} >= {"layer1.Q", "b", "w"}
    for block in bundle.params.values():
        for tensor in block.values():
            assert np.shares_memory(tensor, bundle.flat)


# ---------------------------------------------------------------------------
# Malformed checkpoints through the command line
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkpoints")
    corpus = root / "corpus.jsonl"
    write_jsonl(generate_corpus(2, 3, 6, noise=0.1, seed=1), corpus)
    texts = {}
    for name, (kind, head) in {"bilstm_crf": ("bilstm", "crf"), "attention_softmax": ("attention", "softmax"),
                               "gcn_crf": ("gcn", "crf")}.items():
        save_checkpoint(model(kind, head), root / f"{name}.json")
        texts[name] = (root / f"{name}.json").read_text()
    return root, corpus, texts


def run_command(command, root, corpus, payload):
    """Write the payload as a checkpoint, run the command on it, and return
    (exit code, stdout, stderr)."""
    path = root / "broken.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(corpus), "--model", str(path)]
    if command == "predict":
        argv += ["--output", str(root / "preds.jsonl")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _drop(section, key):
    return lambda p: p[section].pop(key)


def _set(section, key, value):
    return lambda p: p[section].__setitem__(key, value)


def _shorten(name, length):
    return lambda p: write_tensor(p, name, read_tensor(p, name)[:length])


def _recode(name, edit):
    """Replace tensor `name`'s base64 text s with edit(s)."""
    return lambda p: p["tensors"].__setitem__(name, edit(p["tensors"][name]))


def _cut_bytes(name, n):
    """Drop the last n bytes of tensor `name`, re-encoded as valid base64."""
    return lambda p: p["tensors"].__setitem__(
        name, base64.b64encode(base64.b64decode(p["tensors"][name])[:-n]).decode("ascii"))


def _as_list(name, shape):
    """Store tensor `name` as version 1 wrote it: nested lists of floats."""
    return lambda p: p["tensors"].__setitem__(name, read_tensor(p, name).reshape(shape).tolist())


def _version_one(kind, head):
    """The whole checkpoint of model(kind, head) as version 1 wrote it."""
    def damage(p):
        p["format_version"] = 1
        p["tensors"] = {name: t.tolist() for name, t in model(kind, head).parameter_blocks().items()}
    return damage


def _widen_encoder(dim):
    """Set encoder.dim, and feat_dim to match it, leaving every tensor as it is."""
    def damage(p):
        f = p["feature"]
        p["encoder"]["dim"] = dim
        p["dims"]["feat_dim"] = feature_width(dim, tuple(f["window"]), f["positional"], f["sin_dim"],
                                              f["label_mode"] != "off")
    return damage


# case -> (checkpoint, command, damage, part of the expected message)
MALFORMED = {
    "short shift.w": ("bilstm_crf", "gradcheck", _shorten("shift.w", 2),
                      "'shift.w' has 16 bytes, expected 48 for shape (6,)"),
    "softmax.b of length 3": ("attention_softmax", "predict", _shorten("softmax.b", 3),
                              "'softmax.b' has 24 bytes, expected 56 for shape (7,)"),
    "non-base64 character": ("bilstm_crf", "predict", _recode("crf.T", lambda s: "*" + s[1:]),
                             "'crf.T' is not a numeric array"),
    "bad padding": ("bilstm_crf", "predict", _recode("crf.b_e", lambda s: s.rstrip("=")),
                    "'crf.b_e' is not a numeric array"),
    "bytes not a multiple of 8": ("gcn_crf", "predict", _cut_bytes("gcn.W2", 3),
                                  "'gcn.W2' has 197 bytes, expected 200 for shape (5, 5)"),
    "one value short": ("attention_softmax", "predict", _shorten("attn.layer1.V", -1),
                        "'attn.layer1.V' has 4992 bytes, expected 5000 for shape (25, 25)"),
    "list tensor in a version-2 file": ("bilstm_crf", "predict", _as_list("bilstm.bwd.Wh", (12, 3)),
                                        "'bilstm.bwd.Wh' is not a numeric array"),
    "encoder dim 10**12": ("bilstm_crf", "predict", _widen_encoder(10**12),  # 349 TiB if allocated first
                           "'bilstm.fwd.Wx' has 2400 bytes, expected 192000000000864 for shape (12, 2000000000009)"),
    "whole version-1 file": ("gcn_crf", "predict", _version_one("gcn", "crf"), "unsupported version 1, expected 2"),
    "unknown tensor": ("bilstm_crf", "predict", _set("tensors", "bogus.x", [1.0]), "unexpected tensor 'bogus.x'"),
    "window not a list": ("bilstm_crf", "predict", _set("feature", "window", 3), "feature.window has an invalid value"),
    "missing sin_dim": ("bilstm_crf", "predict", _drop("feature", "sin_dim"), "feature is missing 'sin_dim'"),
    "unknown label_mode": ("bilstm_crf", "predict", _set("feature", "label_mode", "weird"),
                           "feature.label_mode has an invalid value"),
    "encoder dim not an int": ("bilstm_crf", "predict", _set("encoder", "dim", "x"), "encoder.dim has an invalid value"),
    "missing encoder seed": ("bilstm_crf", "predict", _drop("encoder", "seed"), "encoder is missing 'seed'"),
    "sim_threshold not a number": ("gcn_crf", "predict", _set("context", "sim_threshold", "x"),
                                   "context.sim_threshold has an invalid value"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_exits_two(workspace, case):
    root, corpus, texts = workspace
    base, command, damage, message = MALFORMED[case]
    payload = json.loads(texts[base])
    damage(payload)
    code, out, err = run_command(command, root, corpus, payload)
    assert code == 2
    assert out == ""
    assert err.startswith("error: checkpoint ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("orders", [[1, 1, 2], [3]], ids=str)
def test_bad_ngram_orders_exit_two(workspace, orders):
    """The hash encoder's own check, which names no checkpoint field."""
    root, corpus, texts = workspace
    payload = json.loads(texts["bilstm_crf"])
    payload["encoder"]["ngram_orders"] = orders
    code, out, err = run_command("predict", root, corpus, payload)
    assert (code, out) == (2, "")
    assert err == f"error: ngram orders must be a non-empty subset of {{1, 2}}, got {tuple(orders)}\n"


def test_undamaged_checkpoints_run(workspace):
    root, corpus, texts = workspace
    for text in texts.values():
        assert run_command("predict", root, corpus, json.loads(text))[0] == 0


# Values no feature, encoder or tensor entry accepts: never an integer or a
# boolean, and every string starts with "?".
JUNK = st.one_of(
    st.none(),
    st.floats(),
    st.text(max_size=4).map(lambda s: "?" + s),
    st.lists(st.text(max_size=2).map(lambda s: "?" + s), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_checkpoint_exits_two_with_one_line(workspace, data):
    root, corpus, texts = workspace
    payload = json.loads(texts[data.draw(st.sampled_from(sorted(texts)), label="model")])
    section = data.draw(st.sampled_from(["feature", "encoder", "tensors"]), label="section")
    entry = payload[section]
    key = data.draw(st.sampled_from(sorted(entry)), label="key")
    actions = ["delete", "junk"] + (["extra", "short", "non-finite"] if section == "tensors" else [])
    action = data.draw(st.sampled_from(actions), label="action")
    if action == "delete":
        del entry[key]
    elif action == "junk":
        entry[key] = data.draw(JUNK, label="value")
    elif action == "extra":
        write_tensor(payload, "?" + data.draw(st.text(max_size=4), label="name"), [1.0])
    elif action == "short":
        write_tensor(payload, key, read_tensor(payload, key)[:-1])
    else:
        values = read_tensor(payload, key)
        values[data.draw(st.integers(0, len(values) - 1), label="index")] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]), label="bad")
        write_tensor(payload, key, values)
    code, out, err = run_command("predict", root, corpus, payload)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
