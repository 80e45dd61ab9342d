"""Checkpoint bytes and the checkpoint loader: the writer against a header
line and a parameter vector encoded in the test, and malformed files against
exit code 2 with a one-line message."""

import base64
import contextlib
import dataclasses
import io
import json
import math
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetseg.cli import main
from rhetseg.corpus import write_jsonl
from rhetseg.errors import DataError
from rhetseg.roles import ROLE_NAMES
from rhetseg.synth import generate_corpus
from rhetseg.train import (
    TrainConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

SPEC = {"kind": "hash", "dim": 8, "ngram_orders": [1, 2], "seed": 0}

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


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, {name: writable float64 array}) of a checkpoint, decoded
    without the loader: the JSON line, then the tensors its "tensors" list
    names, in that order and at those shapes."""
    data = path.read_bytes()
    cut = data.index(b"\n")
    header = json.loads(data[:cut])
    values = np.frombuffer(data, "<f8", offset=cut + 1)
    tensors, start = {}, 0
    for name, shape in header["tensors"]:
        size = math.prod(shape)
        tensors[name] = values[start : start + size].reshape(shape).copy()
        start += size
    return header, tensors


def write_checkpoint(path, header, tensors) -> None:
    """Write header as one JSON line, then each tensor's little-endian float64
    bytes (or the bytes given) in dict order, without the writer. A header's
    "crc32", where it has one, becomes the CRC-32 of those bytes, as the
    writer's would; the rest of the header goes out as it is, so it may list
    tensors the bytes do not hold."""
    payload = b"".join(v if isinstance(v, bytes) else np.asarray(v, "<f8").tobytes() for v in tensors.values())
    if isinstance(header, dict) and "crc32" in header:
        header = {**header, "crc32": zlib.crc32(payload)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


def config_echo(cfg) -> dict:
    """cfg's fields as JSON values: the window as a list."""
    echo = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    echo["window"] = list(cfg.window)
    return echo


def header_dict(bundle) -> dict:
    """The header the writer should give bundle, built field by field."""
    return {
        "format_version": 5,
        "kind": "rhetseg-checkpoint",
        "labels": list(ROLE_NAMES),
        "encoder": bundle.encoder_spec,
        "config": config_echo(bundle.cfg),
        "tensors": [[name, list(tensor.shape)] for name, tensor in bundle.parameter_blocks().items()],
        "crc32": zlib.crc32(b"".join(t.astype("<f8").tobytes() for t in bundle.parameter_blocks().values())),
    }


def expected_bytes(bundle) -> bytes:
    """The checkpoint as the header's sorted-key JSON, a newline, then the
    parameter vector's little-endian float64 bytes."""
    return json.dumps(header_dict(bundle), sort_keys=True).encode("utf-8") + b"\n" + bundle.flat.astype("<f8").tobytes()


@pytest.mark.parametrize("mtl", [True, False])
@pytest.mark.parametrize("head", ["crf", "softmax"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_save_bytes_equal_json_dump(tmp_path, kind, head, mtl):
    bundle = model(kind, head, mtl, class_weights="auto" if head == "softmax" else "none")
    rng = np.random.default_rng(3)
    n = bundle.flat.size
    bundle.flat[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    bundle.flat[:4] = (-0.0, 5e-324, 1.7976931348623157e308, 0.1)
    path = tmp_path / "model.json"
    save_checkpoint(bundle, path)
    assert path.read_bytes() == expected_bytes(bundle)
    loaded = load_checkpoint(path)
    assert bundles_equal(bundle, loaded)
    assert loaded.flat.tobytes() == bundle.flat.tobytes()
    assert loaded.cfg == bundle.cfg
    assert read_checkpoint(path)[0]["config"]["class_weights"] == ("auto" if head == "softmax" else "none")
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
    paths = {}
    for name, (kind, head) in {"bilstm_crf": ("bilstm", "crf"), "attention_softmax": ("attention", "softmax"),
                               "gcn_crf": ("gcn", "crf")}.items():
        paths[name] = root / f"{name}.json"
        save_checkpoint(model(kind, head), paths[name])
    return root, corpus, paths


def run_command(command, root, corpus, header, tensors, edit=None):
    """Write the checkpoint, pass its bytes through edit if given, run the
    command on it, and return (exit code, stdout, stderr)."""
    path = root / "broken.json"
    write_checkpoint(path, header, tensors)
    if edit:
        path.write_bytes(edit(path.read_bytes()))
    argv = [command, "--input", str(corpus), "--model", str(path)]
    if command == "predict":
        argv += ["--output", str(root / "preds.jsonl")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _drop(section, key):
    return lambda h, t: h[section].pop(key)


def _set(section, key, value):
    return lambda h, t: h[section].__setitem__(key, value)


def _shorten(name, length):
    """Keep the first `length` values of tensor `name` (a negative length
    drops values from its end); the header still lists its full shape."""
    return lambda h, t: t.__setitem__(name, t[name].reshape(-1)[:length])


def _cut_bytes(name, n):
    """Drop the last n bytes of tensor `name`."""
    return lambda h, t: t.__setitem__(name, t[name].tobytes()[:-n])


def _append(name, values):
    """List one more tensor after the others, and store its values."""
    def damage(h, t):
        h["tensors"].append([name, [len(values)]])
        t[name] = values
    return damage


def _remove(name):
    """Drop tensor `name` from the list and from the bytes."""
    def damage(h, t):
        h["tensors"] = [entry for entry in h["tensors"] if entry[0] != name]
        del t[name]
    return damage


def _swap(a, b):
    """Swap tensors a and b in the list and in the bytes."""
    def damage(h, t):
        order = [b if n == a else a if n == b else n for n in t]
        shapes = dict(h["tensors"])
        h["tensors"] = [[n, shapes[n]] for n in order]
        t.update({n: t.pop(n) for n in order})
    return damage


def _relist(name, shape):
    """List tensor `name` at another shape, leaving its bytes as they are."""
    def damage(h, t):
        h["tensors"] = [[n, shape if n == name else s] for n, s in h["tensors"]]
    return damage


def _version(number, tensor_entry):
    """The whole checkpoint as version `number` wrote it: one JSON object,
    with each tensor stored inside it as tensor_entry(array), and nothing after
    its line."""
    def damage(h, t):
        h["format_version"] = number
        h["tensors"] = {name: tensor_entry(values) for name, values in t.items()}
        t.clear()
    return damage


def _version3(h, t):
    """The header as version 3 wrote it: the settings in feature, context,
    head and dims sections next to the config echo."""
    c = h["config"]
    h.update(format_version=3, feature={k: c[k] for k in ("window", "positional", "sin_dim", "label_mode")},
             context={"kind": c["context_kind"], "sim_threshold": c["gcn_sim_threshold"]},
             head={"kind": c["head"]}, dims={"feat_dim": 25, "context_dim": 6})


def _version4(h, t):
    """The header as version 4 wrote it: no CRC-32, and the Adam constants and
    the hashing sign in the settings."""
    h.update(format_version=4)
    del h["crc32"]
    h["config"].update(adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, class_weights=None)
    h["encoder"]["signed"] = True


def _keep(h, t):
    pass


def flip_bit(data: bytes, bit: int) -> bytes:
    """data with bit `bit` flipped, counting from the first bit of the first byte."""
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << bit % 8
    return bytes(flipped)


# case -> (checkpoint, command, damage, edit of the bytes or None, part of the expected message)
MALFORMED = {
    "short shift.w": ("bilstm_crf", "gradcheck", _shorten("shift.w", 2), None,
                      "holds 6488 parameter bytes, expected 6520"),
    "softmax.b of length 3": ("attention_softmax", "predict", _shorten("softmax.b", 3), None,
                              "holds 41632 parameter bytes, expected 41664"),
    "bytes not a multiple of 8": ("gcn_crf", "predict", _cut_bytes("gcn.W2", 3), None,
                                  "holds 2085 parameter bytes, expected 2088"),
    "one value short": ("attention_softmax", "predict", _shorten("attn.layer1.V", -1), None,
                        "holds 41656 parameter bytes, expected 41664"),
    "trailing bytes": ("gcn_crf", "predict", _keep, lambda data: data + b"\0" * 8,
                       "holds 2096 parameter bytes, expected 2088"),
    "no newline after the header": ("bilstm_crf", "predict", _keep, lambda data: data[: data.index(b"\n")],
                                    "has no newline after its header"),
    "header not JSON": ("bilstm_crf", "predict", _keep, lambda data: b"x" + data[1:], "is not valid JSON"),
    "tensors out of order": ("bilstm_crf", "predict", _swap("crf.b_e", "crf.T"), None,
                             "tensor 7 is listed as ['crf.T', [7, 7]], expected ['crf.b_e', [7]]"),
    "missing tensor": ("gcn_crf", "predict", _remove("crf.T"), None,
                       "tensor 4 is listed as ['crf.start', [7]], expected ['crf.T', [7, 7]]"),
    "unknown tensor": ("bilstm_crf", "predict", _append("bogus.x", [1.0]), None,
                       "tensor 13 is listed as ['bogus.x', [1]], expected None"),
    "tensor listed twice": ("gcn_crf", "predict", _append("shift.b", [1.0]), None,
                            "tensor 9 is listed as ['shift.b', [1]], expected None"),
    "tensor of the wrong shape": ("gcn_crf", "predict", _relist("gcn.W2", [25]), None,
                                  "tensor 1 is listed as ['gcn.W2', [25]], expected ['gcn.W2', [5, 5]]"),
    "encoder dim 10**12": ("bilstm_crf", "predict", _set("encoder", "dim", 10**12), None,  # 349 TiB if allocated
                           "tensor 0 is listed as ['bilstm.fwd.Wx', [12, 25]], "
                           "expected ['bilstm.fwd.Wx', [12, 2000000000009]]"),
    "whole version-1 file": ("gcn_crf", "predict", _version(1, np.ndarray.tolist), None,
                             "unsupported version 1, expected 5"),
    "whole version-2 file": ("bilstm_crf", "predict",
                             _version(2, lambda a: base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")), None,
                             "unsupported version 2, expected 5"),
    "whole version-3 file": ("bilstm_crf", "predict", _version3, None, "unsupported version 3, expected 5"),
    "whole version-4 file": ("attention_softmax", "predict", _version4, None, "unsupported version 4, expected 5"),
    "window not a list": ("bilstm_crf", "predict", _set("config", "window", 3), None,
                          "config.window has an invalid value"),
    "window of strings": ("bilstm_crf", "predict", _set("config", "window", ["i-1", "i"]), None,
                          "config.window has an invalid value"),
    "missing sin_dim": ("bilstm_crf", "predict", _drop("config", "sin_dim"), None, "config is missing 'sin_dim'"),
    "missing mtl": ("gcn_crf", "predict", _drop("config", "mtl"), None, "config is missing 'mtl'"),
    "unknown config key": ("attention_softmax", "predict", _set("config", "dropout", 0.1), None,
                           "config has unknown key 'dropout'"),
    "missing config": ("bilstm_crf", "predict", lambda h, t: h.pop("config"), None,
                       "entry 'config' is missing or not an object"),
    "config not an object": ("gcn_crf", "predict", lambda h, t: h.__setitem__("config", [1]), None,
                             "entry 'config' is missing or not an object"),
    "unknown label_mode": ("bilstm_crf", "predict", _set("config", "label_mode", "weird"), None,
                           "config: unknown label mode 'weird'"),
    "lstm_hidden true": ("bilstm_crf", "predict", _set("config", "lstm_hidden", True), None,
                         "config.lstm_hidden has an invalid value"),
    "adam_eps NaN": ("bilstm_crf", "predict", _set("config", "adam_eps", float("nan")), None,
                     "config has unknown key 'adam_eps'"),
    "learning rate 10**400": ("gcn_crf", "predict", _set("config", "learning_rate", 10**400), None,
                              "config: int too large to convert to float"),
    "class weight keyed by name": ("attention_softmax", "predict", _set("config", "class_weights", {"Facts": 1.0}),
                                   None, "config.class_weights has an invalid value"),
    "class weights with a CRF head": ("bilstm_crf", "predict", _set("config", "class_weights", "auto"), None,
                                      "config: class weights apply to the softmax head only"),
    "unknown class weights": ("attention_softmax", "predict", _set("config", "class_weights", "balanced"), None,
                              "config: unknown class weights 'balanced'"),
    "config of another context": ("bilstm_crf", "predict", _set("config", "context_kind", "gcn"), None,
                                  "tensor 0 is listed as ['bilstm.fwd.Wx', [12, 25]], expected ['gcn.W1', [25, 128]]"),
    "config without the shift head": ("bilstm_crf", "predict", _set("config", "mtl", False), None,
                                      "tensor 11 is listed as ['shift.w', [6]], expected None"),
    "encoder dim not an int": ("bilstm_crf", "predict", _set("encoder", "dim", "x"), None,
                               "encoder.dim has an invalid value"),
    "missing encoder seed": ("bilstm_crf", "predict", _drop("encoder", "seed"), None, "encoder is missing 'seed'"),
    "unsigned encoder": ("bilstm_crf", "predict", _set("encoder", "signed", False), None,
                         "encoder has unknown key 'signed'"),
    "unknown encoder key": ("gcn_crf", "predict", _set("encoder", "bogus", 1), None,
                            "encoder has unknown key 'bogus'"),
    "hash fields on a precomputed encoder": ("bilstm_crf", "predict", _set("encoder", "kind", "precomputed"), None,
                                             "encoder has unknown key 'ngram_orders'"),
    "missing crc32": ("gcn_crf", "predict", lambda h, t: h.pop("crc32"), None,
                      "entry 'crc32' is missing or not an integer"),
    "crc32 a string": ("bilstm_crf", "predict", _keep,
                       lambda data: data.replace(b'"crc32": ', b'"crc32": "x", "crc_32": ', 1),
                       "entry 'crc32' is missing or not an integer"),
    "unknown header key": ("gcn_crf", "predict", lambda h, t: h.update(bogus={"anything": 1}), None,
                           "checkpoint has unknown key 'bogus'"),
    "format-3 section in a format-5 header": ("bilstm_crf", "predict", lambda h, t: h.update(feature={"window": [5]}),
                                              None, "checkpoint has unknown key 'feature'"),
    "sim_threshold not a number": ("gcn_crf", "predict", _set("config", "gcn_sim_threshold", "x"), None,
                                   "config.gcn_sim_threshold has an invalid value"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_exits_two(workspace, case):
    root, corpus, paths = workspace
    base, command, damage, edit, message = MALFORMED[case]
    header, tensors = read_checkpoint(paths[base])
    damage(header, tensors)
    code, out, err = run_command(command, root, corpus, header, tensors, edit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: checkpoint ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("orders", [[1, 1, 2], [3]], ids=str)
def test_bad_ngram_orders_exit_two(workspace, orders):
    """The hash encoder's own check, which names no checkpoint field."""
    root, corpus, paths = workspace
    header, tensors = read_checkpoint(paths["bilstm_crf"])
    header["encoder"]["ngram_orders"] = orders
    code, out, err = run_command("predict", root, corpus, header, tensors)
    assert (code, out) == (2, "")
    assert err == f"error: ngram orders must be a non-empty subset of {{1, 2}}, got {tuple(orders)}\n"


def test_undamaged_checkpoints_run(workspace):
    root, corpus, paths = workspace
    for path in paths.values():
        assert run_command("predict", root, corpus, *read_checkpoint(path))[0] == 0


@pytest.mark.parametrize("name", ["bilstm_crf", "attention_softmax", "gcn_crf"])
def test_each_flipped_payload_bit_exits_two(workspace, name):
    """CRC-32 detects every single-bit error: the first and last payload bits
    and a seeded sample of the others, each flipped alone, make predict exit 2
    with one line."""
    root, corpus, paths = workspace
    data = paths[name].read_bytes()
    first, end = 8 * (data.index(b"\n") + 1), 8 * len(data)
    sample = np.random.default_rng(len(name)).choice(np.arange(first + 1, end - 1), 30, replace=False)
    for bit in [first, end - 1, *sample.tolist()]:
        code, out, err = run_command("predict", root, corpus, *read_checkpoint(paths[name]),
                                     lambda data: flip_bit(data, bit))
        assert (code, out) == (2, ""), bit
        assert err == "error: checkpoint parameter bytes do not match their CRC-32\n"


# Values no config field accepts: never a number, a boolean or null, every
# string starts with "?", and so does every key of a dict. No encoder or
# tensor entry accepts them either, nor a null or a float.
CONFIG_JUNK = st.one_of(
    st.text(max_size=4).map(lambda s: "?" + s),
    st.lists(st.text(max_size=2).map(lambda s: "?" + s), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=2).map(lambda s: "?" + s), st.integers(), min_size=1, max_size=2),
)
JUNK = st.one_of(st.none(), st.floats(), CONFIG_JUNK)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_checkpoint_exits_two_with_one_line(workspace, data):
    """A "tensors" key is a tensor name: deleting it drops it from the list
    and the bytes, and junk replaces its list entry."""
    root, corpus, paths = workspace
    header, tensors = read_checkpoint(paths[data.draw(st.sampled_from(sorted(paths)), label="model")])
    section = data.draw(st.sampled_from(["config", "encoder", "tensors"]), label="section")
    entry = tensors if section == "tensors" else header[section]
    key = data.draw(st.sampled_from(sorted(entry)), label="key")
    actions = ["delete", "junk"] + (["extra", "short", "non-finite"] if section == "tensors" else [])
    action = data.draw(st.sampled_from(actions), label="action")
    listed = [name for name, _ in header["tensors"]]
    if action == "delete":
        del entry[key]
        if section == "tensors":
            del header["tensors"][listed.index(key)]
    elif action == "junk":
        value = data.draw(CONFIG_JUNK if section == "config" else JUNK, label="value")
        if section == "tensors":
            header["tensors"][listed.index(key)] = value
        else:
            entry[key] = value
    elif action == "extra":
        _append("?" + data.draw(st.text(max_size=4), label="name"), [1.0])(header, tensors)
    elif action == "short":
        tensors[key] = tensors[key].reshape(-1)[:-1]
    else:
        values = tensors[key].reshape(-1)
        values[data.draw(st.integers(0, len(values) - 1), label="index")] = data.draw(
            st.sampled_from([float("nan"), float("inf"), float("-inf")]), label="bad")
    code, out, err = run_command("predict", root, corpus, header, tensors)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_layer_count_past_the_tensor_list_is_refused_at_once(workspace):
    """A layout of that many attention layers is never built: the tensor list
    bounds the layer count. Unbounded, 10**5 layers take about 0.5 s and tens
    of MB, so that count fails first and 10**12 is never tried."""
    root, _, paths = workspace
    header, tensors = read_checkpoint(paths["attention_softmax"])
    path = root / "layers.json"
    for layers in (10**5, 10**12):
        header["config"]["attention_layers"] = layers
        write_checkpoint(path, header, tensors)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(DataError) as refused:
                load_checkpoint(path)
            seconds = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == f"checkpoint lists 12 tensors, too few for {layers} attention layers"
        assert seconds < 1.0
        assert peak < 2**20  # the file is 42 kB
