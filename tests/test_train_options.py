"""`rhetseg train` options: every option means the same as a flag and as a
`--config` key, an option given neither way takes the dataclass default, and
every bad value exits 2 with one line."""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhetseg import cli
from rhetseg.cli import main
from rhetseg.corpus import write_jsonl
from rhetseg.encode import HashEncoderConfig, HashingEncoder
from rhetseg.synth import generate_corpus
from rhetseg.train import TrainConfig
from test_checkpoint import read_checkpoint

# A value other than the default for every train option (None: a flag
# without a value), with any flags the value needs beside it.
SAMPLES = {
    "--head": ("softmax", []),
    "--context": ("gcn", []),
    "--window": ("i-1:i:i+1", []),
    "--label-mode": ("predicted_previous", []),
    "--positional": ("sinusoidal", []),
    "--sin-dim": ("4", []),
    "--lambda": ("0.5", []),
    "--no-mtl": (None, []),
    "--optimizer": ("sgd", []),
    "--lr": ("0.01", []),
    "--epochs": ("3", []),
    "--patience": ("1", []),
    "--seed": ("7", []),
    "--class-weights": ("auto", ["--head", "softmax"]),
    "--lstm-hidden": ("5", []),
    "--attention-layers": ("2", []),
    "--gcn-hidden": ("9", []),
    "--gcn-sim-threshold": ("0.25", []),
    "--hash-dim": ("16", []),
    "--ngram-orders": ("1", []),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny train/validation pair and a model trained on it."""
    root = tmp_path_factory.mktemp("train_options")
    write_jsonl(generate_corpus(6, 3, 5, noise=0.1, seed=1), root / "train.jsonl")
    write_jsonl(generate_corpus(3, 3, 5, noise=0.1, seed=2), root / "val.jsonl")
    assert quiet(train_argv(root, "--epochs", "1", "--lstm-hidden", "3", "--hash-dim", "8"))[0] == 0
    return root


def train_argv(root, *options, output=None):
    return ["train", "--input", str(root / "train.jsonl"), "--val", str(root / "val.jsonl"),
            "--output", str(output or root / "model.json"), *options]


def quiet(argv):
    """Run the CLI in-process: (exit code, stdout, stderr lines, warnings).
    A warning would be one more stderr line in a real process."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines(), [str(w.message) for w in caught]


class Captured(Exception):
    pass


def configs_built(monkeypatch, argv):
    """The TrainConfig and encoder config that `train` would train with."""

    def capture(train, val, cfg, encoder):
        raise Captured(cfg, encoder.cfg)

    monkeypatch.setattr(cli, "train_model", capture)
    with pytest.raises(Captured) as exc:
        main(argv)
    return exc.value.args


def config_line(flag, value):
    """The documented key: the flag without "--", "_" for "-"; mtl for --no-mtl."""
    if flag == "--no-mtl":
        return "mtl=false"
    return f"{flag[2:].replace('-', '_')}={value}"


@pytest.mark.parametrize("flag", sorted(cli._TRAIN_OPTIONS))
def test_config_key_builds_the_same_configs_as_its_flag(workspace, monkeypatch, tmp_path, flag):
    value, companions = SAMPLES[flag]
    by_flag = configs_built(monkeypatch, train_argv(workspace, *companions, flag, *([value] if value else [])))
    config = tmp_path / "train.cfg"
    config.write_text(config_line(flag, value) + "\n")
    by_file = configs_built(monkeypatch, train_argv(workspace, *companions, "--config", str(config)))
    assert by_file == by_flag
    assert by_flag != configs_built(monkeypatch, train_argv(workspace, *companions))


def test_no_option_trains_with_the_dataclass_defaults(workspace, tmp_path):
    assert quiet(train_argv(workspace, output=tmp_path / "model.json"))[0] == 0
    header, _ = read_checkpoint(tmp_path / "model.json")
    assert header["config"] == TrainConfig().to_echo()
    assert header["encoder"] == HashingEncoder(HashEncoderConfig()).spec()


@pytest.mark.parametrize("line", ["class_weights=bogus", "mtl=maybe", "head=bogus", "lr=x", "epochs=2.5",
                                  "label_mode=previous", "window=i+1", "sin_dim="])
def test_bad_config_value_exits_two_with_one_line(workspace, tmp_path, line):
    config = tmp_path / "train.cfg"
    config.write_text(line + "\n")
    key, _, value = line.partition("=")
    code, out, err, caught = quiet(train_argv(workspace, "--config", str(config)))
    assert (code, out, caught) == (2, "", [])
    assert err == [f"error: config key {key!r} has invalid value {value!r}"]


@pytest.mark.parametrize("value, mtl", [(v, True) for v in ("1", "true", "yes", "on", "True")]
                         + [(v, False) for v in ("0", "false", "no", "off", "OFF")])
def test_config_mtl_values(workspace, monkeypatch, tmp_path, value, mtl):
    config = tmp_path / "train.cfg"
    config.write_text(f"mtl={value}\n")
    cfg, _ = configs_built(monkeypatch, train_argv(workspace, "--config", str(config)))
    assert cfg.mtl is mtl


# Inputs that once exited 1 with a traceback, 3, or 0 with a checkpoint that
# `predict` refuses. Train options are given as a flag and as a config line.
TRAIN_DEFECTS = [
    ["--lstm-hidden", "0"],
    ["--lstm-hidden", "-1"],
    ["--context", "gcn", "--gcn-hidden", "0"],
    ["--context", "attention", "--attention-layers", "0"],
    ["--context", "gcn", "--gcn-sim-threshold", "nan"],
    ["--context", "gcn", "--gcn-sim-threshold", "inf"],
    ["--lr", "nan"],
    ["--lr", "inf"],
    ["--ngram-orders", "1,1,2"],
]
OTHER_DEFECTS = [
    ["gradcheck", "--step", "nan"],
    ["gradcheck", "--step", "inf"],
    ["gradcheck", "--tolerance", "nan"],
    ["split", "--ratios", "nan,0.5,0.5"],
]


@pytest.mark.parametrize("given_as", ["flag", "config"])
@pytest.mark.parametrize("options", TRAIN_DEFECTS, ids=" ".join)
def test_train_defect_exits_two_with_one_line(workspace, tmp_path, options, given_as):
    argv = train_argv(workspace, "--epochs", "1", "--hash-dim", "8", output=tmp_path / "model.json")
    if given_as == "flag":
        argv += options
    else:
        config = tmp_path / "train.cfg"
        config.write_text("".join(config_line(f, v) + "\n" for f, v in zip(options[::2], options[1::2])))
        argv += ["--config", str(config)]
    code, out, err, caught = quiet(argv)
    assert (code, out, caught) == (2, "", [])
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("argv", OTHER_DEFECTS, ids=" ".join)
def test_other_defect_exits_two_with_one_line(workspace, tmp_path, argv):
    command, *options = argv
    if command == "gradcheck":
        argv = ["gradcheck", "--model", str(workspace / "model.json"), "--input", str(workspace / "train.jsonl")]
    else:
        argv = ["split", "--input", str(workspace / "train.jsonl"), "--output-dir", str(tmp_path / "parts")]
    code, out, err, caught = quiet(argv + options)
    assert (code, out, caught) == (2, "", [])
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("options", [["--lr", "1e300"], ["--lr", "1e300", "--context", "attention"],
                                     ["--lr", "1e300", "--context", "gcn", "--head", "softmax"]], ids=" ".join)
def test_overflow_exits_three_with_one_line(workspace, tmp_path, options):
    """A finite learning rate can still overflow; numpy's floating-point
    warnings stay off stderr, which holds the one NumericError line."""
    argv = train_argv(workspace, "--epochs", "1", "--hash-dim", "8", *options, output=tmp_path / "model.json")
    code, out, err, caught = quiet(argv)
    assert (code, out, caught) == (3, "", [])
    assert len(err) == 1 and err[0].startswith("numeric error: ")


@pytest.mark.parametrize("options", [["--lstm-hidden", "100000000"], ["--context", "gcn", "--gcn-hidden", "100000000"]],
                         ids=" ".join)
def test_model_too_large_exits_two_with_one_line(workspace, tmp_path, options):
    """A size whose parameter vector cannot be allocated, 568 PiB and 71 PiB:
    more than any address space, so the request fails before a page is touched."""
    argv = train_argv(workspace, "--epochs", "1", "--hash-dim", "8", *options, output=tmp_path / "model.json")
    code, out, err, caught = quiet(argv)
    assert (code, out, caught) == (2, "", [])
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate ")
    assert not (tmp_path / "model.json").exists()


# Numeric train flags: values a run accepts, and any value of the flag's type
# (bounded above where a size only costs memory or time).
VALID = {
    "--seed": st.integers(0, 2**63 - 1),
    "--lr": st.floats(1e-4, 1.0),
    "--lstm-hidden": st.integers(1, 6),
    "--gcn-hidden": st.integers(1, 6),
    "--attention-layers": st.integers(1, 3),
    "--hash-dim": st.integers(8, 24),
    "--lambda": st.floats(0.0, 1.0),
    "--gcn-sim-threshold": st.floats(-1.0, 1.0),
    "--sin-dim": st.sampled_from([2, 4, 6]),
    "--context": st.sampled_from(["none", "bilstm", "attention", "gcn"]),
    "--positional": st.sampled_from(["none", "normalized", "sinusoidal"]),
}
ANY = {
    "--seed": st.integers(),
    "--lr": st.floats(),
    "--epochs": st.integers(max_value=2),
    "--lstm-hidden": st.integers(max_value=8),
    "--gcn-hidden": st.integers(max_value=8),
    "--attention-layers": st.integers(max_value=3),
    "--hash-dim": st.integers(max_value=32),
    "--lambda": st.floats(),
    "--gcn-sim-threshold": st.floats(),
    "--sin-dim": st.integers(max_value=10),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_numeric_train_flags(workspace, data):
    """A valid run with up to two numeric flags set to any value: exit 0
    with a checkpoint `predict` loads, 2 for a bad value, or 3 (the
    numeric-failure code) when a huge learning rate overflows; one stderr line
    at most, never a traceback."""
    options = data.draw(st.fixed_dictionaries({"--epochs": st.integers(1, 2)}, optional=VALID), label="valid")
    for flag in data.draw(st.lists(st.sampled_from(sorted(ANY)), max_size=2, unique=True), label="changed"):
        options[flag] = data.draw(ANY[flag], label=flag)
    model = workspace / "numeric.json"
    model.unlink(missing_ok=True)
    code, _, err, caught = quiet(train_argv(workspace, *(f"{flag}={value}" for flag, value in options.items()),
                                            output=model))
    assert caught == []
    if code == 0:
        assert err == []
        predict = ["predict", "--input", str(workspace / "val.jsonl"), "--model", str(model),
                   "--output", str(workspace / "numeric_preds.jsonl")]
        code, _, err, caught = quiet(predict)
        assert (code, err, caught) == (0, [], [])
    else:
        assert len(err) == 1
        assert (code, err[0].split(":")[0]) in ((2, "error"), (3, "numeric error"))
