#!/usr/bin/env python3
"""Digest the outputs of a fixed set of rhetseg runs, so that two source
trees can be shown to produce the same bytes.

--out DIR synthesizes fixed corpora into DIR/data/, with `stats` of each,
a `split`, an `ingest` of fixed text files and an `export-instructions`.
Then, for each of thirteen train configurations, it writes into
DIR/<configuration>/ the checkpoint, the digest of the model it loads to
(params.sha256), the report CSV, train's stdout, the `predict` output and
stdout in free-running and teacher-forced mode on a corpus of short documents
and on one of long documents, `evaluate`'s CSV report, confusion grid,
markdown report (without None) and stdout for each prediction, and
gradcheck's stdout: 461 files in all. params.sha256 reads the checkpoint
through the public loader only, so a change of checkpoint format that keeps
the model changes model.json and leaves params.sha256 as it is. It prints one
SHA-256 per file, as `sha256sum` does. Every command runs in-process through rhetseg.cli.main
from the src/ tree next to this script, so copy the script into another
checkout to digest that one.

--compare DIR_A DIR_B lists every file that differs between two output
trees, or is in only one, and exits 1 if there is any.

    python3 benchmarks/golden.py --out /tmp/golden-a
    python3 benchmarks/golden.py --compare /tmp/golden-a /tmp/golden-b

The digests depend on the numpy and BLAS build, so compare trees made on one
machine. They also depend on the BLAS thread count (OpenBLAS splits its
larger products over threads), so the script sets OPENBLAS_NUM_THREADS=1
before numpy loads, whatever the caller set.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rhetseg import cli, train  # noqa: E402

# Corpus name -> synth flags. "predict" mixes lengths 1 to 30 over more
# documents than three prediction chunks hold; "long" is one chunk of long
# documents of unequal length, so free-running decoding steps through padding;
# "short" holds documents of 1 and 2 sentences, the shortest runs of the
# training recurrences.
CORPORA = {
    "train": ("--n-docs", "24", "--seed", "0"),
    "val": ("--n-docs", "8", "--seed", "1"),
    "predict": ("--n-docs", "40", "--min-sentences", "1", "--max-sentences", "30", "--seed", "2"),
    "long": ("--n-docs", "4", "--min-sentences", "90", "--max-sentences", "130", "--seed", "3"),
    "short": ("--n-docs", "12", "--min-sentences", "1", "--max-sentences", "2", "--seed", "4"),
}
PREDICT_CORPORA = ("predict", "long")

# Text file name -> contents for `ingest`: abbreviations, initials, paragraph
# breaks, lowercase continuations, digits and non-ASCII text.
INGEST_TEXTS = {
    "appeal.txt": "The appellant, Mr. A. K. Sharma, filed Art. 226 proceedings vs. the State. "
                  "Dr. Rao and Ors. opposed it!\n\nIs the order valid? 3 issues arise. "
                  "the Hon. Court heard No. 4 of Sec. 9.\n  \n\nAnr. was absent.",
    "order.txt": "Heard counsel for the petitioner.\nThe writ petition is dismissed. Costs of "
                 "Rs. 5,000 shall be paid by J. Doe within 30 days.\n\nOrdered accordingly. "
                 "Café naïve «§» judgment — 日本 ends here.",
}
TRAIN_FLAGS = ("--epochs", "3")

# Configuration name -> train flags. Each trains on the "train" corpus unless
# TRAIN_CORPUS names another.
CONFIGURATIONS = {
    "default": (),
    "predicted": ("--label-mode", "predicted"),
    "gold-softmax": ("--label-mode", "gold", "--head", "softmax"),
    "gold-attention": ("--label-mode", "gold", "--context", "attention"),
    "gold-gcn": ("--label-mode", "gold", "--context", "gcn"),
    "none-window-predicted": ("--context", "none", "--window", "i-1:i:i+1", "--label-mode", "predicted"),
    "sgd": ("--optimizer", "sgd"),
    "no-mtl-sinusoidal": ("--no-mtl", "--positional", "sinusoidal"),
    "attention2-predicted": ("--context", "attention", "--attention-layers", "2", "--label-mode", "predicted"),
    "gcn-sim-sgd-predicted": ("--context", "gcn", "--gcn-sim-threshold", "0.3", "--optimizer", "sgd",
                              "--label-mode", "predicted"),
    "softmax-weighted-lambda0": ("--label-mode", "gold", "--head", "softmax", "--class-weights", "auto",
                                 "--lambda", "0"),
    "gold-window-sinusoidal": ("--label-mode", "gold", "--window", "i-2:i-1:i", "--positional", "sinusoidal"),
    "short-docs": (),
}
TRAIN_CORPUS = {"short-docs": "short"}


def run(out_file: Path, *argv) -> None:
    """Run one command; write its exit code and stdout to out_file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([str(a) for a in argv])
    out_file.write_text(f"exit,{code}\n{stdout.getvalue()}", encoding="utf-8")


def params_digest(model: Path) -> str:
    """The SHA-256 of the loaded parameter vector as little-endian float64
    bytes, then the sorted-key JSON of the model's config echo, encoder spec
    and layout (names and shapes). A bundle without a `cfg`, as checkpoint
    format 3 loaded, holds the echo as `config_echo`."""
    bundle = train.load_checkpoint(model)
    fields = {
        "config": bundle.cfg.to_echo() if hasattr(bundle, "cfg") else bundle.config_echo,
        "encoder": bundle.encoder_spec,
        "layout": [[name, list(spec.shape)] for name, spec in bundle.layout.items()],
    }
    digest = hashlib.sha256(bundle.flat.astype("<f8").tobytes()).hexdigest()
    return f"{digest}\n{json.dumps(fields, sort_keys=True)}\n"


def write_outputs(root: Path) -> None:
    """Write every output under root, with paths relative to it, so that
    stdout names the same paths in any output tree."""
    root.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        data = Path("data")
        data.mkdir()
        for name, flags in CORPORA.items():
            run(data / f"{name}.out", "synth", "--output", data / f"{name}.jsonl", *flags)
        raw = data / "raw"
        raw.mkdir()
        for name, text in INGEST_TEXTS.items():
            (raw / name).write_text(text, encoding="utf-8")
        run(data / "ingest.out", "ingest", "--input", raw, "--output", data / "ingest.jsonl")
        for name in (*CORPORA, "ingest"):
            run(data / f"{name}-stats.out", "stats", "--input", data / f"{name}.jsonl",
                "--output", data / f"{name}-stats.json")
        run(data / "split.out", "split", "--input", data / "predict.jsonl", "--output-dir", data / "split",
            "--seed", "7")
        run(data / "instructions.out", "export-instructions", "--input", data / "train.jsonl",
            "--output", data / "instructions.jsonl")
        for name, flags in CONFIGURATIONS.items():
            out = Path(name)
            out.mkdir()
            model = out / "model.json"
            run(out / "train.out", "train", "--input", data / f"{TRAIN_CORPUS.get(name, 'train')}.jsonl",
                "--val", data / "val.jsonl",
                "--output", model, "--report", out / "report.csv", *TRAIN_FLAGS, *flags)
            (out / "params.sha256").write_text(params_digest(model), encoding="utf-8")
            for corpus in PREDICT_CORPORA:
                for mode in ("free_running", "teacher_forced"):
                    pred = out / f"{corpus}-{mode}"
                    run(pred.with_suffix(".out"), "predict", "--input", data / f"{corpus}.jsonl",
                        "--model", model, "--output", pred.with_suffix(".jsonl"), "--mode", mode)
                    run(out / f"{pred.name}-evaluate.out", "evaluate", "--input", data / f"{corpus}.jsonl",
                        "--pred", pred.with_suffix(".jsonl"), "--output", out / f"{pred.name}-report.csv",
                        "--confusion", out / f"{pred.name}-confusion.csv")
                    run(out / f"{pred.name}-evaluate-markdown.out", "evaluate", "--input", data / f"{corpus}.jsonl",
                        "--pred", pred.with_suffix(".jsonl"), "--output", out / f"{pred.name}-report.md",
                        "--format", "markdown", "--exclude-none")
            run(out / "gradcheck.out", "gradcheck", "--model", model, "--input", data / "val.jsonl")
    finally:
        os.chdir(cwd)


def digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="new directory for the outputs")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.out:
        if args.out.exists():
            parser.error(f"{args.out} exists")
        write_outputs(args.out)
        for name, digest in digests(args.out).items():
            print(f"{digest}  {name}")
        return 0
    a, b = (digests(d) for d in args.compare)
    differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    for name in differ:
        print(f"differs: {name}" if name in a and name in b else f"only in {'A' if name in a else 'B'}: {name}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
