#!/usr/bin/env python3
"""Paired A/B timing of two rhetseg source trees.

    python3 benchmarks/ab.py --base DIR --change DIR --pairs 10 -- evaluate --input gold.jsonl --pred pred.jsonl
    python3 benchmarks/ab.py --base DIR --change DIR --pairs 5 --rhetbench train_short

Each run is a fresh process with PYTHONPATH=<tree>/src and
OPENBLAS_NUM_THREADS=1. In the first form it imports rhetseg.cli and times
only cli.main(argv), so start-up and compilation do not count. Each run works
in a new directory of its own: an argument naming an existing path is passed
as an absolute path, and a relative output path lands in the run's directory.
Existing paths are inputs: a run that changes one (or a file under one) stops
the tool with an error, so give outputs as paths that do not exist yet. The
stdout and output files of every run are compared with those of the first
base run, and every name that differs is listed. In the second form each run
is `rhetbench/run.py --workload WORKLOAD --seed S --seconds T --trace 0` of
its tree, with seed S = pair number + 1 on both sides of a pair, and the
end-to-end metrics are read from its last line. T, the metrics and which way
each is better come from BENCHMARK.json at the root of this repository.

Pair i runs base first when i is even and change first when i is odd. The
JSON printed holds every run and, per metric, each side's median and
quartiles, the pairs the change won (ties count for neither), and whether
the change meets the "Wins" rule: there are at least ten pairs, it wins at
least nine tenths of them, and its median is better than the base median by more than the distance
between the base quartiles. Quartiles are those of
statistics.quantiles(method="inclusive").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

RUNNER = r"""
import contextlib, io, json, sys, time
from rhetseg import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    started = time.perf_counter()
    code = cli.main(json.loads(sys.argv[1]))
    seconds = time.perf_counter() - started
print(json.dumps({"code": code, "seconds": seconds, "stdout": out.getvalue(), "module": cli.__file__}))
"""


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and win count of paired runs: base[i] and change[i]
    are pair i. better is "lower" or "higher"."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two equal-length lists of at least two runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    q = {side: statistics.quantiles(runs, n=4, method="inclusive") for side, runs in (("base", base),
                                                                                     ("change", change))}
    base_median, change_median = statistics.median(base), statistics.median(change)
    base_iqr = q["base"][2] - q["base"][0]
    gain = sign * (base_median - change_median)  # > 0: the change's median is better
    return {
        "better": better,
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": [q["base"][0], q["base"][2]],
        "change_quartiles": [q["change"][0], q["change"][2]],
        "base_iqr": base_iqr,
        "pairs": len(base),
        "wins": wins,
        "losses": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
        "median_gap_exceeds_base_iqr": abs(base_median - change_median) > base_iqr,
        "meets_wins_rule": len(base) >= 10 and wins >= math.ceil(0.9 * len(base)) and gain > base_iqr,
    }


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}


def _outputs(rundir: Path) -> dict[str, str]:
    return {p.relative_to(rundir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(rundir.rglob("*")) if p.is_file()}


def input_snapshot(argv: list[str]) -> dict[str, tuple[int, str]]:
    """(mtime in ns, SHA-256) of every file that an argument of argv names,
    directly or under a directory it names."""
    files = []
    for arg in argv:
        path = Path(arg)
        if path.is_dir():
            files += sorted(p for p in path.rglob("*") if p.is_file())
        elif path.is_file():
            files.append(path)
    return {str(p): (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest()) for p in files}


def check_inputs_unchanged(argv: list[str], before: dict[str, tuple[int, str]]) -> None:
    """Stop with an error naming every input file a run wrote, added or removed."""
    after = input_snapshot(argv)
    changed = sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))
    if changed:
        raise SystemExit(f"error: a run wrote to {', '.join(changed)}; an argument naming an existing path "
                         "must be an input, so give outputs as paths that do not exist yet")


def run_rhetseg(tree: Path, argv: list[str], rundir: Path) -> dict:
    """One timed cli.main(argv) in a fresh process of tree, working in rundir."""
    rundir.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(argv)], cwd=rundir, env=_env(tree),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: run in {tree} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not Path(result.pop("module")).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"error: rhetseg was not imported from {tree / 'src'}")
    outputs = _outputs(rundir)
    outputs["stdout"] = hashlib.sha256(result.pop("stdout").encode("utf-8")).hexdigest()
    return {**result, "outputs": outputs}


def run_rhetbench(tree: Path, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict:
    """One untraced rhetbench run of tree; the named metrics of its last line."""
    command = [sys.executable, str(tree / "rhetbench" / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, env=_env(tree), capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"error: rhetbench in {tree} printed nothing:\n{done.stderr}")
    last = json.loads(done.stdout.splitlines()[-1])
    values = {name: last["metrics"][name]["value"] for name in metrics}
    return {"code": done.returncode, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], **values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--rhetbench", metavar="WORKLOAD", help="pair rhetbench/run.py runs of this workload")
    parser.add_argument("command", nargs="*", help="rhetseg arguments, after --")
    args = parser.parse_args(argv)
    if args.pairs < 2 or bool(args.rhetbench) == bool(args.command):
        parser.error("give --pairs >= 2 and either --rhetbench WORKLOAD or a rhetseg command after --")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    command = [str(Path(a).resolve()) if Path(a).exists() else a for a in args.command]
    inputs = input_snapshot(command)
    metrics = {"seconds": "lower"}
    if args.rhetbench:
        benchmark = json.loads(BENCHMARK_JSON.read_text())
        metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                if args.rhetbench:
                    result = run_rhetbench(trees[side], args.rhetbench, pair + 1, benchmark["run_seconds"],
                                           list(metrics))
                else:
                    result = run_rhetseg(trees[side], command, Path(work) / f"{pair}-{side}")
                    check_inputs_unchanged(command, inputs)
                runs.append({"pair": pair, "side": side, **result})
                print(json.dumps(runs[-1]), file=sys.stderr)
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"]) for side in trees}
    report = {
        "base": str(trees["base"]),
        "change": str(trees["change"]),
        "command": f"rhetbench {args.rhetbench} --seconds {benchmark['run_seconds']}" if args.rhetbench else command,
        "runs": runs,
        "metrics": {name: summarize([r[name] for r in by_side["base"]], [r[name] for r in by_side["change"]],
                                    better) for name, better in metrics.items()},
        "failed_runs": [[r["pair"], r["side"]] for r in runs if r["code"] != 0 or r.get("failed")],
    }
    if not args.rhetbench:
        reference = by_side["base"][0]["outputs"]
        report["differ"] = sorted({name for r in runs for name in r["outputs"].keys() | reference.keys()
                                   if r["outputs"].get(name) != reference.get(name)})
        for r in runs:
            del r["outputs"]
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
