#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for rhetseg.

    python3 rhetbench/run.py --workload predict_bulk --seed 1 --seconds 10 --trace 0

Runs one seeded workload through the rhetseg command-line entry point,
in-process, from the source tree next to this directory. Prints a table of
every metric with its unit, a provenance record, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the layers are wrapped
and the metrics are per-layer self times and counts. Exits 1 when an output
check fails and 2 when the rhetseg source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".rhetbench_work"


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_rhetseg() -> str | None:
    """Import rhetseg from SRC only, never from an installed copy. Returns an
    error message when that is not possible."""
    if not (SRC / "rhetseg" / "cli.py").is_file():
        return f"error: no rhetseg source tree at {SRC}"
    # One BLAS thread: the matrices are small, and on a two-core machine a
    # second thread left free-running predict no faster while doubling its
    # CPU time, which other work on the machine then competes for.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import rhetseg

    if Path(rhetseg.__file__).resolve().parent != (SRC / "rhetseg").resolve():
        return f"error: rhetseg imported from {rhetseg.__file__}, not {SRC}"
    return None


def main(argv=None) -> int:
    args = _parse_args(argv)
    error = _import_rhetseg()
    if error:
        print(error, file=sys.stderr)
        return 2
    import provenance
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    table = result.metrics if args.trace else result.report
    for name in sorted(table):
        value, unit = table[name]
        print(f"{args.workload:<18} {name:<44} {value:>16.6g} {unit}")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    print("provenance " + json.dumps(provenance.record(args, SRC), sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
