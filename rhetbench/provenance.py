"""Machine and provenance record printed with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

import rhetseg.kernels


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((src / "rhetseg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas() -> dict:
    """OpenBLAS version from numpy's build record, and the thread count the
    loaded library reports."""
    info = {"build": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 6 and "openblas" in parts[5].lower():
                libs.add(parts[5])
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    return info


def record(args, src: Path) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(src.parent),
        "source_sha256": _source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_path": getattr(rhetseg.kernels, "ACTIVE_PATH", "numpy"),
    }
