"""benchmarks/golden.py runs at one BLAS thread, whatever the caller set."""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden.py"

LOAD = """
import importlib.util, os, sys
assert "numpy" not in sys.modules
spec = importlib.util.spec_from_file_location("golden", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(os.environ["OPENBLAS_NUM_THREADS"], "numpy" in sys.modules)
"""


def test_golden_pins_one_blas_thread():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    done = subprocess.run([sys.executable, "-c", LOAD, str(GOLDEN)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 True\n"
