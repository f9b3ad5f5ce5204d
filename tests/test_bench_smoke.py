"""The benchmark's own smoke test, run as part of the suite.

``bench/test_smoke.py`` runs every benchmark workload at tiny sizes through
the CLI path and checks each output with the benchmark's oracles, among them
the dense heat stencil and CPG against DWD at 1e-12.
"""

from __future__ import annotations

import subprocess
import sys


def test_benchmark_smoke(repo_root):
    proc = subprocess.run(
        [sys.executable, "bench/test_smoke.py"],
        cwd=repo_root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok test_" in proc.stdout, proc.stdout
