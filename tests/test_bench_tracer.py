"""The traced benchmark run patches names of the package; they must stay bound."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package(tmp_path):
    # bench/tracer.py is imported read-only: no bytecode, run from tmp_path.
    paths = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
    }
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer(), [])"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
