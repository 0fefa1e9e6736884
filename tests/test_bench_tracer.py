"""The traced benchmark run patches names of the package; they must stay bound."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qselect.registry import SIGNAL_NAMES

ROOT = Path(__file__).resolve().parents[1]

# A stdlib-only proxy trainer whose loss depends on the ids it selected.
TRAINER = """\
import sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(args["--manifest"], encoding="utf-8") as fh:
    ids = [int(line[4:]) for line in fh if line.strip()]
print('{"loss": %r}' % (1.0 + sum(ids) / (1000.0 * max(1, len(ids)))))
"""


def run_bench(script, args, cwd):
    """Run a bench/ script with src and bench on the import path; bench/ is
    imported read-only: no bytecode, run from ``cwd``."""
    paths = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
    }
    return subprocess.run(
        [sys.executable, *script, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_the_package(tmp_path):
    proc = run_bench(["-c", "import tracer; tracer.install(tracer.Tracer(), [])"], [], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_traced_pipeline_runs(tmp_path):
    # Every command a workload runs, traced: a span's attrs read the
    # arguments and results of the names it wraps.
    (tmp_path / "trainer.py").write_text(TRAINER, encoding="utf-8")
    target = {"id": "t0", "text": "the books of the world", "domain": "Books"}
    (tmp_path / "books.jsonl").write_text(json.dumps(target) + "\n", encoding="utf-8")
    config = {
        "seed": 3,
        "output_dir": "out",
        "corpus": {"path": "out/synth.jsonl"},
        "synthesis": {"doc_count": 80, "token_mean": 20.0,
                      "channels": {"ch0": {"loading": 1.0, "noise": 0.3}}},
        "scores": {"signals": True, "importance": {"targets": {"books": "books.jsonl"}}},
        "plan": {"token_budget": 300},
        "campaign": {"n": 16, "trainer": {"type": "command", "argv": [sys.executable, "trainer.py"]}},
        "optimizer": {"trees": 20, "candidates": 500, "top_k": 10, "grid": 4},
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    names = ["ch0", "books_importance", *SIGNAL_NAMES]
    weights = [{"name": name, "weight": 1} for name in names]
    (tmp_path / "weights.json").write_text(json.dumps(weights), encoding="utf-8")
    annotated = ["--corpus", "out/annotated.jsonl"]
    commands = [
        ["synth", "--config", "config.json"],
        ["annotate", "--config", "config.json"],
        ["select", "--config", "config.json", "--weights", "weights.json", *annotated],
        ["campaign", "--config", "config.json", *annotated],
        ["correlate", "--config", "config.json", *annotated],
        ["fit", "--config", "config.json"],
    ]
    plan = {"run": "smoke", "out_dir": "out", "commands": commands}
    (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    proc = run_bench([str(ROOT / "bench" / "tracer.py")], ["plan.json", "trace.json", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert result["codes"] == [0] * len(commands), (tmp_path / "trace.log").read_text()
    spans = {span["name"] for span in result["spans"]}
    assert {"corpus.load", "corpus.write", "matrix.build"} <= spans
    assert not any(span["failed"] for span in result["spans"])
