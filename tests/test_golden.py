"""Golden digests: a small seeded pipeline writes the same bytes as recorded.

The pipeline runs in-process: ``synth``, then ``annotate`` with signals, two
importance targets and two ratings files, then ``select``, a 16-experiment
oracle ``campaign``, ``fit`` and ``correlate``. Every artifact that criterion
9 names, and every campaign manifest, is hashed with sha256 and compared
with ``golden_digests.json``, which also records the Python and numpy
versions that wrote it. A change that is meant to keep the bytes must pass
unchanged; one that changes them on purpose is a behaviour change, and
regenerates the file with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from qselect.cli import main as cli_main
from qselect.registry import SIGNAL_NAMES

GOLDEN = Path(__file__).with_name("golden_digests.json")

ARTIFACTS = (
    "synth.jsonl",
    "synth.scores.npz",
    "annotated.jsonl",
    "annotated.scores.npz",
    "selection.txt",
    "selection.json",
    "campaign.jsonl",
    "weights.json",
    "landscape.csv",
    "spearman.csv",
)
EXPERIMENTS = 16
DOCS = 240
NAMES = ("ch0", "ch1", *SIGNAL_NAMES, "books_importance", "wikipedia_importance", "Fluency", "Professionalism")

BOOKS = (
    "It was a dark and stormy night; the rain fell in torrents.",
    "Call me Ishmael. Some years ago, never mind how long precisely, I went to sea.",
    "The old man was thin and gaunt with deep wrinkles in the back of his neck.",
)
WIKIPEDIA = (
    "The city is the capital of the province and lies on the river delta.",
    "In 1998 the company was founded by two engineers; it employs 3,400 people.",
    "The species is found in temperate forests of the northern hemisphere.",
)


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")


def _inputs(root: Path) -> Path:
    """Write the config, weights, importance targets and ratings files into
    ``root``; return the config's path."""
    for name, domain, texts in (("books", "Books", BOOKS), ("wikipedia", "Wikipedia", WIKIPEDIA)):
        _write_jsonl(root / f"{name}.jsonl",
                     ({"id": f"{name}-{i}", "text": text, "domain": domain} for i, text in enumerate(texts)))
    # Fluency skips every seventh document, so its gaps are imputed.
    _write_jsonl(root / "fluency.jsonl", (
        {"doc_id": f"doc-{i:06d}", "rater": "Fluency", "value": (i * 37 % 100) / 20}
        for i in range(DOCS) if i % 7
    ))
    _write_jsonl(root / "prrc.jsonl", (
        {"doc_id": f"doc-{i:06d}", "rater": "Professionalism", "value": i % 6} for i in range(DOCS)
    ))
    w_star = {name: 1 + (3 * i) % len(NAMES) for i, name in enumerate(NAMES)}
    config = {
        "seed": 5,
        "output_dir": "out",
        "corpus": {"path": "out/synth.jsonl"},
        "synthesis": {
            "doc_count": DOCS,
            "channels": {"ch0": {"loading": 1.0, "noise": 0.4}, "ch1": {"loading": 0.3, "noise": 1.0}},
            "token_mean": 30.0,
        },
        "scores": {
            "signals": True,
            "importance": {"targets": {"books": "books.jsonl", "wikipedia": "wikipedia.jsonl"},
                           "bucket_count": 4096},
            "ratings": {"files": ["fluency.jsonl", "prrc.jsonl"], "min_coverage": 0.5},
        },
        "plan": {"token_budget": 2000},
        "campaign": {"n": EXPERIMENTS,
                     "trainer": {"type": "oracle", "w_star": w_star, "base": 2.0, "sigma": 0.01}},
        "optimizer": {"trees": 30, "candidates": 4000, "top_k": 20, "grid": 6},
    }
    (root / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    weights = [{"name": name, "weight": 1 + i % 4} for i, name in enumerate(NAMES)]
    (root / "weights.json").write_text(json.dumps(weights), encoding="utf-8")
    return root / "cfg.json"


def pipeline_digests(root: Path) -> dict[str, str]:
    """Run the pipeline in ``root``; the sha256 of each artifact and manifest."""
    config = str(_inputs(root))
    annotated = ["--corpus", str(root / "out" / "annotated.jsonl")]
    for argv in (
        ["synth", "--config", config],
        ["annotate", "--config", config, "--corpus", str(root / "out" / "synth.jsonl")],
        ["select", "--config", config, "--weights", str(root / "weights.json"), *annotated],
        ["campaign", "--config", config, *annotated],
        ["fit", "--config", config],
        ["correlate", "--config", config, *annotated],
    ):
        assert cli_main(argv) == 0, argv
    out = root / "out"
    names = [*ARTIFACTS, *(f"manifests/exp-{i:04d}.txt" for i in range(EXPERIMENTS))]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_seeded_pipeline_keeps_its_golden_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = pipeline_digests(tmp_path)
    changed = sorted(name for name in digests | golden["digests"] if digests.get(name) != golden["digests"].get(name))
    assert not changed, (
        f"artifacts {changed} differ from {GOLDEN.name}, written under {golden['versions']}; "
        f"this run has {versions()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": versions(), "digests": pipeline_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
