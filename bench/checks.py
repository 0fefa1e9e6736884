"""Output checks and artifact digests (stdlib only).

Each check returns a list of problems; an empty list means the artifact
passed. The checks use only the generated inputs, never the program's
own code, so a change to the program cannot change what they accept.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the program wrote, keyed by relative path."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        return {}
    return {
        p.relative_to(out_dir).as_posix(): sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def read_corpus_index(path: Path) -> dict[str, tuple[str, int]]:
    """id -> (domain, whitespace token count) of an input corpus."""
    index = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            index[obj["id"]] = (obj["domain"], len(obj["text"].split()))
    return index


def check_annotated(path: Path, doc_ids: set[str], score_names: int) -> list[str]:
    """Every input doc is present once, with the same score names, all finite."""
    problems = []
    seen: set[str] = set()
    names: set[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            obj = json.loads(line)
            scores = obj.get("scores") or {}
            if names is None:
                names = set(scores)
            if set(scores) != names:
                problems.append(f"{path.name}:{line_no}: score names differ from line 1")
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in scores.values()):
                problems.append(f"{path.name}:{line_no}: non-finite score")
            if obj["id"] in seen:
                problems.append(f"{path.name}:{line_no}: duplicate id {obj['id']}")
            seen.add(obj["id"])
    if seen != doc_ids:
        problems.append(f"{path.name}: {len(doc_ids - seen)} docs missing, {len(seen - doc_ids)} unknown")
    if names is not None and len(names) != score_names:
        problems.append(f"{path.name}: {len(names)} score names, expected {score_names}")
    return problems[:20]


def check_spearman(path: Path, score_names: int) -> list[str]:
    """Square matrix over the score names with a unit diagonal."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0][1:], rows[1:]
    if len(header) != score_names or len(body) != score_names:
        return [f"{path.name}: {len(body)}x{len(header)}, expected {score_names} square"]
    problems = []
    for i, row in enumerate(body):
        if row[0] != header[i] or len(row) != score_names + 1:
            problems.append(f"{path.name}: row {i} is not aligned with the header")
        elif float(row[i + 1]) != 1.0:
            problems.append(f"{path.name}: diagonal {i} is {row[i + 1]}")
    return problems


def check_selection(
    path: Path,
    corpus: dict[str, tuple[str, int]],
    budget: int,
    mix: dict[str, float],
    reported_shortfalls: set[str] | None = None,
) -> list[str]:
    """Selected ids are distinct corpus ids. Each domain reaches its quota
    with at most one document of overshoot; a domain short of its quota
    must have every one of its documents selected, and, where the program
    wrote a report, be listed in it as a shortfall."""
    ids = [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if len(set(ids)) != len(ids):
        return [f"{path.name}: duplicate ids"]
    unknown = [i for i in ids if i not in corpus]
    if unknown:
        return [f"{path.name}: {len(unknown)} ids not in the corpus"]
    tokens = {d: 0 for d in mix}
    last = {}
    count = {d: 0 for d in mix}
    for doc_id in ids:
        domain, n = corpus[doc_id]
        if domain not in mix:
            return [f"{path.name}: {doc_id} is outside the plan's domains"]
        tokens[domain] += n
        count[domain] += 1
        last[domain] = n
    problems = []
    for domain, share in mix.items():
        quota = budget * share
        if tokens[domain] >= quota:
            if tokens[domain] - last.get(domain, 0) >= quota:
                problems.append(f"{path.name}: {domain} overshoots by more than one document")
        elif count[domain] < sum(1 for dom, _ in corpus.values() if dom == domain):
            problems.append(f"{path.name}: {domain} is short of its quota with documents left")
        elif reported_shortfalls is not None and domain not in reported_shortfalls:
            problems.append(f"{path.name}: {domain} shortfall not reported")
    return problems


def check_campaign(path: Path, n: int) -> list[str]:
    """n records, exp-0000 .. exp-(n-1), all ok with a finite loss."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    problems = []
    if [r["experiment_id"] for r in records] != [f"exp-{i:04d}" for i in range(n)]:
        problems.append(f"{path.name}: {len(records)} records, expected exp-0000..{n - 1:04d}")
    bad = [r["experiment_id"] for r in records
           if r["status"] != "ok" or not isinstance(r["loss"], float) or not math.isfinite(r["loss"])]
    if bad:
        problems.append(f"{path.name}: {len(bad)} records not ok, first {bad[0]}")
    return problems


def read_weights(path: Path) -> dict[str, float]:
    return {row["name"]: row["weight"] for row in json.loads(path.read_text(encoding="utf-8"))["weights"]}


def check_weights(path: Path, names: set[str]) -> list[str]:
    """One non-negative weight per score name, summing to 1."""
    weights = read_weights(path)
    problems = []
    if set(weights) != names:
        problems.append(f"{path.name}: names {sorted(weights)} differ from the campaign's")
    if any(not (w >= 0.0) for w in weights.values()):
        problems.append(f"{path.name}: negative or NaN weight")
    if abs(math.fsum(weights.values()) - 1.0) > 1e-9:
        problems.append(f"{path.name}: weights sum to {math.fsum(weights.values())!r}")
    return problems


def check_landscape(path: Path, grid: int) -> list[str]:
    """Header plus grid x grid finite rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["pc1", "pc2", "predicted_loss"] or len(rows) - 1 != grid * grid:
        return [f"{path.name}: {len(rows) - 1} rows, expected {grid * grid}"]
    if not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
        return [f"{path.name}: non-finite value"]
    return []
