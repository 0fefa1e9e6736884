"""Benchmark input generator: stdlib + numpy only, never imports qselect.

Every input is a pure function of the workload name and the seed, so the
parent commit and a change measure byte-identical files even when the
change touches the package's own corpus synthesis. ``generate`` returns
a description of the inputs, including the sha256 of every file, which
the runner records with each result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from array import array
from pathlib import Path

import numpy as np

from checks import sha256_file

# The seven-way web-corpus split and its default selection mix.
DOMAIN_MIX = {
    "CommonCrawl": 0.5220,
    "C4": 0.2670,
    "GitHub": 0.0520,
    "Books": 0.0420,
    "ArXiv": 0.0460,
    "Wikipedia": 0.0380,
    "StackExchange": 0.0330,
}

# Raters ingested by annotate-text; Readability and Reasoning are range
# checked to [0, 5] by the program, so every rater stays on that scale.
RATERS = ("Educational Value", "Fineweb-edu", "Readability", "Reasoning")

CHANNELS = tuple(f"ch{j:02d}" for j in range(16))
LOADED_CHANNELS = 4  # the first channels respond to the hidden quality latent

VOCAB_SIZE = 6000

# Sizes fixed per workload. They are chosen so that one pass of each
# workload's command sequence fits several times into a run.
SIZES = {
    "annotate-text": {"docs": 2000, "words": 80, "target_docs": 400, "rating_coverage": 0.95},
    "campaign-select": {"docs": 12000, "words": 30, "experiments": 40, "budget_share": 0.25},
    "fit-sweep": {"records": 256, "scores": 16, "noise_sd": 0.002, "candidates": 100000,
                  "trees": 100, "grid": 41, "top_k": 100},
}

_SYLLABLES = (
    "ka to ri na mo se lu pa di ve xo ba ne fi go ha ju le mi no pe qu ra si "
    "ta ul vo we ya ze an er in or us th st ch"
).split()


def _vocabulary() -> list[str]:
    """A fixed vocabulary of distinct pseudo-words, independent of the seed."""
    rng = np.random.default_rng(20240417)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        n = int(rng.integers(1, 4))
        word = "".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), size=n))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


VOCAB = _vocabulary()


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def _domain_probs(rng: np.random.Generator, domains: list[str]) -> dict[str, np.ndarray]:
    """Per-domain word distributions: one Zipf law over a domain-specific
    shuffle of the less frequent words, so n-gram statistics differ by domain."""
    base = _zipf(VOCAB_SIZE, 1.07)
    probs = {}
    for domain in domains:
        perm = np.arange(VOCAB_SIZE)
        perm[60:] = 60 + rng.permutation(VOCAB_SIZE - 60)
        p = np.empty(VOCAB_SIZE)
        p[perm] = base
        probs[domain] = p
    return probs


def _texts(rng: np.random.Generator, probs: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Sentence-structured texts: capitalised sentence starts, terminal marks,
    occasional numbers and line breaks, so every text signal has variance."""
    word_ids = rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=probs)
    sentence_lens = rng.integers(5, 14, size=int(lengths.sum()) // 5 + len(lengths))
    marks = rng.choice(np.array([".", ".", ".", ".", "!", "?", ""]), size=sentence_lens.size)
    numbers = rng.integers(0, 10000, size=sentence_lens.size)
    with_number = rng.random(sentence_lens.size) < 0.1
    breaks = rng.random(sentence_lens.size) < 0.35
    shouts = rng.random(sentence_lens.size) < 0.03
    texts: list[str] = []
    pos = 0
    s = 0
    for n in lengths.tolist():
        words = [VOCAB[i] for i in word_ids[pos : pos + n].tolist()]
        pos += n
        parts: list[str] = []
        i = 0
        while i < n:
            chunk = words[i : i + int(sentence_lens[s])]
            i += len(chunk)
            chunk[0] = chunk[0].upper() if shouts[s] else chunk[0].capitalize()
            if with_number[s]:
                chunk.append(str(int(numbers[s])))
            parts.append(" ".join(chunk) + str(marks[s]))
            parts.append("\n" if breaks[s] and i < n else " ")
            s += 1
        texts.append("".join(parts).rstrip())
    return texts


def _lengths(rng: np.random.Generator, n: int, mean: float, sigma: float) -> np.ndarray:
    draws = rng.lognormal(math.log(mean), sigma, size=n)
    return np.maximum(1, np.rint(draws)).astype(np.int64)


def _domains(rng: np.random.Generator, n: int) -> list[str]:
    """Largest-remainder counts of the mix, shuffled so domains interleave."""
    names = list(DOMAIN_MIX)
    exact = np.array([DOMAIN_MIX[d] for d in names]) * n
    counts = np.floor(exact).astype(np.int64)
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[: n - int(counts.sum())]] += 1
    tags = np.repeat(np.arange(len(names)), counts)
    rng.shuffle(tags)
    return [names[i] for i in tags.tolist()]


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def _doc_id(i: int) -> str:
    return f"doc-{i:07d}"


def _gen_annotate_text(rng: np.random.Generator, out: Path, sizes: dict) -> tuple[dict, dict]:
    n = sizes["docs"]
    domains = _domains(rng, n)
    probs = _domain_probs(rng, list(DOMAIN_MIX))
    lengths = _lengths(rng, n, sizes["words"], 0.4)
    texts: list[str] = [""] * n
    for domain in DOMAIN_MIX:
        rows = [i for i, d in enumerate(domains) if d == domain]
        for i, text in zip(rows, _texts(rng, probs[domain], lengths[rows])):
            texts[i] = text
    _write_jsonl(
        out / "corpus.jsonl",
        ({"id": _doc_id(i), "text": texts[i], "domain": domains[i]} for i in range(n)),
    )
    # Importance targets: books-like (long documents) and wikipedia-like
    # (short documents), each drawn from its domain's word distribution.
    targets = {"books": ("Books", 3.0 * sizes["words"], 0.3),
               "wikipedia": ("Wikipedia", 0.6 * sizes["words"], 0.5)}
    for name, (domain, mean_len, sigma) in targets.items():
        t_lengths = _lengths(rng, sizes["target_docs"], mean_len, sigma)
        t_texts = _texts(rng, probs[domain], t_lengths)
        _write_jsonl(
            out / f"target_{name}.jsonl",
            ({"id": f"{name}-{i:06d}", "text": t, "domain": domain} for i, t in enumerate(t_texts)),
        )
    latent = rng.normal(size=n)
    rating_files = []
    for r, rater in enumerate(RATERS):
        covered = rng.random(n) < sizes["rating_coverage"]
        values = np.clip(2.5 + 0.8 * latent + 0.8 * rng.normal(size=n), 0.0, 5.0)
        path = out / f"ratings_{r}.jsonl"
        _write_jsonl(
            path,
            ({"doc_id": _doc_id(i), "rater": rater, "value": round(float(values[i]), 3)}
             for i in np.nonzero(covered)[0].tolist()),
        )
        rating_files.append(path.name)
    config = {
        "seed": int(rng.integers(0, 2**31)),
        "output_dir": "out",
        "corpus": {"path": "corpus.jsonl"},
        "scores": {
            "signals": True,
            "importance": {"targets": {name: f"target_{name}.jsonl" for name in targets}},
            "ratings": {"files": rating_files, "min_coverage": 0.9},
        },
    }
    return config, {"docs": n, "targets": {k: sizes["target_docs"] for k in targets},
                    "raters": len(RATERS), "score_names": 11 + len(targets) + len(RATERS)}


def _gen_campaign_select(rng: np.random.Generator, out: Path, sizes: dict) -> tuple[dict, dict]:
    n = sizes["docs"]
    domains = _domains(rng, n)
    lengths = _lengths(rng, n, sizes["words"], 0.4)
    texts = _texts(rng, _zipf(VOCAB_SIZE, 1.07), lengths)
    latent = rng.normal(size=n)
    loadings = np.zeros(len(CHANNELS))
    loadings[:LOADED_CHANNELS] = rng.uniform(0.4, 0.9, size=LOADED_CHANNELS)
    noise = rng.normal(size=(n, len(CHANNELS)))
    offsets = rng.uniform(-2.0, 2.0, size=len(CHANNELS))
    scales = rng.uniform(0.5, 3.0, size=len(CHANNELS))
    values = offsets + scales * (latent[:, None] * loadings + noise)
    _write_jsonl(
        out / "corpus.jsonl",
        ({"id": _doc_id(i), "text": texts[i], "domain": domains[i],
          "scores": dict(zip(CHANNELS, values[i].tolist()))} for i in range(n)),
    )
    # Compact quality table for the trainer: the latent of doc i at index i.
    with open(out / "quality.bin", "wb") as fh:
        array("d", latent.tolist()).tofile(fh)
    weights = rng.dirichlet(np.ones(len(CHANNELS)))
    (out / "weights.json").write_text(
        json.dumps({"weights": [{"name": c, "weight": float(w)} for c, w in zip(CHANNELS, weights)]}),
        encoding="utf-8",
    )
    budget = int(sizes["budget_share"] * int(lengths.sum()))
    config = {
        "seed": int(rng.integers(0, 2**31)),
        "output_dir": "out",
        "corpus": {"path": "corpus.jsonl"},
        "scores": {"signals": False},
        "plan": {"token_budget": budget, "domain_targets": DOMAIN_MIX},
        "campaign": {
            "n": sizes["experiments"],
            "threads": len(os.sched_getaffinity(0)),
            # The trainer runs in the working directory of the CLI: this one.
            "valset": "quality.bin",
        },
    }
    return config, {"docs": n, "channels": len(CHANNELS), "experiments": sizes["experiments"],
                    "token_budget": budget, "tokens_total": int(lengths.sum())}


def _gen_fit_sweep(rng: np.random.Generator, out: Path, sizes: dict) -> tuple[dict, dict]:
    m = sizes["scores"]
    w_star = rng.dirichlet(np.full(m, 2.0))
    W = rng.dirichlet(np.ones(m), size=sizes["records"])
    loss = 1.0 + ((W - w_star) ** 2).sum(axis=1) + rng.normal(0.0, sizes["noise_sd"], size=W.shape[0])
    names = CHANNELS[:m]
    _write_jsonl(
        out / "campaign.jsonl",
        ({"experiment_id": f"exp-{i:04d}", "weights": dict(zip(names, W[i].tolist())),
          "loss": float(loss[i]), "status": "ok", "manifest": "", "metadata": {}}
         for i in range(W.shape[0])),
    )
    (out / "w_star.json").write_text(json.dumps(dict(zip(names, w_star.tolist()))), encoding="utf-8")
    config = {
        "seed": int(rng.integers(0, 2**31)),
        "output_dir": "out",
        "optimizer": {"trees": sizes["trees"], "candidates": sizes["candidates"],
                      "top_k": sizes["top_k"], "grid": sizes["grid"]},
    }
    return config, {"records": sizes["records"], "scores": m, "candidates": sizes["candidates"],
                    "trees": sizes["trees"], "grid": sizes["grid"]}


_GENERATORS = {
    "annotate-text": _gen_annotate_text,
    "campaign-select": _gen_campaign_select,
    "fit-sweep": _gen_fit_sweep,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs for ``seed`` into ``out``; return sizes and digests.

    The campaign trainer is named in ``config.json`` by absolute path, which
    differs between checkouts, so that file is digested before the trainer
    is added.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    config, sizes = _GENERATORS[workload](rng, out, SIZES[workload])
    digests = {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.is_file()}
    text = json.dumps(config, indent=2)
    digests["config.json"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if "campaign" in config:
        trainer = Path(__file__).resolve().with_name("trainer.py")
        config["campaign"]["trainer"] = {"type": "command", "argv": [sys.executable, "-S", str(trainer)]}
        text = json.dumps(config, indent=2)
    (out / "config.json").write_text(text, encoding="utf-8")
    return {"sizes": sizes, "sha256": digests}
