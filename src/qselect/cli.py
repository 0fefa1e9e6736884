"""Command-line surface: annotate, select, campaign, fit, correlate, cost, synth.

Every command is driven by one JSON config file plus a few overriding
flags, exits 0 on success, 1 on validation errors, and 2 on runtime
failures, and writes a machine-readable error object to stderr when it
fails. All randomness derives from the config's root seed, which is
recorded in the outputs, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .corpus import load_corpus, synthesize_corpus, write_corpus
from .errors import ValidationError
from .importance import fit_bag_model, hash_corpus, importance_scores
from .importance import importance_score  # noqa: F401  (kept bound for bench/tracer.py)
from .matrix import (
    RatingAnnotation,
    ScoreMatrix,
    correlation_csv,
    impute_missing,
    ingest_ratings,
    rank_normalize,
    spearman_matrix,
)
from .optimizer import fit_regressor, pca_landscape, read_weights, search_optimal, write_weights
from .proxy import (
    flops_infer_structural,
    flops_train,
    flops_train_structural,
    run_campaign,
)
from .registry import SIGNAL_NAMES, canonical_order
from .selection import SelectionPlan, select_top_k

logger = logging.getLogger(__name__)

EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _annotated_names(cfg: RunConfig) -> list[str]:
    names: list[str] = []
    if cfg.scores.signals:
        names.extend(SIGNAL_NAMES)
    if cfg.scores.importance is not None:
        names.extend(f"{target}_importance" for target in cfg.scores.importance.targets)
    return names


def _read_annotations(paths: list[Path]):
    for path in paths:
        if not path.exists():
            raise ValidationError(f"ratings file {path} does not exist")
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    value = float(obj["value"])
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite value {value!r}")
                    yield RatingAnnotation(obj["doc_id"], obj["rater"], value)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ValidationError(f"{path}:{line_no}: bad annotation: {exc}")


def _load_logged(path: Path, cfg: RunConfig):
    """Load a corpus, logging each rejected line with its path and number."""
    docs, report = load_corpus(path, cfg.corpus)
    for err in report.errors:
        logger.warning("%s:%d rejected: %s", path, err.line_no, err.reason)
    if report.errors:
        logger.warning("corpus read %s: %s", path, report.summary())
    return docs


def cmd_annotate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Compute signals and importance scores, merge ratings, write the
    annotated corpus."""
    from .signals import compute_signals

    imp = cfg.scores.importance
    if imp is not None:
        for target_path in imp.targets.values():
            if not target_path.exists():
                raise ValidationError(f"importance target corpus {target_path} missing")

    corpus_path = Path(args.corpus) if args.corpus else cfg.require_corpus()
    docs = _load_logged(corpus_path, cfg)

    rating_names: list[str] = []
    annotations = []
    if cfg.scores.ratings is not None:
        annotations = list(_read_annotations(cfg.scores.ratings.files))
        rating_names = sorted({a.rater for a in annotations})

    names = canonical_order(_annotated_names(cfg) + rating_names)
    matrix = ScoreMatrix.from_documents(docs, names) if names else None

    if cfg.scores.signals:
        signal_cols = [names.index(name) for name in SIGNAL_NAMES]
        for i, doc in enumerate(docs):
            signals = compute_signals(doc.text)
            matrix.raw[i, signal_cols] = [signals[name] for name in SIGNAL_NAMES]

    if imp is not None:
        # The source corpus is hashed once; every target scores it with one gather.
        source = hash_corpus(docs, imp.bucket_count, cfg.seed)
        source_model = fit_bag_model(source, imp.bucket_count, cfg.seed, imp.smoothing)
        for target, target_path in imp.targets.items():
            target_model = fit_bag_model(
                _load_logged(target_path, cfg), imp.bucket_count, cfg.seed, imp.smoothing
            )
            matrix.raw[:, names.index(f"{target}_importance")] = importance_scores(
                source, target_model, source_model
            )

    if matrix is not None and annotations:
        ingest = ingest_ratings(matrix, annotations)
        coverage = ingest.coverage(matrix.n_docs)
        for rater, cov in sorted(coverage.items()):
            logger.info("rating coverage %s: %.3f", rater, cov)
        if ingest.unknown_doc_ids:
            logger.warning("%d annotations referenced unknown doc ids", len(ingest.unknown_doc_ids))
        min_cov = cfg.scores.ratings.min_coverage
        low = {r: c for r, c in coverage.items() if c < min_cov}
        if low:
            raise ValidationError(f"rating coverage below {min_cov}: {low}")
        imputed = impute_missing(matrix)
        if imputed:
            logger.warning("imputed %d missing rating cells to column medians", len(imputed))

    out_path = cfg.output_dir / "annotated.jsonl"
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if matrix is not None:
        docs = [
            doc.with_scores({**(doc.scores or {}), **dict(zip(names, row))})
            for doc, row in zip(docs, matrix.raw.tolist())
        ]
    write_corpus(docs, out_path)
    print(json.dumps({"annotated": len(docs), "scores": names, "output": str(out_path)}))
    return 0


def _load_scored_matrix(cfg: RunConfig, corpus_path: Path) -> ScoreMatrix:
    docs, report = load_corpus(corpus_path, cfg.corpus)
    if report.errors:
        logger.warning("corpus read: %s", report.summary())
    if not docs:
        raise ValidationError(f"corpus {corpus_path} has no valid documents")
    names = canonical_order({name for doc in docs if doc.scores for name in doc.scores})
    if not names:
        raise ValidationError("corpus documents carry no scores; run annotate first")
    matrix = ScoreMatrix.from_documents(docs, names)
    impute_missing(matrix)
    return rank_normalize(matrix, cfg.optimizer.normalization)


def cmd_select(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Select a token-budgeted, domain-proportional subset under weights."""
    corpus_path = Path(args.corpus) if args.corpus else cfg.require_corpus()
    plan = cfg.require_plan()
    if args.cc_only:
        plan = SelectionPlan.cc_only(plan.token_budget)
    matrix = _load_scored_matrix(cfg, corpus_path)
    weights = read_weights(args.weights, normalize=True)
    result = select_top_k(matrix, weights, plan)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    manifest = cfg.output_dir / "selection.txt"
    report_path = cfg.output_dir / "selection.json"
    result.write_manifest(manifest)
    result.write_report(report_path, seed=cfg.seed)
    print(json.dumps({"selected": len(result.selected_ids), "manifest": str(manifest)}))
    return 0


def cmd_campaign(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Run the proxy-experiment loop and append to the campaign log."""
    corpus_path = Path(args.corpus) if args.corpus else cfg.require_corpus()
    plan = cfg.require_plan()
    matrix = _load_scored_matrix(cfg, corpus_path)
    trainer = cfg.require_trainer()
    records = run_campaign(
        matrix,
        plan,
        trainer,
        n=cfg.campaign.n,
        seed=cfg.seed,
        out_dir=cfg.output_dir,
        proxy_config=cfg.campaign.proxy,
        valset=cfg.campaign.valset,
        threads=args.threads or cfg.campaign.threads,
    )
    ok = sum(1 for r in records if r.status == "ok")
    print(json.dumps({"experiments": len(records), "ok": ok, "log": str(cfg.output_dir / "campaign.jsonl")}))
    return 0


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Fit the loss regression on a campaign log and emit optimal weights."""
    from .proxy import read_campaign_log

    log_path = Path(args.log) if args.log else cfg.output_dir / "campaign.jsonl"
    if not log_path.exists():
        raise ValidationError(f"campaign log {log_path} does not exist")
    records = read_campaign_log(log_path)
    model = fit_regressor(records, cfg.optimizer.hyper)
    outcome = search_optimal(
        model,
        n_candidates=cfg.optimizer.candidates,
        top_k=cfg.optimizer.top_k,
        seed=cfg.seed,
        concentration=cfg.optimizer.concentration,
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    weights_path = cfg.output_dir / "weights.json"
    landscape_path = cfg.output_dir / "landscape.csv"
    write_weights(weights_path, outcome.w_star, seed=cfg.seed)
    landscape = pca_landscape(records, model, grid=cfg.optimizer.grid)
    landscape.write_csv(landscape_path)
    print(
        json.dumps(
            {
                "records": len(records),
                "in_sample_rmse": model.in_sample_rmse,
                "predicted_loss": outcome.predicted_loss_at_star,
                "weights": str(weights_path),
                "landscape": str(landscape_path),
            }
        )
    )
    return 0


def cmd_correlate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Export the Spearman correlation matrix of all scores as CSV."""
    corpus_path = Path(args.corpus) if args.corpus else cfg.require_corpus()
    matrix = _load_scored_matrix(cfg, corpus_path)
    rho, flagged = spearman_matrix(matrix)
    if flagged.any():
        logger.warning("%d correlation cells undefined (constant columns)", int(flagged.sum()))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = Path(args.output) if args.output else cfg.output_dir / "spearman.csv"
    out_path.write_text(correlation_csv(matrix.score_names, rho), encoding="utf-8")
    print(json.dumps({"scores": len(matrix.score_names), "output": str(out_path)}))
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    """FLOPs calculator for training and inference."""
    if args.params is not None:
        if args.tokens is None:
            raise ValidationError("--params requires --tokens")
        flops = flops_train(args.params, args.tokens)
    elif args.layers is not None:
        required = {"hidden": args.hidden, "seq_len": args.seq_len, "samples": args.samples}
        missing = [k for k, v in required.items() if v is None]
        if missing:
            raise ValidationError(f"structural mode needs --{', --'.join(missing)}")
        if args.mode == "train":
            flops = flops_train_structural(
                args.layers, args.hidden, args.seq_len, args.samples, args.epochs
            )
        else:
            flops = flops_infer_structural(args.layers, args.hidden, args.seq_len, args.samples)
    else:
        raise ValidationError("use --params/--tokens or --layers/--hidden/--seq-len/--samples")
    print(json.dumps({"flops": flops, "flops_1e19": flops / 1e19}))
    return 0


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Generate a deterministic synthetic corpus from the config recipe."""
    if cfg.synthesis is None:
        raise ValidationError("config has no synthesis section")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = Path(args.output) if args.output else cfg.output_dir / "synth.jsonl"
    counts = synthesize_corpus(cfg.synthesis, cfg.seed, out_path)
    print(json.dumps({"documents": sum(counts.values()), "per_domain": counts, "output": str(out_path)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qselect",
        description="Corpus quality scoring, learned score weighting, and budgeted selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--config", required=True, help="path to the JSON run config")
        return p

    p = with_config(sub.add_parser("annotate", help="compute and merge quality scores"))
    p.add_argument("--corpus", help="override config corpus path")

    p = with_config(sub.add_parser("select", help="budgeted top-k selection"))
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.add_argument("--corpus", help="override config corpus path")
    p.add_argument("--cc-only", action="store_true", help="restrict the plan to CommonCrawl")

    p = with_config(sub.add_parser("campaign", help="run proxy experiments"))
    p.add_argument("--corpus", help="override config corpus path")
    p.add_argument("--threads", type=int, default=0, help="worker threads (default: config)")

    p = with_config(sub.add_parser("fit", help="fit regression and emit optimal weights"))
    p.add_argument("--log", help="campaign log path (default: <output_dir>/campaign.jsonl)")

    p = with_config(sub.add_parser("correlate", help="Spearman correlation CSV"))
    p.add_argument("--corpus", help="override config corpus path")
    p.add_argument("--output", help="output CSV path")

    p = sub.add_parser("cost", help="FLOPs calculator")
    p.add_argument("--params", type=float, help="nominal parameter count")
    p.add_argument("--tokens", type=float, help="training tokens")
    p.add_argument("--layers", type=float)
    p.add_argument("--hidden", type=float)
    p.add_argument("--seq-len", type=float)
    p.add_argument("--samples", type=float)
    p.add_argument("--epochs", type=float, default=1.0)
    p.add_argument("--mode", choices=("train", "infer"), default="train")

    p = with_config(sub.add_parser("synth", help="generate a synthetic test corpus"))
    p.add_argument("--output", help="output corpus path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "cost":
            return cmd_cost(args)
        cfg = load_config(args.config)
        handler = {
            "annotate": cmd_annotate,
            "select": cmd_select,
            "campaign": cmd_campaign,
            "fit": cmd_fit,
            "correlate": cmd_correlate,
            "synth": cmd_synth,
        }[args.command]
        return handler(cfg, args)
    except Exception as exc:
        logger.debug("%s failed", args.command, exc_info=True)
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
