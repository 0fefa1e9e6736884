"""Command-line surface: annotate, select, campaign, fit, correlate, cost, synth.

Every command is driven by one JSON config file plus a few overriding
flags, exits 0 on success, 1 on validation errors, and 2 on runtime
failures, and writes a machine-readable error object to stderr when it
fails. All randomness derives from the config's root seed, which is
recorded in the outputs, so reruns are byte-identical.

Each command names its artifacts to ``errors.require_outputs`` before any
work and hands their writers to ``errors.publish`` after it, so a refused
or failed command leaves the output tree as it was.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .corpus import check_encodable, load_corpus, numbered_lines, synthesize_corpus, write_corpus
from .errors import ValidationError, is_finite_number, publish, require_file, require_outputs
from .importance import fit_bag_model, hash_corpus, importance_scores
from .importance import importance_score  # noqa: F401  (kept bound for bench/tracer.py)
from .matrix import (
    ScoreMatrix,
    check_store_ids,
    correlation_csv,
    impute_missing,
    ingest_ratings,
    load_score_store,
    rank_normalize,
    spearman_matrix,
    store_path,
    write_score_store,
)
from .optimizer import fit_regressor, pca_landscape, read_weights, search_optimal, write_weights
from .proxy import (
    campaign_outputs,
    flops_infer_structural,
    flops_train,
    flops_train_structural,
    run_campaign,
)
from .registry import PRRC_NAMES, SIGNAL_NAMES, canonical_order
from .selection import SelectionPlan, select_top_k
from .tokens import tokenize

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


def _read_annotations(paths: list[Path]) -> dict[str, dict[str, float]]:
    """The ratings files as ``{rater: {doc_id: value}}``; a later rating of
    the same document by the same rater replaces the earlier one."""
    ratings: dict[str, dict[str, float]] = {}
    for path in paths:
        for line_no, line in numbered_lines(require_file(path, "ratings file")):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                doc_id, rater, value = obj["doc_id"], obj["rater"], obj["value"]
                if not (isinstance(doc_id, str) and isinstance(rater, str)):
                    raise ValueError(f"doc_id {doc_id!r} and rater {rater!r} must be strings")
                if not is_finite_number(value):
                    raise ValueError(f"value {value!r} is not a finite number")
                if rater in PRRC_NAMES and not 0 <= value <= 5:
                    raise ValueError(f"{rater} value {value!r} outside [0, 5]")
                check_encodable("rater", rater)
                ratings.setdefault(rater, {})[doc_id] = float(value)
            except (KeyError, TypeError, ValueError) as exc:  # UTF-8 and JSON errors are ValueErrors
                raise ValidationError(f"{path}:{line_no}: bad annotation: {exc}")
    return ratings


def _corpus_path(cfg: RunConfig, args: argparse.Namespace) -> Path:
    """The ``--corpus`` path, else the config's ``corpus.path``; it must be a file."""
    path = Path(args.corpus) if args.corpus else cfg.corpus_path
    if path is None:
        raise ValidationError("config has no corpus.path")
    return require_file(path, "corpus file")


def _load_logged(path: Path, cfg: RunConfig):
    """Load a corpus, logging each rejected line with its path and number."""
    corpus, report = load_corpus(path, cfg.corpus)
    for err in report.errors:
        logger.warning("%s:%d rejected: %s", path, err.line_no, err.reason)
    if report.errors:
        logger.warning("corpus read %s: %s", path, report.summary())
    return corpus


def _corpus_writers(path: Path, corpus, matrix: ScoreMatrix, cfg: RunConfig, added=()) -> dict:
    """``publish``'s writers of the corpus JSONL ``path`` and of the score
    store beside it, which hashes the JSONL's temp, written just before."""
    staged: list[Path] = []

    def write_jsonl(temp: Path) -> None:
        staged.append(temp)
        write_corpus(corpus, temp, matrix, added)

    return {
        path: write_jsonl,
        store_path(path): lambda temp: write_score_store(temp, staged[0], matrix, cfg.corpus),
    }


def cmd_annotate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Compute signals and importance scores, merge ratings, write the
    annotated corpus."""
    from .signals import corpus_signals

    out_path = cfg.output_dir / "annotated.jsonl"
    require_outputs([out_path, store_path(out_path)])
    imp = cfg.scores.importance
    if imp is not None:
        for target_path in imp.targets.values():
            require_file(target_path, "importance target corpus")

    corpus = _load_logged(_corpus_path(cfg, args), cfg)
    check_store_ids(corpus.ids)

    ratings = _read_annotations(cfg.scores.ratings.files) if cfg.scores.ratings else {}
    computed = _annotated_names(cfg)
    clash = sorted(set(ratings) & set(computed))
    if clash:
        raise ValidationError(f"raters {clash} are named like scores this run computes")
    names = canonical_order(computed + list(ratings))
    matrix = ScoreMatrix.from_documents(corpus, names)
    column = matrix.score_names.index

    # The rater columns are ingested, held to min_coverage and imputed before
    # the passes, so that a refusal costs none of them.
    if ratings:
        filled, unknown = ingest_ratings(matrix, ratings)
        coverage = {rater: filled[rater] / max(matrix.n_docs, 1) for rater in sorted(filled)}
        for rater, cov in coverage.items():
            logger.info("rating coverage %s: %.3f", rater, cov)
        if unknown:
            logger.warning("%d (rater, doc id) pairs referenced unknown doc ids", unknown)
        min_cov = cfg.scores.ratings.min_coverage
        low = {r: c for r, c in coverage.items() if c < min_cov}
        if low:
            raise ValidationError(f"rating coverage below {min_cov}: {low}")
        imputed = impute_missing(matrix, list(ratings))
        if imputed:
            logger.warning("imputed %d missing rating cells to column medians", len(imputed))

    # The source corpus is tokenized once, for its signals and its hashing.
    tokens = tokenize(corpus.texts) if cfg.scores.signals or imp is not None else None

    if cfg.scores.signals:
        matrix.raw[:, [column(name) for name in SIGNAL_NAMES]] = corpus_signals(corpus.texts, tokens)

    if imp is not None:
        # The source corpus is hashed once; every target scores it by gathering at its buckets.
        source = hash_corpus(tokens, imp.bucket_count, cfg.seed)
        del tokens  # free the word ids before the targets are read
        source_model = fit_bag_model(source, imp.smoothing)
        for target, target_path in imp.targets.items():
            target_corpus = _load_logged(target_path, cfg)
            if not len(target_corpus):
                raise ValidationError(f"scores.importance.targets.{target}: {target_path} has no valid document")
            hashed = hash_corpus(tokenize(target_corpus.texts), imp.bucket_count, cfg.seed)
            target_model = fit_bag_model(hashed, imp.smoothing)
            matrix.raw[:, column(f"{target}_importance")] = importance_scores(source, target_model, source_model)

    publish(_corpus_writers(out_path, corpus, matrix, cfg, names))
    print(json.dumps({"annotated": len(corpus), "scores": names, "output": str(out_path)}))
    return 0


def _load_scored_matrix(cfg: RunConfig, corpus_path: Path) -> ScoreMatrix:
    """The imputed matrix of the score store of the corpus file
    ``corpus_path``; the JSONL is not parsed. It has a document, a score
    and no missing cell."""
    matrix = load_score_store(corpus_path, cfg.corpus)
    if not matrix.n_docs:
        raise ValidationError(f"corpus {corpus_path} has no valid documents")
    if not matrix.score_names:
        raise ValidationError("corpus documents carry no scores; run annotate first")
    try:
        impute_missing(matrix)
    except ValidationError as exc:
        raise ValidationError(f"score store {store_path(corpus_path)}: {exc}") from None
    return matrix


def _check_domains(key: str, domains: Iterable[str], cfg: RunConfig) -> None:
    """Refuse domains that ``cfg.corpus.domains`` does not list: the reader
    keeps no document of theirs."""
    unknown = sorted(set(domains) - set(cfg.corpus.domains))
    if unknown:
        raise ValidationError(f"{key}: domains {unknown} are not in corpus.domains")


def _plan(cfg: RunConfig, cc_only: bool = False) -> SelectionPlan:
    """The config's plan, or its CommonCrawl-only form, over domains the corpus can hold."""
    plan = cfg.require_plan()
    if cc_only:
        plan = SelectionPlan.cc_only(plan.token_budget)
    _check_domains("--cc-only plan" if cc_only else "plan.domain_targets", plan.domain_targets, cfg)
    return plan


def cmd_select(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Select a token-budgeted, domain-proportional subset under weights."""
    plan = _plan(cfg, args.cc_only)
    manifest, report = cfg.output_dir / "selection.txt", cfg.output_dir / "selection.json"
    require_outputs([manifest, report])
    weights = read_weights(args.weights)
    matrix = rank_normalize(_load_scored_matrix(cfg, _corpus_path(cfg, args)))
    try:
        weights.aligned_to(matrix.score_names)
    except ValidationError as exc:
        raise ValidationError(f"weights file {args.weights}: {exc}") from None
    result = select_top_k(matrix, weights, plan)
    publish({manifest: result.write_manifest, report: lambda temp: result.write_report(temp, seed=cfg.seed)})
    print(json.dumps({"selected": len(result.selected_ids), "manifest": str(manifest)}))
    return 0


def cmd_campaign(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Run the proxy-experiment loop and append to the campaign log."""
    if args.threads < 0:
        raise ValidationError(f"--threads must be at least 1 (0 uses campaign.threads), got {args.threads}")
    campaign = replace(cfg.campaign, threads=args.threads or cfg.campaign.threads)
    require_outputs(campaign_outputs(cfg.output_dir, campaign.n))
    plan = _plan(cfg)
    corpus_path = _corpus_path(cfg, args)
    cfg.require_trainer()
    matrix = rank_normalize(_load_scored_matrix(cfg, corpus_path))
    records = run_campaign(matrix, plan, campaign, seed=cfg.seed, out_dir=cfg.output_dir)
    ok = sum(1 for r in records if r.status == "ok")
    print(json.dumps({"experiments": len(records), "ok": ok, "log": str(cfg.output_dir / "campaign.jsonl")}))
    return 0


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Fit the loss regression on a campaign log and emit optimal weights."""
    from .proxy import read_campaign_log

    log_path = Path(args.log) if args.log else cfg.output_dir / "campaign.jsonl"
    weights_path, landscape_path = cfg.output_dir / "weights.json", cfg.output_dir / "landscape.csv"
    require_outputs([weights_path, landscape_path])
    records = read_campaign_log(require_file(log_path, "campaign log"))
    try:
        model = fit_regressor(records, cfg.optimizer.hyper)
    except ValidationError as exc:
        raise ValidationError(f"campaign log {log_path}: {exc}") from None
    outcome = search_optimal(model, cfg.optimizer, cfg.seed)
    landscape = pca_landscape(records, model, cfg.optimizer)
    publish({
        weights_path: lambda temp: write_weights(temp, outcome.w_star, seed=cfg.seed),
        landscape_path: landscape.write_csv,
    })
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
    out_path = Path(args.output) if args.output else cfg.output_dir / "spearman.csv"
    require_outputs([out_path])
    corpus_path = _corpus_path(cfg, args)
    matrix = _load_scored_matrix(cfg, corpus_path)
    if matrix.n_docs < 2:
        raise ValidationError(f"corpus {corpus_path} has one valid document; correlation needs at least 2")
    rho, flagged = spearman_matrix(matrix)
    if flagged.any():
        logger.warning("%d correlation cells undefined (constant columns)", int(flagged.sum()))
    csv = correlation_csv(matrix.score_names, rho)
    publish({out_path: lambda temp: temp.write_text(csv, encoding="utf-8")})
    print(json.dumps({"scores": len(matrix.score_names), "output": str(out_path)}))
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    """FLOPs calculator for training and inference."""
    if args.params is not None:
        if args.tokens is None:
            raise ValidationError("--params requires --tokens")
        used = {"params": args.params, "tokens": args.tokens}
        flops = flops_train(args.params, args.tokens)
    elif args.layers is not None:
        required = {"hidden": args.hidden, "seq_len": args.seq_len, "samples": args.samples}
        missing = [k for k, v in required.items() if v is None]
        if missing:
            raise ValidationError(f"structural mode needs --{', --'.join(missing)}")
        used = {"layers": args.layers, **required}
        if args.mode == "train":
            used["epochs"] = args.epochs
            flops = flops_train_structural(
                args.layers, args.hidden, args.seq_len, args.samples, args.epochs
            )
        else:
            flops = flops_infer_structural(args.layers, args.hidden, args.seq_len, args.samples)
    else:
        raise ValidationError("use --params/--tokens or --layers/--hidden/--seq-len/--samples")
    if not math.isfinite(flops):
        flags = " ".join(f"--{name.replace('_', '-')} {value!r}" for name, value in used.items())
        raise ValidationError(f"the FLOP count of {flags} is too large for a float")
    print(json.dumps({"flops": flops, "flops_1e19": flops / 1e19}))
    return 0


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Generate a deterministic synthetic corpus and its score store from the
    config recipe."""
    if cfg.synthesis is None:
        raise ValidationError("config has no synthesis section")
    _check_domains("synthesis.domain_mix", cfg.synthesis.domain_mix, cfg)
    out_path = Path(args.output) if args.output else cfg.output_dir / "synth.jsonl"
    require_outputs([out_path, store_path(out_path)])
    counts, corpus = synthesize_corpus(cfg.synthesis, cfg.seed, cfg.corpus)
    matrix = ScoreMatrix.from_documents(corpus)
    publish(_corpus_writers(out_path, corpus, matrix, cfg))
    print(json.dumps({"documents": sum(counts.values()), "per_domain": counts, "output": str(out_path)}))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors follow the error contract:
    a ValidationError, reported by ``main`` as exit 1 and a JSON object."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _nonnegative(text: str) -> float:
    """A ``cost`` flag's value: a finite number, not negative (0 documents
    cost 0 FLOPs)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number, not negative, got {text!r}")
    return value + 0.0  # -0.0 becomes 0.0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--params", type=_nonnegative, help="nominal parameter count")
    p.add_argument("--tokens", type=_nonnegative, help="training tokens")
    p.add_argument("--layers", type=_nonnegative)
    p.add_argument("--hidden", type=_nonnegative)
    p.add_argument("--seq-len", type=_nonnegative)
    p.add_argument("--samples", type=_nonnegative)
    p.add_argument("--epochs", type=_nonnegative, default=1.0)
    p.add_argument("--mode", choices=("train", "infer"), default="train")

    p = with_config(sub.add_parser("synth", help="generate a synthetic test corpus"))
    p.add_argument("--output", help="output corpus path")

    return parser


def _report(exc: Exception) -> int:
    """Write the JSON error object of ``exc`` to stderr; return its exit code."""
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValidationError as exc:
        return _report(exc)
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
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
