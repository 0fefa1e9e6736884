"""Run configuration: one JSON file drives every CLI command.

Top-level keys (all optional unless a command needs them):

  seed          int, root seed for all randomness (default 0)
  output_dir    where outputs land (default "out")
  corpus        {path, domains?, token_estimator?}
  scores        {signals?: bool,
                 importance?: {targets: {books: path, ...}, bucket_count?,
                               smoothing?},
                 ratings?: {files: [path, ...], min_coverage?}}
  plan          {token_budget, domain_targets?}
  campaign      {n?, trainer: {type: "oracle"|"command", ...}, valset?,
                 threads?, proxy?: {hidden_dim, layers, heads, kv_heads,
                 token_budget}}
  optimizer     {trees?, depth?, learning_rate?, subsample?,
                 min_samples_leaf?, candidates?, top_k?, concentration?,
                 normalization?, grid?}
  synthesis     {doc_count, domain_mix?, channels?: {name: {loading,
                 noise, offset, scale}}, latent_name?, token_mean?,
                 token_sigma?}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CorpusSchema, ScoreChannel, SynthesisSpec
from .errors import ValidationError
from .gbt import RegressorHyper
from .importance import DEFAULT_BUCKET_COUNT
from .proxy import CommandTrainer, OracleTrainer, OracleSpec, ProxyConfig, Trainer
from .registry import DEFAULT_DOMAIN_WEIGHTS
from .selection import SelectionPlan, WeightVector


@dataclass
class ImportanceConfig:
    targets: dict[str, str]  # target name -> corpus path
    bucket_count: int = DEFAULT_BUCKET_COUNT
    smoothing: float = 1.0


@dataclass
class RatingsConfig:
    files: list[str]
    min_coverage: float = 0.0


@dataclass
class ScoresConfig:
    signals: bool = True
    importance: ImportanceConfig | None = None
    ratings: RatingsConfig | None = None


@dataclass
class CampaignConfig:
    n: int = 256
    trainer: dict = field(default_factory=dict)
    valset: str = ""
    threads: int = 1
    proxy: ProxyConfig = field(default_factory=ProxyConfig)


@dataclass
class OptimizerConfig:
    hyper: RegressorHyper = field(default_factory=RegressorHyper)
    candidates: int = 100_000
    top_k: int = 100
    concentration: float = 1.0
    normalization: str = "rank"
    grid: int = 41


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: Path = Path("out")
    corpus_path: Path | None = None
    schema: CorpusSchema = field(default_factory=CorpusSchema)
    scores: ScoresConfig = field(default_factory=ScoresConfig)
    plan: SelectionPlan | None = None
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    synthesis: SynthesisSpec | None = None

    def require_corpus(self) -> Path:
        if self.corpus_path is None:
            raise ValidationError("config has no corpus.path")
        if not self.corpus_path.exists():
            raise ValidationError(f"corpus file {self.corpus_path} does not exist")
        return self.corpus_path

    def require_plan(self) -> SelectionPlan:
        if self.plan is None:
            raise ValidationError("config has no plan section")
        return self.plan

    def build_trainer(self) -> Trainer:
        spec = self.campaign.trainer
        kind = spec.get("type")
        if kind == "oracle":
            w_star = spec.get("w_star")
            if not isinstance(w_star, dict) or not w_star:
                raise ValidationError("oracle trainer needs a w_star mapping")
            return OracleTrainer(
                OracleSpec(
                    w_star=WeightVector.from_mapping(w_star, normalize=True),
                    base=float(spec.get("base", 1.0)),
                    sigma=float(spec.get("sigma", 0.0)),
                    seed=int(spec.get("seed", self.seed)),
                )
            )
        if kind == "command":
            argv = spec.get("argv")
            if not isinstance(argv, list) or not argv:
                raise ValidationError("command trainer needs a non-empty argv list")
            timeout = spec.get("timeout")
            return CommandTrainer(argv, timeout=float(timeout) if timeout else None)
        raise ValidationError(f"unknown trainer type {kind!r}")


def _expect(obj: dict, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"config section {context!r} must be an object")
    return obj


def parse_config(raw: dict, base_dir: Path) -> RunConfig:
    cfg = RunConfig()
    cfg.seed = int(raw.get("seed", 0))
    cfg.output_dir = base_dir / raw.get("output_dir", "out")

    if "corpus" in raw:
        section = _expect(raw["corpus"], "corpus")
        if "path" in section:
            cfg.corpus_path = base_dir / section["path"]
        cfg.schema = CorpusSchema(
            domains=tuple(section.get("domains", CorpusSchema().domains)),
            token_estimator=section.get("token_estimator", "whitespace"),
        )

    if "scores" in raw:
        section = _expect(raw["scores"], "scores")
        scores = ScoresConfig(signals=bool(section.get("signals", True)))
        if "importance" in section:
            imp = _expect(section["importance"], "scores.importance")
            targets = imp.get("targets")
            if not isinstance(targets, dict) or not targets:
                raise ValidationError("scores.importance needs a targets mapping")
            scores.importance = ImportanceConfig(
                targets={k: str(base_dir / v) for k, v in targets.items()},
                bucket_count=int(imp.get("bucket_count", DEFAULT_BUCKET_COUNT)),
                smoothing=float(imp.get("smoothing", 1.0)),
            )
        if "ratings" in section:
            rat = _expect(section["ratings"], "scores.ratings")
            files = rat.get("files")
            if not isinstance(files, list) or not files:
                raise ValidationError("scores.ratings needs a files list")
            scores.ratings = RatingsConfig(
                files=[str(base_dir / f) for f in files],
                min_coverage=float(rat.get("min_coverage", 0.0)),
            )
        cfg.scores = scores

    if "plan" in raw:
        section = _expect(raw["plan"], "plan")
        if "token_budget" not in section:
            raise ValidationError("plan needs a token_budget")
        cfg.plan = SelectionPlan(
            token_budget=int(section["token_budget"]),
            domain_targets=dict(
                section.get("domain_targets", DEFAULT_DOMAIN_WEIGHTS)
            ),
        )

    if "campaign" in raw:
        section = _expect(raw["campaign"], "campaign")
        proxy = section.get("proxy", {})
        cfg.campaign = CampaignConfig(
            n=int(section.get("n", 256)),
            trainer=_expect(section.get("trainer", {}), "campaign.trainer"),
            valset=str(section.get("valset", "")),
            threads=int(section.get("threads", 1)),
            proxy=ProxyConfig(**_expect(proxy, "campaign.proxy")) if proxy else ProxyConfig(),
        )

    if "optimizer" in raw:
        section = _expect(raw["optimizer"], "optimizer")
        default = RegressorHyper()
        cfg.optimizer = OptimizerConfig(
            hyper=RegressorHyper(
                n_trees=int(section.get("trees", default.n_trees)),
                max_depth=int(section.get("depth", default.max_depth)),
                learning_rate=float(section.get("learning_rate", default.learning_rate)),
                subsample=float(section.get("subsample", default.subsample)),
                min_samples_leaf=int(
                    section.get("min_samples_leaf", default.min_samples_leaf)
                ),
                seed=int(section.get("seed", cfg.seed)),
            ),
            candidates=int(section.get("candidates", 100_000)),
            top_k=int(section.get("top_k", 100)),
            concentration=float(section.get("concentration", 1.0)),
            normalization=section.get("normalization", "rank"),
            grid=int(section.get("grid", 41)),
        )
    else:
        cfg.optimizer.hyper = RegressorHyper(seed=cfg.seed)

    if "synthesis" in raw:
        section = _expect(raw["synthesis"], "synthesis")
        if "doc_count" not in section:
            raise ValidationError("synthesis needs a doc_count")
        channels = {
            name: ScoreChannel(**_expect(ch, f"synthesis.channels.{name}"))
            for name, ch in _expect(section.get("channels", {}), "synthesis.channels").items()
        }
        cfg.synthesis = SynthesisSpec(
            doc_count=int(section["doc_count"]),
            domain_mix=dict(section.get("domain_mix", DEFAULT_DOMAIN_WEIGHTS)),
            channels=channels,
            latent_name=section.get("latent_name"),
            token_mean=float(section.get("token_mean", 80.0)),
            token_sigma=float(section.get("token_sigma", 0.4)),
        )
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file {path} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    return parse_config(raw, path.parent)
