"""Run configuration: one JSON file drives every CLI command.

Keys; ``?`` marks an optional key (a command that needs a section says so),
and ``key: range`` gives the values a number may take:

  seed?        int, root seed for all randomness (default 0)
  output_dir?  where outputs land (default "out")
  corpus?      {path?, domains?: [str], token_estimator?: "whitespace"|"char_ratio"}
  scores?      {signals?: bool,
                importance?: {targets: {name: path}, bucket_count?: 2..2**31, smoothing?: > 0},
                ratings?: {files: [path], min_coverage?: 0..1}}
  plan?        {token_budget, domain_targets?: {domain: share}}
  campaign?    {n?: >= 1, trainer?, valset?, threads?: >= 1,
                proxy?: {hidden_dim?, layers?, heads?, kv_heads?, token_budget?}}
    trainer    {type: "oracle", w_star: {score: weight}, base?, sigma?}
               or {type: "command", argv: [str], timeout?: seconds > 0}
  optimizer?   {trees?, depth?, learning_rate?, subsample?, min_samples_leaf?,
                candidates?: >= top_k (swept a block at a time, in flat memory),
                top_k?: >= 1, concentration?: > 0, grid?: >= 2}
  synthesis?   {doc_count, domain_mix?, latent_name?, token_mean?, token_sigma?,
                channels?: {name: {loading?, noise?, offset?, scale?}}}

Each section is built from its dataclass, whose fields give the keys, their
types and their defaults, and whose ``__post_init__`` checks the ranges.
``campaign`` is ``proxy.CampaignConfig`` and ``optimizer`` is
``optimizer.OptimizerConfig``, each beside the kernels that take it whole.
An unknown key, a missing required key, a value of the wrong type or one
out of range is a ValidationError naming the key's dotted path, e.g.
``optimizer.trees``, before any command starts work. So is a string, path
or object key holding a lone surrogate, which no output file could hold.
An integer is accepted where a number is expected; a boolean is neither.
Relative paths resolve against the config file's directory. The oracle
trainer and the regressor use the root seed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .corpus import CorpusSchema, SynthesisSpec, check_encodable
from .errors import FieldError, ValidationError, require_file
from .gbt import RegressorHyper
from .importance import DEFAULT_BUCKET_COUNT
from .optimizer import OptimizerConfig
from .proxy import CampaignConfig, CommandTrainer, OracleTrainer, Trainer
from .selection import SelectionPlan, WeightVector


@dataclass
class ImportanceConfig:
    targets: dict[str, Path]  # target name -> corpus path
    bucket_count: int = DEFAULT_BUCKET_COUNT
    smoothing: float = 1.0

    def __post_init__(self) -> None:
        if not self.targets:
            raise FieldError("targets", "must name at least one target corpus")
        if not 2 <= self.bucket_count <= 1 << 31:
            raise FieldError("bucket_count", f"must be in [2, 2**31], got {self.bucket_count}")
        if self.smoothing <= 0:
            raise FieldError("smoothing", f"must be positive, got {self.smoothing}")


@dataclass
class RatingsConfig:
    files: list[Path]
    min_coverage: float = 0.0

    def __post_init__(self) -> None:
        if not self.files:
            raise FieldError("files", "must list at least one ratings file")
        if not 0 <= self.min_coverage <= 1:
            raise FieldError("min_coverage", f"must be in [0, 1], got {self.min_coverage}")


@dataclass
class ScoresConfig:
    signals: bool = True
    importance: ImportanceConfig | None = None
    ratings: RatingsConfig | None = None


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: Path = Path("out")
    corpus_path: Path | None = None
    corpus: CorpusSchema = field(default_factory=CorpusSchema)
    scores: ScoresConfig = field(default_factory=ScoresConfig)
    plan: SelectionPlan | None = None
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    synthesis: SynthesisSpec | None = None

    def require_plan(self) -> SelectionPlan:
        if self.plan is None:
            raise ValidationError("config has no plan section")
        return self.plan

    def require_trainer(self) -> Trainer:
        if self.campaign.trainer is None:
            raise ValidationError("config has no campaign.trainer")
        return self.campaign.trainer


# optimizer keys that set the regressor's hyperparameters -> RegressorHyper fields
_HYPER_KEYS = {"trees": "n_trees", "depth": "max_depth", "learning_rate": "learning_rate",
               "subsample": "subsample", "min_samples_leaf": "min_samples_leaf"}
_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number",
             str: "a string", Path: "a path string"}


def _join(path: str, key: object) -> str:
    return f"{path}.{key}" if path else str(key)


def _object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object, got {value!r}")
    return value


def _checked(path: str, build, *args, **kwargs):
    """Call ``build``, prefixing its ValidationError with ``path``."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _encodable(path: str, what: str, text: str) -> str:
    """``text``, refused if it holds a lone surrogate, which no UTF-8 output can write."""
    try:
        check_encodable(what, text)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return text


def _value(hint, value: object, path: str, base_dir: Path):
    """Check one JSON value against a type hint and convert it."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _value(inner, value, path, base_dir)
    if hint is WeightVector:
        mapping = _value(dict[str, float], value, path, base_dir)
        return _checked(path, WeightVector.from_mapping, mapping)
    if is_dataclass(hint):
        return _build(hint, value, path, base_dir)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ValidationError(f"{path}: expected a list, got {value!r}")
        items = [_value(args[0], v, f"{path}[{i}]", base_dir) for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if origin in (dict, Mapping):
        items = _object(value, path).items()
        return {
            _encodable(_join(path, k), "key", k): _value(args[1], v, _join(path, k), base_dir)
            for k, v in items
        }
    if hint in (int, float):
        ok = isinstance(value, int if hint is int else (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, bool if hint is bool else str)
    if not ok or (isinstance(value, float) and not math.isfinite(value)):
        raise ValidationError(f"{path}: expected {_EXPECTED[hint]}, got {value!r}")
    if isinstance(value, str):
        _encodable(path, "value", value)
    return base_dir / value if hint is Path else value


def _build(cls, obj: object, path: str, base_dir: Path, keys: dict | None = None, **fixed):
    """Build dataclass ``cls`` from the JSON object at ``path``.

    The allowed keys are ``cls``'s fields, or the JSON names in ``keys``
    (JSON key -> field name); fields in ``fixed`` are set by the caller
    and are not keys. Absent keys take the field's default.
    """
    obj = _object(obj, path)
    by_name = {f.name: f for f in fields(cls)}
    keys = keys or {name: name for name in by_name if name not in fixed}
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValidationError(f"{_join(path, unknown[0])}: unknown key")
    hints = get_type_hints(cls)
    kwargs = dict(fixed)
    for key, name in keys.items():
        if key in obj:
            kwargs[name] = _value(hints[name], obj[key], _join(path, key), base_dir)
        elif by_name[name].default is MISSING and by_name[name].default_factory is MISSING:
            raise ValidationError(f"{_join(path, key)}: required key is missing")
    try:
        return cls(**kwargs)
    except FieldError as exc:  # a range check names its field; report its JSON key
        key = next((key for key, name in keys.items() if name == exc.field), exc.field)
        raise ValidationError(f"{_join(path, key)}: {exc.problem}") from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _build_trainer(spec: object, seed: int, base_dir: Path) -> Trainer:
    spec = dict(_object(spec, "campaign.trainer"))
    kind = spec.pop("type", None)
    if kind == "oracle":
        return _build(OracleTrainer, spec, "campaign.trainer", base_dir, seed=seed)
    if kind == "command":
        return _build(CommandTrainer, spec, "campaign.trainer", base_dir)
    raise ValidationError(f"campaign.trainer.type: expected 'oracle' or 'command', got {kind!r}")


def parse_config(raw: dict, base_dir: Path) -> RunConfig:
    """Build a RunConfig from parsed JSON; relative paths resolve against ``base_dir``."""
    top = dict(_object(raw, "config"))
    seed = _value(int, top.pop("seed", RunConfig.seed), "seed", base_dir)
    corpus = dict(_object(top.pop("corpus", {}), "corpus"))
    corpus_path = _value(Path | None, corpus.pop("path", None), "corpus.path", base_dir)
    optimizer = dict(_object(top.pop("optimizer", {}), "optimizer"))
    hyper_section = {key: optimizer.pop(key) for key in _HYPER_KEYS if key in optimizer}
    campaign = dict(_object(top.pop("campaign", {}), "campaign"))
    spec = campaign.pop("trainer", None)
    trainer = None if spec is None else _build_trainer(spec, seed, base_dir)
    hyper = _build(RegressorHyper, hyper_section, "optimizer", base_dir, _HYPER_KEYS, seed=seed)
    top.setdefault("output_dir", str(RunConfig.output_dir))
    return _build(
        RunConfig, top, "", base_dir, seed=seed, corpus_path=corpus_path,
        corpus=_build(CorpusSchema, corpus, "corpus", base_dir),
        campaign=_build(CampaignConfig, campaign, "campaign", base_dir, trainer=trainer),
        optimizer=_build(OptimizerConfig, optimizer, "optimizer", base_dir, hyper=hyper),
    )


def load_config(path: str | Path) -> RunConfig:
    path = require_file(Path(path), "config file")
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # UTF-8 and JSON errors are ValueErrors
        raise ValidationError(f"config is not valid UTF-8 JSON: {exc}") from exc
    return parse_config(raw, path.parent)
