"""Proxy-experiment campaign: sample weights, select, train, record loss.

A campaign runs N independent experiments. Each experiment draws a weight
vector from the flat Dirichlet over the score simplex, selects a
token-budgeted subset under those weights, hands the selection manifest
to a trainer, and records the resulting validation loss. Real proxy
training is out of desk scope: the trainer boundary is a callable or an
external command, and a synthetic quadratic loss oracle stands in for it
during testing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .errors import CampaignError, TrainerError, ValidationError
from .matrix import ScoreMatrix
from .selection import SelectionPlan, WeightVector, select_top_k


def flops_train(params_nominal: float, tokens: float) -> float:
    """Approximate training FLOPs: 6 x parameters x tokens."""
    return 6.0 * params_nominal * tokens


def flops_train_structural(
    layers: float, hidden: float, seq_len: float, samples: float, epochs: float
) -> float:
    """Training FLOPs from model structure: 6 * L * H^2 * T * |D| * E."""
    return 6.0 * layers * hidden**2 * seq_len * samples * epochs


def flops_infer_structural(
    layers: float, hidden: float, seq_len: float, samples: float
) -> float:
    """Inference FLOPs from model structure: 2 * L * H^2 * T * |D|."""
    return 2.0 * layers * hidden**2 * seq_len * samples


@dataclass(frozen=True)
class ProxyConfig:
    """Architecture and budget of the proxy model (18M-parameter default)."""

    hidden_dim: int = 256
    layers: int = 2
    heads: int = 4
    kv_heads: int = 4
    token_budget: int = 500_000_000

    def __post_init__(self) -> None:
        for name in ("hidden_dim", "layers", "heads", "kv_heads", "token_budget"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"ProxyConfig.{name} must be positive")

    def as_dict(self) -> dict[str, int]:
        return {
            "hidden_dim": self.hidden_dim,
            "layers": self.layers,
            "heads": self.heads,
            "kv_heads": self.kv_heads,
            "token_budget": self.token_budget,
        }


def sample_simplex(m: int, n: int, seed: int, concentration: float = 1.0) -> np.ndarray:
    """Draw n points from the Dirichlet over the m-simplex, (n, m) array."""
    if m < 1 or n < 1:
        raise ValidationError("m and n must be at least 1")
    if concentration <= 0:
        raise ValidationError("concentration must be positive")
    if m == 1:
        return np.ones((n, 1))
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(m, concentration), size=n)


def sample_weights(
    names: Sequence[str], n: int, seed: int, concentration: float = 1.0
) -> list[WeightVector]:
    """n weight vectors over ``names`` from the flat Dirichlet prior."""
    draws = sample_simplex(len(names), n, seed, concentration)
    return [WeightVector(tuple(names), row) for row in draws]


@dataclass(frozen=True)
class OracleSpec:
    """Planted-optimum quadratic loss: base + ||w - w*||^2 + N(0, sigma).

    Noise is keyed on (seed, w) so a given weight vector always receives
    the same loss, regardless of evaluation order or parallelism.
    """

    w_star: WeightVector
    base: float = 1.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValidationError("sigma must be nonnegative")


def oracle_loss(w: WeightVector, oracle: OracleSpec) -> float:
    """Evaluate the synthetic loss oracle at ``w``."""
    values = w.aligned_to(oracle.w_star.names)
    dist_sq = float(((values - oracle.w_star.values) ** 2).sum())
    loss = oracle.base + dist_sq
    if oracle.sigma > 0:
        digest = blake2b(values.tobytes(), digest_size=16).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
        rng = np.random.default_rng([oracle.seed & 0xFFFFFFFFFFFFFFFF, *words])
        loss += float(rng.normal(0.0, oracle.sigma))
    return loss


@dataclass(frozen=True)
class TrainerRequest:
    """Everything a trainer may need for one experiment."""

    experiment_id: str
    weights: WeightVector
    manifest_path: Path
    proxy_config: ProxyConfig
    valset: str


Trainer = Callable[[TrainerRequest], float]


class OracleTrainer:
    """Trainer stand-in that scores the weight vector directly."""

    def __init__(self, spec: OracleSpec) -> None:
        self.spec = spec

    def __call__(self, request: TrainerRequest) -> float:
        return oracle_loss(request.weights, self.spec)


class SubsetOracleTrainer:
    """Trainer stand-in that scores the selected subset.

    Loss is ``base - mean(true quality of selected docs)`` plus optional
    seeded noise keyed on the manifest contents, so the full
    weights -> selection -> loss path is exercised without any training.
    """

    def __init__(
        self,
        quality_by_id: Mapping[str, float],
        base: float = 2.0,
        sigma: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.quality_by_id = dict(quality_by_id)
        self.base = base
        self.sigma = sigma
        self.seed = seed

    def loss_for_ids(self, ids: Sequence[str]) -> float:
        if not ids:
            return self.base
        mean_quality = math.fsum(self.quality_by_id[i] for i in ids) / len(ids)
        loss = self.base - mean_quality
        if self.sigma > 0:
            digest = blake2b("\n".join(ids).encode("utf-8"), digest_size=16).digest()
            words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
            rng = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, *words])
            loss += float(rng.normal(0.0, self.sigma))
        return loss

    def __call__(self, request: TrainerRequest) -> float:
        with open(request.manifest_path, encoding="utf-8") as fh:
            ids = [line.strip() for line in fh if line.strip()]
        return self.loss_for_ids(ids)


class CommandTrainer:
    """External trainer process.

    Invoked as ``<argv...> --manifest M --config C --valset V`` and must
    print a JSON object with a numeric ``loss`` key on stdout.
    """

    def __init__(self, argv: Sequence[str], timeout: float | None = None) -> None:
        if not argv:
            raise ValidationError("empty trainer command")
        self.argv = list(argv)
        self.timeout = timeout

    def probe(self) -> None:
        exe = self.argv[0]
        if shutil.which(exe) is None and not Path(exe).exists():
            raise TrainerError(f"trainer executable {exe!r} not found")

    def __call__(self, request: TrainerRequest) -> float:
        config_json = json.dumps(request.proxy_config.as_dict(), sort_keys=True)
        argv = self.argv + [
            "--manifest",
            str(request.manifest_path),
            "--config",
            config_json,
            "--valset",
            request.valset,
        ]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=self.timeout
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise TrainerError(f"trainer invocation failed: {exc}") from exc
        if proc.returncode != 0:
            raise TrainerError(
                f"trainer exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        try:
            payload = json.loads(proc.stdout.strip().splitlines()[-1])
            loss = float(payload["loss"])
        except (json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise TrainerError(f"trainer printed no parsable loss: {exc}") from exc
        if not math.isfinite(loss):
            raise TrainerError(f"trainer returned non-finite loss {loss!r}")
        return loss


@dataclass
class ExperimentRecord:
    """One (weight vector, validation loss) observation."""

    experiment_id: str
    weights: dict[str, float]
    loss: float | None
    status: str  # "ok" | "failed"
    manifest: str
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        obj = json.loads(line)
        return cls(
            experiment_id=obj["experiment_id"],
            weights=obj["weights"],
            loss=obj["loss"],
            status=obj["status"],
            manifest=obj.get("manifest", ""),
            metadata=obj.get("metadata", {}),
        )


def read_campaign_log(path: str | Path) -> list[ExperimentRecord]:
    """Read a campaign log; a malformed line is a ValidationError naming it."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(ExperimentRecord.from_json(line))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValidationError(f"{path}:{line_no}: bad campaign record: {exc!r}") from None
    return records


def probe_trainer(trainer: Trainer) -> None:
    """Fail fast if the trainer clearly cannot run."""
    if isinstance(trainer, CommandTrainer):
        trainer.probe()
    elif not callable(trainer):
        raise TrainerError(f"trainer {trainer!r} is not callable")


def run_campaign(
    matrix: ScoreMatrix,
    plan: SelectionPlan,
    trainer: Trainer,
    n: int = 256,
    seed: int = 0,
    *,
    out_dir: str | Path,
    proxy_config: ProxyConfig | None = None,
    valset: str = "",
    threads: int = 1,
    max_failure_rate: float = 0.2,
) -> list[ExperimentRecord]:
    """Run (or resume) a campaign of ``n`` proxy experiments.

    Weight vectors are derived from the root seed alone, so a resumed
    campaign reproduces the missing experiments exactly; experiment ids
    already present in the log are skipped. Trainer failures are recorded
    and the campaign continues, but aborts once failures exceed
    ``max_failure_rate`` of n. Records are appended to the log in
    experiment order regardless of worker count. On any exception (the
    budget's CampaignError, or anything but a TrainerError from the
    trainer) queued experiments are cancelled, and those already running
    finish unlogged.
    """
    if n < 1:
        raise ValidationError("campaign size n must be at least 1")
    probe_trainer(trainer)
    proxy_config = proxy_config or ProxyConfig()
    out_dir = Path(out_dir)
    manifest_dir = out_dir / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "campaign.jsonl"

    existing: dict[str, ExperimentRecord] = {}
    if log_path.exists():
        for record in read_campaign_log(log_path):
            existing[record.experiment_id] = record

    weight_vectors = sample_weights(matrix.score_names, n, seed)
    pending = [
        (i, f"exp-{i:04d}")
        for i in range(n)
        if f"exp-{i:04d}" not in existing
    ]

    def run_one(index: int, experiment_id: str) -> ExperimentRecord:
        w = weight_vectors[index]
        manifest_path = manifest_dir / f"{experiment_id}.txt"
        result = select_top_k(matrix, w, plan)
        result.write_manifest(manifest_path)
        request = TrainerRequest(
            experiment_id=experiment_id,
            weights=w,
            manifest_path=manifest_path,
            proxy_config=proxy_config,
            valset=valset,
        )
        metadata = {
            "seed": seed,
            "tokens": result.total_tokens,
            "selected": len(result.selected_ids),
        }
        try:
            loss = trainer(request)
        except TrainerError as exc:
            return ExperimentRecord(
                experiment_id,
                w.as_mapping(),
                None,
                "failed",
                str(manifest_path.relative_to(out_dir)),
                {**metadata, "error": str(exc)},
            )
        return ExperimentRecord(
            experiment_id,
            w.as_mapping(),
            float(loss),
            "ok",
            str(manifest_path.relative_to(out_dir)),
            metadata,
        )

    failures = sum(1 for r in existing.values() if r.status == "failed")
    failure_budget = max_failure_rate * n
    new_records: list[ExperimentRecord] = []
    with open(log_path, "a", encoding="utf-8") as log, ThreadPoolExecutor(
        max_workers=max(1, threads)
    ) as pool:
        futures = [pool.submit(run_one, i, eid) for i, eid in pending]
        try:
            for future in futures:
                record = future.result()
                log.write(record.to_json() + "\n")
                log.flush()
                new_records.append(record)
                if record.status == "failed":
                    failures += 1
                    if failures > failure_budget:
                        raise CampaignError(
                            f"{failures} trainer failures exceed "
                            f"{max_failure_rate:.0%} of n={n}"
                        )
        except BaseException:
            # A resume reruns the experiments that were running unlogged.
            pool.shutdown(cancel_futures=True)
            raise

    all_records = list(existing.values()) + new_records
    all_records.sort(key=lambda r: r.experiment_id)
    return all_records
