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
import logging
import shutil
import subprocess
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .errors import CampaignError, FieldError, TrainerError, ValidationError, is_finite_number
from .matrix import ScoreMatrix
from .selection import SelectionPlan, WeightVector, select_top_k

logger = logging.getLogger(__name__)

# A campaign aborts once more than this share of its n experiments fail.
_MAX_FAILURE_RATE = 0.2


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
                raise FieldError(name, "must be positive")


def sample_simplex(
    m: int, n: int, seed: int, concentration: float = 1.0, block: int | None = None
) -> Iterator[np.ndarray]:
    """Draw n points from the Dirichlet over the m-simplex, one generator
    seeded with ``seed`` drawing them in order.

    The draws come as (rows, m) arrays of ``block`` rows, the last one
    shorter (one array of all n rows when ``block`` is None). numpy draws a
    Dirichlet row by row, so the blocks stacked are the bits of one draw of
    all n rows, whatever the block size.
    """
    if m < 1 or n < 1:
        raise ValidationError("m and n must be at least 1")
    if concentration <= 0:
        raise ValidationError("concentration must be positive")
    rng = np.random.default_rng(seed)
    alpha = np.full(m, concentration)
    block = block or n

    def draws() -> Iterator[np.ndarray]:
        for start in range(0, n, block):
            rows = min(block, n - start)
            yield np.ones((rows, 1)) if m == 1 else rng.dirichlet(alpha, size=rows)

    return draws()


def sample_weights(names: Sequence[str], n: int, seed: int) -> list[WeightVector]:
    """n weight vectors over ``names`` from the flat Dirichlet prior."""
    (draws,) = sample_simplex(len(names), n, seed)
    return [WeightVector(tuple(names), row) for row in draws]


@dataclass(frozen=True)
class OracleTrainer:
    """Trainer stand-in with a planted-optimum quadratic loss:
    base + ||w - w*||^2 + N(0, sigma), scored on the weight vector directly.

    Noise is keyed on (seed, w) so a given weight vector always receives
    the same loss, regardless of evaluation order or parallelism.
    """

    w_star: WeightVector
    base: float = 1.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise FieldError("sigma", "must be nonnegative")

    def __call__(self, request: TrainerRequest) -> float:
        return oracle_loss(request.weights, self)


def oracle_loss(w: WeightVector, oracle: OracleTrainer) -> float:
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


@dataclass(frozen=True)
class CommandTrainer:
    """External trainer process.

    Invoked as ``<argv...> --manifest M --config C --valset V`` and must
    print a JSON object on stdout, in UTF-8, whose ``loss`` is a finite JSON
    number; anything else fails the experiment. ``timeout`` is in seconds;
    None waits for the process however long it runs.
    """

    argv: list[str]
    timeout: float | None = None

    def __post_init__(self) -> None:
        if not self.argv:
            raise FieldError("argv", "must not be empty")
        if self.timeout is not None and self.timeout <= 0:
            raise FieldError("timeout", f"must be positive, got {self.timeout!r}")

    def probe(self) -> None:
        exe = self.argv[0]
        if shutil.which(exe) is None and not Path(exe).exists():
            raise TrainerError(f"trainer executable {exe!r} not found")

    def __call__(self, request: TrainerRequest) -> float:
        config_json = json.dumps(asdict(request.proxy_config), sort_keys=True)
        argv = [
            *self.argv,
            "--manifest",
            str(request.manifest_path),
            "--config",
            config_json,
            "--valset",
            request.valset,
        ]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=self.timeout)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise TrainerError(f"trainer invocation failed: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", errors="replace")
            raise TrainerError(f"trainer exited {proc.returncode}: {stderr.strip()[:500]}")
        try:
            loss = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])["loss"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # UTF-8 and JSON errors are ValueErrors
            raise TrainerError(f"trainer printed no parsable loss: {exc}") from exc
        if not is_finite_number(loss):
            raise TrainerError(f"trainer loss {loss!r} is not a finite JSON number")
        return float(loss)


@dataclass(frozen=True)
class CampaignConfig:
    """A campaign's settings: its size ``n``, its trainer, the validation
    set named to the trainer, its worker threads and the proxy model."""

    n: int = 256
    trainer: Trainer | None = None
    valset: str = ""
    threads: int = 1
    proxy: ProxyConfig = field(default_factory=ProxyConfig)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FieldError("n", f"must be at least 1, got {self.n}")
        if self.threads < 1:
            raise FieldError("threads", f"must be at least 1, got {self.threads}")


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
        loss, status, weights = obj["loss"], obj["status"], obj["weights"]
        ok = status == "ok" and is_finite_number(loss)
        if not (ok or (status == "failed" and loss is None)):
            raise ValueError(
                f"status {status!r} with loss {loss!r}: need 'ok' with a finite number "
                "or 'failed' with null"
            )
        if not isinstance(weights, dict) or not weights:
            raise ValueError(f"weights {weights!r} is not a nonempty object")
        for name, value in weights.items():
            if not is_finite_number(value):
                raise ValueError(f"weight {name!r} = {value!r} is not a finite number")
        return cls(
            experiment_id=obj["experiment_id"],
            weights=weights,
            loss=loss,
            status=status,
            manifest=obj.get("manifest", ""),
            metadata=obj.get("metadata", {}),
        )


def read_campaign_log(path: str | Path) -> list[ExperimentRecord]:
    """Read a campaign log; a malformed line is a ValidationError naming it."""
    return _parse_log(Path(path).read_bytes(), path)


def _parse_log(data: bytes, path: str | Path) -> list[ExperimentRecord]:
    records = []
    for line_no, line in enumerate(data.splitlines(), start=1):
        try:
            text = line.decode("utf-8")
            if text.strip():
                records.append(ExperimentRecord.from_json(text))
        except (ValueError, KeyError, TypeError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise ValidationError(f"{path}:{line_no}: bad campaign record: {exc!r}") from None
    return records


def _read_log_to_resume(path: Path, planned: dict[str, WeightVector]) -> list[ExperimentRecord]:
    """Read the log that a resumed campaign appends to.

    Every logged record must be a ``planned`` experiment id with its planned
    weights, or the log belongs to another campaign. A record and its
    newline are written in one call, so a last line with no newline is a
    write the run did not finish: it is cut, and its experiment runs again.
    Nothing is cut unless every other line checks out.
    """
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    records = _parse_log(data[:complete], path)
    for record in records:
        w = planned.get(record.experiment_id)
        if w is None or record.weights != w.as_mapping():
            raise ValidationError(
                f"{path}: {record.experiment_id} is not an experiment of this campaign "
                "(its seed, n and score names); resume with the settings and corpus "
                "that started the log"
            )
    if complete < len(data):
        logger.warning(
            "%s:%d: cutting a torn last line (%d bytes); its experiment runs again",
            path, data.count(b"\n") + 1, len(data) - complete,
        )
        with open(path, "r+b") as fh:
            fh.truncate(complete)
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
    campaign: CampaignConfig,
    *,
    seed: int,
    out_dir: str | Path,
) -> list[ExperimentRecord]:
    """Run (or resume) a campaign of ``campaign.n`` proxy experiments.

    Weight vectors are derived from the root seed alone, so a resumed
    campaign reproduces the missing experiments exactly; experiment ids
    already present in the log are skipped, once each is checked to be one
    of this campaign's, and a torn last line is cut. Trainer failures are
    recorded and the campaign continues, but aborts once failures exceed
    ``_MAX_FAILURE_RATE`` of n. Records are appended to the log in
    experiment order regardless of worker count. On any exception (the
    budget's CampaignError, or anything but a TrainerError from the
    trainer) queued experiments are cancelled, and those already running
    finish unlogged.
    """
    n, trainer = campaign.n, campaign.trainer
    probe_trainer(trainer)
    out_dir = Path(out_dir)
    manifest_dir = out_dir / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "campaign.jsonl"

    weight_vectors = sample_weights(matrix.score_names, n, seed)
    existing: dict[str, ExperimentRecord] = {}
    if log_path.exists():
        planned = {f"exp-{i:04d}": w for i, w in enumerate(weight_vectors)}
        for record in _read_log_to_resume(log_path, planned):
            existing[record.experiment_id] = record
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
            proxy_config=campaign.proxy,
            valset=campaign.valset,
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
    failure_budget = _MAX_FAILURE_RATE * n
    new_records: list[ExperimentRecord] = []
    with open(log_path, "a", encoding="utf-8") as log, ThreadPoolExecutor(
        max_workers=campaign.threads
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
                            f"{_MAX_FAILURE_RATE:.0%} of n={n}"
                        )
        except BaseException:
            # A resume reruns the experiments that were running unlogged.
            pool.shutdown(cancel_futures=True)
            raise

    all_records = list(existing.values()) + new_records
    all_records.sort(key=lambda r: r.experiment_id)
    return all_records
