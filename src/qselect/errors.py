"""Exception hierarchy, the input-file and JSON number checks shared across
the package, and every command's output boundary: ``require_outputs``, ``publish``."""

import os
import sys
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path


def is_finite_number(value: object) -> bool:
    """A JSON number that a float holds: not a bool, NaN, infinite or too large."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


class QselectError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QselectError):
    """Bad input: malformed config, invalid weights, out-of-range values."""


class FieldError(ValidationError):
    """One field of a settings object holds a value outside its range.

    The config loader reports it under the field's JSON key.
    """

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


class MatrixError(QselectError):
    """Score matrix construction or ingestion failure."""


class TrainerError(QselectError):
    """A proxy trainer invocation failed or returned garbage."""


class CampaignError(QselectError):
    """A proxy campaign could not complete (e.g. too many trainer failures)."""


def require_file(path: Path, what: str, hint: str = "") -> Path:
    """``path``, if it names a file (or a link to one); else a ValidationError
    naming ``what`` and the path, followed by ``hint``."""
    if not path.is_file():
        problem = "is not a file" if path.exists() else "does not exist"
        raise ValidationError(f"{what} {path} {problem}{hint}")
    return path


def require_outputs(paths: Iterable[Path]) -> None:
    """Refuse an artifact path with a directory at it, or a non-directory at
    its nearest existing ancestor, naming the path. Nothing is made."""
    for path in paths:
        if path.is_dir():
            raise ValidationError(f"output {path} is a directory")
        for part in path.parents:
            if part.is_dir():
                break
            if part.exists() or part.is_symlink():
                raise ValidationError(f"output {path}: {part} is not a directory")


def publish(writers: Mapping[Path, Callable[[Path], object]]) -> None:
    """Call each artifact's writer on a hidden sibling temp (same suffix, parents
    made), then rename every temp into place: a failed write leaves the old
    artifacts, or none, and no temp."""
    temps: list[Path] = []
    try:
        for path, write in writers.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            temps.append(path.with_name(f".tmp-{path.name}"))
            write(temps[-1])
        for path, temp in zip(writers, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
