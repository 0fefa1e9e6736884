"""Exception hierarchy, and the input-file and JSON number checks shared
across the package."""

import sys
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


class CorpusError(QselectError):
    """Corpus-level contract violation, e.g. duplicate document ids."""


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
