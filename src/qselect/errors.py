"""Exception hierarchy, and the input-file, output-directory and JSON number
checks shared across the package."""

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


def require_directory(path: Path, what: str) -> None:
    """Refuse ``path`` with a ValidationError naming ``what``, the path and
    the file in its way, unless it is a directory or can be made one."""
    _refuse_non_directory((path, *path.parents), f"{what} {path}")


def require_output_file(path: Path, what: str) -> Path:
    """``path``, with its missing parent directories made; a ValidationError
    naming ``what`` and the path if a directory stands at it, or something
    other than a directory where one of its parents goes."""
    if path.is_dir():
        raise ValidationError(f"{what} {path} is a directory")
    _refuse_non_directory(path.parents, f"{what} {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _refuse_non_directory(parts, named: str) -> None:
    """Raise a ValidationError naming ``named`` and the first of ``parts``
    that exists and is not a directory, unless a directory comes first."""
    for part in parts:
        if part.is_dir():
            return
        if part.exists() or part.is_symlink():
            raise ValidationError(f"{named}: {part} is not a directory")
