"""Exception types shared across the package, and the argument checks of every layer.

The CLI maps these onto process exit codes: configuration errors exit 1,
ingestion/IO errors exit 2, internal invariant violations exit 3. Each
argument rule has one home here: integers and real numbers are Python or
numpy numbers of that kind, never a `bool`; a choice is one of its names.
A value from outside the program is shown in a message through `_echo`.
"""

import reprlib

import numpy as np


class QsimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(QsimError):
    """An invalid parameter value or incompatible shapes."""


class IngestionError(QsimError):
    """Bad input data: non-finite entries or malformed records."""


class StreamTruncationError(IngestionError):
    """A stream ran out of vectors before an experiment could finish."""


class InvariantViolation(QsimError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# A value shown in an error message: reprlib elides deep nesting, long containers and
# strings, and the text is cut at _ECHO_MAX characters, so the message stays one short line.
_REPR = reprlib.Repr()
_REPR.maxlevel = 3
_ECHO_MAX = 40


def _cut(text: str, limit: int) -> str:
    """`text`, or its first characters and "..." when it is longer than `limit`."""
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _echo(value) -> str:
    return _cut(_REPR.repr(value), _ECHO_MAX)


def _check_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {_echo(value)}")
    if low is not None and (value < low or (high is not None and value > high)):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ConfigurationError(f"{name} must {bound}, got {_echo(int(value))}")


def _check_real(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a real number, got {_echo(value)}")
    return value


def _check_choice(what: str, value, choices: tuple) -> None:
    if not isinstance(value, str) or value not in choices:  # an array would compare elementwise
        raise ConfigurationError(f"unknown {what} {_echo(value)}; expected one of {choices}")
