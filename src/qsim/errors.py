"""Exception types shared across the package, and the argument checks of every layer.

The CLI maps these onto process exit codes: configuration errors exit 1,
ingestion/IO errors exit 2, internal invariant violations exit 3. Each argument
rule has one home here: integers and real numbers are Python or numpy numbers of
that kind, never a `bool`, and with `many` also lists, tuples and arrays of them; a
choice is one of its names. A value from outside the program is shown through `_echo`.
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


def _kind(value, many: bool) -> str:  # numpy's kind letter ("b" bool, "O" no number); an array's if many
    return value.dtype.kind if many and isinstance(value, np.ndarray) else np.dtype(type(value)).kind


def _check_integer(name: str, value, low: int | None = None, high: int | None = None, many=False):
    if many and isinstance(value, (tuple, list)):  # numpy would read a bool inside as 1
        for entry in value:
            _check_integer(name, entry, low, high, many=True)
    elif _kind(value, many) not in "iu":
        raise ConfigurationError(f"{name} must be an integer, got {_echo(value)}")
    elif isinstance(value, np.ndarray) and low is not None:  # by its least and greatest entries, if any
        _check_integer(name, [value.min(initial=low), value.max(initial=low)], low, high, many=True)
    elif low is not None and (value < low or (high is not None and value > high)):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ConfigurationError(f"{name} must {bound}, got {_echo(int(value))}")


def _check_real(name: str, value, many=False):
    if many and isinstance(value, (tuple, list)):  # numpy would read a bool inside as 1.0
        for entry in value:
            if type(entry) is not float:  # the common entry costs no call
                _check_real(name, entry, many=True)
    elif _kind(value, many) not in "iuf":
        raise ConfigurationError(f"{name} must be a real number, got {_echo(value)}")
    return value


def _check_choice(what: str, value, choices: tuple) -> None:
    if not isinstance(value, str) or value not in choices:  # an array would compare elementwise
        raise ConfigurationError(f"unknown {what} {_echo(value)}; expected one of {choices}")
