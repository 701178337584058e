"""Exception types raised by this package.

Every error deliberately raised by melscribe derives from
:class:`MelscribeError`, so callers (including the CLI) can separate
domain failures from genuine bugs.
"""

from contextlib import contextmanager


class MelscribeError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(MelscribeError):
    """A value (pitch, beat position, octave shift, ...) is out of range."""


class OrderingError(MelscribeError):
    """A sequence that must be (strictly) increasing is not."""


class ShapeError(MelscribeError):
    """Array dimensions do not match their contract."""


class FormatError(MelscribeError):
    """A binary or JSON file does not follow its documented layout."""


class ParseError(FormatError):
    """A JSON value breaks its format; ``path`` names it, like ``$.melody[3].midi``."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")


class InputError(MelscribeError):
    """Inputs violate a documented precondition."""


@contextmanager
def in_file(path):
    """Every file reader decodes inside this, so each error names its file once.

    A MelscribeError becomes one FormatError ``"{path}: {message}"``; OSError passes.
    """
    try:
        yield
    except MelscribeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
