"""Reading JSON files: one place that turns undecodable input into FormatError."""

from __future__ import annotations

import json

from .errors import FormatError


def read_json(path):
    """Parse a UTF-8 JSON file; bytes that are not UTF-8 or not JSON raise FormatError.

    ``ValueError`` covers ``JSONDecodeError``, ``UnicodeDecodeError`` and an
    integer literal longer than Python's int conversion limit.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
