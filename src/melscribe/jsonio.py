"""Reading and writing JSON files under one set of type rules.

Every JSON file melscribe reads or writes is opened here (the
checkpoint's JSON header lives inside a binary file and is read there),
so the rules are the same for each format:

- a JSON integer is a Python ``int`` that is not a ``bool``;
- a JSON number is an ``int`` or ``float`` that is not a ``bool``, so
  ``true`` and numeric strings such as ``"0.5"`` are neither;
- an object carries exactly its documented keys: unknown keys and
  missing keys are refused;
- a format states each object with fixed keys once, as a module-level
  ``{key: kind}`` table; ``fields(obj, table, where)`` checks the keys,
  then each kind in table order, and returns the values in that order
  for the reader to unpack, and the writer builds the object with
  ``dict(zip(table, values))``, so the two cannot drift apart;
- a value that breaks a rule raises ``ParseError`` naming its JSON path,
  such as ``$.changes[3].tick``; ``at`` gives a domain error raised while
  building a value (an unordered list, an unknown chord quality) the
  path of that value.

A format's reader decodes inside ``with reading(path) as obj:``, which
parses inside ``errors.in_file(path)``: every ``MelscribeError`` becomes
one ``FormatError`` naming the file, so each message names the file once
and the JSON path where the fault has one; the CLI exits 1 on it. Bytes
that are not UTF-8 or not JSON raise ``FormatError`` as well.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, InputError, OrderingError, ParseError, RangeError, in_file

#: Element types, array dtype and name of the two ``column`` kinds.
_COLUMNS = {
    float: ({int, float}, np.float64, "number"),
    int: ({int}, np.int64, "integer"),
}


@contextmanager
def reading(path):
    """Parse a UTF-8 JSON file for a decoder in the block, inside ``in_file(path)``.

    ``ValueError`` covers ``JSONDecodeError``, ``UnicodeDecodeError`` and an
    integer literal longer than Python's int conversion limit;
    ``RecursionError`` covers nesting deeper than the parser's stack.
    """
    with in_file(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        yield obj


@contextmanager
def at(where: str):
    """Report a domain error raised inside the block as a ParseError at ``where``."""
    try:
        yield
    except (InputError, OrderingError, RangeError) as exc:
        raise ParseError(str(exc), where) from exc


def write_json(path, obj, sort_keys: bool = True) -> None:
    """Write ``obj`` indented, with sorted keys unless told not to, and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def field(obj, key: str, kind, where: str):
    """``obj[key]``, checked to be of ``kind``; ``where`` is the path of ``obj``.

    ``kind`` is ``int`` (a JSON integer), ``float`` (a JSON number, returned
    as a float), ``str``, ``list``, ``dict`` or ``object`` (any value, ``null``
    too, for a caller that checks it itself).
    """
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}", where)
    if key not in obj:
        raise ParseError(f"missing field {key!r}", where)
    value = obj[key]
    if kind is int:
        # bool is an int subclass; reject it explicitly.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"field {key!r} must be an integer", f"{where}.{key}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"field {key!r} must be a number", f"{where}.{key}")
        try:
            value = float(value)
        except OverflowError:
            raise ParseError(f"field {key!r} does not fit a float64", f"{where}.{key}") from None
    elif not isinstance(value, kind):
        raise ParseError(f"field {key!r} must be {kind.__name__}", f"{where}.{key}")
    return value


def check_keys(obj, required, where: str, optional=()) -> None:
    """Refuse ``obj`` unless it is an object with every ``required`` key and no others but ``optional``."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}", where)
    unknown = obj.keys() - set(required) - set(optional)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", where)
    missing = [key for key in required if key not in obj]
    if missing:
        raise ParseError(f"missing field {missing[0]!r}", where)


def fields(obj, kinds: dict, where: str, optional=()) -> list:
    """The values of ``obj``'s keys in ``kinds`` order, each checked by ``field``.

    ``obj`` must carry every key of the ``{key: kind}`` table ``kinds`` and
    no others but ``optional``, which are allowed but not returned.
    """
    check_keys(obj, kinds, where, optional)
    return [field(obj, key, kind, where) for key, kind in kinds.items()]


def column(values: list, kind, where: str) -> np.ndarray:
    """A list of JSON numbers (``kind`` float) or integers (int) as a float64 or int64 array.

    ``where`` is the path of the list; errors name its first bad entry.
    """
    types, dtype, name = _COLUMNS[kind]
    if not set(map(type, values)) <= types:
        i = next(i for i, v in enumerate(values) if type(v) not in types)
        raise ParseError(f"entry {i} must be a JSON {name}, got {values[i]!r}", where)
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        for i, value in enumerate(values):
            try:
                dtype(value)
            except OverflowError:
                raise ParseError(f"entry {i} does not fit a {dtype.__name__}", where) from None
        raise
