"""The JSON form of every result record.

Each result type is a frozen dataclass that inherits ``Record``.  Its JSON
object lists the dataclass fields in declaration order.  Tuples are written
as JSON arrays and read back as tuples, nested arrays included; dicts are
passed through as they are.  A field named in ``_nested`` holds a tuple of
records of the given type.  A document that omits a field with a default
gets the default; one that omits a required field raises KeyError.

Every JSON document the package writes goes through ``dumps``: the bytes
of ``json.dumps(value, indent=2)``, written as a list of pieces joined
once.  A table of finite floats of one width (``ratio_log``, the witnesses)
is one piece: a first column already in the document (the grid abscissae)
reuses its ``repr`` strings, and the other cells get one ``repr`` each.
Everything else, other tables included (int, bool or None cells, ragged
rows, a nan or an infinity, still written ``NaN`` and ``Infinity``), is
walked element by element.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from operator import not_

_repr = float.__repr__
_ARRAY = (list, tuple)


def dumps(value) -> str:
    """Exactly ``json.dumps(value, indent=2)``; a repeated first column costs no ``repr``.

    With an indent, ``json.dumps`` runs its pure-Python encoder.  Here
    ``str`` keys and values go through its ``encode_basestring_ascii`` and
    finite floats through ``float.__repr__``; dicts with a non-``str`` key
    and other scalars go to ``json.dumps``, with its coercions and errors.
    """
    out = []
    _write(value, "\n", out, {})  # the columns' strings are freed before the join
    return "".join(out)


def _write(value, pad, out, columns):
    inner = pad + "  "
    if isinstance(value, dict) and value:
        if not all(map(isinstance, value, repeat(str))):
            # the stdlib's coercion (int, float, bool, None keys) and errors
            out.append(json.dumps(value, indent=2).replace("\n", pad))
            return
        sep = "{" + inner
        for k, v in value.items():
            out.append(sep + _string(k) + ": ")
            _write(v, inner, out, columns)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, _ARRAY) and value:
        body = all(map(isinstance, value, repeat(_ARRAY))) and _table_body(value, inner, columns)
        if body:
            out += ("[" + inner + "[" + inner + "  ", body, inner + "]" + pad + "]")
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out, columns)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, float) and isfinite(value):
        out.append(_repr(value))
    elif isinstance(value, (list, tuple, dict)):
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        out.append(json.dumps(value))


def _table_body(rows, inner, columns):
    """A table of finite floats as indented JSON rows without the outer
    brackets, or None when it must be walked element-wise.  ``columns`` maps
    each first column (abscissae repeat, values rarely do) to its repr strings."""
    row = inner + "  "
    if len(widths := set(map(len, rows))) != 1 or 0 in widths:
        return None
    try:
        first, *rest = zip(*rows)
        # 0.0 == -0.0, so the column's zeros are keyed by their reprs too
        key = (first, *map(_repr, filter(not_, first))) if 0.0 in first else first
        reprs = columns.get(key)
        # 1 == 1.0 and True == 1: only a float column reads a float column's strings
        if reprs is None or not all(map(isinstance, first, repeat(float))):
            reprs = columns[key] = [*map(_repr, first)]
        body = (inner + "]," + inner + "[" + row).join(map(("," + row).join, zip(
            reprs, *(map(_repr, col) for col in rest))))
    except TypeError:  # an int, bool, None, str or nested cell
        return None
    # a finite float's repr has no "n"; nan, inf and -inf are walked
    return None if "n" in body else body


def _tuples(value):
    """A JSON array read back as a tuple, nested arrays included."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


class Record:
    """to_dict/from_dict and to_json/from_json for a frozen dataclass."""

    # field name -> the Record type of the items of that tuple field
    _nested: dict = {}

    def to_dict(self) -> dict:
        # no dataclasses.asdict: it deep-copies every tuple of witness pairs
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._nested:
                value = [item.to_dict() for item in value]
            out[f.name] = value
        return out

    def to_json(self) -> str:
        return dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict):
        kwargs = {}
        for f in fields(cls):
            required = f.default is MISSING and f.default_factory is MISSING
            if not required and f.name not in d:
                continue
            value = d[f.name]
            kind = cls._nested.get(f.name)
            kwargs[f.name] = _tuples(value) if kind is None else tuple(
                kind.from_dict(item) for item in value)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))
