"""The JSON form of every result record.

Each result type is a frozen dataclass that inherits ``Record``.  Its JSON
object lists the dataclass fields in declaration order.  Tuples are written
as JSON arrays and read back as tuples, nested arrays included; dicts are
passed through as they are.  A field named in ``_nested`` holds a tuple of
records of the given type.  A document that omits a field with a default
gets the default; one that omits a required field raises KeyError.
Every JSON document the package writes goes through ``dumps``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields


def dumps(value, _pad="\n") -> str:
    """Exactly ``json.dumps(value, indent=2)``, mostly from the C encoder.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder.  This
    walks dicts and lists itself and encodes a table of rows of numbers
    (``ratio_log``, witnesses) in one flat C call, then re-indents it.
    """
    inner = _pad + "  "
    if isinstance(value, dict) and value:
        if not all(isinstance(k, str) for k in value):
            # the stdlib's coercion (int, float, bool, None keys) and errors
            return json.dumps(value, indent=2).replace("\n", _pad)
        return "{" + inner + ("," + inner).join(
            json.dumps(k) + ": " + dumps(v, inner) for k, v in value.items()) + _pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if all(isinstance(r, (list, tuple)) and r for r in value):
            flat = json.dumps(value)
            # no strings (nor dict keys) and no list inside a row: every ", " and
            # "], [" is structure, and an empty {} is written alike either way
            if '"' not in flat and flat.count("[") == len(value) + 1:
                row = inner + "  "
                body = flat[2:-2].replace("], [", inner + "]," + inner + "[" + row)
                body = body.replace(", ", "," + row)
                return "[" + inner + "[" + row + body + inner + "]" + _pad + "]"
        return "[" + inner + ("," + inner).join(dumps(v, inner) for v in value) + _pad + "]"
    return json.dumps(value)


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
