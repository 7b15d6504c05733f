"""The JSON form of every result record.

Each result type is a frozen dataclass that inherits ``Record``.  Its JSON
object lists the dataclass fields in declaration order.  Tuples are written
as JSON arrays and read back as tuples, nested arrays included; dicts are
passed through as they are.  A field named in ``_nested`` holds a tuple of
records of the given type.  A document that omits a field with a default
gets the default; one that omits a required field raises KeyError.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields


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

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

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
