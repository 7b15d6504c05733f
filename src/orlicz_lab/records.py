"""The JSON form of every result record.

Each result type is a frozen dataclass that inherits ``Record``.  Its JSON
object lists the dataclass fields in declaration order.  Tuples are written
as JSON arrays and read back as tuples, nested arrays included; dicts are
passed through as they are.  A field named in ``_nested`` holds a tuple of
records of the given type.  A document that omits a field with a default
gets the default; one that omits a required field raises KeyError.

Every JSON document the package writes goes through ``dumps``, which gives
the bytes of ``json.dumps(value, indent=2)``: one orjson call per array of
numbers (``ratio_log``, the witnesses), respelled as ``float.__repr__``
spells, and every other value walked into a list of pieces joined once.  As
in orjson, a plain ``enum.Enum`` in such an array is written by its value.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
from math import isfinite

_repr = float.__repr__
# orjson's 1e16, 1e-7 and 0.000025 are repr's 1e+16, 1e-07 and 2.5e-05 (a
# positional form for 1e-5 <= |x| < 1e-4); the look-behind skips 10.00001
_EXPONENT, _BAND = re.compile(r"e(-?)(\d+)"), re.compile(r"0\.0000(?<!\d0\.0000)([1-9])(\d*)")


def dumps(value) -> str:
    """Exactly ``json.dumps(value, indent=2)``, with one orjson call per array of numbers.

    ``str`` keys and values go through the stdlib's ``encode_basestring_ascii``;
    dicts with a non-``str`` key, and scalars other than finite floats, go to
    ``json.dumps``, with its coercions and errors.  One value differs: a plain
    ``enum.Enum`` member in an array of numbers is written by its value, as
    orjson does (``[E.A]`` gives ``[1]``), where ``json.dumps`` refuses it.
    """
    out = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, pad, out):
    inner = pad + "  "
    if isinstance(value, dict) and value:
        if not all(map(isinstance, value, repeat(str))):
            # the stdlib's coercion (int, float, bool, None keys) and errors
            out.append(json.dumps(value, indent=2).replace("\n", pad))
            return
        sep = "{" + inner
        for k, v in value.items():
            out.append(sep + _string(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        # a leading str or dict would put a quote or a brace in orjson's text
        text = None if isinstance(value[0], (str, dict)) else _numbers(value)
        if text is not None:
            out.append(text.replace("\n", pad))
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
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


def _numbers(array):
    """``json.dumps(array, indent=2)`` for an array of numbers, bools and
    arrays, or None for an array to walk element by element."""
    import orjson  # on first use: a run that writes no array never loads it

    try:
        text = orjson.dumps(array, option=orjson.OPT_INDENT_2).decode()
    except TypeError:  # an int past 64 bits, a float subclass, a namedtuple, 255 levels
        return None
    # a str (orjson leaves non-ASCII unescaped), None, nan or an infinity
    # (orjson's null is json's NaN) or a dict (its keys' coercion)
    if '"' in text or "null" in text or "{" in text:
        return None
    if "e" in text:
        text = _EXPONENT.sub(lambda m: "e" + (m[1] or "+") + m[2].zfill(2), text)
    if "0.0000" in text:
        text = _BAND.sub(lambda m: m[1] + "." * bool(m[2]) + m[2] + "e-05", text)
    return text


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
