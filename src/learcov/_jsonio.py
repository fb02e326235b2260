"""JSON emission with 17-significant-digit floats.

The standard library encoder formats floats with repr, which uses the
shortest round-tripping form. Reports here promise a fixed 17-significant-
digit rendering so emitted bytes are identical across runs and platforms,
hence this small emitter. Non-finite floats have no JSON representation and
are serialized as null. Object keys keep insertion order; numpy scalars and
arrays are converted to their Python equivalents by their ``tolist()``, so
this module imports no numpy.

A string is written as json.dumps writes it, ASCII only. One of printable
ASCII with no quote or backslash, which json leaves as it is, is quoted
here; any other goes to json.dumps, so a document of such strings, as
every check-special-case document is, loads no json module.
"""
from __future__ import annotations

import math

__all__ = ["dumps"]


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _quote(s: str) -> str:
    """``s`` as a JSON string, as json.dumps gives it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)


def _emit(obj, lines: list, indent: int | None, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        lines.append("null")
    elif isinstance(obj, bool):
        lines.append("true" if obj else "false")
    elif isinstance(obj, int):
        lines.append(str(int(obj)))
    elif isinstance(obj, float):
        lines.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        lines.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            lines.append("{}")
            return
        lines.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings (got {key!r})")
            if i:
                lines.append("," if indent is not None else ", ")
            lines.append(pad + _quote(key) + ": ")
            _emit(value, lines, indent, level + 1)
        lines.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            lines.append("[]")
            return
        lines.append("[")
        for i, value in enumerate(obj):
            if i:
                lines.append("," if indent is not None else ", ")
            lines.append(pad)
            _emit(value, lines, indent, level + 1)
        lines.append(end_pad + "]")
    elif hasattr(obj, "tolist"):
        # A numpy scalar or array. tolist() gives Python bools, ints, floats
        # and lists of them, except that a long double stays one: it is
        # written as float() rounds it.
        value = obj.tolist()
        if type(value) is type(obj):
            value = float(value)
        _emit(value, lines, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize to a JSON string; floats carry 17 significant digits."""
    lines: list = []
    _emit(obj, lines, indent, 0)
    return "".join(lines)

