"""JSON codecs with deterministic float formatting.

Matrices travel as row-major nested lists of ``[re, im]`` pairs.  Report
emission goes through :func:`dumps`, a small recursive writer that renders
every float with 17 significant digits so identical inputs produce
byte-identical files; the stdlib ``json`` module cannot pin float formatting.

The codecs cost per matrix, not per element: a well-formed matrix is read with
one ``np.array`` call, and a matrix (or a list of float pairs) and a dict of
scalars are each written with one ``%`` format; any other input takes the
per-element path, which also reports every malformed input.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add
from typing import Any

import numpy as np

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "format_float",
    "dumps",
]


class SchemaError(ValueError):
    """Raised when scenario/report JSON fails structural validation."""


def format_float(x: float) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of here
        raise TypeError("format_float got a bool")
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        # normalize -0.0 so equal values serialize identically
        return "0"
    return f"{x:.17g}"


def matrix_to_json(m) -> list[list[list[float]]]:
    """Row-major nested list of [re, im] pairs (plain floats, not strings)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"matrix_to_json expects a 2-D array, got shape {a.shape}")
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


def matrix_from_json(obj: Any, where: str = "matrix") -> np.ndarray:
    fast = _pair_matrix(obj)
    if fast is not None:
        return fast
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of rows")
    ncols = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}[{i}]: expected a non-empty row list")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise SchemaError(f"{where}[{i}]: ragged row (expected {ncols} entries)")
        entries = []
        for j, cell in enumerate(row):
            entries.append(_entry_from_json(cell, f"{where}[{i}][{j}]"))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _pair_matrix(obj: Any) -> np.ndarray | None:
    """The matrix of a rectangular list of rows of ``[re, im]`` pairs of ints
    and floats (never bools), all finite; None for any other input, left to
    the loop."""
    if type(obj) is not list or not obj or set(map(type, obj)) != {list}:
        return None
    cells = list(chain.from_iterable(obj))
    if len(set(map(len, obj))) != 1 or not cells or set(map(type, cells)) != {list}:
        return None
    leaves = list(chain.from_iterable(cells))
    if set(map(len, cells)) != {2} or not set(map(type, leaves)) <= {float, int}:
        return None
    try:
        m = np.array(leaves, dtype=float).view(complex).reshape(len(obj), -1)
    except OverflowError:  # an int beyond float range: the loop names it
        return None
    return m if np.isfinite(m).all() else None


def _entry_from_json(cell: Any, where: str) -> complex:
    parts = cell if isinstance(cell, list) and len(cell) == 2 else [cell, 0.0]
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        try:
            z = complex(float(parts[0]), float(parts[1]))
        except OverflowError:  # an int beyond float range
            z = complex(math.inf)
        if cmath.isfinite(z):
            return z
        raise SchemaError(f"{where}: entries must be finite, got {cell!r}")
    raise SchemaError(f"{where}: expected a number or [re, im] pair, got {cell!r}")


def vector_to_json(v) -> list[list[float]]:
    return np.ascontiguousarray(v, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def vector_from_json(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of entries")
    return np.array([_entry_from_json(cell, f"{where}[{i}]") for i, cell in enumerate(obj)])


@functools.lru_cache(maxsize=64)
def _pair_template(n: int, pad_in: str, pad: str) -> str:
    """The ``%`` template of a list of ``n`` ``[re, im]`` pairs."""
    rows = ",\n".join([pad_in + "[%.17g, %.17g]"] * n)
    return f"[\n{rows}\n{pad}]"


def _pair_block(seq: list, pad_in: str, pad: str, step: str) -> str | None:
    """The text of a list of ``[re, im]`` pairs of floats, or of a list of
    equal-length rows of them (a matrix), each float written as
    :func:`format_float` writes it, with one ``%``; None for any other list or
    for a non-finite value, which the per-element path then writes or raises
    on.  ``step`` is one level of indentation."""
    if set(map(type, seq)) != {list}:
        return None
    cells = list(chain.from_iterable(seq))
    if cells and set(map(type, cells)) == {list}:
        if len(set(map(len, seq))) != 1:
            return None
        row = _pair_template(len(seq[0]), pad_in + step, pad_in)
        template = "[\n" + ",\n".join([pad_in + row] * len(seq)) + f"\n{pad}]"
    else:
        cells, template = seq, _pair_template(len(seq), pad_in, pad)
    if set(map(len, cells)) != {2}:
        return None
    values = tuple(chain.from_iterable(cells))
    if set(map(type, values)) != {float}:
        return None
    # + 0.0 turns -0.0 into 0.0, written "0"; only "inf" and "nan" hold an "n"
    text = template % tuple(map(add, values, repeat(0.0)))
    return None if "n" in text else text


@functools.lru_cache(maxsize=256)
def _dict_template(keys: tuple, kinds: tuple, pad_in: str, pad: str) -> tuple[str, tuple] | None:
    """The ``%`` template of a dict with these keys and value types, and the
    renderer of each value (a float is ``%.17g`` of itself plus 0.0, any other
    scalar ``%s`` of its text); None unless every type is a scalar's."""
    if not _SCALARS.keys() >= set(kinds):
        return None
    fields = ",\n".join(
        f"{pad_in}{_quote(str(k))}: ".replace("%", "%%") + ("%.17g" if t is float else "%s")
        for k, t in zip(keys, kinds)
    )
    renderers = tuple((0.0).__add__ if t is float else _SCALARS[t] for t in kinds)
    return f"{{\n{fields}\n{pad}}}", renderers


def _scalar_dict(obj: dict, pad_in: str, pad: str) -> str | None:
    """The text of a non-empty dict whose every value is a str, float, int,
    bool or None, with one ``%``; None for any other dict or for a non-finite
    float, which the per-element path then writes or raises on."""
    values = tuple(obj.values())
    found = _dict_template(tuple(obj), tuple(map(type, values)), pad_in, pad)
    if found is None:
        return None
    template, renderers = found
    # a sum of floats is finite only if each one is (one that overflows only
    # sends the dict down the per-element path)
    if not math.isfinite(sum(v for v in values if type(v) is float)):
        return None
    return template % tuple([render(v) for render, v in zip(renderers, values)])


_SCALARS = {
    str: _quote,
    float: format_float,
    int: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write(obj: Any, out: list[str], indent: int, level: int) -> None:
    render = _SCALARS.get(type(obj))
    if render is not None:
        out.append(render(obj))
        return
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (int, np.integer)):  # bools went through _SCALARS
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        block = _scalar_dict(obj, pad_in, pad)
        if block is not None:
            out.append(block)
            return
        out.append("{")
        sep = "\n"
        for k, v in obj.items():
            out.append(f"{sep}{pad_in}{_quote(str(k))}: ")
            _write(v, out, indent, level + 1)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        block = _pair_block(seq, pad_in, pad, " " * indent)
        if block is not None:
            out.append(block)
            return
        # numeric-only sequences stay on one line to keep matrices compact
        if all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in seq
        ):
            parts = [
                str(int(v))
                if isinstance(v, (int, np.integer))
                else format_float(float(v))
                for v in seq
            ]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[")
        sep = "\n"
        for v in seq:
            out.append(sep + pad_in)
            _write(v, out, indent, level + 1)
            sep = ",\n"
        out.append(f"\n{pad}]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    out: list[str] = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)
