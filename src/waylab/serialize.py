"""All of waylab's JSON: the codecs of matrices and of every scenario object,
and a report writer with deterministic float formatting.

Matrices travel as row-major nested lists of ``[re, im]`` pairs.  An object
reader checks the JSON's shape and builds the object with its public
constructor, whose failed check becomes a :class:`SchemaError` naming the
object's path; the domain modules know nothing of JSON.  Report emission goes
through :func:`dumps`, a small recursive writer that renders every float with
17 significant digits so identical inputs produce byte-identical files (the
stdlib ``json`` module cannot pin float formatting), a complex array as
:func:`matrix_to_json` writes it and a real one as nested lists.

The codecs cost per matrix, not per element: a well-formed matrix is read with
one ``np.array`` call, and a matrix (or a list of float pairs, or a complex
array, straight from its floats) and a dict of scalars are each written with
one ``%`` format; any other input takes the per-element path, which also
reports every malformed input.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add
from typing import Any, Callable

import numpy as np

from .conserve import AdditiveQuantity
from .cpmaps import OperationMap
from .measure import Instrument, MeasurementScheme, Observable
from .opcore import DEFAULT_TOL, Tolerance, _checked

__all__ = [
    "SchemaError",
    "KINDS",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "operation_from_json",
    "operation_to_json",
    "observable_from_json",
    "observable_to_json",
    "instrument_from_json",
    "instrument_to_json",
    "scheme_from_json",
    "scheme_to_json",
    "object_from_json",
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


def _lists(a: np.ndarray) -> list:
    """An array as nested lists, of ``[re, im]`` pairs of floats if it is complex."""
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a, dtype=complex)
        return a.view(float).reshape(*a.shape, 2).tolist()
    return a.tolist()


def matrix_to_json(m) -> list[list[list[float]]]:
    """Row-major nested list of [re, im] pairs (plain floats, not strings)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"matrix_to_json expects a 2-D array, got shape {a.shape}")
    return _lists(a)


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
        rows.append([_entry_from_json(cell, f"{where}[{i}][{j}]") for j, cell in enumerate(row)])
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
    return _lists(np.asarray(v, dtype=complex).reshape(-1))


def vector_from_json(obj: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a non-empty list of entries")
    return np.array([_entry_from_json(cell, f"{where}[{i}]") for i, cell in enumerate(obj)])


# ---------------------------------------------------------------------------
# scenario objects
# ---------------------------------------------------------------------------

# The kinds of a scenario's ``objects`` entries, in the README's order.
KINDS = ("operator", "vector", "observable", "instrument", "channel", "scheme", "quantity")


def _object(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return obj


def _per_outcome(obj: dict, where: str, field: str, what: str) -> tuple[list[str], list]:
    """The ``outcomes`` labels, as strings, and the ``field`` list: one ``what`` per outcome."""
    outcomes, items = obj.get("outcomes"), obj.get(field)
    if not isinstance(outcomes, list) or not outcomes:
        raise SchemaError(f"{where}.outcomes: expected a non-empty list")
    if not isinstance(items, list) or len(items) != len(outcomes):
        raise SchemaError(f"{where}.{field}: expected one {what} per outcome")
    return [str(x) for x in outcomes], items


def _built(where: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, a public constructor (or check) whose
    ValueError is re-raised as a :class:`SchemaError` naming ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def operation_from_json(obj: Any, where: str = "channel") -> OperationMap:
    """Build from ``{"kraus": [matrix, ...]}`` or ``{"unitary": matrix}``."""
    if "unitary" in _object(obj, where):
        kraus = [matrix_from_json(obj["unitary"], f"{where}.unitary")]
    elif "kraus" in obj:
        ks = obj["kraus"]
        if not isinstance(ks, list) or not ks:
            raise SchemaError(f"{where}.kraus: expected a non-empty list")
        kraus = [matrix_from_json(k, f"{where}.kraus[{i}]") for i, k in enumerate(ks)]
    else:
        raise SchemaError(f"{where}: needs a 'kraus' or 'unitary' field")
    return _built(where, OperationMap, kraus)


def operation_to_json(phi: OperationMap) -> dict:
    return {"kraus": _lists(phi._kraus)}


def observable_from_json(obj: Any, where: str = "observable",
                         tol: Tolerance = DEFAULT_TOL) -> Observable:
    outcomes, effects = _per_outcome(_object(obj, where), where, "effects", "effect")
    mats = [matrix_from_json(m, f"{where}.effects[{i}]") for i, m in enumerate(effects)]
    return _built(where, Observable, outcomes, mats, tol)


def observable_to_json(obs: Observable) -> dict:
    return {"outcomes": list(obs.outcomes), "effects": _lists(obs._effects)}


def instrument_from_json(obj: Any, where: str = "instrument",
                         tol: Tolerance = DEFAULT_TOL) -> Instrument:
    outcomes, operations = _per_outcome(_object(obj, where), where, "operations", "operation")
    ops = [operation_from_json(o, f"{where}.operations[{i}]") for i, o in enumerate(operations)]
    return _built(where, Instrument, outcomes, ops, tol)


def instrument_to_json(inst: Instrument) -> dict:
    return {
        "outcomes": list(inst.outcomes),
        "operations": [operation_to_json(op) for op in inst.operations],
    }


def scheme_from_json(obj: Any, sys_dim: int, where: str = "scheme",
                     tol: Tolerance = DEFAULT_TOL) -> MeasurementScheme:
    app_dim = _object(obj, where).get("apparatus_dim")
    if type(app_dim) is not int or app_dim < 1:
        raise SchemaError(f"{where}.apparatus_dim: expected a positive integer")
    xi = matrix_from_json(obj.get("xi"), f"{where}.xi")
    coupling = operation_from_json(obj.get("coupling"), f"{where}.coupling")
    pointer = observable_from_json(obj.get("pointer"), f"{where}.pointer", tol)
    return _built(where, MeasurementScheme, sys_dim, app_dim, xi, coupling, pointer, tol)


def scheme_to_json(m: MeasurementScheme) -> dict:
    return {
        "apparatus_dim": m.app_dim,
        "xi": matrix_to_json(m.xi),
        "coupling": operation_to_json(m.coupling),
        "pointer": observable_to_json(m.pointer),
    }


def object_from_json(obj: Any, where: str, sys_dim: int, tol: Tolerance) -> tuple[str, Any]:
    """The kind and the checked object of a scenario's ``objects`` entry, at
    the scenario's system dimension and resolved tolerance."""
    kind = _object(obj, where).get("kind")
    if kind not in KINDS:
        raise SchemaError(f"{where}.kind: expected one of {KINDS}, got {kind!r}")
    if kind == "operator":
        return kind, _built(where, _checked, matrix_from_json(obj.get("matrix"), f"{where}.matrix"))
    if kind == "vector":
        return kind, vector_from_json(obj.get("values"), f"{where}.values")
    if kind == "observable":
        return kind, observable_from_json(obj, where, tol)
    if kind == "instrument":
        return kind, instrument_from_json(obj, where, tol)
    if kind == "channel":
        phi = operation_from_json(obj, where)
        if not phi.is_channel(tol):
            raise SchemaError(f"{where}: Kraus operators do not form a channel")
        return kind, phi
    if kind == "scheme":
        return kind, scheme_from_json(obj, sys_dim, where, tol)
    # the last of KINDS: a quantity
    n_sys = matrix_from_json(obj.get("system"), f"{where}.system")
    n_app = matrix_from_json(obj.get("apparatus"), f"{where}.apparatus")
    return kind, _built(where, AdditiveQuantity, n_sys, n_app, tol)


@functools.lru_cache(maxsize=64)
def _pair_template(n: int, pad_in: str, pad: str) -> str:
    """The ``%`` template of a list of ``n`` ``[re, im]`` pairs."""
    rows = ",\n".join([pad_in + "[%.17g, %.17g]"] * n)
    return f"[\n{rows}\n{pad}]"


@functools.lru_cache(maxsize=64)
def _grid_template(n_rows: int, n_cols: int, pad_in: str, pad: str, step: str) -> str:
    """The ``%`` template of a matrix: ``n_rows`` lists of ``n_cols`` pairs."""
    row = _pair_template(n_cols, pad_in + step, pad_in)
    return "[\n" + ",\n".join([pad_in + row] * n_rows) + f"\n{pad}]"


def _array_block(a: np.ndarray, pad_in: str, pad: str, step: str) -> str | None:
    """The text of a non-empty complex array of 1 or 2 dimensions, as
    :func:`_pair_block` writes its nested lists, with one ``%`` over its
    floats and no lists built; None for a non-finite value."""
    template = (_pair_template(len(a), pad_in, pad) if a.ndim == 1
                else _grid_template(*a.shape, pad_in, pad, step))
    # + 0.0 turns -0.0 into 0.0, written "0"; only "inf" and "nan" hold an "n"
    floats = (np.ascontiguousarray(a, dtype=complex).view(float) + 0.0).ravel().tolist()
    text = template % tuple(floats)
    return None if "n" in text else text


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
        template = _grid_template(len(seq), len(seq[0]), pad_in, pad, step)
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
            parts = [str(int(v)) if isinstance(v, (int, np.integer)) else format_float(float(v))
                     for v in seq]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[")
        sep = "\n"
        for v in seq:
            out.append(sep + pad_in)
            _write(v, out, indent, level + 1)
            sep = ",\n"
        out.append(f"\n{pad}]")
    elif isinstance(obj, np.ndarray):
        pairs = np.iscomplexobj(obj) and obj.size > 0
        if pairs and obj.ndim > 2:
            _write(list(obj), out, indent, level)  # the arrays of one dimension less
            return
        block = _array_block(obj, pad_in, pad, " " * indent) if pairs else None
        if block is None:  # real, empty or non-finite (the per-element path raises)
            _write(_lists(obj), out, indent, level)
        else:
            out.append(block)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    out: list[str] = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)
