import ast
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab.serialize import (
    SchemaError,
    dumps,
    format_float,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)


def test_format_float_normalizes_zero():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(float("inf"))
    with pytest.raises(ValueError):
        format_float(float("nan"))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x or (x == 0.0 and format_float(x) == "0")


def test_matrix_round_trip():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_json(matrix_to_json(m))
    np.testing.assert_allclose(back, m, atol=0)  # exact, 17 significant digits


def test_matrix_from_json_accepts_bare_reals():
    m = matrix_from_json([[1, 0.5], [0.5, 1]])
    np.testing.assert_allclose(m, np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_matrix_from_json_reports_field_paths():
    with pytest.raises(SchemaError, match=r"m\[1\]: ragged row"):
        matrix_from_json([[1, 2], [3]], "m")
    with pytest.raises(SchemaError, match=r"m\[0\]\[1\]"):
        matrix_from_json([[1, "x"], [3, 4]], "m")
    with pytest.raises(SchemaError, match="non-empty"):
        matrix_from_json([], "m")


@pytest.mark.parametrize("cell", [
    float("inf"), -float("inf"), float("nan"), [0.0, float("inf")], [float("nan"), 1.0],
    10**400, [1, -(10**400)],
], ids=["inf", "-inf", "nan", "pair-inf", "pair-nan", "int-1e400", "pair-int-1e400"])
def test_non_finite_entries_are_rejected_with_their_path(cell):
    # the fast path of a well-formed pair matrix falls back to the per-cell
    # loop, which names the entry; a bare-number matrix takes the loop directly
    for good, where in (([1.0, 0.0], "[1][1]"), (1.0, "[1][1]")):
        rows = [[good, good], [good, cell]]
        with pytest.raises(SchemaError, match=re.escape(f"m{where}: entries must be finite")):
            matrix_from_json(rows, "m")
    with pytest.raises(SchemaError, match=re.escape("v[1]: entries must be finite")):
        vector_from_json([[1.0, 0.0], cell], "v")


def test_vector_round_trip():
    v = np.array([1.0, -2.5j, 0.25 + 0.125j])
    np.testing.assert_allclose(vector_from_json(vector_to_json(v)), v)
    with pytest.raises(SchemaError, match=r"v\[1\]"):
        vector_from_json([1.0, None], "v")


def test_dumps_is_valid_json_and_ordered():
    payload = {"b": 1, "a": [1.5, 2], "flags": [True, None], "note": "x"}
    text = dumps(payload)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": [1.5, 2], "flags": [True, None], "note": "x"}
    # insertion order preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_numeric_rows_stay_compact():
    text = dumps({"m": [[1.0, 2.0], [3.0, 4.0]]})
    assert "[1, 2]" in text and "[3, 4]" in text


def test_dumps_deterministic():
    obj = {"x": [0.1, 0.2, 0.30000000000000004], "y": {"k": -0.0}}
    assert dumps(obj) == dumps(obj)
    assert '"y"' in dumps(obj) and "-0" not in dumps(obj)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"bad": object()})


# -- the codecs against the per-element reference ---------------------------


def reference_write(obj, out, indent, level):
    """The per-element writer that :func:`dumps` must match byte for byte."""
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for k, v in items[:-1]:
            out.append(f"{pad_in}{json.dumps(str(k), ensure_ascii=True)}: ")
            reference_write(v, out, indent, level + 1)
            out.append(",\n")
        k, v = items[-1]
        out.append(f"{pad_in}{json.dumps(str(k), ensure_ascii=True)}: ")
        reference_write(v, out, indent, level + 1)
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in seq
        ):
            parts = [
                str(int(v)) if isinstance(v, (int, np.integer)) else format_float(float(v))
                for v in seq
            ]
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for v in seq[:-1]:
            out.append(pad_in)
            reference_write(v, out, indent, level + 1)
            out.append(",\n")
        out.append(pad_in)
        reference_write(seq[-1], out, indent, level + 1)
        out.append(f"\n{pad}]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def reference_dumps(obj, indent=2):
    out = []
    reference_write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def reference_finite(v):
    """Whether a JSON number is a finite float (an int beyond float range is not)."""
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def reference_matrix_from_json(obj, where="matrix"):
    """The per-cell reader that :func:`matrix_from_json` must match."""
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
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                parts = (cell, 0.0)
            elif (
                isinstance(cell, list)
                and len(cell) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)
            ):
                parts = cell
            else:
                raise SchemaError(
                    f"{where}[{i}][{j}]: expected a number or [re, im] pair, got {cell!r}"
                )
            if not all(reference_finite(v) for v in parts):
                raise SchemaError(f"{where}[{i}][{j}]: entries must be finite, got {cell!r}")
            entries.append(complex(float(parts[0]), float(parts[1])))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared with the reference's, not handled
        return type(exc), str(exc)


def array_outcome(f, obj):
    got = outcome(f, obj, "m")
    if isinstance(got, np.ndarray):  # bits, so -0.0 and nan payloads count
        return got.dtype, got.shape, got.tobytes()
    return got


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               1.0, -3.0, 2.0**53, 0.1]
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([float("inf"), -float("inf"), float("nan")]))
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(10**30), 10**30))
NUMPY_SCALARS = st.one_of(
    FINITE.map(np.float64), FINITE.filter(lambda x: abs(x) < 1e30).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64), st.booleans().map(np.bool_),
)
TEXT = st.text(st.characters(codec="utf-8"), max_size=6)


def json_values(floats):
    pair = st.lists(floats, min_size=2, max_size=2)
    leaves = st.one_of(floats, INTS, NUMPY_SCALARS, st.booleans(), st.none(), TEXT, pair)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(TEXT, inner, max_size=5),
            st.lists(floats, max_size=6),
            st.lists(pair, min_size=1, max_size=6),
            st.lists(st.lists(pair, min_size=2, max_size=2), min_size=1, max_size=3),
            # matrices, ragged ones and ones with empty rows among them
            st.lists(st.lists(pair, max_size=4), min_size=1, max_size=4),
            st.dictionaries(TEXT, st.one_of(floats, INTS, st.booleans(), st.none(), TEXT),
                            min_size=1, max_size=6),
        ),
        max_leaves=30,
    )


@given(json_values(FINITE))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_dumps_matches_reference_writer(obj):
    assert outcome(dumps, obj) == outcome(reference_dumps, obj)


@given(json_values(ANY_FLOAT))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_dumps_raises_as_reference_writer(obj):
    # non-finite floats, numpy bools and anything else unwritable raise the
    # same error at the same point
    assert outcome(dumps, obj) == outcome(reference_dumps, obj)


def test_dumps_writes_report_shaped_payloads_as_reference():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m[0, 0], m[1, 2] = -0.0, complex(0.0, -0.0)
    payload = {"P": matrix_to_json(m), "v": vector_to_json(m[0]), "row": m[1].real.tolist(),
               "flags": [True, False, None], "note": "é☃", "n": np.int64(3)}
    assert dumps(payload) == reference_dumps(payload)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for where in ((0, 0, 1), (4, 4, 0)):
            broken = matrix_to_json(m)
            broken[where[0]][where[1]][where[2]] = bad
            assert outcome(dumps, {"m": broken}) == outcome(reference_dumps, {"m": broken})
            assert outcome(dumps, {"m": broken})[0] is ValueError
        row = m[0].real.tolist() + [bad]
        assert outcome(dumps, row) == outcome(reference_dumps, row)
        # a bound row: a flat dict of scalars, written with one template
        bound_row = {"bound_id": "way-%d", "lhs": 0.5, "rhs": bad, "holds": True, "note": None}
        assert outcome(dumps, [bound_row]) == outcome(reference_dumps, [bound_row])
        assert outcome(dumps, [bound_row])[0] is ValueError


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_matrix_from_json_well_formed_bits(n_rows, n_cols, data):
    number = st.one_of(ANY_FLOAT, INTS)
    obj = data.draw(st.lists(st.lists(st.lists(number, min_size=2, max_size=2),
                                      min_size=n_cols, max_size=n_cols),
                             min_size=n_rows, max_size=n_rows))
    assert array_outcome(matrix_from_json, obj) == array_outcome(reference_matrix_from_json, obj)


MALFORMED_CELLS = st.one_of(
    st.booleans(), TEXT, st.none(), st.just([]), st.just([1, 2, 3]), st.just([True, 1.0]),
    st.just([1.0, "2"]), st.just([[1.0, 2.0]]), st.integers(2**1024, 2**1100),
    st.just([2**1030, 0.0]), st.lists(st.booleans(), min_size=2, max_size=2),
)


@given(st.lists(st.one_of(
    st.lists(st.one_of(FINITE, INTS, st.lists(FINITE, min_size=2, max_size=2), MALFORMED_CELLS),
             max_size=4),
    MALFORMED_CELLS,
), max_size=4))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_matrix_from_json_malformed_reports_as_reference(obj):
    assert array_outcome(matrix_from_json, obj) == array_outcome(reference_matrix_from_json, obj)


@pytest.mark.parametrize("obj", [
    [[[1.0, 0.0], True]], [[[1.0, 0.0], "x"]], [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
    [[[1.0, 0.0], 2.0]], [[[1.0, 0.0]], []], [[[1.0, 2.0, 3.0]]], [[[10**400, 0.0]]],
    [[[True, 0.0]]], [[1, [2.0, 0.0]]], [[]], [], "m", [[[1.0, 0.0]], "row"],
])
def test_matrix_from_json_listed_malformed_inputs(obj):
    got = array_outcome(matrix_from_json, obj)
    assert got == array_outcome(reference_matrix_from_json, obj)


def test_matrix_and_vector_to_json_keep_every_float():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    m[0, 0], m[2, 1] = complex(-0.0, 0.0), complex(5e-324, -0.0)
    want = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    got = matrix_to_json(m)
    assert got == want and all(type(x) is float for row in got for pair in row for x in pair)
    assert [[np.signbit(x) for x in pair] for row in got for pair in row] == [
        [np.signbit(x) for x in pair] for row in want for pair in row
    ]
    assert matrix_to_json(m.T) == [[[float(z.real), float(z.imag)] for z in row] for row in m.T]
    assert vector_to_json(m[:, 1]) == [[float(z.real), float(z.imag)] for z in m[:, 1]]
    assert matrix_to_json(np.eye(2, dtype=int)) == [[[1.0, 0.0], [0.0, 0.0]],
                                                    [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(ValueError, match="2-D"):
        matrix_to_json(m[0])


def test_dumps_writes_arrays_as_their_json_lists():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    stack[0, 0, 0], stack[1, 2, 3], stack[2, 1, 1] = -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)
    stack.setflags(write=False)  # records hold read-only arrays
    for m in (stack[0], stack[1].T, stack[:, :2, :3]):
        assert dumps(m) == dumps([matrix_to_json(a) for a in m] if m.ndim == 3
                                 else matrix_to_json(m))
    assert dumps({"P": stack[2], "basis": stack}) == dumps(
        {"P": matrix_to_json(stack[2]), "basis": [matrix_to_json(a) for a in stack]})
    real = rng.random((3, 4))
    real[1, 1] = -0.0
    assert dumps(real) == dumps(real.tolist())
    assert dumps({"matrix": real[:, :2]}) == dumps({"matrix": real[:, :2].tolist()})
    for bad in (float("nan"), float("inf"), -float("inf")):
        for arr in (stack.copy(), real.copy()):
            arr.reshape(-1)[5] = bad
            with pytest.raises(ValueError, match="cannot serialize non-finite float"):
                dumps({"m": arr})


def pair_lists(a):
    """A complex array as nested lists of ``[re, im]`` pairs of floats."""
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


@given(shape=st.lists(st.integers(0, 4), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([None, -0.0, complex(-0.0, -0.0), 1e300, float("nan"),
                                float("inf"), complex(1.0, -float("inf"))]))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_dumps_writes_complex_arrays_as_their_pair_lists(shape, seed, special):
    # 1-D and 2-D arrays take one template; higher dimensions recurse into
    # them; a non-finite value takes the per-element path, which raises
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if special is not None and a.size:
        a.reshape(-1)[rng.integers(a.size)] = special
    a.setflags(write=False)
    for obj, ref in ((a, pair_lists(a)), ({"x": a, "y": [1.5, a]}, {"x": pair_lists(a),
                                                                    "y": [1.5, pair_lists(a)]})):
        try:
            expected = dumps(ref)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                dumps(obj)
        else:
            assert dumps(obj) == expected


def test_only_serialize_and_cli_know_the_json_schema():
    # the domain modules are JSON-free: no other module imports serialize or
    # names its SchemaError
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "waylab"
    for path in sorted(src.glob("*.py")):
        if path.stem in ("serialize", "cli"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            bad = [n for n in names if n.split(".")[-1] in ("serialize", "SchemaError")]
            assert not bad, f"{path.name}:{node.lineno} names {bad}"
