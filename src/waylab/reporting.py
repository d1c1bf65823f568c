"""Report records: the one record-to-dict rule (:class:`Record`) and bound rows.

A :class:`BoundReport` freezes one evaluated inequality: identifier, outcome
label (or label pair), both sides, the slack ``rhs - lhs``, whether the
inequality holds within ``eq_tol``, and whether the statement's hypotheses
were met by the inputs.  Reports whose hypotheses fail are still informative
but are never counted as violations by the summary or the CLI exit code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from types import MappingProxyType
from typing import Any, Iterable, Mapping

import numpy as np

from .opcore import DEFAULT_TOL, Tolerance

__all__ = ["Record", "BoundReport", "make_report", "digest_inputs", "summarize"]


class Record:
    """Base of the frozen report dataclasses: ``to_dict`` gives the fields in
    declaration order, nested records and dicts (read-only ones too) as plain
    dicts, and every other value as it is, uncopied."""

    def to_dict(self) -> dict:
        return _plain(vars(self))


def _plain(fields: Mapping[str, Any]) -> dict:
    return {
        k: v.to_dict() if isinstance(v, Record)
        else _plain(v) if isinstance(v, (dict, MappingProxyType)) else v
        for k, v in fields.items()
    }


@dataclasses.dataclass(frozen=True)
class BoundReport(Record):
    bound_id: str
    outcome: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    hypothesis_satisfied: bool
    hypothesis: str
    inputs_digest: str


def make_report(
    bound_id: str,
    outcome: str,
    lhs: float,
    rhs: float,
    tol: Tolerance = DEFAULT_TOL,
    digest: str = "",
    hypothesis_satisfied: bool = True,
    hypothesis: str = "",
) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"{bound_id}: non-finite bound sides lhs={lhs} rhs={rhs}")
    slack = rhs - lhs
    return BoundReport(
        bound_id=bound_id,
        outcome=outcome,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        satisfied=bool(slack >= -tol.eq_tol),
        hypothesis_satisfied=bool(hypothesis_satisfied),
        hypothesis=hypothesis,
        inputs_digest=digest,
    )


# Significant digits, counted from the largest entry of each array (or the
# value of each float), that inputs_digest keeps: inputs that agree to them
# digest alike, whatever their last bits.
_DIGEST_DIGITS = 10


def _rounded(arr: np.ndarray) -> bytes:
    """The real and imaginary parts of ``arr`` as integer multiples of
    ``10**e``, ``e`` putting ``_DIGEST_DIGITS`` digits in the largest part,
    and ``e`` itself."""
    x = np.ascontiguousarray(arr, dtype=complex).view(float)
    top = float(np.abs(x).max(initial=0.0))
    e = math.floor(math.log10(top)) + 1 - _DIGEST_DIGITS if top > 0.0 else 0
    return b"%de" % e + np.rint(x * 10.0**-e).astype(np.int64).tobytes()


def _rounded_rows(stack: np.ndarray) -> list[bytes]:
    """:func:`_rounded` of each array of a stack ``(n, ...)``, in one numpy
    pass; the exponents come from ``math.log10``, as there, since numpy's
    vectorized ``log10`` may be one ulp off at a power of ten."""
    x = np.ascontiguousarray(stack, dtype=complex).view(float).reshape(len(stack), -1)
    tops = np.abs(x).max(axis=1, initial=0.0).tolist()
    exps = [math.floor(math.log10(t)) + 1 - _DIGEST_DIGITS if t > 0.0 else 0 for t in tops]
    scaled = np.rint(x * np.array([10.0**-e for e in exps])[:, None]).astype(np.int64)
    return [b"%de" % e + row.tobytes() for e, row in zip(exps, scaled)]


def _feed(h: "hashlib._Hash", item: Any) -> None:
    if item is None:
        h.update(b"\x00none")
    elif isinstance(item, str):
        h.update(b"\x01s" + item.encode("utf-8"))
    elif isinstance(item, bool):
        h.update(b"\x02b" + (b"1" if item else b"0"))
    elif isinstance(item, int):
        h.update(b"\x03n" + repr(item).encode("ascii"))
    elif isinstance(item, (float, complex, np.ndarray)):
        arr = np.asarray(item)
        h.update(b"\x04m" + str(arr.shape).encode("ascii") + _rounded(arr))
    elif isinstance(item, (list, tuple)):
        h.update(b"\x05l" + str(len(item)).encode("ascii"))
        shapes = {sub.shape if isinstance(sub, np.ndarray) else None for sub in item}
        if len(shapes) == 1 and None not in shapes:  # same-shape arrays: one pass
            head = b"\x04m" + str(shapes.pop()).encode("ascii")
            for rounded in _rounded_rows(np.array(item)):
                h.update(head + rounded)
            return
        for sub in item:
            _feed(h, sub)
    else:
        raise TypeError(f"cannot digest object of type {type(item).__name__}")


def digest_inputs(*items: Any) -> str:
    """Short stable hash of the inputs behind a batch of reports: the first
    12 hex digits of a SHA-256 over strings, bools and ints as they are and
    over every float, complex and array rounded to ``_DIGEST_DIGITS``
    significant digits of its largest entry."""
    h = hashlib.sha256()
    for item in items:
        _feed(h, item)
    return h.hexdigest()[:12]


def summarize(reports: Iterable[BoundReport]) -> dict:
    total = satisfied = violated = hypothesis_violated = 0
    for r in reports:
        total += 1
        if not r.hypothesis_satisfied:
            hypothesis_violated += 1
        elif r.satisfied:
            satisfied += 1
        else:
            violated += 1
    return {
        "total": total,
        "satisfied": satisfied,
        "violated": violated,
        "hypothesis_violated": hypothesis_violated,
    }
