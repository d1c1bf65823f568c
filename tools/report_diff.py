"""Compare two waylab JSON reports: the equivalence check between versions.

    python3 tools/report_diff.py A.json B.json

Exits 0 when both reports have the same keys, strings, bools and ints and
every float of one is within 1e-12 of the matching float (or integral
number, which is how a float such as 0.0 is written) of the other;
exits 1 otherwise, and 2 on a usage error.  Prints the number of floats
that differ at all, the largest absolute difference, the path of each
differing float, and the path of each mismatch of any other kind; a reader
that closes the pipe early (``| head``) ends the listing quietly.
"""

from __future__ import annotations

import json
import math
import os
import sys

FLOAT_TOL = 1e-12


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a, b, path, floats, mismatches):
    """Walk ``a`` and ``b`` together; collect ``(path, |a - b|)`` for differing
    floats and the paths where anything else differs.

    A float against an int compares as two floats: ``serialize.dumps`` writes
    an integral float such as ``0.0`` without a fraction, so it reads back as
    an int.
    """
    if _number(a) and _number(b) and float in (type(a), type(b)):
        a, b = float(a), float(b)
    if type(a) is not type(b):
        mismatches.append(f"{path}: {type(a).__name__} vs {type(b).__name__}")
    elif isinstance(a, dict):
        if list(a) != list(b):
            mismatches.append(f"{path}: keys {list(a)} vs {list(b)}")
            return
        for key in a:
            compare(a[key], b[key], f"{path}.{key}", floats, mismatches)
    elif isinstance(a, list):
        if len(a) != len(b):
            mismatches.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", floats, mismatches)
    elif isinstance(a, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        diff = abs(a - b)
        floats.append((path, diff if math.isfinite(diff) else math.inf))
    elif a != b:
        mismatches.append(f"{path}: {a!r} vs {b!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    floats: list[tuple[str, float]] = []
    mismatches: list[str] = []
    compare(a, b, "$", floats, mismatches)
    largest = max((d for _, d in floats), default=0.0)
    try:
        print(f"differing floats: {len(floats)}, largest absolute difference: {largest:.3g}")
        for path, diff in floats:
            print(f"  {path}: {diff:.3g}")
        for line in mismatches:
            print(f"mismatch {line}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``report_diff.py A B | head``): send the
        # rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if not mismatches and largest <= FLOAT_TOL else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
