"""Compare two waylab JSON reports, or two oracle output directories: the
equivalence check between versions.

    python3 tools/report_diff.py A.json B.json
    python3 tools/report_diff.py DIR_A DIR_B

Two reports pass when they have the same keys, strings, bools and ints and
every float of one is within 1e-12 of the matching float (or integral
number, which is how a float such as 0.0 is written) of the other.  For two
reports it prints the number of floats that differ at all, the largest
absolute difference, the path of each differing float, and the path of each
mismatch of any other kind.  For two directories (``tools/oracle.py``
outputs) it compares every file of either one, a ``.json`` file by that rule
and any other file byte for byte, and prints one line per file that differs
or is missing from one side.  Exits 0 when everything passes, 1 otherwise,
and 2 on a usage error; a reader that closes the pipe early (``| head``)
ends the listing quietly.
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


def diff_reports(path_a: str, path_b: str) -> tuple[list[tuple[str, float]], list[str]]:
    """The differing floats and the other mismatches of two JSON reports."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    floats: list[tuple[str, float]] = []
    mismatches: list[str] = []
    compare(a, b, "$", floats, mismatches)
    return floats, mismatches


def _summary(floats: list[tuple[str, float]], mismatches: list[str]) -> tuple[str, bool]:
    """The count and largest of the differing floats, and whether the reports
    pass."""
    largest = max((d for _, d in floats), default=0.0)
    return (f"differing floats: {len(floats)}, largest absolute difference: {largest:.3g}",
            not mismatches and largest <= FLOAT_TOL)


def _report_lines(path_a: str, path_b: str) -> tuple[list[str], bool]:
    floats, mismatches = diff_reports(path_a, path_b)
    summary, ok = _summary(floats, mismatches)
    lines = [summary, *(f"  {path}: {diff:.3g}" for path, diff in floats)]
    return lines + [f"mismatch {line}" for line in mismatches], ok


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def _dir_lines(dir_a: str, dir_b: str) -> tuple[list[str], bool]:
    lines, ok = [], True
    in_a, in_b = _files(dir_a), _files(dir_b)
    for name in sorted(in_a | in_b):
        if name not in in_b or name not in in_a:
            lines.append(f"{name}: missing from {dir_b if name in in_a else dir_a}")
            ok = False
            continue
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        if not name.endswith(".json"):
            lines.append(f"{name}: bytes differ")
            ok = False
            continue
        floats, mismatches = diff_reports(path_a, path_b)
        summary, passed = _summary(floats, mismatches)
        lines.append(f"{name}: {'passes' if passed else 'FAILS'}, {summary}, "
                     f"other mismatches: {len(mismatches)}")
        ok = ok and passed
    return lines, ok


def main(argv: list[str]) -> int:
    dirs = [os.path.isdir(p) for p in argv]
    if len(argv) != 2 or not all(map(os.path.exists, argv)) or dirs[0] != dirs[1]:
        print("usage: report_diff.py A.json B.json | DIR_A DIR_B", file=sys.stderr)
        return 2
    lines, ok = (_dir_lines if dirs[0] else _report_lines)(*argv)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``report_diff.py A B | head``): send the
        # rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
