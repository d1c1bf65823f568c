"""The equivalence oracle as a test: ``tools/oracle.py`` against the committed
outputs in ``tests/golden``.

Every small oracle output is committed as it is.  The three
``battery-*.json`` files (3.4 MB each) are committed as
``battery-fingerprint.json``: per battery file and ``bound_id``, the row
count, the count with the hypothesis holding, the count satisfied, the
smallest slack and the sum of the lhs.  The comparison is
``tools/report_diff.py``'s directory rule: a JSON file (the fingerprint
too) matches when no key, string, bool or int moves and every float stays
within 1e-12; every other file (``suite.csv``, the demos' text,
``exit-codes.txt``) matches byte for byte.

After a deliberate report change, regenerate the goldens with

    python3 tests/test_oracle_golden.py

review ``git diff tests/golden`` (or ``tools/report_diff.py`` against the
parent's outputs), and name every moved path in CHANGES.md.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tools"))

import report_diff  # noqa: E402


def fingerprint(battery):
    """``bound_id -> {rows, hypothesis_holds, satisfied, min_slack, lhs_sum}``
    over every scenario of one battery file, in the order the ids first
    appear."""
    rows = {}
    for scenario in battery:
        for row in scenario["bounds"]:
            rows.setdefault(row["bound_id"], []).append(row)
    return {
        bound_id: {
            "rows": len(group),
            "hypothesis_holds": sum(r["hypothesis_satisfied"] for r in group),
            "satisfied": sum(r["satisfied"] for r in group),
            "min_slack": min(float(r["slack"]) for r in group),
            "lhs_sum": math.fsum(r["lhs"] for r in group),
        }
        for bound_id, group in rows.items()
    }


def oracle_outputs(out):
    """Run the oracle into the directory ``out``, its battery files replaced
    by their fingerprint."""
    subprocess.run([sys.executable, str(ROOT / "tools" / "oracle.py"), str(out)],
                   cwd=out, check=True, capture_output=True)
    batteries = sorted(out.glob("battery-*.json"))
    prints = {path.name: fingerprint(json.loads(path.read_text())) for path in batteries}
    for path in batteries:
        path.unlink()
    (out / "battery-fingerprint.json").write_text(json.dumps(prints, indent=1) + "\n")
    return out


def differences(dir_a, dir_b):
    """The lines of ``report_diff.py DIR_A DIR_B`` (one per file that is
    missing or differs), or none when every file passes its rule."""
    lines, ok = report_diff._dir_lines(str(dir_a), str(dir_b))
    return [] if ok else lines


def test_oracle_matches_goldens(tmp_path):
    assert differences(GOLDEN, oracle_outputs(tmp_path)) == []


def test_golden_comparison_flags_every_edit(tmp_path):
    name = "builtin-qubit-luders.json"
    bounds = json.loads((GOLDEN / name).read_text())["bounds"]
    assert bounds[0] != bounds[1]
    row = next(i for i, r in enumerate(bounds) if isinstance(r["lhs"], float))

    def rewritten(rows):
        pass

    def flipped(rows):
        rows[0]["satisfied"] = not rows[0]["satisfied"]

    def reordered(rows):
        rows[:2] = rows[1::-1]

    def moved(rows):
        rows[row]["lhs"] += 1e-9

    golden = tmp_path / "golden"
    golden.mkdir()
    shutil.copy(GOLDEN / name, golden)
    for edit in (rewritten, flipped, reordered, moved):
        edited = tmp_path / edit.__name__
        edited.mkdir()
        report = json.loads((GOLDEN / name).read_text())
        edit(report["bounds"])
        (edited / name).write_text(json.dumps(report))  # other bytes than the golden's
        lines = differences(golden, edited)
        if edit is rewritten:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith(f"{name}: FAILS"), edit.__name__


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        fresh = oracle_outputs(pathlib.Path(work))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(fresh, GOLDEN)
