"""tools/report_diff.py, the equivalence check between two reports."""

import json
import pathlib
import subprocess
import sys

from waylab import cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def report_diff(a, b):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True
    )


def first_path(obj, kind):
    """Path (list of keys) to the first value of type ``kind`` in ``obj``."""
    if type(obj) is kind:
        return []
    if not isinstance(obj, (dict, list)):
        return None
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        sub = first_path(value, kind)
        if sub is not None:
            return [key, *sub]
    return None


def edited_copy(report, path, edit, out):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = edit(node[path[-1]])
    out.write_text(json.dumps(report))
    return out


def test_report_diff_on_suite_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert cli.main(["suite", "--out", str(out), "--quiet"]) in (0, 1)
    same = report_diff(a, b)
    assert same.returncode == 0, same.stdout
    assert same.stdout.startswith("differing floats: 0,")

    report = json.loads(a.read_text())
    path = first_path(report, bool)
    flipped = edited_copy(json.loads(a.read_text()), path, lambda v: not v, tmp_path / "c.json")
    res = report_diff(a, flipped)
    assert res.returncode == 1
    assert "mismatch $." in res.stdout

    path = first_path(report, float)
    moved = edited_copy(json.loads(a.read_text()), path, lambda v: v + 1e-9, tmp_path / "d.json")
    res = report_diff(a, moved)
    assert res.returncode == 1
    assert res.stdout.startswith("differing floats: 1,")

    # a float written as 0 reads back as an int; against a float it is a
    # float difference, not a type mismatch
    zeroed = edited_copy(json.loads(a.read_text()), path, lambda v: 0, tmp_path / "e.json")
    tiny = edited_copy(json.loads(a.read_text()), path, lambda v: 1e-17, tmp_path / "f.json")
    res = report_diff(zeroed, tiny)
    assert res.returncode == 0, res.stdout
    assert res.stdout.startswith("differing floats: 1, largest absolute difference: 1e-17")
    res = report_diff(zeroed, a)
    assert res.returncode == (0 if abs(report_value(report, path)) <= 1e-12 else 1)
    assert "mismatch" not in res.stdout


def report_value(report, path):
    for key in path:
        report = report[key]
    return report


def test_report_diff_into_a_closed_pipe_exits_quietly(tmp_path):
    # far more differing floats than a pipe buffer holds: the script is
    # still writing when the reader goes away
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([0.5] * 20000))
    b.write_text(json.dumps([0.5 + 1e-9] * 20000))
    proc = subprocess.Popen([sys.executable, str(SCRIPT), str(a), str(b)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("differing floats: 20000,")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == ""
    proc.stderr.close()


def oracle_dirs(tmp_path):
    """Two equal directories of a report and a text file, as
    ``tools/oracle.py`` writes them."""
    dirs = tmp_path / "a", tmp_path / "b"
    for d in dirs:
        (d / "sub").mkdir(parents=True)
        (d / "r.json").write_text(json.dumps({"x": 0.5, "ok": True, "rows": [1, 2.5]}))
        (d / "sub" / "demo.txt").write_text("fixed to 3.97e-16\n")
    return dirs


def test_report_diff_directories(tmp_path):
    a, b = oracle_dirs(tmp_path)
    same = report_diff(a, b)
    assert (same.returncode, same.stdout) == (0, "")

    # a float moved within 1e-12 passes, and is listed
    (b / "r.json").write_text(json.dumps({"x": 0.5 + 2**-40, "ok": True, "rows": [1, 2.5]}))
    res = report_diff(a, b)
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "r.json: passes, differing floats: 1, largest absolute difference: 9.09e-13, "
        "other mismatches: 0"]

    # beyond it, or a flipped bool, fails
    for edit in ({"x": 0.5 + 1e-9, "ok": True, "rows": [1, 2.5]},
                 {"x": 0.5, "ok": False, "rows": [1, 2.5]}):
        (b / "r.json").write_text(json.dumps(edit))
        res = report_diff(a, b)
        assert res.returncode == 1
        assert res.stdout.startswith("r.json: FAILS,")
        assert len(res.stdout.splitlines()) == 1
    (b / "r.json").write_text((a / "r.json").read_text())

    # any other file is compared byte for byte
    (b / "sub" / "demo.txt").write_text("fixed to 4.97e-16\n")
    res = report_diff(a, b)
    assert (res.returncode, res.stdout) == (1, "sub/demo.txt: bytes differ\n")

    # a file on one side only
    (b / "sub" / "demo.txt").unlink()
    (b / "extra.json").write_text("{}")
    res = report_diff(a, b)
    assert res.returncode == 1
    assert res.stdout.splitlines() == [f"extra.json: missing from {a}",
                                       f"sub/demo.txt: missing from {b}"]


def test_report_diff_usage_errors(tmp_path):
    a, b = oracle_dirs(tmp_path)
    for args in ([a], [a, b, b], [a, b / "r.json"], [a, tmp_path / "nowhere"]):
        res = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr.startswith("usage:")
