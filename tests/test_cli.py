import argparse
import ast
import csv
import dataclasses
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings
from typing import Mapping

import numpy as np
import pytest
import scipy.linalg

from waylab import cli, conserve, cpmaps, fixpt, measure, opcore, rand, reporting, serialize

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def conservation_scenario(eq_tol=None):
    # near-conserving rotation: defect is about 2e-8, straddling the
    # default eq_tol of 1e-9
    u = scipy.linalg.expm(1j * 1e-8 * SX)
    scenario = {
        "schema": 1,
        "name": "near-conserving",
        "system_dim": 2,
        "objects": {
            "U": {"kind": "channel", "unitary": [[[u[i, j].real, u[i, j].imag] for j in range(2)] for i in range(2)]},
            "N": {"kind": "operator", "matrix": [[1.0, 0.0], [0.0, -1.0]]},
        },
        "tasks": [{"op": "conservation", "channel": "U", "operator": "N"}],
    }
    if eq_tol is not None:
        scenario["tolerance"] = {"eq_tol": eq_tol}
    return scenario


def run_file(tmp_path, scenario, extra=()):
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    code = cli.main(["run", str(scn), "--out", str(out), "--quiet", *extra])
    return code, json.loads(out.read_text())


def test_builtin_emit_run_matches_direct_run(tmp_path):
    scn = tmp_path / "scn.json"
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    assert cli.main(["builtin", "qubit-luders", "--lam", "0.5", "--emit", str(scn), "--quiet"]) == 0
    assert cli.main(["run", str(scn), "--out", str(rep_a), "--quiet"]) == 0
    assert (
        cli.main(
            ["builtin", "qubit-luders", "--lam", "0.5", "--run", "--out", str(rep_b), "--quiet"]
        )
        == 0
    )
    assert rep_a.read_bytes() == rep_b.read_bytes()

    report = json.loads(rep_a.read_text())
    assert report["schema"] == 1
    assert report["scenario"] == "qubit-luders-lam0.5"
    assert report["summary"]["violated"] == 0
    assert report["summary"]["tasks_failed"] == 0
    assert report["bounds"]
    # bounds come out in task order, each task's rows sorted by (bound_id, outcome)
    keys = [(b["bound_id"], b["outcome"]) for b in report["bounds"]]
    start = 0
    for task in report["tasks"]:
        stop = start + task.get("bounds_emitted", 0)
        assert keys[start:stop] == sorted(keys[start:stop])
        start = stop
    assert start == len(keys)


def test_run_is_deterministic(tmp_path):
    scn = tmp_path / "scn.json"
    assert cli.main(["builtin", "conservative-scheme", "--seed", "3", "--emit", str(scn), "--quiet"]) == 0
    rep_a = tmp_path / "a.json"
    rep_b = tmp_path / "b.json"
    assert cli.main(["run", str(scn), "--out", str(rep_a), "--quiet"]) == 0
    assert cli.main(["run", str(scn), "--out", str(rep_b), "--quiet"]) == 0
    assert rep_a.read_bytes() == rep_b.read_bytes()


def test_schema_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["run", str(bad), "--quiet"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # json raises a plain ValueError, not a JSONDecodeError, on this integer
    bad.write_text('{"schema": 1, "name": "long", "system_dim": ' + "1" * 5000 + "}")
    assert cli.main(["run", str(bad), "--quiet"]) == 2
    assert "is not valid JSON: Exceeds the limit (4300 digits)" in capsys.readouterr().err

    assert cli.main(["run", str(tmp_path / "missing.json"), "--quiet"]) == 2
    assert "cannot read" in capsys.readouterr().err

    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps({"schema": 2}))
    assert cli.main(["run", str(wrong_schema), "--quiet"]) == 2
    assert "schema" in capsys.readouterr().err

    scenario = conservation_scenario()
    scenario["tasks"][0]["operator"] = "nope"
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps(scenario))
    assert cli.main(["run", str(dangling), "--quiet"]) == 2
    assert "no object named 'nope'" in capsys.readouterr().err

    scenario = conservation_scenario()
    scenario["objects"]["N"]["kind"] = "widget"
    bad_kind = tmp_path / "kind.json"
    bad_kind.write_text(json.dumps(scenario))
    assert cli.main(["run", str(bad_kind), "--quiet"]) == 2
    assert "objects.N.kind" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tolerance.eq_tol", "x"),
    ("tolerance.eq_tol", None),
    ("tolerance.eq_tol", True),
    ("tolerance.rank_tol", "1e-8"),
    ("tolerance.rank_tol", [1e-8]),
    ("WAYLAB_TOL", "abc"),
    ("WAYLAB_RANK_TOL", ""),
    ("scenario.system_dim", True),
    ("objects.M.apparatus_dim", True),
])
def test_bad_tolerance_and_dimension_fields_exit_2(tmp_path, monkeypatch, capsys, field, value):
    # each one names its field instead of raising or reading true as 1
    scenario = cli._builtin_qubit_luders(argparse.Namespace(lam=0.5))
    if field.startswith("WAYLAB_"):
        monkeypatch.setenv(field, value)
    elif field.startswith("tolerance."):
        scenario["tolerance"] = {field.split(".")[1]: value}
    elif field == "scenario.system_dim":
        scenario["system_dim"] = value
    else:
        scenario["objects"]["M"]["apparatus_dim"] = value
    scn = tmp_path / "bad.json"
    scn.write_text(json.dumps(scenario))
    assert cli.main(["run", str(scn), "--quiet"]) == 2
    want = "a positive integer" if field.endswith("_dim") else f"a number, got {value!r}"
    assert capsys.readouterr().err == f"error: {field}: expected {want}\n"


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_non_finite_kraus_entry_exits_2_naming_it(tmp_path, capsys, literal):
    scenario = {
        "schema": 1, "name": "non-finite", "system_dim": 2,
        "objects": {"C": {"kind": "channel", "kraus": [[[[1, 0], [0, 0]], [[0, 0], "ENTRY"]]]}},
        "tasks": [{"op": "fixed-points", "channel": "C"}],
    }
    scn = tmp_path / "non-finite.json"
    scn.write_text(json.dumps(scenario).replace('"ENTRY"', f"[{literal}, 0]"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning included
        assert cli.main(["run", str(scn), "--quiet"]) == 2
    want = f"entries must be finite, got [{float(literal)!r}, 0]"
    assert capsys.readouterr().err == f"error: objects.C.kraus[0][1][1]: {want}\n"


def test_task_errors_are_schema_errors(tmp_path, capsys):
    # binding a 3-dimensional operator to a 2-dimensional channel fails
    # inside the task and surfaces with the task index
    scenario = conservation_scenario()
    scenario["objects"]["N"] = {
        "kind": "operator",
        "matrix": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
    }
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(scenario))
    assert cli.main(["run", str(scn), "--quiet"]) == 2
    assert "tasks[0] (conservation)" in capsys.readouterr().err


def test_quantity_hermiticity_uses_scenario_tolerance(tmp_path, capsys):
    # a conserved quantity off Hermitian by 2e-7: inside --tol 1e-6, outside
    # the default eq_tol
    scn = tmp_path / "scn.json"
    assert cli.main(["builtin", "conservative-scheme", "--emit", str(scn), "--quiet"]) == 0
    scenario = json.loads(scn.read_text())
    n_sys = scenario["objects"]["N"]["system"]
    n_sys[0][1][1] += 1e-7
    n_sys[1][0][1] += 1e-7
    scn.write_text(json.dumps(scenario))
    assert cli.main(["run", str(scn), "--quiet"]) == 2
    assert "objects.N: n_sys must be Hermitian" in capsys.readouterr().err
    code, report = run_file(tmp_path, scenario, extra=["--tol", "1e-6"])
    assert code == 0
    assert report["summary"]["tasks_failed"] == 0


def test_report_exit_thresholds():
    base = {"violated": 0, "tasks_failed": 0}
    assert cli._report_exit({"summary": dict(base)}) == 0
    assert cli._report_exit({"summary": dict(base, violated=1)}) == 1
    assert cli._report_exit({"summary": dict(base, tasks_failed=2)}) == 1


def test_tolerance_precedence(tmp_path, monkeypatch):
    # scenario tolerance accepts the 2e-8 defect
    code, report = run_file(tmp_path, conservation_scenario(eq_tol=1e-6))
    assert code == 0
    assert report["tasks"][0]["average_holds"] is True

    # environment overrides the scenario
    monkeypatch.setenv("WAYLAB_TOL", "1e-12")
    code, report = run_file(tmp_path, conservation_scenario(eq_tol=1e-6))
    assert report["tasks"][0]["average_holds"] is False

    # command line overrides the environment
    code, report = run_file(
        tmp_path, conservation_scenario(eq_tol=1e-6), extra=["--tol", "1e-6"]
    )
    assert report["tasks"][0]["average_holds"] is True


def test_csv_rows(tmp_path):
    out_csv = tmp_path / "bounds.csv"
    assert (
        cli.main(
            [
                "builtin", "qubit-luders", "--lam", "0.3", "--run",
                "--out", str(tmp_path / "r.json"), "--csv", str(out_csv), "--quiet",
            ]
        )
        == 0
    )
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "scenario", "bound_id", "outcome", "lhs", "rhs", "slack",
        "satisfied", "hypothesis_satisfied", "inputs_digest",
    ]
    assert len(rows) > 1
    assert all(len(r) == 9 for r in rows[1:])
    assert all(r[0] == "qubit-luders-lam0.3" for r in rows[1:])


def test_multi_file_run(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["builtin", "qubit-luders", "--lam", "0.3", "--emit", str(a), "--quiet"]) == 0
    assert cli.main(["builtin", "rank1-collapse", "--gamma", "0.4", "--emit", str(b), "--quiet"]) == 0
    out = tmp_path / "combined.json"
    assert cli.main(["run", str(a), str(b), "--out", str(out), "--quiet"]) == 0
    combined = json.loads(out.read_text())
    assert combined["schema"] == 1
    assert [r["scenario"] for r in combined["reports"]] == [
        "qubit-luders-lam0.3",
        "rank1-collapse-gamma0.4",
    ]


def test_remaining_builtins_run_clean(tmp_path):
    for name, extra in (
        ("qutrit-average-vs-full", []),
        ("normal-dilation", []),
        ("conservative-scheme", ["--seed", "11", "--aligned"]),
    ):
        out = tmp_path / f"{name}.json"
        assert (
            cli.main(["builtin", name, *extra, "--run", "--out", str(out), "--quiet"]) == 0
        ), name
        report = json.loads(out.read_text())
        assert report["summary"]["violated"] == 0
        assert report["summary"]["tasks_failed"] == 0


def test_readme_scenarios_parse_and_run():
    # every json block in the README is a scenario the parser accepts
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        scn, tasks = cli.parse_scenario(json.loads(block), argparse.Namespace())
        report = cli.run_scenario(scn, tasks)
        assert len(report["tasks"]) == len(tasks)
        assert report["summary"]["tasks_failed"] == 0


def test_memory_error_is_a_resource_limit(tmp_path, monkeypatch, capsys):
    def exhausted(scn, idx, task):
        raise MemoryError("Unable to allocate 11.4 GiB for an array")

    monkeypatch.setattr(cli, "run_task", exhausted)
    out = tmp_path / "report.json"
    code = cli.main(["builtin", "qubit-luders", "--run", "--out", str(out), "--quiet"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: resource limit: Unable to allocate 11.4 GiB for an array\n"
    )
    assert not out.exists()


def fixed_points_supermatrix_builds(tmp_path, monkeypatch, builtin):
    """Run the ``fixed-points`` task of a builtin alone; returns how many
    supermatrices it built."""
    scn = tmp_path / "scn.json"
    assert cli.main(["builtin", builtin, "--emit", str(scn), "--quiet"]) == 0
    scenario = json.loads(scn.read_text())
    scenario["tasks"] = [t for t in scenario["tasks"] if t["op"] == "fixed-points"]
    assert len(scenario["tasks"]) == 1

    calls = []
    real = cpmaps.to_supermatrix

    def counted(phi):
        calls.append(phi)
        return real(phi)

    for module in (cpmaps, fixpt):
        monkeypatch.setattr(module, "to_supermatrix", counted)
    code, report = run_file(tmp_path, scenario)
    assert code == 0
    assert report["tasks"][0]["ok"]
    return len(calls)


def test_unital_fixed_points_task_builds_no_supermatrix(tmp_path, monkeypatch):
    # the Lueders channel is unital: its fixed space is the Kraus commutant
    assert fixed_points_supermatrix_builds(tmp_path, monkeypatch, "qubit-luders") == 0


def test_non_unital_fixed_points_task_builds_one_supermatrix(tmp_path, monkeypatch):
    assert fixed_points_supermatrix_builds(tmp_path, monkeypatch, "rank1-collapse") == 1


def test_scheme_run_builds_one_supermatrix(tmp_path, monkeypatch):
    # the fixed-points and structural tasks analyse the one total channel of
    # the scheme, and share that analysis
    calls = []
    real = cpmaps.to_supermatrix

    def counted(phi):
        calls.append(phi)
        return real(phi)

    for module in (cpmaps, fixpt):
        monkeypatch.setattr(module, "to_supermatrix", counted)
    out = tmp_path / "report.json"
    argv = ["builtin", "conservative-scheme", "--run", "--out", str(out), "--quiet"]
    assert cli.main(argv) == 0
    ops = [t["op"] for t in json.loads(out.read_text())["tasks"]]
    assert "fixed-points" in ops and "structural" in ops
    assert len(calls) == 1


def test_scheme_run_decomposes_xi_twice(tmp_path, monkeypatch):
    # every task of the scheme shares one instrument and one set of
    # restriction maps, each of which decomposes xi once
    calls = []
    real = measure._xi_decomposition

    def counted(xi, tol):
        calls.append(tol)
        return real(xi, tol)

    monkeypatch.setattr(measure, "_xi_decomposition", counted)
    out = tmp_path / "report.json"
    argv = ["builtin", "conservative-scheme", "--run", "--out", str(out), "--quiet"]
    assert cli.main(argv) == 0
    assert len(calls) == 2


def scheme_scenario(tasks):
    """The conservative-scheme builtin (seed 7, 2x3) with two input vectors."""
    scenario = cli._builtin_conservative_scheme(
        argparse.Namespace(seed=7, sys_dim=2, app_dim=3, aligned=False)
    )
    scenario["objects"]["psi"] = {"kind": "vector", "values": [[1.0, 0.0], [0.0, 0.0]]}
    scenario["objects"]["phi"] = {"kind": "vector", "values": [[0.0, 0.0], [1.0, 0.0]]}
    scenario["tasks"] = tasks
    return scenario


def test_unknown_distinguishability_outcome_exits_2(tmp_path, capsys):
    task = {"op": "distinguishability-bounds", "scheme": "M", "quantity": "N",
            "psi": "psi", "phi": "phi"}
    code, report = run_file(tmp_path, scheme_scenario([task]))
    assert code in (0, 1) and report["bounds"]
    scn = tmp_path / "unknown.json"
    scn.write_text(json.dumps(scheme_scenario([dict(task, outcome="no-such-outcome")])))
    assert cli.main(["run", str(scn), "--quiet"]) == 2
    assert "unknown outcome 'no-such-outcome'" in capsys.readouterr().err


def test_assert_extremal_must_be_a_boolean(tmp_path, capsys):
    tasks = {
        "disturbance-bounds": {"op": "disturbance-bounds", "scheme": "M",
                               "observable": "F", "quantity": "N"},
        "measurability-bounds": {"op": "measurability-bounds", "scheme": "M",
                                 "target": "T", "quantity": "N"},
    }
    for op, task in tasks.items():
        counts = {}
        for value in (None, False, True):
            flagged = task if value is None else dict(task, assert_extremal=value)
            code, report = run_file(tmp_path, scheme_scenario([flagged]))
            assert code in (0, 1)
            counts[value] = sum(b["bound_id"].endswith("-extremal") for b in report["bounds"])
        assert counts[None] == counts[False] == 0 < counts[True]
        for bad in ("false", "true", 0, 1, None, [True]):
            scn = tmp_path / "bad.json"
            scn.write_text(json.dumps(scheme_scenario([dict(task, assert_extremal=bad)])))
            assert cli.main(["run", str(scn), "--quiet"]) == 2, (op, bad)
            assert f"tasks[0].assert_extremal: expected true or false" in capsys.readouterr().err


def test_tight_tolerances_do_not_misfile_derived_objects(tmp_path, capsys):
    # every input parses at these tolerances; the derived observables (the
    # Yanase task's coupled pointer, the post-processing refinement) are
    # not checked again, so a rounding defect in them is no input error
    for name, tol in (("conservative-scheme", "1e-15"), ("rank1-collapse", "1e-16")):
        out = tmp_path / f"{name}.json"
        code = cli.main(["builtin", name, "--run", "--tol", tol, "--out", str(out), "--quiet"])
        assert code in (0, 1), capsys.readouterr().err
        assert json.loads(out.read_text())["tasks"]


def test_scheme_instrument_keeps_its_completeness_check(tmp_path, capsys):
    # at rank_tol 0.3 the xi decomposition drops real weight, so the derived
    # instrument is not a channel, and that check is kept
    out = tmp_path / "report.json"
    code = cli.main(["builtin", "conservative-scheme", "--run", "--rank-tol", "0.3",
                     "--out", str(out), "--quiet"])
    assert code == 2
    assert "total map is not a channel" in capsys.readouterr().err
    assert not out.exists()


# The keys each task op writes after "index", "op" and "ok", in order; the
# README's "Command line" table lists the same (test_readme_lists_the_task_record_keys).
TASK_RECORD_KEYS = {
    "disturbance-bounds": ["bounds_emitted"],
    "measurability-bounds": ["bounds_emitted"],
    "way-bounds": ["bounds_emitted"],
    "distinguishability-bounds": ["bounds_emitted"],
    "conservation": ["average_defect", "full_defect", "average_holds", "full_holds"],
    "unitary-equivalence": ["commutator_norm", "average_defect", "full_defect", "consistent"],
    "repeatability": [
        "outcomes", "repeatable", "repeatability_defect", "per_outcome_defects", "first_kind",
        "first_kind_defect", "sharp_equivalence_ok", "items", "items_applicable",
    ],
    "fixed-points": ["analysis", "support_checks"],
    "structural": [
        "faithful", "fixed_dim", "support_rank", "average_holds", "nondisturbed", "first_kind",
        "repeatable", "qubit_support_collapse", "conditions",
    ],
    "norm1-observable": [
        "outcomes", "effects", "skipped_outcomes", "faithful", "sharp", "norm_defect",
        "fixed_defect", "compression_defect", "distinguish_defect",
    ],
    "post-processing": [
        "labels", "effects", "matrix", "outcomes", "reconstruction_defect", "faithful", "sharp",
    ],
    "yanase": [
        "yanase_defect", "weak_defect", "per_outcome_yanase", "per_outcome_weak",
        "unitary_coupling", "average_conserving", "equivalence_applicable",
        "equivalence_consistent", "defect_gap",
    ],
}


def test_readme_lists_the_task_record_keys():
    # each row of the README's key table names its ops and, in order, the keys
    # every record of those ops holds (a conditional "and ... when ..." key and
    # parenthetical notes aside)
    text = README.read_text()
    table = text[text.index("| `op` | keys after `ok` |"):].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:
        ops, keys = row.strip("|").split("|")
        keys = re.sub(r"\([^)]*\)", "", keys).split(",")
        always = [m.group(1) for k in keys if (m := re.fullmatch(r"\s*`(\w+)`\s*", k))]
        for op in re.findall(r"`([\w-]+)`", ops):
            listed[op] = always
    assert listed == TASK_RECORD_KEYS


def test_readme_lists_the_object_kinds():
    text = README.read_text()
    kinds = text[text.index("Object kinds:"):].split("Each object is checked")[0]
    assert tuple(re.findall(r"`(\w+)`\s+\(`", kinds)) == serialize.KINDS


def remaining_ops_scenario():
    """The task ops that no builtin runs, on the scheme of :func:`scheme_scenario`."""
    scenario = scheme_scenario([
        {"op": "distinguishability-bounds", "scheme": "M", "quantity": "N",
         "psi": "psi", "phi": "phi"},
        {"op": "unitary-equivalence", "unitary": "U", "operator": "Z"},
    ])
    scenario["objects"]["U"] = {"kind": "operator", "matrix": [[0.0, 1.0], [1.0, 0.0]]}
    scenario["objects"]["Z"] = {"kind": "operator", "matrix": [[1.0, 0.0], [0.0, -1.0]]}
    return scenario


def parsed_every_op():
    """The parsed ``_SUITE`` scenarios and :func:`remaining_ops_scenario`, which
    together run every task op."""
    scenarios = [builder(argparse.Namespace(**params)) for builder, params in cli._SUITE]
    scenarios.append(remaining_ops_scenario())
    for scenario in scenarios:
        yield cli.parse_scenario(scenario, argparse.Namespace(tol=None, rank_tol=None))


def test_task_record_keys_per_op(tmp_path):
    records = []
    for name in cli._BUILTINS:
        out = tmp_path / f"{name}.json"
        assert cli.main(["builtin", name, "--run", "--out", str(out), "--quiet"]) == 0, name
        records += json.loads(out.read_text())["tasks"]
    code, report = run_file(tmp_path, remaining_ops_scenario())
    assert code in (0, 1)
    records += report["tasks"]
    assert {r["op"] for r in records} == set(TASK_RECORD_KEYS)
    for r in records:
        assert list(r) == ["index", "op", "ok", *TASK_RECORD_KEYS[r["op"]]], r["op"]


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these names from outside; a rename here
    # would leave its layer metrics silently empty
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("waylab_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for qual in tracing.REPORTED + tracing.ATTRIBUTED:
        layer, name = qual.split(".")
        if layer == "linalg":
            assert callable(getattr(np.linalg, name)), qual
            continue
        assert f"waylab.{layer}" in tracing.WAYLAB_MODULES, qual
        assert callable(getattr(importlib.import_module(f"waylab.{layer}"), name)), qual
    layer, cls = tracing.OPERATOR.split(".")
    assert "__init__" in vars(getattr(importlib.import_module(f"waylab.{layer}"), cls))

    # perfbench/ and tools/oracle.py import these names, and the battery and
    # the oracle read .mat from what rand and conservative_unitary return
    root = path.parents[1]
    imported = set()
    for source in [*sorted((root / "perfbench").glob("*.py")), root / "tools" / "oracle.py"]:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("waylab"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert ("waylab.rand", "random_hermitian") in imported
    for module, name in sorted(imported):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    rng = np.random.default_rng(0)
    made = [
        rand.random_hermitian(3, rng), rand.random_state(3, rng), rand.haar_unitary(3, rng),
        *rand.random_povm(3, 2, rng), conserve.conservative_unitary(np.diag([1.0, 0, 0]), rng),
    ]
    assert all(isinstance(op, opcore.Operator) and op.mat.shape == (3, 3) for op in made)


def test_run_scenario_builds_no_operator(monkeypatch):
    # Operator is the edge type: every record and internal path holds arrays,
    # so running parsed scenarios builds none, over every task op
    built = []
    init = opcore.Operator.__init__

    def counting_init(self, mat):
        built.append(np.shape(mat))
        init(self, mat)

    ops = set()
    for scn, tasks in parsed_every_op():
        ops.update(t["op"] for t in tasks)
        monkeypatch.setattr(opcore.Operator, "__init__", counting_init)
        cli.run_scenario(scn, tasks)
        monkeypatch.undo()
    assert ops == set(TASK_RECORD_KEYS)
    assert built == []


def test_repeatability_scheme_must_have_the_instrument_outcomes(tmp_path, capsys):
    b = measure.Observable(["a", "b"], [0.5 * (np.eye(2) + 0.5 * SX), 0.5 * (np.eye(2) - 0.5 * SX)])
    scenario = cli._builtin_qubit_luders(argparse.Namespace(lam=0.5))
    scenario["objects"]["J"] = {
        "kind": "instrument", **serialize.instrument_to_json(measure.luders_instrument(b))
    }
    scenario["tasks"] = [{"op": "repeatability", "instrument": "J", "scheme": "M"}]
    scn = tmp_path / "mismatch.json"
    scn.write_text(json.dumps(scenario))
    assert cli.main(["run", str(scn), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tasks[0] (repeatability): instrument outcomes ['a', 'b']"), err
    # the same scheme with its own instrument runs
    scenario["tasks"] = [{"op": "repeatability", "instrument": "I", "scheme": "M"}]
    code, report = run_file(tmp_path, scenario)
    assert code in (0, 1) and report["tasks"][0]["items"]["moment-identities"]["evaluated"]


def test_objects_failing_their_checks_exit_2(tmp_path, capsys):
    objects = {
        "operator": {"kind": "operator", "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        "channel": {"kind": "channel", "kraus": [np.eye(2).tolist(), np.eye(3).tolist()]},
    }
    for kind, body in objects.items():
        scenario = conservation_scenario()
        scenario["objects"]["N"] = body
        scn = tmp_path / f"{kind}.json"
        scn.write_text(json.dumps(scenario))
        assert cli.main(["run", str(scn), "--quiet"]) == 2, kind
        assert capsys.readouterr().err.startswith("error: objects.N: "), kind


def test_repeatability_scheme_must_share_the_instrument_dimension(tmp_path, capsys):
    # the qubit scheme's pointer has the qutrit instrument's outcomes, so only
    # the dimensions disagree
    e = np.diag([1.0, 0.0, 0.0])
    b = measure.Observable(["plus", "minus"], [e, np.eye(3) - e])
    scenario = cli._builtin_qubit_luders(argparse.Namespace(lam=0.5))
    assert scenario["objects"]["M"]["pointer"]["outcomes"] == ["plus", "minus"]
    scenario["objects"]["J"] = {
        "kind": "instrument", **serialize.instrument_to_json(measure.luders_instrument(b))
    }
    scenario["tasks"] = [{"op": "repeatability", "instrument": "J", "scheme": "M"}]
    scn = tmp_path / "dims.json"
    scn.write_text(json.dumps(scenario))
    assert cli.main(["run", str(scn), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tasks[0] (repeatability): "), err
    assert "dimension 2" in err and "dimension 3" in err, err


def test_successive_mains_share_one_parser(tmp_path, capsys):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "report.json"
    assert cli.main(["builtin", "qubit-luders", "--lam", "0.3", "--emit", str(a)]) == 0
    parser = cli.build_parser()
    assert cli.main(["run", str(a), "--out", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["scenario"] == "qubit-luders-lam0.3"
    # a flag of an earlier call does not carry over to the next one
    assert cli.main(["builtin", "qubit-luders", "--emit", str(b)]) == 0
    assert json.loads(b.read_text())["name"] == "qubit-luders-lam0.5"
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert cli.main(["builtin", "qubit-luders", "--lam", "0.7", "--emit", str(b)]) == 0
    assert json.loads(b.read_text())["name"] == "qubit-luders-lam0.7"
    assert cli.build_parser() is parser


def _asdict_reference(rec):
    """The per-record dict expressions that Record.to_dict replaced."""
    if isinstance(rec, reporting.BoundReport):
        return {
            "bound_id": rec.bound_id,
            "outcome": rec.outcome,
            "lhs": rec.lhs,
            "rhs": rec.rhs,
            "slack": rec.slack,
            "satisfied": rec.satisfied,
            "hypothesis_satisfied": rec.hypothesis_satisfied,
            "hypothesis": rec.hypothesis,
            "inputs_digest": rec.inputs_digest,
        }
    if isinstance(rec, conserve.YanaseReport):
        return {k: dict(v) if isinstance(v, Mapping) else v for k, v in vars(rec).items()}
    return dataclasses.asdict(rec)


def _key_orders(obj):
    if isinstance(obj, dict):
        return [list(obj), *(_key_orders(v) for v in obj.values())]
    return []


def test_record_to_dict_matches_the_replaced_expressions(monkeypatch):
    seen = []
    to_dict = reporting.Record.to_dict

    def recording(self):
        seen.append(self)
        return to_dict(self)

    for scn, tasks in parsed_every_op():
        monkeypatch.setattr(reporting.Record, "to_dict", recording)
        cli.run_scenario(scn, tasks)
        monkeypatch.undo()
    assert {type(r) for r in seen} == {
        reporting.BoundReport,
        conserve.ConservationReport,
        conserve.UnitaryConservationReport,
        conserve.YanaseReport,
        fixpt.MinimalSupportReport,
        fixpt.ConditionCheck,
        fixpt.StructuralReport,
        measure.ItemCheck,
        measure.RepeatabilityReport,
    }
    for rec in seen:
        new, old = rec.to_dict(), _asdict_reference(rec)
        assert new == old, type(rec).__name__
        assert _key_orders(new) == _key_orders(old), type(rec).__name__
        assert serialize.dumps(new) == serialize.dumps(old), type(rec).__name__


def test_importing_the_cli_leaves_scipy_out(tmp_path):
    # numpy is waylab's one runtime dependency: neither the import nor the
    # suite nor a builtin with a conserving unitary loads scipy
    code = (
        "import sys, waylab, waylab.cli\n"
        "for argv in (['suite'], ['builtin', 'conservative-scheme', '--run']):\n"
        "    waylab.cli.main([*argv, '--quiet', '--out', 'report.json'])\n"
        "print('scipy' in sys.modules)"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    assert out.stdout.strip() == "False"


def luders_d12_scenario(seed):
    """The benchmark's ``luders-d12`` scenario, the Lüders instrument of a
    sharp observable in a random basis of C^12 with its two tasks, and the
    exact fixed space of its channel, the operators diagonal in that basis."""
    rng = np.random.default_rng([seed, 12])
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    basis, r = np.linalg.qr(z)
    basis = basis * (np.diag(r) / np.abs(np.diag(r)))
    projectors = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(12)]
    inst = measure.Instrument(
        [f"x{i}" for i in range(12)], [cpmaps.OperationMap([p]) for p in projectors]
    )
    scenario = {
        "schema": 1, "name": "luders-d12", "system_dim": 12,
        "objects": {"I": {"kind": "instrument", **serialize.instrument_to_json(inst)}},
        "tasks": [{"op": "fixed-points", "instrument": "I"}, {"op": "repeatability", "instrument": "I"}],
    }
    return scenario, np.array(projectors)


def test_fixed_space_bases_span_the_null_space(tmp_path, monkeypatch):
    # on the suite, each builtin and luders-d12 at seeds 0 and 97, the
    # printed basis spans the right null space of M - 1, and on luders-d12
    # the exact fixed space too
    seen = []

    def spy(phi, tol=opcore.DEFAULT_TOL):
        analysis = fixpt.analyze_fixed_points(phi, tol)
        seen.append((phi, tol, analysis))
        return analysis

    monkeypatch.setattr(cli, "analyze_fixed_points", spy)
    out = str(tmp_path / "report.json")
    runs = [["suite"], *(["builtin", name, "--run"] for name in sorted(cli._BUILTINS))]
    exact = []
    for seed in (0, 97):
        scenario, projectors = luders_d12_scenario(seed)
        path = tmp_path / f"luders-{seed}.json"
        path.write_text(json.dumps(scenario))
        runs.append(["run", str(path)])
        exact.append(projectors)
    for argv in runs:
        assert cli.main([*argv, "--quiet", "--out", out]) in (0, 1)
    # ten suite scenarios and its Cesaro check, five builtins, two luders runs
    assert len(seen) == 11 + 5 + 2

    def vecs(stack):
        return stack.swapaxes(1, 2).reshape(len(stack), -1).T

    for phi, tol, analysis in seen:
        d = analysis.dim
        right = fixpt._null_spaces(cpmaps.to_supermatrix(phi) - np.eye(d * d), tol.rank_tol)[0]
        assert fixpt._projector_gap(right, vecs(analysis.basis)) <= 1e-12
    for projectors, (_, _, analysis) in zip(exact, seen[-2:]):
        assert fixpt._projector_gap(vecs(projectors), vecs(analysis.basis)) <= 1e-12


def test_rounding_the_coupling_keeps_the_report(tmp_path):
    # conservative-scheme with its coupling scaled by 1 + 1e-15: the same
    # rows in the same order with the same digests, and the same fixed-space
    # basis and minimality margin to 1e-12
    scn = tmp_path / "scn.json"
    assert cli.main(["builtin", "conservative-scheme", "--emit", str(scn), "--quiet"]) == 0
    scenario = json.loads(scn.read_text())
    coupling = scenario["objects"]["M"]["coupling"]["kraus"][0]
    coupling[:] = [[[x * (1 + 1e-15) for x in pair] for pair in row] for row in coupling]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(scenario))
    reports = []
    for i, path in enumerate((scn, scaled)):
        out = tmp_path / f"report-{i}.json"
        assert cli.main(["run", str(path), "--out", str(out), "--quiet"]) in (0, 1)
        reports.append(json.loads(out.read_text()))
    keys = [
        [(b["bound_id"], b["outcome"], b["inputs_digest"]) for b in rep["bounds"]]
        for rep in reports
    ]
    assert keys[0] == keys[1]
    fixed = [next(t for t in rep["tasks"] if t["op"] == "fixed-points") for rep in reports]
    bases = [np.array(f["analysis"]["basis"]) for f in fixed]
    assert bases[0].shape == bases[1].shape
    assert np.abs(bases[0] - bases[1]).max() <= 1e-12
    margins = [f["support_checks"]["minimality_margin"] for f in fixed]
    assert abs(margins[0] - margins[1]) <= 1e-12
