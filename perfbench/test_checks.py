"""The benchmark's output checks flag a report perturbed by 1e-6 in one number,
and the runner counts such an operation as failed.

    python3 -m pytest perfbench -q

The Lüders and scheme workloads run here at small dimensions, so the whole
file takes a few seconds.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

EPS = 1e-6


def _edit_json(path, edit):
    with open(path) as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _counted_as_failed(workload, edit_out):
    """One pass in which every operation's report gets ``edit_out`` applied."""
    real_op = workload.op

    def perturbed_op(item):
        rc = real_op(item)
        _edit_json(workload.out, edit_out)
        return rc

    workload.op = perturbed_op
    loop = run.Loop()
    run.run_passes(workload, 0.0, loop)
    return loop


def _bump(m, i=0, j=1):
    """Add EPS to the real part of entry (i, j) of a JSON matrix."""
    m[i][j][0] += EPS


def _fixed_points(report):
    return next(t for t in report["tasks"] if t["op"] == "fixed-points")["analysis"]


def test_reference_formulas_agree():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    projectors = [np.outer(q[:, i], q[:, i].conj()) for i in range(3)]
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(ref.luders_dual(projectors, b), ref.kraus_dual(projectors, b),
                               atol=1e-13)
    # a trivial coupling leaves the system alone, so Phi* is the identity and
    # E(x) = tr[xi Z_x] 1
    xi = np.diag([0.7, 0.3]).astype(complex)
    one = [np.eye(6, dtype=complex)]
    np.testing.assert_allclose(ref.scheme_dual(one, xi, 3, b), b, atol=1e-13)
    np.testing.assert_allclose(ref.scheme_channel(one, xi, b), b, atol=1e-13)
    z0 = np.diag([1.0, 0.0]).astype(complex)
    (e0,) = ref.measured_effects(one, xi, 3, [z0])
    np.testing.assert_allclose(e0, 0.7 * np.eye(3), atol=1e-13)


def test_suite_flags_perturbed_fixed_basis(tmp_path):
    w = W.Suite(0, str(tmp_path))
    w.prepare_checks()
    assert w.check(None, w.op(None)) == []

    # lam = 0.9: the channel moves E_01 by 0.28 in norm, so a 1e-6 change
    # shows well above the 1e-8 threshold (at lam = 0.1 it moves it by 0.0025)
    def edit(report):
        rep = next(r for r in report["suite"] if r["scenario"] == "qubit-luders-lam0.9")
        _bump(_fixed_points(rep)["basis"][0])

    _edit_json(w.out, edit)
    w.first = None
    problems = w.check(None, 0)
    assert any("Phi*(B) - B" in p for p in problems), problems

    w.first = None
    loop = _counted_as_failed(w, edit)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_battery_flags_perturbed_commutator_lhs(tmp_path):
    w = W.Battery(0, str(tmp_path))
    w.prepare_checks()
    item = w.items[1]
    reports = w.op(item)
    assert w.check(item, reports) == []
    k = next(i for i, r in enumerate(reports) if r.bound_id == "disturb-commutator")
    bad = list(reports)
    bad[k] = dataclasses.replace(bad[k], lhs=bad[k].lhs + EPS)
    problems = w.check(item, bad)
    assert any("disturb-commutator" in p and "numpy" in p for p in problems), problems
    # one scenario's rows are too few for a pass
    assert w.end_pass()

    w.items = [item]
    w.op = lambda it: bad
    loop = run.Loop()
    run.run_op(w.op, w, item, loop)
    assert (loop.attempted, loop.failed) == (1, 1)


@pytest.fixture
def luders(tmp_path):
    w = W.Luders(0, str(tmp_path), dim=4)
    w.prepare_checks()
    assert w.fixed_dim == 4
    assert w.check(w.path, w.op(w.path)) == []
    return w


def test_luders_flags_perturbed_fixed_basis(luders):
    def edit(report):
        _bump(_fixed_points(report)["basis"][0])

    _edit_json(luders.out, edit)
    problems = luders.check(luders.path, 0)
    assert any("Phi*(B) - B" in p for p in problems), problems
    loop = _counted_as_failed(luders, edit)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_luders_flags_perturbed_rho0(luders):
    def edit(report):
        _bump(_fixed_points(report)["rho0"], 0, 0)

    _edit_json(luders.out, edit)
    problems = luders.check(luders.path, 0)
    assert any("rho0" in p for p in problems), problems
    loop = _counted_as_failed(luders, edit)
    assert (loop.attempted, loop.failed) == (1, 1)


@pytest.fixture
def scheme(tmp_path):
    w = W.Scheme(0, str(tmp_path), sys_dim=2, app_dim=3)
    w.prepare_checks()
    assert w.check(w.path, w.op(w.path)) == []
    return w


def _bump_commutator_lhs(report):
    row = next(b for b in report["bounds"] if b["bound_id"] == "disturb-commutator")
    row["lhs"] += EPS


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda r: _bump(_fixed_points(r)["basis"][0]), "Phi*(B) - B"),
        (lambda r: _bump(_fixed_points(r)["rho0"]), "rho0"),
        (_bump_commutator_lhs, "disturb-commutator"),
    ],
    ids=["fixed-basis", "rho0", "commutator-lhs"],
)
def test_scheme_flags_perturbed_report(scheme, edit, needle):
    _edit_json(scheme.out, edit)
    problems = scheme.check(scheme.path, 0)
    assert any(needle in p for p in problems), problems
    loop = _counted_as_failed(scheme, edit)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_scheme_flags_nonconserving_coupling(scheme):
    _edit_json(scheme.path, lambda s: _bump(s["objects"]["M"]["coupling"]["kraus"][0]))
    scheme.prepare_checks()
    problems = scheme.check(scheme.path, 0)
    assert any("[U, N]" in p for p in problems), problems
