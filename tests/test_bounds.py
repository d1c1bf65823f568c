import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab import Observable, Operator, OperationMap, bounds
from waylab.bounds import (
    disturbance_profile,
    error_profile,
    eval_distinguishability_bounds,
    eval_disturbance_bounds,
    eval_measurability_bounds,
    eval_way,
)
from waylab.conserve import AdditiveQuantity
from waylab.measure import (
    MeasurementScheme,
    luders_instrument,
    normal_dilation,
    sharp_observable,
)
from waylab.rand import haar_unitary
from waylab.reporting import make_report, summarize

from test_acceptance import _battery_reports, _bound_battery_scenario

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def unsharp_x(lam, labels=("plus", "minus")):
    plus = (np.eye(2) + lam * SX) / 2.0
    return Observable(list(labels), [plus, np.eye(2) - plus])


def cnot_scheme():
    pointer = Observable(["z0", "z1"], [P0, P1])
    return MeasurementScheme(2, 2, Operator(P0), OperationMap([CNOT]), pointer)


def by_id(reports, bound_id):
    return [r for r in reports if r.bound_id == bound_id]


def test_disturbance_profile_frozen():
    lam = 0.6
    inst = luders_instrument(unsharp_x(lam))
    prof = disturbance_profile(inst, sharp_observable(SZ))
    # the x-biased measurement shrinks z coherence by 1 - sqrt(1 - lam^2)
    expected = (1.0 - np.sqrt(1.0 - lam * lam)) / 2.0
    for y in ("e0", "e1"):
        np.testing.assert_allclose(prof.norms[y], expected, atol=1e-12)
    np.testing.assert_allclose(prof.max_norm, expected, atol=1e-12)
    with pytest.raises(ValueError, match="does not match"):
        disturbance_profile(inst, sharp_observable(np.diag([1.0, 2.0, 3.0])))


def test_error_profile_frozen():
    m = normal_dilation(unsharp_x(0.7))
    target = unsharp_x(0.3)
    prof = error_profile(m, target)
    for x in ("plus", "minus"):
        np.testing.assert_allclose(prof.norms[x], 0.2, atol=1e-10)
    with pytest.raises(ValueError, match="outcomes"):
        error_profile(m, unsharp_x(0.3, labels=("a", "b")))


def test_disturbance_bounds_tight_for_sharp_measurement():
    # sharp z measurement probing the unsharp x family: the unsharpness
    # route collapses to the disturbance norm and the bound is tight
    lam = 0.5
    m = normal_dilation(sharp_observable(SZ))
    f = unsharp_x(lam)
    reports = eval_disturbance_bounds(m, f)
    assert len(reports) == 16
    for r in reports:
        if r.hypothesis_satisfied:
            assert r.satisfied, (r.bound_id, r.outcome, r.slack)
    tight = by_id(reports, "disturb-commutator-unsharpness")
    assert len(tight) == 4
    for r in tight:
        np.testing.assert_allclose(r.lhs, lam / 2.0, atol=1e-12)
        np.testing.assert_allclose(r.slack, 0.0, atol=1e-12)

    compat = by_id(reports, "compat-commutator")
    for r in compat:
        assert not r.hypothesis_satisfied  # the x family is disturbed

    with pytest.raises(ValueError, match="does not match"):
        eval_disturbance_bounds(m, sharp_observable(np.eye(3)))


def test_disturbance_bounds_nondisturbing_gate():
    # measuring sharp z does not disturb sharp z itself
    m = normal_dilation(sharp_observable(SZ))
    f = sharp_observable(SZ)
    reports = eval_disturbance_bounds(m, f)
    for r in by_id(reports, "compat-commutator"):
        assert r.hypothesis_satisfied
        np.testing.assert_allclose(r.lhs, 0.0, atol=1e-12)
    for r in by_id(reports, "disturb-commutator-nondisturbing"):
        assert r.hypothesis_satisfied
        np.testing.assert_allclose(r.slack, 0.0, atol=1e-10)


def test_disturbance_bounds_with_quantity():
    m = cnot_scheme()
    f = sharp_observable(SZ)
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    reports = eval_disturbance_bounds(m, f, q=q)
    ids = {r.bound_id for r in reports}
    assert "conserve-disturb-commutator" in ids
    assert "conserve-disturb-commutator-nondisturbing" in ids
    assert "conserve-disturb-unsharpness" in ids
    assert "conserve-disturb-qfi" in ids  # full conservation holds
    assert "conserve-disturb-qfi-extremal" not in ids
    for r in reports:
        assert r.satisfied, (r.bound_id, r.slack)
        if r.bound_id.startswith("conserve-"):
            assert r.hypothesis_satisfied
            np.testing.assert_allclose(r.lhs, 0.0, atol=1e-12)

    extra = eval_disturbance_bounds(m, f, q=q, assert_extremal=True)
    assert by_id(extra, "conserve-disturb-qfi-extremal")

    with pytest.raises(ValueError, match="quantity dimensions"):
        eval_disturbance_bounds(m, f, q=AdditiveQuantity(np.eye(3), np.zeros((2, 2))))


def test_disturbance_bounds_quantity_gating_off():
    # a coupling that does not conserve the quantity still reports, but
    # flags the hypothesis and withholds the full-conservation forms
    m = cnot_scheme()
    f = sharp_observable(SZ)
    q = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    reports = eval_disturbance_bounds(m, f, q=q)
    ids = {r.bound_id for r in reports}
    assert "conserve-disturb-qfi" not in ids
    for r in by_id(reports, "conserve-disturb-commutator"):
        assert not r.hypothesis_satisfied


def test_qfi_is_computed_once_per_scheme(monkeypatch):
    calls = []
    monkeypatch.setattr(bounds, "qfi", lambda *args: calls.append(args) or 0.5)
    m = cnot_scheme()
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    f = sharp_observable(SZ)
    qfi_rows = [
        r
        for reports in (
            eval_disturbance_bounds(m, f, q=q),
            eval_measurability_bounds(m, Observable(["z0", "z1"], [P0, P1]), q),
            eval_way(m, q),
        )
        for r in reports
        if "qfi" in r.bound_id
    ]
    assert {r.bound_id for r in qfi_rows} >= {
        "conserve-disturb-qfi", "measure-error-qfi", "way-weak-yanase-qfi"
    }
    assert len(calls) == 1
    assert bounds._scheme_qfi(m, q) == 0.5


def test_measurability_bounds_exact_measurement():
    m = cnot_scheme()
    target = Observable(["z0", "z1"], [P0, P1])
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    reports = eval_measurability_bounds(m, target, q, assert_extremal=True)
    ids = {r.bound_id for r in reports}
    assert ids == {
        "measure-error-commutator",
        "measure-error-qfi",
        "measure-error-qfi-extremal",
    }
    for r in reports:
        assert r.satisfied, (r.bound_id, r.slack)
        assert r.hypothesis_satisfied
        np.testing.assert_allclose(r.lhs, 0.0, atol=1e-12)
    for r in by_id(reports, "measure-error-qfi-extremal"):
        np.testing.assert_allclose(r.rhs, 0.0, atol=1e-12)


def test_measurability_bounds_flagged_without_conservation():
    m = normal_dilation(unsharp_x(0.5))
    target = unsharp_x(0.3)
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    reports = eval_measurability_bounds(m, target, q)
    comm = by_id(reports, "measure-error-commutator")
    assert len(comm) == 2
    # the dilation unitary does not conserve z, so the hypothesis is flagged
    assert all(not r.hypothesis_satisfied for r in comm)
    assert not by_id(reports, "measure-error-qfi")


def test_way_bounds_repeatable_route():
    m = cnot_scheme()
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    reports = eval_way(m, q)
    ids = {r.bound_id for r in reports}
    assert ids == {"way-unsharpness", "way-weak-yanase-variance", "way-weak-yanase-qfi"}
    for r in reports:
        assert r.hypothesis_satisfied, r.bound_id
        assert r.satisfied
        np.testing.assert_allclose(r.lhs, 0.0, atol=1e-12)
        np.testing.assert_allclose(r.rhs, 0.0, atol=1e-10)


def test_way_bounds_gating():
    # unsharp measurement, apparatus quantity incompatible with the pointer:
    # the unsharpness route is withheld, the weak forms are flagged
    m = normal_dilation(unsharp_x(0.5))
    q = AdditiveQuantity(SZ / 2.0, SX / 2.0)
    reports = eval_way(m, q)
    ids = {r.bound_id for r in reports}
    assert ids == {"way-weak-yanase-variance", "way-weak-yanase-qfi"}
    assert all(not r.hypothesis_satisfied for r in reports)

    # pointer-compatible apparatus quantity restores the unsharpness route,
    # still flagged because the dilation does not conserve the total
    q2 = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    reports2 = eval_way(m, q2)
    way = by_id(reports2, "way-unsharpness")
    assert len(way) == 2
    assert all(not r.hypothesis_satisfied for r in way)
    assert all("Yanase" in r.hypothesis for r in way)


def test_distinguishability_bounds_cnot():
    m = cnot_scheme()
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    psi = [0.0, 1.0]
    phi = [1.0, 0.0]
    reports = eval_distinguishability_bounds(m, q, psi, phi)
    fid = by_id(reports, "distinguish-fidelity")
    assert len(fid) == 1
    assert fid[0].hypothesis_satisfied
    assert fid[0].satisfied

    # both vectors sit in extreme eigenspaces of the z1 effect
    gaps = by_id(reports, "distinguish-norm-gap")
    assert [r.outcome for r in gaps] == ["z1"]
    np.testing.assert_allclose(gaps[0].lhs, 0.0, atol=1e-12)
    np.testing.assert_allclose(gaps[0].rhs, 0.0, atol=1e-12)
    assert gaps[0].hypothesis_satisfied

    # repeatable instrument: measured effects commute with the compressed
    # system quantity
    rc = by_id(reports, "repeat-commutant")
    assert len(rc) == 2
    for r in rc:
        np.testing.assert_allclose(r.lhs, 0.0, atol=1e-12)
        assert r.satisfied


def test_distinguishability_validation():
    m = cnot_scheme()
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="not normalized"):
        eval_distinguishability_bounds(m, q, [2.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="not orthogonal"):
        eval_distinguishability_bounds(m, q, [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="length"):
        eval_distinguishability_bounds(m, q, [1.0, 0.0, 0.0], [0.0, 1.0])
    # psi is outside the named outcome's top eigenspace
    with pytest.raises(ValueError, match="outside the extreme eigenspaces"):
        eval_distinguishability_bounds(m, q, [0.0, 1.0], [1.0, 0.0], thm7_outcome="z0")
    with pytest.raises(ValueError, match="unknown outcome 'no-such-outcome'"):
        eval_distinguishability_bounds(
            m, q, [0.0, 1.0], [1.0, 0.0], thm7_outcome="no-such-outcome"
        )


def test_distinguishability_unsharp_effects_skip_norm_gap():
    # strictly unsharp effects have no +-1 eigenvectors to host the pair
    m = normal_dilation(unsharp_x(0.5))
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    reports = eval_distinguishability_bounds(m, q, [0.0, 1.0], [1.0, 0.0])
    assert [r.bound_id for r in reports] == ["distinguish-fidelity"]


def test_rows_come_in_evaluator_order():
    # the rows' order is part of every report that lists them unsorted: pairs
    # x-major, and families that share their outcomes interleaved per outcome
    m = cnot_scheme()
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    zs, es = ("z0", "z1"), ("e0", "e1")
    pair_ids = (
        "compat-commutator",
        "disturb-commutator",
        "disturb-commutator-nondisturbing",
        "disturb-commutator-unsharpness",
    )
    conserved_ids = (
        "conserve-disturb-commutator",
        "conserve-disturb-commutator-nondisturbing",
        "conserve-disturb-unsharpness",
    )
    disturbance = (
        [(b, f"({x},{y})") for x in zs for y in es for b in pair_ids]
        + [(b, y) for y in es for b in conserved_ids]
        + [(b, y) for y in es for b in ("conserve-disturb-qfi", "conserve-disturb-qfi-extremal")]
    )
    measurability = [("measure-error-commutator", x) for x in zs] + [
        (b, x) for x in zs for b in ("measure-error-qfi", "measure-error-qfi-extremal")
    ]
    way = [("way-unsharpness", x) for x in zs] + [
        (b, x) for x in zs for b in ("way-weak-yanase-variance", "way-weak-yanase-qfi")
    ]
    distinguishability = [("distinguish-fidelity", ""), ("distinguish-norm-gap", "z1")] + [
        ("repeat-commutant", x) for x in zs
    ]
    for reports, expected in (
        (eval_disturbance_bounds(m, sharp_observable(SZ), q, assert_extremal=True), disturbance),
        (
            eval_measurability_bounds(m, Observable(list(zs), [P0, P1]), q, assert_extremal=True),
            measurability,
        ),
        (eval_way(m, q), way),
        (eval_distinguishability_bounds(m, q, [0.0, 1.0], [1.0, 0.0]), distinguishability),
    ):
        assert [(r.bound_id, r.outcome) for r in reports] == expected


def _rotated(u, mats):
    return [u @ a @ u.conj().T for a in mats]


@given(offset=st.integers(0, 2**32 - 1), i=st.integers(0, 11))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_bound_rows_invariant_under_joint_change_of_basis(offset, i):
    # every side is a unitarily invariant norm, variance or fidelity of
    # operators that all turn together, so only rounding may move; an rhs
    # takes square roots of rounding-level unsharpnesses, so 1e-16 in an
    # unsharpness shows up as about 1e-8 there
    m, f, q, target, psi, phi = _bound_battery_scenario(i, offset)
    rng = np.random.default_rng([offset, i])
    vs, va = haar_unitary(m.sys_dim, rng).mat, haar_unitary(m.app_dim, rng).mat
    pointer = Observable(m.pointer.outcomes, _rotated(va, [e.mat for e in m.pointer.effects]))
    turned = MeasurementScheme(
        m.sys_dim,
        m.app_dim,
        _rotated(va, [m.xi])[0],
        OperationMap(_rotated(np.kron(vs, va), m.coupling.kraus)),
        pointer,
    )
    before = _battery_reports(m, f, q, target, psi, phi)
    after = _battery_reports(
        turned,
        Observable(f.outcomes, _rotated(vs, [e.mat for e in f.effects])),
        AdditiveQuantity(*_rotated(vs, [q.n_sys]), *_rotated(va, [q.n_app])),
        Observable(target.outcomes, _rotated(vs, [e.mat for e in target.effects])),
        vs @ psi,
        vs @ phi,
    )
    keys = [(r.bound_id, r.outcome, r.hypothesis_satisfied) for r in before]
    assert [(r.bound_id, r.outcome, r.hypothesis_satisfied) for r in after] == keys
    for key, r, s in zip(keys, before, after):
        assert abs(r.lhs - s.lhs) <= 1e-9, (key, r.lhs, s.lhs)
        assert abs(r.rhs - s.rhs) <= 1e-7, (key, r.rhs, s.rhs)


def test_report_slack_and_summary():
    good = make_report("demo", "x", 1.0, 2.0)
    assert good.satisfied and good.slack == 1.0
    bad = make_report("demo", "x", 2.0, 1.0)
    assert not bad.satisfied
    flagged = make_report("demo", "x", 2.0, 1.0, hypothesis_satisfied=False)
    summary = summarize([good, bad, flagged])
    assert summary == {
        "total": 3,
        "satisfied": 1,
        "violated": 1,
        "hypothesis_violated": 1,
    }
    with pytest.raises(ValueError, match="non-finite"):
        make_report("demo", "x", float("nan"), 1.0)
