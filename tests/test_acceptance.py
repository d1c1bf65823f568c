"""Acceptance battery.

One test per shipped guarantee, each at its stated tolerance, so that
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Expected values are frozen literals or independently computed
oracles; nothing here is derived from the code under test.
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab import Observable, Operator, OperationMap, commutator, op_norm
from waylab import cli
from waylab.bounds import (
    disturbance_profile,
    eval_distinguishability_bounds,
    eval_disturbance_bounds,
    eval_measurability_bounds,
    eval_way,
)
from waylab.conserve import (
    AdditiveQuantity,
    check_conservation,
    check_unitary_equivalence,
    conservative_unitary,
    qfi,
    variance,
)
from waylab.cpmaps import to_supermatrix
from waylab.fixpt import (
    analyze_fixed_points,
    check_minimal_support,
    nondisturbed_norm1_observable,
    post_processing_decomposition,
)
from waylab.measure import (
    MeasurementScheme,
    collapse_instrument,
    luders_instrument,
    normal_dilation,
    repeatability_report,
    sharp_observable,
)
from waylab.opcore import op_norm_mat
from waylab.rand import haar_unitary, random_channel, random_hermitian, random_povm, random_state

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def unsharp_x(lam):
    plus = (np.eye(2) + lam * SX) / 2.0
    return Observable(["plus", "minus"], [plus, np.eye(2) - plus])


def commutative_mix(rng, d):
    """Unsharp commutative observable built as an invertible stochastic mix
    of a random sharp rank-one observable; returns (observable, basis, p)."""
    v = haar_unitary(d, rng).mat
    g_effects = [np.outer(v[:, z], v[:, z].conj()) for z in range(d)]
    while True:
        p = rng.uniform(0.05, 1.0, size=(d, d))
        p /= p.sum(axis=0, keepdims=True)
        if abs(np.linalg.det(p)) > 0.02:
            break
    effects = [sum(p[x, z] * g_effects[z] for z in range(d)) for x in range(d)]
    obs = Observable([f"x{x}" for x in range(d)], effects)
    return obs, g_effects, p


def test_criterion_01_qubit_unsharp_family():
    start = time.monotonic()
    a_obs = sharp_observable(SZ)
    inst_a = luders_instrument(a_obs)
    scheme_a = normal_dilation(a_obs)
    for lam in LAMBDAS:
        b_obs = unsharp_x(lam)

        for ea in a_obs.effects:
            for eb in b_obs.effects:
                np.testing.assert_allclose(
                    op_norm(commutator(ea, eb)), lam / 2.0, atol=1e-10
                )

        prof_ba = disturbance_profile(inst_a, b_obs)
        for y in b_obs.outcomes:
            np.testing.assert_allclose(prof_ba.norms[y], lam / 2.0, atol=1e-10)

        prof_ab = disturbance_profile(luders_instrument(b_obs), a_obs)
        expected = (1.0 - np.sqrt(1.0 - lam * lam)) / 2.0
        for y in a_obs.outcomes:
            np.testing.assert_allclose(prof_ab.norms[y], expected, atol=1e-10)

        reports = eval_disturbance_bounds(scheme_a, b_obs)
        tight = [r for r in reports if r.bound_id == "disturb-commutator-unsharpness"]
        assert len(tight) == 4
        for r in tight:
            assert abs(r.slack) <= 1e-9, (lam, r.outcome, r.slack)
    assert time.monotonic() - start < 1.0


def test_criterion_02_average_vs_full_qutrit():
    e = np.eye(3, dtype=complex)
    phi = OperationMap(
        [
            np.outer(e[:, 0], e[:, 0]),
            np.outer(e[:, 2], e[:, 2]),
            np.outer(e[:, 0], e[:, 1]) / np.sqrt(2.0),
            np.outer(e[:, 2], e[:, 1]) / np.sqrt(2.0),
        ]
    )
    rep = check_conservation(phi, np.diag([1.0, 0.0, -1.0]))
    assert rep.average_holds
    assert rep.average_defect <= 1e-12
    assert not rep.full_holds
    np.testing.assert_allclose(rep.full_defect, 1.0, atol=1e-12)


def test_criterion_03_conservative_vs_generic_unitaries():
    start = time.monotonic()
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        d = 2 + i % 3
        n = random_hermitian(d, rng)
        u = conservative_unitary(n, rng)
        rep = check_unitary_equivalence(u, n)
        assert rep.full_defect <= 1e-9, (i, rep.full_defect)
        assert rep.average_defect <= 1e-9

    produced = 0
    attempt = 0
    while produced < 100:
        assert attempt < 500
        rng = np.random.default_rng(3500 + attempt)
        attempt += 1
        d = 2 + produced % 3
        n = random_hermitian(d, rng)
        u = haar_unitary(d, rng)
        if op_norm(commutator(u, n)) <= 0.1:
            continue
        rep = check_unitary_equivalence(u, n)
        assert rep.average_defect > 1e-3, (attempt, rep.average_defect)
        produced += 1
    assert time.monotonic() - start < 5.0


def _bound_battery_scenario(i, offset=1000):
    rng = np.random.default_rng(offset + i)
    d_sys, d_app = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]

    def integer_spectrum(d):
        while True:
            vals = rng.integers(-2, 3, size=d).astype(float)
            if vals.max() > vals.min():
                return np.diag(vals)

    q = AdditiveQuantity(integer_spectrum(d_sys), integer_spectrum(d_app))
    u = conservative_unitary(q.composite(), rng, strength=1.5)
    xi = random_state(d_app, rng, rank=min(2, d_app))
    if i % 3 == 0:
        pointer = sharp_observable(np.diag(np.arange(d_app, dtype=float)))
    else:
        pointer = sharp_observable(random_hermitian(d_app, rng))
    m = MeasurementScheme(d_sys, d_app, xi, OperationMap([u.mat]), pointer)
    f = sharp_observable(random_hermitian(d_sys, rng))
    target = Observable(
        list(pointer.outcomes), random_povm(d_sys, len(pointer.outcomes), rng)
    )
    v = haar_unitary(d_sys, rng).mat
    return m, f, q, target, v[:, 0], v[:, 1]


def _battery_reports(m, f, q, target, psi, phi_vec):
    reports = []
    reports += eval_disturbance_bounds(m, f, q=q)
    reports += eval_measurability_bounds(m, target, q)
    reports += eval_way(m, q)
    reports += eval_distinguishability_bounds(m, q, psi, phi_vec)
    return reports


def test_criterion_04_bound_battery_random_scenarios():
    start = time.monotonic()
    required = {
        "disturb-commutator",
        "disturb-commutator-unsharpness",
        "conserve-disturb-commutator",
        "conserve-disturb-unsharpness",
        "measure-error-commutator",
        "way-unsharpness",
        "way-weak-yanase-variance",
        "way-weak-yanase-qfi",
        "distinguish-fidelity",
    }
    seen_satisfying = set()
    checked = 0
    for i in range(200):
        for r in _battery_reports(*_bound_battery_scenario(i)):
            if not r.hypothesis_satisfied:
                continue
            checked += 1
            assert r.slack >= -1e-7, (i, r.bound_id, r.outcome, r.slack)
            seen_satisfying.add(r.bound_id)
    assert checked > 1000
    assert required <= seen_satisfying, required - seen_satisfying
    assert time.monotonic() - start < 60.0


@given(offset=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=20, deadline=None)
def test_bound_battery_at_drawn_offsets(offset):
    # criterion 04 at drawn rng offsets; twelve scenarios per draw take every
    # pairing of the four dimension pairs with the two pointer kinds
    for i in range(12):
        for r in _battery_reports(*_bound_battery_scenario(i, offset)):
            if r.hypothesis_satisfied:
                assert r.slack >= -1e-7, (offset, i, r.bound_id, r.outcome, r.slack)


def test_distinguish_fidelity_uses_root_fidelity():
    # with the squared fidelity on its right side, distinguish-fidelity was
    # violated under its hypothesis here (slack -0.603 and -0.252)
    for offset, i in ((5600, 140), (24692600, 180)):
        reports = _battery_reports(*_bound_battery_scenario(i, offset))
        fid = [r for r in reports if r.bound_id == "distinguish-fidelity"]
        assert len(fid) == 1 and fid[0].hypothesis_satisfied
        for r in reports:
            if r.hypothesis_satisfied:
                assert r.slack >= -1e-7, (offset, i, r.bound_id, r.outcome, r.slack)


def _ensemble_qfi_floor(rho, n, n_theta=181, n_phi=361):
    """Grid search over two-element pure decompositions of a qubit state.

    Columns of ``sqrt(rho) V`` with ``V`` unitary enumerate all two-element
    decompositions; the reported value is the smallest ensemble-averaged
    ``4 * variance``, an upper bound on the convex roof that matches it when
    the grid is fine enough.
    """
    w, v = np.linalg.eigh(rho)
    sq = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    a, b = sq[:, 0], sq[:, 1]
    n_sq = n @ n

    def quad(u, mat, w_vec):
        return complex(u.conj() @ mat @ w_vec)

    best = np.inf
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi)
    e_phi = np.exp(1j * phis)
    for theta in np.linspace(0.0, np.pi / 2.0, n_theta):
        c, s = np.cos(theta), np.sin(theta)
        # psi1 = c a + s e^{i phi} b, psi2 = -s e^{-i phi} a + c b
        p1 = (
            c * c * np.vdot(a, a).real
            + s * s * np.vdot(b, b).real
            + 2.0 * c * s * (e_phi * np.vdot(a, b)).real
        )
        m1 = (
            c * c * quad(a, n, a).real
            + s * s * quad(b, n, b).real
            + 2.0 * c * s * (e_phi * quad(a, n, b)).real
        )
        v1 = (
            c * c * quad(a, n_sq, a).real
            + s * s * quad(b, n_sq, b).real
            + 2.0 * c * s * (e_phi * quad(a, n_sq, b)).real
        )
        p2 = (
            s * s * np.vdot(a, a).real
            + c * c * np.vdot(b, b).real
            - 2.0 * c * s * (e_phi * np.vdot(b, a)).real
        )
        m2 = (
            s * s * quad(a, n, a).real
            + c * c * quad(b, n, b).real
            - 2.0 * c * s * (e_phi * quad(b, n, a)).real
        )
        v2 = (
            s * s * quad(a, n_sq, a).real
            + c * c * quad(b, n_sq, b).real
            - 2.0 * c * s * (e_phi * quad(b, n_sq, a)).real
        )
        good = (p1 > 1e-12) & (p2 > 1e-12)
        vals = 4.0 * (v1[good] + v2[good] - m1[good] ** 2 / p1[good] - m2[good] ** 2 / p2[good])
        if vals.size:
            best = min(best, float(vals.min()))
    return best


def test_criterion_05_fisher_information():
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        n = random_hermitian(3, rng, norm=2.0)
        assert abs(qfi(n, rho) - 4.0 * variance(n, rho)) <= 1e-9

    for i in range(20):
        rng = np.random.default_rng(5100 + i)
        n = random_hermitian(3, rng)
        w, vv = np.linalg.eigh(n.mat)
        probs = rng.uniform(0.1, 1.0, size=3)
        probs /= probs.sum()
        rho = vv @ np.diag(probs) @ vv.conj().T
        assert qfi(n, rho) <= 1e-9

    rho = np.diag([0.75, 0.25]).astype(complex)
    q_val = qfi(SX, rho)
    np.testing.assert_allclose(q_val, 1.0, atol=1e-9)
    floor = _ensemble_qfi_floor(rho, SX)
    assert abs(floor - q_val) <= 1e-3, (floor, q_val)


def test_criterion_06_fixed_point_projectors():
    for i in range(100):
        rng = np.random.default_rng(4000 + i)
        d = 2 + i % 3
        phi = random_channel(d, d, 3, rng)
        fp = analyze_fixed_points(phi)
        proj = fp.projector
        m_dual = to_supermatrix(phi)
        assert op_norm_mat(proj @ proj - proj) <= 1e-8
        assert op_norm_mat(m_dual @ proj - proj) <= 1e-8
        assert np.linalg.matrix_rank(proj, tol=1e-8) == fp.fixed_dim
        # the fixed space and the range of the projector coincide
        _, sv, vh = np.linalg.svd(m_dual - np.eye(d * d))
        null_basis = vh[d * d - fp.fixed_dim :].conj().T
        assert op_norm_mat(proj @ null_basis - null_basis) <= 1e-8
        lem = check_minimal_support(fp, phi)
        assert lem.all_pass, (i, lem)

    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        d = 2 + i % 3
        k = 2 + i % 2
        weights = rng.uniform(0.2, 1.0, size=k)
        weights /= weights.sum()
        kraus = [np.sqrt(w) * haar_unitary(d, rng).mat for w in weights]
        phi = OperationMap(kraus)
        assert phi.is_unital()
        fp = analyze_fixed_points(phi)
        assert fp.faithful
        assert fp.commutant_consistent, i
        assert fp.algebra_certified, i


def test_criterion_07_repeatability_diagnostics():
    for i in range(20):
        rng = np.random.default_rng(6000 + i)
        d = 2 + i % 3
        e = sharp_observable(random_hermitian(d, rng))
        rep = repeatability_report(luders_instrument(e))
        assert rep.repeatable and rep.first_kind
        for name, item in rep.items.items():
            if item.evaluated:
                assert item.passed and item.defect <= 1e-9, (i, name, item.defect)

    rep = repeatability_report(luders_instrument(unsharp_x(0.5)))
    assert rep.first_kind_defect <= 1e-10
    assert rep.repeatability_defect >= 0.2
    assert not rep.repeatable

    for i in range(20):
        rng = np.random.default_rng(6500 + i)
        d = 2 + i % 3
        e = sharp_observable(random_hermitian(d, rng))
        vectors = []
        for eff in e.effects:
            w, v = np.linalg.eigh(eff.mat)
            vectors.append(v[:, -1])
        rep = repeatability_report(collapse_instrument(e, vectors))
        assert rep.repeatable
        for name, item in rep.items.items():
            if item.evaluated:
                assert item.passed and item.defect <= 1e-9, (i, name, item.defect)
        assert rep.items["output-orthogonality"].defect <= 1e-9


def test_criterion_08_post_processing_recovery():
    for i in range(20):
        rng = np.random.default_rng(8000 + i)
        d = 2 + i % 3
        obs, g_true, p_true = commutative_mix(rng, d)
        res = post_processing_decomposition(luders_instrument(obs))
        assert res.matrix.shape == (d, d)
        used = set()
        for z in range(d):
            errs = []
            for zt in range(d):
                col_err = float(np.max(np.abs(res.matrix[:, z] - p_true[:, zt])))
                eff_err = float(
                    op_norm_mat(res.observable.effects[z].mat - g_true[zt])
                )
                errs.append(max(col_err, eff_err))
            best = int(np.argmin(errs))
            assert errs[best] <= 1e-8, (i, z, errs[best])
            assert best not in used
            used.add(best)


def test_criterion_09_norm_one_extraction():
    def check(res):
        for g in res.observable.effects:
            assert abs(op_norm(g) - 1.0) <= 1e-9
        assert res.fixed_defect <= 1e-9
        assert res.distinguish_defect <= 1e-9

    for i in range(10):
        rng = np.random.default_rng(9000 + i)
        d = 2 + i % 3
        obs, _, _ = commutative_mix(rng, d)
        check(nondisturbed_norm1_observable(luders_instrument(obs).total(), obs))

    for i in range(10):
        rng = np.random.default_rng(9100 + i)
        d = 2 + i % 3
        e = sharp_observable(random_hermitian(d, rng))
        vectors = []
        for eff in e.effects:
            w, v = np.linalg.eigh(eff.mat)
            vectors.append(v[:, -1])
        phi = collapse_instrument(e, vectors).total()
        check(nondisturbed_norm1_observable(phi, e))

    eye3 = np.eye(3, dtype=complex)
    for gamma in (0.25, 0.5, 0.75):
        phi = OperationMap(
            [
                np.outer(eye3[:, 0], eye3[:, 0]),
                np.outer(eye3[:, 1], eye3[:, 1]),
                np.sqrt(gamma) * np.outer(eye3[:, 0], eye3[:, 2]),
                np.sqrt(1.0 - gamma) * np.outer(eye3[:, 1], eye3[:, 2]),
            ]
        )
        e = Observable(
            ["x0", "x1"],
            [np.diag([1.0, 0.0, gamma]), np.diag([0.0, 1.0, 1.0 - gamma])],
        )
        check(nondisturbed_norm1_observable(phi, e))


def test_criterion_10_suite_determinism(tmp_path):
    first = tmp_path / "suite1.json"
    second = tmp_path / "suite2.json"
    assert cli.main(["suite", "--out", str(first), "--quiet"]) == 0
    assert cli.main(["suite", "--out", str(second), "--quiet"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0
