import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab import Observable, Operator, OperationMap, commutator, op_norm
from waylab.conserve import (
    AdditiveQuantity,
    check_conservation,
    check_unitary_equivalence,
    conservative_unitary,
    qfi,
    variance,
    yanase_conditions,
)
from waylab.measure import MeasurementScheme
from waylab.opcore import eigen_clusters, is_unitary, op_norm_mat
from waylab.rand import haar_unitary

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def expm(a):
    """``exp(a)`` by scaling and squaring a Taylor series: a reference that,
    unlike ``conservative_unitary``, diagonalizes nothing.  With
    ``||a / 2^s||_1 <= 1/2`` the series' tail after 19 terms is below 1e-24."""
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = a / 2.0**s
    term = out = np.eye(len(a), dtype=complex)
    for k in range(1, 20):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def qutrit_decay_channel():
    # amplitude-preserving decay of the middle level into the outer ones
    e = np.eye(3, dtype=complex)
    k = [
        np.outer(e[:, 0], e[:, 0]),
        np.outer(e[:, 2], e[:, 2]),
        np.outer(e[:, 0], e[:, 1]) / np.sqrt(2.0),
        np.outer(e[:, 2], e[:, 1]) / np.sqrt(2.0),
    ]
    return OperationMap(k)


def test_additive_quantity_composite():
    q = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    np.testing.assert_allclose(q.composite(), np.diag([1.0, 0.0, 0.0, -1.0]), atol=0)
    with pytest.raises(ValueError, match="Hermitian"):
        AdditiveQuantity(np.array([[0.0, 1.0], [0.0, 0.0]]), SZ)


def test_average_vs_full_conservation_qutrit():
    phi = qutrit_decay_channel()
    n = np.diag([1.0, 0.0, -1.0])
    rep = check_conservation(phi, n)
    assert rep.average_holds
    assert rep.average_defect <= 1e-12
    assert not rep.full_holds
    np.testing.assert_allclose(rep.full_defect, 1.0, atol=1e-12)


def test_check_conservation_validation():
    phi = qutrit_decay_channel()
    with pytest.raises(ValueError, match="Hermitian"):
        check_conservation(phi, np.triu(np.ones((3, 3)), 1))
    with pytest.raises(ValueError, match="does not match"):
        check_conservation(phi, SZ)
    with pytest.raises(ValueError, match="channel"):
        check_conservation(OperationMap([0.5 * np.eye(3)]), np.eye(3))


def test_unitary_equivalence_conserving_and_generic():
    n = np.diag([1.0, 0.0, -1.0])
    u = np.diag(np.exp(1j * np.array([0.3, -0.7, 1.1])))
    rep = check_unitary_equivalence(u, n)
    assert rep.consistent
    assert rep.commutator_norm <= 1e-12
    assert rep.average_defect <= 1e-12
    assert rep.full_defect <= 1e-12

    # a generic rotation breaks all three conditions at once
    g = expm(1j * 0.4 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex))
    rep = check_unitary_equivalence(g, n)
    assert rep.consistent
    assert rep.commutator_norm > 1e-3
    assert rep.average_defect > 1e-3
    assert rep.full_defect > 1e-3

    with pytest.raises(ValueError, match="unitary"):
        check_unitary_equivalence(0.5 * np.eye(2), SZ)


def test_variance():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(variance(SZ, plus), 1.0, atol=1e-14)
    np.testing.assert_allclose(variance(SZ / 2.0, plus), 0.25, atol=1e-14)
    np.testing.assert_allclose(variance(SZ, P0), 0.0, atol=1e-14)
    with pytest.raises(ValueError, match="density"):
        variance(SZ, 2.0 * P0)


def test_qfi_frozen_and_limits():
    np.testing.assert_allclose(qfi(SX, np.diag([0.75, 0.25])), 1.0, atol=1e-12)

    # pure states give four times the variance
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        n = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        n = (n + n.conj().T) / 2.0
        np.testing.assert_allclose(qfi(n, rho), 4.0 * variance(n, rho), atol=1e-9)

    # commuting state and generator: no information about the phase
    assert qfi(np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.3, 0.2])) <= 1e-12

    # mixed states never beat the variance bound
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    n = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    n = (n + n.conj().T) / 2.0
    assert qfi(n, rho) <= 4.0 * variance(n, rho) + 1e-10


def test_conservative_unitary_commutes():
    n = np.diag([1.0, 1.0, 2.0])
    rng = np.random.default_rng(41)
    u = conservative_unitary(n, rng)
    assert is_unitary(u.mat)
    assert op_norm(commutator(u, Operator(n))) <= 1e-10
    # the degenerate block mixes, so the result is not diagonal
    assert abs(u.mat[0, 1]) > 1e-3
    assert abs(u.mat[0, 2]) <= 1e-12


def expm_conservative_unitary(n, rng, strength, rank_tol=1e-8):
    """The same draws as ``conservative_unitary``, exponentiated as one
    matrix by :func:`expm`: the reference."""
    w, v = np.linalg.eigh(n)
    h = np.zeros((len(n), len(n)), dtype=complex)
    for idx in eigen_clusters(w, rank_tol):
        z = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal((len(idx), len(idx)))
        h[np.ix_(idx, idx)] = 0.5 * strength * (z + z.conj().T)
    return expm(1j * (v @ h @ v.conj().T))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 24),
       kind=st.sampled_from(["diagonal", "degenerate", "generic"]))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_conservative_unitary_is_unitary_to_rounding(seed, d, kind):
    rng = np.random.default_rng(seed)
    spectrum = rng.integers(-2, 3, size=d).astype(float)
    if kind == "diagonal":
        n = np.diag(spectrum)
    else:
        v = haar_unitary(d, rng).mat
        n = v @ np.diag(spectrum if kind == "degenerate" else rng.standard_normal(d)) @ v.conj().T
        n = 0.5 * (n + n.conj().T)
    u = conservative_unitary(n, np.random.default_rng(seed), strength=1.5).mat
    assert op_norm_mat(u.conj().T @ u - np.eye(d)) <= 1e-15
    assert op_norm_mat(u @ n - n @ u) <= 1e-14
    # the same draws as an expm of the whole generator
    ref = expm_conservative_unitary(n, np.random.default_rng(seed), 1.5)
    assert op_norm_mat(u - ref) <= 1e-12


def test_yanase_cnot_pointer_choices():
    z_pointer = Observable(["z0", "z1"], [P0, P1])
    m = MeasurementScheme(2, 2, Operator(P0), OperationMap([CNOT]), z_pointer)

    # system-only quantity: CNOT conserves it and the z pointer is compatible
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    rep = yanase_conditions(m, q)
    assert rep.unitary_coupling
    assert rep.average_conserving
    assert rep.equivalence_applicable
    assert rep.equivalence_consistent
    assert rep.yanase_defect <= 1e-12
    assert rep.weak_defect <= 1e-12
    assert rep.defect_gap <= 1e-12

    # additive z quantity is not conserved by CNOT, so no equivalence claim
    q2 = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    rep2 = yanase_conditions(m, q2)
    assert not rep2.average_conserving
    assert not rep2.equivalence_applicable
    assert rep2.equivalence_consistent is None
    assert rep2.defect_gap is None

    # x pointer fails the commutation with the apparatus z part by exactly 1/2
    plus = (np.eye(2) + SX) / 2.0
    x_pointer = Observable(["x+", "x-"], [plus, np.eye(2) - plus])
    m3 = MeasurementScheme(2, 2, Operator(P0), OperationMap([CNOT]), x_pointer)
    rep3 = yanase_conditions(m3, q2)
    np.testing.assert_allclose(rep3.yanase_defect, 0.5, atol=1e-12)


def test_yanase_weak_equivalence_exchange_coupling():
    # exchange coupling conserves total z, so the coupled-pointer defect
    # equals the bare pointer defect exactly
    h = np.kron(SX, SX) + np.kron(SY, SY)
    u = expm(-0.7j * h)
    plus = (np.eye(2) + SX) / 2.0
    x_pointer = Observable(["x+", "x-"], [plus, np.eye(2) - plus])
    m = MeasurementScheme(2, 2, Operator(P0), OperationMap([u]), x_pointer)
    q = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    rep = yanase_conditions(m, q)
    assert rep.equivalence_applicable
    assert rep.equivalence_consistent
    np.testing.assert_allclose(rep.yanase_defect, 0.5, atol=1e-12)
    np.testing.assert_allclose(rep.weak_defect, 0.5, atol=1e-12)
    assert rep.defect_gap <= 1e-12

    with pytest.raises(ValueError, match="do not match"):
        yanase_conditions(m, AdditiveQuantity(np.eye(3), SZ))
