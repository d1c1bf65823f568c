import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waylab.cpmaps import (
    OperationMap,
    apply_dual,
    apply_map,
    compose,
    dual_view,
    to_supermatrix,
    unvec,
    vec,
)
from waylab.opcore import DEFAULT_TOL, op_norm
from waylab.rand import random_channel, random_hermitian, random_state
from waylab.serialize import SchemaError, operation_from_json, operation_to_json

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return OperationMap([k0, k1])


def test_vec_column_stacking():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(vec(m), [1.0, 3.0, 2.0, 4.0])
    np.testing.assert_allclose(unvec(vec(m), 2), m)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_vec_sandwich_identity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    np.testing.assert_allclose(vec(a @ b @ c), np.kron(c.T, a) @ vec(b), atol=1e-12)


def test_operation_map_validation():
    with pytest.raises(ValueError):
        OperationMap([])
    with pytest.raises(ValueError):
        OperationMap([np.eye(2), np.eye(3)])
    half = OperationMap([np.eye(2) / np.sqrt(2.0)])
    assert half.is_operation(DEFAULT_TOL)
    assert not half.is_channel(DEFAULT_TOL)
    over = OperationMap([np.eye(2) * 1.1])
    assert not over.is_operation(DEFAULT_TOL)


def test_amplitude_damping_channel_flags():
    phi = _amplitude_damping(0.3)
    assert phi.is_channel(DEFAULT_TOL)
    assert not phi.is_unital(DEFAULT_TOL)
    assert OperationMap([np.eye(2)]).is_unital(DEFAULT_TOL)
    assert OperationMap([SX]).is_unital(DEFAULT_TOL)


def test_apply_map_and_dual_agree_with_definition():
    phi = _amplitude_damping(0.4)
    rho = np.diag([0.2, 0.8]).astype(complex)
    out = apply_map(phi, rho)
    expected = sum(k @ rho @ k.conj().T for k in phi.kraus)
    np.testing.assert_allclose(out.mat, expected, atol=1e-14)
    a = SX + np.eye(2)
    np.testing.assert_allclose(
        apply_dual(phi, a).mat, sum(k.conj().T @ a @ k for k in phi.kraus), atol=1e-14
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_duality_pairing(seed):
    rng = np.random.default_rng(seed)
    phi = random_channel(3, 2, 3, rng)
    rho = random_state(3, rng)
    a = random_hermitian(2, rng)
    lhs = np.trace(a.mat @ apply_map(phi, rho).mat)
    rhs = np.trace(apply_dual(phi, a).mat @ rho.mat)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_supermatrix_sigmax_spectrum():
    m = to_supermatrix(OperationMap([SX]))
    w = np.sort(np.linalg.eigvals(m).real)
    np.testing.assert_allclose(w, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_supermatrix_reproduces_dual_action():
    phi = _amplitude_damping(0.25)
    sm = to_supermatrix(phi)
    a = np.array([[0.3, 1.0j], [-1.0j, 0.7]])
    np.testing.assert_allclose(unvec(sm @ vec(a), 2), apply_dual(phi, a).mat, atol=1e-13)
    # the state-side action is the adjoint supermatrix
    rho = np.diag([0.6, 0.4]).astype(complex)
    np.testing.assert_allclose(
        unvec(sm.conj().T @ vec(rho), 2), apply_map(phi, rho).mat, atol=1e-13
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_second_moment_defect_inequality(seed):
    # ||Phi*(A^2) - Phi*(A)^2|| <= 2||Phi*(A) - B|| + ||B - B^2|| for effects
    rng = np.random.default_rng(seed)
    phi = random_channel(3, 3, 2, rng)
    w = rng.uniform(0.0, 1.0, size=3)
    a = np.diag(w).astype(complex)
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(u)
    b = q @ np.diag(rng.uniform(0.0, 1.0, size=3)) @ q.conj().T
    image = apply_dual(phi, a).mat
    lhs = op_norm(apply_dual(phi, a @ a).mat - image @ image)
    rhs = 2.0 * op_norm(image - b) + op_norm(b - b @ b)
    assert lhs <= rhs + 1e-10


def test_operation_annihilation():
    # a positive operator killed by the dual also absorbs arbitrary factors:
    # I*(A) = 0 with A >= 0 forces I*(AB) = I*(BA) = 0
    rng = np.random.default_rng(12)
    k = np.zeros((3, 3), dtype=complex)
    k[:2, :2] = rng.standard_normal((2, 2))
    k /= 2.0 * np.linalg.norm(k, 2)
    op = OperationMap([k])
    a = np.diag([0.0, 0.0, 1.0]).astype(complex)
    assert op_norm(apply_dual(op, a)) <= 1e-14
    for _ in range(5):
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert op_norm(apply_dual(op, a @ b)) <= 1e-13
        assert op_norm(apply_dual(op, b @ a)) <= 1e-13


def test_compose_and_dual_view():
    phi = _amplitude_damping(0.5)
    ident = OperationMap([np.eye(2)])
    both = compose(phi, ident)
    rho = np.diag([0.1, 0.9]).astype(complex)
    np.testing.assert_allclose(apply_map(both, rho).mat, apply_map(phi, rho).mat, atol=1e-14)
    dual = dual_view(phi)
    a = SX + 2.0 * np.eye(2)
    np.testing.assert_allclose(apply_map(dual, a).mat, apply_dual(phi, a).mat, atol=1e-14)


def test_operation_json_round_trip():
    phi = _amplitude_damping(0.7)
    back = operation_from_json(operation_to_json(phi))
    for k1, k2 in zip(phi.kraus, back.kraus):
        np.testing.assert_allclose(k1, k2)
    with pytest.raises(SchemaError, match="kraus"):
        operation_from_json({"kraus": "nope"})


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 80), d_in=st.integers(1, 12),
       d_out=st.integers(1, 12), zeros=st.sampled_from([0.0, 0.3, 0.9]))
@example(seed=0, k=80, d_in=12, d_out=12, zeros=0.3)  # chunks of 3 Kraus operators
@example(seed=1, k=72, d_in=4, d_out=4, zeros=0.0)
@example(seed=2, k=1, d_in=3, d_out=2, zeros=0.9)  # entries that are -0.0 in every term
@settings(derandomize=True, max_examples=30, deadline=None)
def test_supermatrix_matches_kron_sum_bitwise(seed, k, d_in, d_out, zeros):
    rng = np.random.default_rng(seed)
    kraus = rng.standard_normal((k, d_out, d_in)) + 1j * rng.standard_normal((k, d_out, d_in))
    # signed zeros in either part of some entries: the sum must give each
    # zero the sign that kron's products and their sum from 0 give it
    for part in (kraus.real, kraus.imag):
        hit = rng.random(kraus.shape) < zeros
        part[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    phi = OperationMap(list(kraus))
    expected = sum(np.kron(m.T, m.conj().T) for m in phi.kraus)
    got = to_supermatrix(phi)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
