import numpy as np
import pytest

from waylab import Observable
from waylab.opcore import DEFAULT_TOL, is_hermitian, is_state, op_norm
from waylab.rand import (
    haar_unitary,
    random_channel,
    random_hermitian,
    random_povm,
    random_state,
)


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, np.random.default_rng(42))
    np.testing.assert_allclose(u.mat @ u.mat.conj().T, np.eye(4), atol=1e-12)
    again = haar_unitary(4, np.random.default_rng(42))
    np.testing.assert_allclose(u.mat, again.mat)
    other = haar_unitary(4, np.random.default_rng(43))
    assert op_norm(u.mat - other.mat) > 1e-3


def test_random_state_is_state_with_rank_control():
    rng = np.random.default_rng(7)
    rho = random_state(4, rng)
    assert is_state(rho.mat, DEFAULT_TOL)
    pure = random_state(4, np.random.default_rng(7), rank=1)
    purity = np.trace(pure.mat @ pure.mat).real
    assert purity == pytest.approx(1.0, abs=1e-10)
    low = random_state(4, np.random.default_rng(8), rank=2)
    w = np.linalg.eigvalsh(low.mat)
    assert np.sum(w > 1e-10) == 2


def test_random_hermitian_norm_scaled():
    h = random_hermitian(3, np.random.default_rng(1), norm=2.5)
    assert is_hermitian(h.mat, DEFAULT_TOL)
    assert op_norm(h) == pytest.approx(2.5)


def test_random_povm_sums_to_identity():
    effs = random_povm(3, 4, np.random.default_rng(2))
    total = sum(e.mat for e in effs)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
    Observable(["a", "b", "c", "d"], effs, DEFAULT_TOL)  # each one an effect


def test_random_channel_trace_preserving():
    phi = random_channel(3, 3, 4, np.random.default_rng(3))
    assert phi.is_channel(DEFAULT_TOL)
    rect = random_channel(2, 3, 2, np.random.default_rng(4))
    assert rect.in_dim == 2 and rect.out_dim == 3
    assert rect.is_channel(DEFAULT_TOL)
    gram = sum(k.conj().T @ k for k in rect.kraus)
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
