import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waylab.conserve import AdditiveQuantity
from waylab.opcore import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    commutator,
    eigen_clusters,
    eigenspace_projector,
    fidelity,
    hermitian_basis,
    is_hermitian,
    is_psd,
    is_state,
    is_unitary,
    max_op_norm,
    op_norm,
    op_norm_mat,
    op_norms,
    psd_sqrt,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def _random_state(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=0.0, rank_tol=1e-8)
    with pytest.raises(ValueError):
        Tolerance(eq_tol=1e-9, rank_tol=-1e-8)
    with pytest.raises(ValueError):
        Tolerance(eq_tol=float("nan"), rank_tol=1e-8)
    for bad in (True, 10**400, "1e-9"):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=bad)
    t = Tolerance(eq_tol=1e-6)
    assert t.eq_tol == 1e-6
    assert t.rank_tol == DEFAULT_TOL.rank_tol


def test_operator_requires_square_finite():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.array([[np.inf, 0], [0, 1]]))
    op = Operator(SX)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0  # wrapped array is read-only


def test_operator_predicates():
    assert is_hermitian(Operator(SX).mat)
    assert not is_hermitian(Operator(1j * SX).mat)
    assert not is_psd(Operator(SX).mat)
    assert is_psd(Operator(np.diag([0.3, 0.0])).mat)
    assert is_state(Operator(np.diag([0.25, 0.75])).mat)
    assert not is_state(Operator(np.diag([0.5, 0.75])).mat)
    h = (SX + 1j * SY) / np.sqrt(2)
    assert is_unitary(Operator(np.eye(2)).mat)
    assert not is_unitary(Operator(h).mat)


def test_op_norm_known_values():
    assert op_norm(SX) == pytest.approx(1.0)
    assert op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert op_norm(np.zeros((3, 3))) == pytest.approx(0.0)


@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(0,), (1,), (4,), (2, 3)]),
       shape=st.sampled_from([(1, 1), (2, 2), (3, 5)]))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_op_norms_equal_one_norm_per_matrix(seed, lead, shape):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((*lead, *shape)) + 1j * rng.standard_normal((*lead, *shape))
    norms = op_norms(stack)
    want = np.array([op_norm_mat(a) for a in stack.reshape(-1, *shape)]).reshape(lead)
    assert norms == want.tolist()
    for _ in lead[1:]:
        norms = [n for row in norms for n in row]
    assert all(type(n) is float for n in norms)


@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
       rows=st.integers(1, 24), cols=st.integers(1, 24),
       kind=st.sampled_from(["complex", "real", "zero", "rank-one"]))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_op_norms_equal_numpy_matrix_two_norm(seed, lead, rows, cols, kind):
    # the largest singular value from the SVD directly, bit for bit
    rng = np.random.default_rng(seed)
    shape = (*lead, rows, cols)
    if kind == "complex":
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    elif kind == "real":
        stack = rng.standard_normal(shape)
    elif kind == "zero":
        stack = np.zeros(shape, dtype=complex)
    else:
        u = rng.standard_normal((*lead, rows, 1)) + 1j * rng.standard_normal((*lead, rows, 1))
        stack = u @ rng.standard_normal((*lead, 1, cols))
    want = np.linalg.norm(stack, 2, axis=(-2, -1))
    assert op_norms(stack) == want.tolist()
    assert max_op_norm(stack) == want.max()
    for m, w in zip(stack.reshape(-1, rows, cols), want.reshape(-1)):
        assert op_norm_mat(m) == w


def test_commutator_pauli():
    c = commutator(SZ, SX)
    np.testing.assert_allclose(c.mat, 2j * SY, atol=1e-15)
    assert op_norm(c) == pytest.approx(2.0)


def test_tensor_ordering_system_slowest():
    # composite index is i_sys * dim_app + i_app
    t = AdditiveQuantity(n_sys=SZ, n_app=np.zeros((2, 2))).composite()
    np.testing.assert_allclose(np.diag(t).real, [1.0, 1.0, -1.0, -1.0])
    t2 = AdditiveQuantity(n_sys=np.zeros((2, 2)), n_app=SZ).composite()
    np.testing.assert_allclose(np.diag(t2).real, [1.0, -1.0, 1.0, -1.0])


def test_psd_sqrt_diagonal():
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])).mat, np.diag([2.0, 3.0]), atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_psd_sqrt_squares_back(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    root = psd_sqrt(rho)
    np.testing.assert_allclose(root.mat @ root.mat, rho, atol=1e-10)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="-1"):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_fidelity_known_values():
    ket0 = np.diag([1.0, 0.0])
    ket1 = np.diag([0.0, 1.0])
    assert fidelity(ket0, ket0) == pytest.approx(1.0)
    assert fidelity(ket0, ket1) == pytest.approx(0.0, abs=1e-14)
    # squared-root-fidelity convention: pure vs maximally mixed is 1/2
    assert fidelity(ket0, np.eye(2) / 2) == pytest.approx(0.5)
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert fidelity(ket0, plus) == pytest.approx(0.5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_fidelity_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    rho, sig = _random_state(rng, 3), _random_state(rng, 3)
    f1 = fidelity(rho, sig)
    f2 = fidelity(sig, rho)
    assert f1 == pytest.approx(f2, abs=1e-10)
    assert -1e-12 <= f1 <= 1.0 + 1e-12


def test_fidelity_rejects_non_states():
    with pytest.raises(ValueError):
        fidelity(np.diag([0.5, 0.6]), np.eye(2) / 2)


def test_eigenspace_projector_basic():
    p = eigenspace_projector(SZ, 1.0)
    np.testing.assert_allclose(p.mat, np.diag([1.0, 0.0]), atol=1e-14)
    zero = eigenspace_projector(SZ, 0.5)
    np.testing.assert_allclose(zero.mat, np.zeros((2, 2)), atol=1e-15)
    full = eigenspace_projector(np.eye(3), 1.0)
    np.testing.assert_allclose(full.mat, np.eye(3), atol=1e-14)


def test_eigenspace_projector_clusters_near_degenerate():
    # both eigenvalues within rank_tol of each other join the same projector
    a = np.diag([1.0, 1.0 + 5e-9, 2.0])
    p = eigenspace_projector(a, 1.0)
    assert np.trace(p.mat).real == pytest.approx(2.0)


def loop_clusters(w, gap_at):
    """The per-index clustering loop that ``eigen_clusters`` replaced."""
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= gap_at(i):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def hit_then_grow_projector(a, value, tol):
    """The ``eigenspace_projector`` that ``eigen_clusters`` replaced: every
    eigenvalue within ``rank_tol`` of ``value``, grown over ``rank_tol`` gaps."""
    m = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    hit = np.abs(w - value) <= tol.rank_tol
    if not hit.any():
        return np.zeros(m.shape, dtype=complex)
    lo = int(np.argmax(hit))
    hi = len(w) - 1 - int(np.argmax(hit[::-1]))
    while lo > 0 and w[lo] - w[lo - 1] <= tol.rank_tol:
        lo -= 1
    while hi < len(w) - 1 and w[hi + 1] - w[hi] <= tol.rank_tol:
        hi += 1
    cols = v[:, lo : hi + 1]
    return cols @ cols.conj().T


# steps between neighbouring eigenvalues: exact ties, near-ties at
# rank_tol * {0.5, 1, 2} (times a scale, for the relative rule), and gaps above 1
STEP_UNITS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
SPECTRA = st.tuples(
    st.sampled_from([-1e3, -1.0, 0.0, 0.5, 1.0, 1e3]),
    st.lists(
        st.one_of(
            st.tuples(STEP_UNITS, st.sampled_from([1.0, 1e3])),
            st.tuples(st.floats(1.5, 10.0), st.just(None)),
        ),
        min_size=0,
        max_size=7,
    ),
    st.sampled_from([1e-8, 1e-6]),
)


def build_spectrum(start, steps, rank_tol):
    w = [start]
    for size, scale in steps:
        w.append(w[-1] + (size if scale is None else size * rank_tol * scale))
    return np.array(w)


# from 0, a step of rank_tol lands exactly on the gap: it must not split
EXACT_GAP = (0.0, [(1.0, 1.0), (1.0, 1.0), (2.5, None), (0.5, 1.0)], 1e-8)


@given(SPECTRA)
@example(EXACT_GAP)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_eigen_clusters_match_per_index_loop(spectrum):
    start, steps, rank_tol = spectrum
    w = build_spectrum(start, steps, rank_tol)
    absolute = [list(c) for c in eigen_clusters(w, rank_tol)]
    assert absolute == loop_clusters(w, lambda i: rank_tol)
    relative = [list(c) for c in eigen_clusters(w, rank_tol * np.maximum(1.0, np.abs(w[1:])))]
    assert relative == loop_clusters(w, lambda i: rank_tol * max(1.0, abs(w[i])))


@given(SPECTRA, st.integers(0, 2**32 - 1), st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 3.0]))
@example(EXACT_GAP, 0, 0.0)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_eigenspace_projector_equals_hit_then_grow(spectrum, seed, shift):
    # shift=None asks for 1.0; otherwise a value shift * rank_tol above a
    # drawn eigenvalue, so hits sit on and across the rank_tol edge
    start, steps, rank_tol = spectrum
    w = build_spectrum(start, steps, rank_tol)
    rng = np.random.default_rng(seed)
    n = len(w)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (u * w) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    value = 1.0 if shift is None else float(w[rng.integers(len(w))] + shift * rank_tol)
    tol = Tolerance(eq_tol=1e-9, rank_tol=rank_tol)
    got = eigenspace_projector(h, value, tol).mat
    assert np.array_equal(got, hit_then_grow_projector(h, value, tol))


def test_eigenspace_projector_requires_hermitian():
    with pytest.raises(ValueError):
        eigenspace_projector(1j * SX + SX, 1.0)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (1.5, False)])
def test_one_hermiticity_rule(factor, accepted):
    # ||A - A^dag|| = factor * eq_tol for both effects, whose Hermitian parts
    # have spectrum in [0, 1] and sum to the identity
    from waylab.conserve import AdditiveQuantity
    from waylab.measure import Observable

    skew = factor * DEFAULT_TOL.eq_tol
    a = np.array([[0.5, skew], [0.0, 0.5]], dtype=complex)
    assert op_norm(a - a.conj().T) == pytest.approx(skew, rel=1e-12)
    assert is_hermitian(a) == accepted
    uses = {
        "psd_sqrt": lambda: psd_sqrt(a),
        "eigenspace_projector": lambda: eigenspace_projector(a, 0.5),
        "Observable": lambda: Observable(["x", "y"], [a, np.eye(2) - a]),
        "AdditiveQuantity": lambda: AdditiveQuantity(a, SZ),
    }
    for name, use in uses.items():
        if accepted:
            use()
        else:
            with pytest.raises(ValueError):
                use()


def _assert_orthonormal(basis):
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)


def test_hermitian_basis_orthonormalizes():
    basis = hermitian_basis([np.eye(2), SZ + np.eye(2), SX])
    assert basis.shape == (3, 2, 2)
    _assert_orthonormal(basis)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), data=st.data())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_hermitian_basis_depends_only_on_the_span(seed, d, data):
    # a *-closed span of r random Hermitian matrices, given by two different
    # complex bases of it: the basis out is the same
    r = data.draw(st.integers(1, d * d))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((r, d, d)) + 1j * rng.standard_normal((r, d, d))
    herm = z + z.conj().swapaxes(1, 2)
    mix = rng.standard_normal((2, r, r)) + 1j * rng.standard_normal((2, r, r))
    first, second = (np.tensordot(m, herm, axes=1) for m in mix)
    basis = hermitian_basis(first)
    assert basis.shape == (r, d, d)
    _assert_orthonormal(basis)
    np.testing.assert_array_equal(basis, basis.conj().swapaxes(1, 2))
    np.testing.assert_allclose(hermitian_basis(second), basis, atol=1e-12)


def test_hermitian_basis_spans_and_is_hermitian():
    basis = hermitian_basis([SX + 1j * SY])  # one non-normal direction
    assert len(basis) == 2  # splits into two Hermitian directions
    for b in basis:
        np.testing.assert_allclose(b, b.conj().T, atol=1e-12)
