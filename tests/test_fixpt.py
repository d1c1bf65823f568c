import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waylab import Observable, Operator, OperationMap, fixpt, op_norm
from waylab.conserve import AdditiveQuantity, conservative_unitary
from waylab.cpmaps import apply_dual, apply_map, to_supermatrix
from waylab.fixpt import (
    _closed_under_products,
    _joint_eigenprojectors,
    _null_spaces,
    _projector_gap,
    _support_isometry,
    analyze_fixed_points,
    cesaro_supermatrix,
    check_minimal_support,
    kraus_commutant,
    nondisturbed_norm1_observable,
    post_processing_decomposition,
    structural_necessary_conditions,
)
from waylab.measure import (
    MeasurementScheme,
    collapse_instrument,
    luders_instrument,
    measured_observable,
    scheme_to_instrument,
    sharp_observable,
)
from waylab.opcore import DEFAULT_TOL, hermitian_basis, op_norm_mat
from waylab.rand import haar_unitary, random_channel, random_hermitian, random_povm, random_state

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
SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def unsharp_x(lam):
    plus = (np.eye(2) + lam * SX) / 2.0
    return Observable(["plus", "minus"], [plus, np.eye(2) - plus])


def qutrit_decay_channel():
    e = np.eye(3, dtype=complex)
    k = [
        np.outer(e[:, 0], e[:, 0]),
        np.outer(e[:, 2], e[:, 2]),
        np.outer(e[:, 0], e[:, 1]) / np.sqrt(2.0),
        np.outer(e[:, 2], e[:, 1]) / np.sqrt(2.0),
    ]
    return OperationMap(k)


def leaky_collapse_channel(gamma):
    e = np.eye(3, dtype=complex)
    k = [
        np.outer(e[:, 0], e[:, 0]),
        np.outer(e[:, 1], e[:, 1]),
        np.sqrt(gamma) * np.outer(e[:, 0], e[:, 2]),
        np.sqrt(1.0 - gamma) * np.outer(e[:, 1], e[:, 2]),
    ]
    return OperationMap(k)


def test_fixed_points_unitary_x():
    phi = OperationMap([SX])
    fp = analyze_fixed_points(phi)
    assert fp.fixed_dim == 2
    assert fp.faithful
    assert fp.algebra_certified
    assert fp.commutant_consistent
    assert fp.max_fixed_defect <= 1e-12
    proj = fp.projector
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    np.testing.assert_allclose(fp.rho0, np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(fp.support_p, np.eye(2), atol=1e-12)
    # the averaged dual projects onto span{1, x}
    np.testing.assert_allclose(fp.average_dual(SX), SX, atol=1e-12)
    np.testing.assert_allclose(fp.average_dual(SZ), np.zeros((2, 2)), atol=1e-12)


def test_fixed_points_luders_unsharp():
    phi = luders_instrument(unsharp_x(0.5)).total()
    fp = analyze_fixed_points(phi)
    assert fp.fixed_dim == 2
    assert fp.faithful
    assert fp.algebra_certified
    assert fp.commutant_consistent
    plus = (np.eye(2) + SX) / 2.0
    np.testing.assert_allclose(fp.average_dual(plus), plus, atol=1e-12)


def test_fixed_points_qutrit_decay():
    phi = qutrit_decay_channel()
    fp = analyze_fixed_points(phi)
    assert fp.fixed_dim == 2
    assert not fp.faithful
    assert fp.algebra_certified
    assert fp.commutant_consistent is None
    np.testing.assert_allclose(fp.support_p, np.diag([1.0, 0.0, 1.0]), atol=1e-10)
    np.testing.assert_allclose(np.trace(fp.rho0), 1.0, atol=1e-12)
    lem = check_minimal_support(fp, phi)
    assert lem.all_pass
    assert lem.minimality_margin > 0.5


def test_fixed_points_amplitude_damping():
    p = 0.3
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    phi = OperationMap([k0, k1])
    fp = analyze_fixed_points(phi)
    assert fp.fixed_dim == 1
    assert not fp.faithful
    np.testing.assert_allclose(fp.rho0, P0, atol=1e-12)
    np.testing.assert_allclose(fp.support_p, P0, atol=1e-12)
    lem = check_minimal_support(fp, phi)
    assert lem.all_pass


def test_fixed_points_validation():
    with pytest.raises(ValueError, match="endomorphism"):
        analyze_fixed_points(OperationMap([np.ones((3, 2)) / np.sqrt(3.0)]))
    with pytest.raises(ValueError, match="channel"):
        analyze_fixed_points(OperationMap([0.5 * np.eye(2)]))


def test_kraus_commutant_dephasing():
    phi = OperationMap([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * SZ])
    basis = kraus_commutant(phi)
    assert basis.shape == (4, 2)
    for i in range(basis.shape[1]):
        b = basis[:, i].reshape(2, 2, order="F")
        assert op_norm_mat(b @ SZ - SZ @ b) <= 1e-10
    # unital channel: fixed space coincides with the commutant
    fp = analyze_fixed_points(phi)
    assert fp.fixed_dim == 2
    assert fp.commutant_consistent


def full_stack(phi):
    """The whole stacked Kraus constraint ``X -> [X, F]``, ``F`` in ``{K_i, K_i^dag}``."""
    eye = np.eye(phi.in_dim)
    return np.vstack(
        [np.kron(m.T, eye) - np.kron(eye, m) for k in phi.kraus for m in (k, k.conj().T)]
    )


def full_stack_commutant(phi, rank_tol=1e-8):
    """The commutant from an SVD of the whole stacked Kraus constraint."""
    d = phi.in_dim
    _, s, vh = np.linalg.svd(full_stack(phi), full_matrices=False)
    n_null = int(np.sum(s <= rank_tol * max(1.0, float(s[0]))))
    return vh[d * d - n_null :, :].conj().T


def block_channel(d, rng):
    """A channel that is a direct sum of two random channels, in a random
    basis: its commutant holds the two block projectors."""
    r = int(rng.integers(1, d))
    first, second = random_channel(r, r, 2, rng), random_channel(d - r, d - r, 2, rng)
    u = haar_unitary(d, rng).mat
    return OperationMap(
        [u @ scipy.linalg.block_diag(a, b) @ u.conj().T for a, b in zip(first.kraus, second.kraus)]
    )


def conserving_scheme_channel(d_sys, rng):
    """The total channel of a random scheme that conserves a random additive
    quantity: outcomes x apparatus rank x apparatus dimension Kraus operators."""
    d_app = int(rng.integers(2, 4))
    q = AdditiveQuantity(
        np.diag(rng.integers(-1, 2, size=d_sys).astype(float)),
        np.diag(rng.integers(-1, 2, size=d_app).astype(float)),
    )
    u = conservative_unitary(q.composite(), rng, strength=1.5)
    xi = random_state(d_app, rng, rank=min(2, d_app))
    pointer = sharp_observable(random_hermitian(d_app, rng))
    m = MeasurementScheme(d_sys, d_app, xi, OperationMap([u.mat]), pointer)
    return scheme_to_instrument(m).total()


COMMUTANT_KINDS = [
    "random", "blocks", "luders", "unsharp", "scheme", "decay", "unitary", "identity"
]


def commutant_channel(kind, d, rng):
    if kind == "random":
        return random_channel(d, d, int(rng.integers(1, 4)), rng)
    if kind == "blocks":
        return block_channel(d, rng)
    if kind == "near-blocks":
        # broken block projectors: restricted singular values near the null
        # threshold, where the scale ||S||_2 decides the count
        delta = 10.0 ** rng.uniform(-11, -6)

        def ginibre():
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        return OperationMap([k + delta * ginibre() for k in block_channel(d, rng).kraus])
    if kind == "luders":
        # degenerate eigenvalues give a commutant with several dimensions in
        # one singular-value cluster, where the two bases may differ
        v = haar_unitary(d, rng).mat
        h = v @ np.diag(rng.integers(0, 3, size=d).astype(float)) @ v.conj().T
        return luders_instrument(sharp_observable(h)).total()
    if kind == "unsharp":
        n = int(rng.integers(2, 5))
        obs = Observable([f"x{i}" for i in range(n)], random_povm(d, n, rng))
        return luders_instrument(obs).total()
    if kind == "scheme":
        return conserving_scheme_channel(min(d, 3), rng)
    if kind == "decay":
        # the last level decays into the first, in a random basis: the Kraus
        # family alone commutes with more than its adjoints do
        gamma = rng.uniform(0.2, 0.8)
        k0 = np.diag([1.0] * (d - 1) + [np.sqrt(1 - gamma)])
        k1 = np.zeros((d, d))
        k1[0, d - 1] = np.sqrt(gamma)
        u = haar_unitary(d, rng).mat
        return OperationMap([u @ k @ u.conj().T for k in (k0, k1)])
    if kind == "unitary":
        # cube roots of unity as eigenvalues: degenerate eigenspaces
        v = haar_unitary(d, rng).mat
        phases = np.exp(2j * np.pi * rng.integers(0, 3, size=d) / 3)
        return OperationMap([v @ np.diag(phases) @ v.conj().T])
    # every Hermitian combination is a multiple of 1: all d^2 candidates
    return OperationMap([np.eye(d)])


def null_basis(phi, rank_tol=DEFAULT_TOL.rank_tol):
    """The right null vectors of ``M - 1``, unvec'ed to a stack ``(r, d, d)``."""
    d = phi.in_dim
    right = _null_spaces(to_supermatrix(phi) - np.eye(d * d), rank_tol)[0]
    return right.T.reshape(-1, d, d).swapaxes(1, 2)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), kind=st.sampled_from(COMMUTANT_KINDS))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_printed_bases_depend_only_on_their_spaces(seed, d, kind):
    # a unitarily rotated null basis gives the same fixed-space basis, and a
    # rotated support isometry the same support basis
    rng = np.random.default_rng(seed)
    phi = commutant_channel(kind, d, rng)
    analysis = analyze_fixed_points(phi)
    null = null_basis(phi)
    rotated = np.tensordot(haar_unitary(len(null), rng).mat, null, axes=1)
    np.testing.assert_allclose(hermitian_basis(rotated), analysis.basis, atol=1e-12)
    w = analysis.p_isometry
    turned = _support_isometry(w @ haar_unitary(w.shape[1], rng).mat)
    np.testing.assert_allclose(turned, w, atol=1e-12)


def smeared_luders_channel(d, sizes, a0, log_gaps, seed):
    """The Lüders channel of ``E(0) = sum_z a_z P(z)``, ``E(1) = 1 - E(0)``, for
    the spectral projectors ``P(z)`` (of ranks ``sizes``) of a sharp
    observable in a random basis.  Neighbouring ``a_z`` are chosen so that
    their channel eigenvalue ``sqrt(a a') + sqrt((1 - a)(1 - a'))`` lies about
    ``10**log_gap`` below 1."""
    a = [a0]
    for g in log_gaps:
        a.append(a[-1] + np.sqrt(8 * a[-1] * (1 - a[-1]) * 10.0**g))
    u = haar_unitary(d, np.random.default_rng(seed)).mat
    e0 = (u * np.repeat(a, sizes)) @ u.conj().T
    return luders_instrument(Observable(["0", "1"], [e0, np.eye(d) - e0])).total()


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 6), data=st.data())
@settings(derandomize=True, max_examples=40, deadline=None)
def test_near_unit_eigenvalues_keep_the_fixed_space_basis(seed, d, data):
    # smearings of a degenerate sharp observable whose non-fixed channel
    # eigenvalues lie 1e-9 to 1e-5 below 1, on both sides of rank_tol: the
    # Hermitian basis has exactly the SVD's null count of directions
    cuts = sorted(data.draw(st.sets(st.integers(1, d - 1), min_size=1, max_size=d - 2)))
    sizes = np.diff([0, *cuts, d])
    log_gaps = data.draw(st.lists(st.floats(-9, -5), min_size=len(cuts), max_size=len(cuts)))
    phi = smeared_luders_channel(d, sizes, data.draw(st.floats(0.05, 0.6)), log_gaps, seed)
    analysis = analyze_fixed_points(phi)
    assert analysis.fixed_dim == len(null_basis(phi)) == len(analysis.basis)
    gram = np.einsum("aij,bij->ab", analysis.basis.conj(), analysis.basis)
    np.testing.assert_allclose(gram, np.eye(analysis.fixed_dim), atol=1e-12)


def unitary_mixture(d, rng, n=None):
    """``rho -> sum_i p_i U_i rho U_i^dag`` for Haar ``U_i``: unital."""
    n = int(rng.integers(1, 4)) if n is None else n
    p = rng.dirichlet(np.ones(n))
    return OperationMap([np.sqrt(w) * haar_unitary(d, rng).mat for w in p])


def unital_channel(kind, d, rng):
    if kind == "mixture":
        return unitary_mixture(d, rng)
    if kind == "luders":
        n = int(rng.integers(2, 5))
        return luders_instrument(Observable([f"x{i}" for i in range(n)],
                                            random_povm(d, n, rng))).total()
    if kind == "sum":
        # a direct sum of two unitary mixtures, in a random basis: its
        # commutant holds the two block projectors
        r = int(rng.integers(1, d))
        first, second = unitary_mixture(r, rng, 2), unitary_mixture(d - r, rng, 2)
        u = haar_unitary(d, rng).mat
        return OperationMap([u @ scipy.linalg.block_diag(a, b) @ u.conj().T
                             for a, b in zip(first.kraus, second.kraus)])
    # a smearing whose non-fixed eigenvalues lie 1e-11 to 1e-8 below 1,
    # within the certificate's margin of rank_tol
    cuts = sorted(rng.choice(np.arange(1, d), size=int(rng.integers(1, d)), replace=False))
    sizes = np.diff([0, *cuts, d])
    gaps = rng.uniform(-11, -8, size=len(cuts))
    return smeared_luders_channel(d, sizes, rng.uniform(0.05, 0.6), gaps, int(rng.integers(2**31)))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8),
       kind=st.sampled_from(["mixture", "luders", "sum", "near-unit"]))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_unital_path_matches_dense_path(seed, d, kind):
    phi = unital_channel(kind, d, np.random.default_rng(seed))
    took = fixpt._unital_fixed_space(phi, DEFAULT_TOL) is not None
    assert took == (kind != "near-unit")  # near-unit smearings fall back
    got = analyze_fixed_points.__wrapped__(phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixpt, "_unital_fixed_space", lambda phi, tol: None)
        dense = analyze_fixed_points.__wrapped__(phi)
    for field in ("fixed_dim", "faithful", "algebra_certified", "commutant_consistent"):
        assert getattr(got, field) == getattr(dense, field), field
    assert op_norm_mat(got.projector - dense.projector) <= 1e-10
    np.testing.assert_allclose(got.basis, dense.basis, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.rho0, dense.rho0, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
       kind=st.sampled_from(COMMUTANT_KINDS), rank_tol=st.sampled_from([1e-8, 1e-11]))
@settings(derandomize=True, max_examples=50, deadline=None)
def test_kraus_commutant_matches_full_stack_svd(seed, d, kind, rank_tol):
    phi = commutant_channel(kind, d, np.random.default_rng(seed))
    got = kraus_commutant(phi, rank_tol)
    expected = full_stack_commutant(phi, rank_tol)
    assert got.shape == expected.shape  # same null count
    assert op_norm_mat(got @ got.conj().T - expected @ expected.conj().T) <= 1e-12


def gram_commutant(phi, rank_tol):
    """``kraus_commutant`` with ``||S||_2`` always from the ``d^2 x d^2`` Gram
    and an economy SVD of the restricted stack: the scale that the bracket
    stands for, computed every time."""
    d = phi.in_dim
    kraus = np.stack(phi.kraus)
    family = np.concatenate([kraus, kraus.conj().swapaxes(1, 2)])
    q = np.einsum("fji,fjk->ik", family.conj(), family)
    eye = np.eye(d)
    gram = np.kron(q.conj(), eye) + np.kron(eye, q) - 2 * sum(np.kron(f.conj(), f) for f in family)
    s_norm = np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    thr = rank_tol * max(1.0, s_norm)
    rng = np.random.default_rng(2718)
    c = rng.standard_normal(len(kraus)) + 1j * rng.standard_normal(len(kraus))
    m = np.tensordot(c, kraus, axes=1)
    w, v = np.linalg.eigh(m + m.conj().T)
    tau = max(np.sqrt(rank_tol), 100 * np.finfo(float).eps / rank_tol) * max(1.0, np.abs(w).max())
    a, b = np.nonzero(np.abs(w[:, None] - w[None, :]) <= tau)
    edge = max(100.0, s_norm / tau) * thr
    while True:
        cand = v[:, a].T[:, :, None] * v[:, b].conj().T[:, None, :]
        comm = (family[:, None] @ cand - cand @ family[:, None]).transpose(0, 2, 3, 1)
        _, s, vh = np.linalg.svd(comm.reshape(-1, len(a)), full_matrices=False)
        if len(a) == d * d or not np.any((s > thr) & (s <= edge)):
            break
        a, b = np.divmod(np.arange(d * d), d)
    n_null = int(np.sum(s <= thr))
    basis = cand.transpose(0, 2, 1).reshape(len(a), d * d).T
    return basis @ vh[len(s) - n_null :].conj().T


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10),
       kind=st.sampled_from([*COMMUTANT_KINDS, "near-blocks"]),
       rank_tol=st.sampled_from([1e-8, 1e-11]))
@example(seed=0, d=10, kind="luders", rank_tol=1e-8)
@example(seed=0, d=10, kind="unsharp", rank_tol=1e-8)
@example(seed=1, d=5, kind="near-blocks", rank_tol=1e-8)  # the bracket cannot decide
@settings(derandomize=True, max_examples=40, deadline=None)
def test_kraus_commutant_bracket_matches_gram_scale(seed, d, kind, rank_tol):
    phi = commutant_channel(kind, d, np.random.default_rng(seed))
    got = kraus_commutant(phi, rank_tol)
    expected = gram_commutant(phi, rank_tol)
    assert got.shape == expected.shape  # same null count
    assert op_norm_mat(got @ got.conj().T - expected @ expected.conj().T) <= 1e-12


def gram_eigvalsh_calls(phi, rank_tol):
    """``kraus_commutant(phi, rank_tol)`` and how many ``d^2 x d^2`` matrices
    it handed to ``eigvalsh``."""
    d = phi.in_dim
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", counted)
        got = kraus_commutant(phi, rank_tol)
    return got, shapes.count((d * d, d * d))


def test_kraus_commutant_of_luders_channel_needs_no_gram():
    # restricted singular values at rounding level and of order one, far
    # from both windows: the bracket decides every one
    rng = np.random.default_rng(4)
    phi = luders_instrument(sharp_observable(random_hermitian(8, rng))).total()
    got, grams = gram_eigvalsh_calls(phi, 1e-8)
    assert got.shape == (64, 8)
    assert grams == 0


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 5), inside=st.booleans())
@settings(derandomize=True, max_examples=10, deadline=None)
def test_kraus_commutant_null_count_scale_is_stack_norm(seed, d, inside):
    """The null count scales ``rank_tol`` by the full stack's norm ``||S||_2``.

    ``10 P`` (``P`` a projector) makes ``||S||_2`` about 10, while the
    block-diagonal operators, which hold every candidate, have singular
    values near 1e-6 from ``1e-6 G``.  ``rank_tol`` puts the third smallest
    singular value 1e-6 (relative) inside or outside ``rank_tol * ||S||_2``,
    so a scale off by more than that changes the count, and the bracket
    ``[s_0, 2 ||Q||^{1/2}]`` of ``||S||_2`` cannot decide it.
    """
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, d))
    blocks = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (r, d - r)]
    u = haar_unitary(d, rng).mat
    family = [10 * np.diag([1.0] * r + [0.0] * (d - r)), 1e-6 * scipy.linalg.block_diag(*blocks)]
    phi = OperationMap([u @ k @ u.conj().T for k in family])
    s = np.linalg.svd(full_stack(phi), compute_uv=False)
    rank_tol = s[-3] / s[0] * (1 + 1e-6 if inside else 1 - 1e-6)
    got, grams = gram_eigvalsh_calls(phi, rank_tol)
    assert got.shape[1] == full_stack_commutant(phi, rank_tol).shape[1] == (3 if inside else 2)
    # a singular value this close to the threshold lies inside the bracket's
    # null window, so the count waited for the Gram's ||S||_2
    assert grams == 1


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 6), log_delta=st.floats(-10, -7))
@example(seed=81, d=4, log_delta=-9.5)
@example(seed=133, d=3, log_delta=-9.0)
@example(seed=256, d=4, log_delta=-9.0)
@settings(derandomize=True, max_examples=20, deadline=None)
def test_kraus_commutant_near_null_count_never_exceeds_full_stack(seed, d, log_delta):
    # a block channel perturbed by 1e-10..1e-7: its broken block projectors
    # sit near the null threshold, where the candidates can miss a direction
    # (never add one); the count then comes from the full stack.  The
    # examples are directions raised past 100 times the threshold but within
    # ||S||_2 / tau times it
    rng = np.random.default_rng(seed)
    delta = 10.0**log_delta
    phi = OperationMap(
        [k + delta * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
         for k in block_channel(d, rng).kraus]
    )
    assert kraus_commutant(phi).shape[1] == full_stack_commutant(phi).shape[1]


def loop_closed(basis, eq_tol):
    """The algebra-closure check one product at a time: the identity and each
    ``a @ b`` projected onto the span of the orthonormal ``basis``."""
    stack = np.stack([b.reshape(-1) for b in basis], axis=1)

    def in_span(mat, scale):
        flat = mat.reshape(-1)
        return float(np.linalg.norm(flat - stack @ (stack.conj().T @ flat))) <= eq_tol * scale

    n = basis[0].shape[0]
    return in_span(np.eye(n), np.sqrt(n)) and all(
        in_span(prod, max(1.0, float(np.linalg.norm(prod))))
        for prod in (a @ b for a in basis for b in basis)
    )


def star_algebra_basis(blocks, rng):
    """An orthonormal Hermitian basis of ``+_k M_{n_k} (x) 1_{m_k}`` for
    ``blocks = [(n_k, m_k), ...]``, in a Haar-random basis."""
    total = sum(n * m for n, m in blocks)
    units = []
    offset = 0
    for n, m in blocks:
        for i in range(n * n):
            e = np.zeros((total, total), dtype=complex)
            e[offset : offset + n * m, offset : offset + n * m] = np.kron(
                np.eye(n * n)[i].reshape(n, n), np.eye(m)
            )
            units.append(e)
        offset += n * m
    u = haar_unitary(total, rng).mat
    return hermitian_basis([u @ e @ u.conj().T for e in units])


@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
       perturb=st.sampled_from([0.0, 1e-13, 1e-6, 1e-2]))
@example(seed=1, blocks=[(3, 2), (3, 2), (2, 3)], perturb=0.0)  # several blocks of products
@example(seed=1, blocks=[(3, 2), (3, 2), (2, 3)], perturb=1e-6)
@settings(derandomize=True, max_examples=30, deadline=None)
def test_closure_blocks_match_product_loop(seed, blocks, perturb):
    rng = np.random.default_rng(seed)
    basis = star_algebra_basis(blocks, rng)
    full = len(basis) == basis[0].shape[0] ** 2
    if perturb:
        # one basis element moved off the algebra, then orthonormalized again
        basis[-1] = basis[-1] + perturb * random_hermitian(basis[0].shape[0], rng).mat
        basis = hermitian_basis(basis)
    got = _closed_under_products(np.array(basis), DEFAULT_TOL.eq_tol)
    assert got == loop_closed(basis, DEFAULT_TOL.eq_tol)
    assert got == (full or perturb < 1e-9)


@pytest.mark.parametrize("mult", [1, 2, 3])
def test_closure_rejects_spin_factor(mult):
    # span{1, X, Z} (x) 1_m in a random basis: every square is a multiple of
    # the identity, but X Z = -i Y is not in the span
    rng = np.random.default_rng(mult)
    u = haar_unitary(2 * mult, rng).mat
    paulis = [np.eye(2), SX, SZ]
    basis = hermitian_basis([u @ np.kron(p, np.eye(mult)) @ u.conj().T for p in paulis])
    assert not _closed_under_products(np.array(basis), DEFAULT_TOL.eq_tol)
    assert not loop_closed(basis, DEFAULT_TOL.eq_tol)


def dense_projector_gap(q, c):
    """``||Q Q^dag - C C^dag||`` from the two ``n x n`` projectors."""
    return op_norm_mat(q @ q.conj().T - c @ c.conj().T)


def orthonormal_columns(n, r, rng):
    z = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return np.linalg.qr(z)[0]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 36), r=st.integers(1, 8),
       kind=st.sampled_from(["same", "near", "random", "fewer", "more"]))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_projector_gap_matches_dense_expression(seed, n, r, kind):
    rng = np.random.default_rng(seed)
    r = min(r, n)
    q = orthonormal_columns(n, r, rng)
    if kind == "same":
        c = q @ haar_unitary(r, rng).mat  # another basis of the same space
    elif kind == "near":
        c = np.linalg.qr(q + 1e-9 * orthonormal_columns(n, r, rng))[0]
    elif kind == "random":
        c = orthonormal_columns(n, r, rng)
    elif kind == "fewer":
        c = q[:, : r - 1] if r > 1 else np.zeros((n, 0))
    else:
        c = orthonormal_columns(n, min(r + 1, n), rng) if r < n else np.zeros((n, 0))
    assert abs(_projector_gap(q, c) - dense_projector_gap(q, c)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
       kind=st.sampled_from(["random", "blocks", "luders", "unitary", "identity"]))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_commutant_consistency_matches_dense_projectors(seed, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "random":
        phi = random_channel(d, d, int(rng.integers(1, 4)), rng)
    elif kind == "blocks":
        phi = block_channel(d, rng)
    elif kind == "luders":
        v = haar_unitary(d, rng).mat
        h = v @ np.diag(rng.integers(0, 3, size=d).astype(float)) @ v.conj().T
        phi = luders_instrument(sharp_observable(h)).total()
    elif kind == "unitary":
        phi = OperationMap([haar_unitary(d, rng).mat])
    else:
        phi = OperationMap([np.eye(d)])
    analysis = analyze_fixed_points(phi)
    assert analysis.faithful
    comm = kraus_commutant(phi)
    qf = np.linalg.qr(np.stack([b.reshape(-1, order="F") for b in analysis.basis], axis=1))[0]
    dense = dense_projector_gap(qf, comm)
    assert abs(_projector_gap(qf, comm) - dense) <= 1e-12
    assert analysis.commutant_consistent == (comm.shape[1] > 0 and dense <= 1e-8)


def support_channel(kind, d, rng):
    if kind == "random":
        return random_channel(d, d, int(rng.integers(1, 4)), rng)
    if kind == "blocks":
        return block_channel(d, rng)
    # into an r-dimensional subspace, in a random basis: P is a proper projector
    r = int(rng.integers(1, d))
    u = haar_unitary(d, rng).mat
    into = random_channel(d, r, -(-d // r), rng).kraus
    return OperationMap([u @ np.vstack([k, np.zeros((d - r, d))]) @ u.conj().T for k in into])


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5),
       kind=st.sampled_from(["random", "blocks", "into"]))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_minimal_support_defects_match_column_loop(seed, d, kind):
    # the fixed-states and minimality checks against one column at a time
    phi = support_channel(kind, d, np.random.default_rng(seed))
    analysis = analyze_fixed_points(phi)
    p = analysis.support_p
    states = 0.0
    for i in range(analysis.fixed_states.shape[1]):
        s = analysis.fixed_states[:, i].reshape(d, d, order="F")
        states = max(states, op_norm_mat(s - p @ s @ p))
    margin = np.inf
    for v in analysis.p_isometry.T:
        q = p - np.outer(v, v.conj())
        margin = min(margin, op_norm(analysis.average_dual(q) - np.eye(d)))
    rep = check_minimal_support(analysis, phi)
    assert rep.fixed_states_supported_defect == states
    assert rep.minimality_margin == margin


def reference_structural_defects(m, f, q):
    """The defects of ``structural_necessary_conditions``, one pair or one
    outcome at a time."""
    inst = scheme_to_instrument(m)
    e_obs = measured_observable(m)
    total = inst.total()
    analysis = analyze_fixed_points(total)
    if m.sys_dim == 2 and analysis.p_isometry.shape[1] == 1:
        compress = lambda a: a
        dual_p = lambda b: apply_dual(total, b).mat
    else:
        compress = analysis.compress
        dual_p = lambda b: analysis.compress(apply_dual(total, analysis.embed(b)))
    p_e = [compress(e.mat) for e in e_obs.effects]
    p_f = [compress(e.mat) for e in f.effects]
    p_n = compress(q.n_sys)
    shift = dual_p(p_n) - p_n

    def comm(a, b):
        return op_norm_mat(a @ b - b @ a)

    pairs = [(i, j) for i in range(len(p_e)) for j in range(i + 1, len(p_e))]
    return {
        "nondisturbed-commutes-measured": max(comm(b, a) for a in p_e for b in p_f),
        "nondisturbed-commutes-conserved-shift": max(comm(b, shift) for b in p_f),
        "first-kind-commutative": max(
            (comm(p_e[i], p_e[j]) for i, j in pairs), default=0.0
        ),
        "first-kind-commutes-quantity": max(comm(a, p_n) for a in p_e),
        "repeatable-sharp-on-support": max(
            [op_norm_mat(a @ a - a) for a in p_e]
            + [op_norm_mat(p_e[i] @ p_e[j]) for i, j in pairs]
        ),
        "luders-commutative-quantity": max(comm(e.mat, q.n_sys) for e in e_obs.effects),
    }


@given(seed=st.integers(0, 2**32 - 1), d_sys=st.integers(2, 3), d_app=st.integers(2, 3),
       kind=st.sampled_from(["conserving", "random", "swap", "single-pointer"]),
       single_f=st.booleans())
@settings(derandomize=True, max_examples=30, deadline=None)
def test_structural_defects_match_pair_loop(seed, d_sys, d_app, kind, single_f):
    rng = np.random.default_rng(seed)
    q = AdditiveQuantity(
        np.diag(rng.integers(-1, 2, size=d_sys).astype(float)),
        np.diag(rng.integers(-1, 2, size=d_app).astype(float)),
    )
    xi = random_state(d_app, rng, rank=min(2, d_app))
    pointer = sharp_observable(random_hermitian(d_app, rng))
    if kind == "conserving":
        coupling = conservative_unitary(q.composite(), rng, strength=1.5).mat
    elif kind == "random":
        coupling = haar_unitary(d_sys * d_app, rng).mat
    elif kind == "swap":
        # the qubit is swapped with a pure apparatus state: rank-one support
        d_sys = d_app = 2
        q = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
        xi = random_state(2, rng, rank=1)
        pointer = sharp_observable(random_hermitian(2, rng))
        coupling = SWAP
    else:
        # one pointer outcome: the measured observable has no pairs
        coupling = haar_unitary(d_sys * d_app, rng).mat
        pointer = Observable(["all"], [np.eye(d_app)])
    m = MeasurementScheme(d_sys, d_app, xi, OperationMap([coupling]), pointer)
    if single_f:
        f = Observable(["all"], [np.eye(d_sys)])
    else:
        f = sharp_observable(random_hermitian(d_sys, rng))
    rep = structural_necessary_conditions(m, f, q)
    assert rep.qubit_support_collapse == (kind == "swap")
    for key, value in reference_structural_defects(m, f, q).items():
        assert rep.conditions[key].defect == value, key


def test_cesaro_converges_to_projector():
    phi = luders_instrument(unsharp_x(0.5)).total()
    fp = analyze_fixed_points(phi)
    gap_2k = op_norm_mat(cesaro_supermatrix(phi, 2000) - fp.projector)
    gap_8k = op_norm_mat(cesaro_supermatrix(phi, 8000) - fp.projector)
    assert gap_2k <= 5e-3
    assert gap_8k <= 1.5e-3
    assert gap_8k < gap_2k


@pytest.mark.parametrize("n_iter", [1, 2, 3, 7, 64, 2000])
def test_cesaro_doubling_matches_plain_sum(n_iter):
    rng = np.random.default_rng(n_iter)
    for phi in (luders_instrument(unsharp_x(0.5)).total(), random_channel(3, 3, 2, rng)):
        m = to_supermatrix(phi)
        acc = np.zeros_like(m)
        power = np.eye(len(m), dtype=complex)
        for _ in range(n_iter):
            power = power @ m
            acc += power
        assert np.abs(cesaro_supermatrix(phi, n_iter) - acc / n_iter).max() <= 1e-12
    with pytest.raises(ValueError, match="positive"):
        cesaro_supermatrix(phi, 0)


def test_structural_conditions_cnot_all_pass():
    pointer = Observable(["z0", "z1"], [P0, P1])
    m = MeasurementScheme(2, 2, Operator(P0), OperationMap([CNOT]), pointer)
    f = sharp_observable(SZ)
    q = AdditiveQuantity(SZ / 2.0, np.zeros((2, 2)))
    rep = structural_necessary_conditions(m, f, q)
    assert rep.average_holds
    assert rep.nondisturbed
    assert rep.first_kind
    assert rep.repeatable
    assert not rep.qubit_support_collapse
    assert rep.support_rank == 2
    for name, cond in rep.conditions.items():
        assert cond.applicable, name
        assert cond.passed, (name, cond.defect)
    assert rep.all_applicable_pass()


def test_structural_conditions_qubit_support_collapse():
    # swap coupling discards the system into the apparatus and preps |0>:
    # the fixed state is rank one, so conditions run on the full space
    pointer = Observable(["z0", "z1"], [P0, P1])
    m = MeasurementScheme(2, 2, Operator(P0), OperationMap([SWAP]), pointer)
    coin = Observable(["t0", "t1"], [0.3 * np.eye(2), 0.7 * np.eye(2)])
    q = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    rep = structural_necessary_conditions(m, coin, q)
    assert rep.qubit_support_collapse
    assert rep.support_rank == 1
    assert rep.average_holds
    assert rep.nondisturbed  # trivial observables survive any channel
    assert not rep.first_kind
    assert not rep.repeatable
    nd = rep.conditions["nondisturbed-commutes-measured"]
    assert nd.applicable and nd.passed
    assert not rep.conditions["first-kind-commutative"].applicable
    assert rep.all_applicable_pass()


def test_norm1_extraction_luders_unsharp():
    phi = luders_instrument(unsharp_x(0.5)).total()
    res = nondisturbed_norm1_observable(phi, unsharp_x(0.5))
    assert res.observable.outcomes == ("z0", "z1")
    assert res.faithful
    assert res.sharp
    assert res.skipped_outcomes == ()
    plus = (np.eye(2) + SX) / 2.0
    np.testing.assert_allclose(res.observable.effect("z0").mat, plus, atol=1e-10)
    np.testing.assert_allclose(res.observable.effect("z1").mat, np.eye(2) - plus, atol=1e-10)
    assert res.norm_defect <= 1e-10
    assert res.fixed_defect <= 1e-10
    assert res.compression_defect <= 1e-10
    assert res.distinguish_defect <= 1e-10


def test_norm1_extraction_leaky_collapse():
    gamma = 0.6
    phi = leaky_collapse_channel(gamma)
    e = Observable(
        ["x0", "x1"],
        [np.diag([1.0, 0.0, gamma]), np.diag([0.0, 1.0, 1.0 - gamma])],
    )
    res = nondisturbed_norm1_observable(phi, e)
    assert not res.faithful
    assert not res.sharp  # the recovered effects leak into the decaying level
    np.testing.assert_allclose(
        res.observable.effect("z0").mat, np.diag([1.0, 0.0, gamma]), atol=1e-10
    )
    np.testing.assert_allclose(
        res.observable.effect("z1").mat, np.diag([0.0, 1.0, 1.0 - gamma]), atol=1e-10
    )
    assert res.norm_defect <= 1e-10
    assert res.distinguish_defect <= 1e-10
    # the certifying states are routed to their outcome with certainty
    np.testing.assert_allclose(res.states[0], np.diag([1.0, 0.0, 0.0]), atol=1e-10)


def test_norm1_extraction_errors():
    phi = luders_instrument(sharp_observable(SZ)).total()
    coin = Observable(["t0", "t1"], [0.3 * np.eye(2), 0.7 * np.eye(2)])
    with pytest.raises(ValueError, match="trivial"):
        nondisturbed_norm1_observable(phi, coin)
    with pytest.raises(ValueError, match="disturbed"):
        nondisturbed_norm1_observable(phi, unsharp_x(0.5))


def test_post_processing_unsharp_x_frozen():
    lam = 0.5
    inst = luders_instrument(unsharp_x(lam))
    res = post_processing_decomposition(inst)
    assert res.outcomes == ("plus", "minus")
    assert res.sharp
    assert res.faithful
    assert res.reconstruction_defect <= 1e-12
    # columns sorted ascending: z0 carries the minus-heavy column
    np.testing.assert_allclose(res.matrix, [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)
    minus = (np.eye(2) - SX) / 2.0
    np.testing.assert_allclose(res.observable.effect("z0").mat, minus, atol=1e-10)

    # deterministic across repeated runs
    res2 = post_processing_decomposition(inst)
    assert np.array_equal(res.matrix, res2.matrix)
    for x in res.observable.outcomes:
        assert np.array_equal(
            res.observable.effect(x).mat, res2.observable.effect(x).mat
        )


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), n=st.integers(2, 3),
       leaky=st.booleans())
@settings(derandomize=True, max_examples=20, deadline=None)
def test_norm_one_defects_match_outcome_loop(seed, d, n, leaky):
    # the norm-1 and post-processing defects against one outcome at a time,
    # on the recovered effects, projectors and states
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, rng).mat
    weights = rng.dirichlet(np.ones(n), size=d).T
    f = Observable([f"x{i}" for i in range(n)], [v @ np.diag(w) @ v.conj().T for w in weights])
    inst = luders_instrument(f)
    phi = inst.total()
    if leaky:
        gamma = rng.uniform(0.2, 0.8)
        phi = leaky_collapse_channel(gamma)
        f = Observable(["x0", "x1"], [np.diag([1.0, 0.0, gamma]), np.diag([0.0, 1.0, 1 - gamma])])
    res = nondisturbed_norm1_observable(phi, f)
    analysis = analyze_fixed_points(phi)
    norm = fixed = compress = distinguish = 0.0
    for g, rz in zip(res.observable.effects, res.projectors):
        norm = max(norm, abs(op_norm(g) - 1.0))
        fixed = max(fixed, op_norm(apply_dual(phi, g).mat - g.mat))
        compress = max(compress, op_norm_mat(analysis.compress(g) - rz))
    for zi, rho in enumerate(res.states):
        out = apply_map(phi, rho)
        for zj, g in enumerate(res.observable.effects):
            p = float(np.real(np.trace(g.mat @ out.mat)))
            distinguish = max(distinguish, abs(p - (1.0 if zi == zj else 0.0)))
    assert (res.norm_defect, res.fixed_defect) == (norm, fixed)
    assert (res.compression_defect, res.distinguish_defect) == (compress, distinguish)

    pp = post_processing_decomposition(inst)
    recon = 0.0
    for xi, eff in enumerate(inst.induced_observable().effects):
        acc = np.zeros((d, d), dtype=complex)
        for zi, g in enumerate(pp.observable.effects):
            acc += pp.matrix[xi, zi] * g.mat
        recon = max(recon, op_norm_mat(acc - eff.mat))
    assert pp.reconstruction_defect == recon


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), n=st.integers(1, 4))
@settings(derandomize=True, max_examples=30, deadline=None)
def test_joint_eigenprojectors_of_degenerate_commuting_family(seed, d, n):
    # n Hermitian matrices, diagonal in one random basis with d - 1 or fewer
    # distinct joint eigenvalues, so some joint eigenspace has rank > 1
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, rng).mat
    spaces = rng.integers(0, d - 1, size=d)
    joint = rng.integers(-2, 3, size=(n, d)).astype(float)[:, spaces]
    mats = np.array([v @ np.diag(w) @ v.conj().T for w in joint])
    projs, values = _joint_eigenprojectors(mats, DEFAULT_TOL)
    assert projs.shape == (len(np.unique(joint.T, axis=0)), d, d)
    assert values.shape == (n, len(projs))
    np.testing.assert_allclose(projs.sum(axis=0), np.eye(d), atol=1e-12)
    np.testing.assert_allclose(projs @ projs, projs, atol=1e-12)
    np.testing.assert_allclose(np.einsum("nz,zij->nij", values, projs), mats, atol=1e-10)


def test_joint_eigenprojectors_reject_non_commuting_family():
    rng = np.random.default_rng(5)
    for mats in (np.array([SX, SZ]), np.array([random_hermitian(4, rng).mat for _ in range(3)])):
        with pytest.raises(RuntimeError, match="does not commute"):
            _joint_eigenprojectors(mats, DEFAULT_TOL)


def test_post_processing_errors():
    coin = Observable(["t0", "t1"], [0.3 * np.eye(2), 0.7 * np.eye(2)])
    with pytest.raises(ValueError, match="trivial"):
        post_processing_decomposition(luders_instrument(coin))
    prep = collapse_instrument(
        sharp_observable(SZ), [[1.0, 0.0], [1.0, 0.0]]
    )
    with pytest.raises(ValueError, match="not first-kind"):
        post_processing_decomposition(prep)
