"""Fixed-point structure of measurement channels.

For a channel ``Phi`` on a ``d``-dimensional system the dual fixed space
``F(Phi*) = {A : Phi*(A) = A}`` is computed from the null spaces of
``M - 1`` where ``M`` is the dual supermatrix.  The spectral projector
``Pi = R (L R)^{-1} L`` onto that eigenspace realizes the Cesàro average
``Phi*_av`` exactly; its adjoint acts on states, giving the reference fixed
state ``rho0 = Phi_av(1/d)`` whose support projection ``P`` carries the
structure theory: compressed to ``P H`` the fixed space is an algebra, and
the analysis certifies multiplicative closure numerically.  A unital channel
skips the supermatrix: its fixed space is the commutant of its Kraus family,
``Pi`` is the orthogonal projector onto it and ``rho0 = 1/d``, once a
certificate shows that the supermatrix's rule would count the same space.

On top of the analysis sit three consumers: necessary commutation conditions
for nondisturbance/first-kindness/repeatability in the presence of an
additive conserved quantity, extraction of a norm-1 observable from any
nondisturbed nontrivial one, and the classical post-processing
decomposition of first-kind instruments.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from .bounds import disturbance_profile
from .conserve import AdditiveQuantity, _scheme_conservation
from .cpmaps import (
    OperationMap,
    _apply,
    _per_object,
    _stack_families,
    to_supermatrix,
    unvec,
    vec,
)
from .measure import (
    Instrument,
    MeasurementScheme,
    Observable,
    _dual_gap,
    _norm_one_projectors,
    _projectors,
    _repeat_first_kind,
    _scheme_repeat_first_kind,
    measured_observable,
    scheme_to_instrument,
)
from .opcore import (
    DEFAULT_TOL,
    Tolerance,
    _BLOCK,
    _as_matrix,
    _commutators,
    _hermitian_parts,
    _psd_sqrts,
    _seeded_weights,
    eigen_clusters,
    hermitian_basis,
    max_op_norm,
    op_norm_mat,
    op_norms,
)
from .reporting import Record

__all__ = [
    "FixedPointAnalysis",
    "MinimalSupportReport",
    "ConditionCheck",
    "StructuralReport",
    "Norm1Result",
    "PostProcessingResult",
    "analyze_fixed_points",
    "check_minimal_support",
    "structural_necessary_conditions",
    "nondisturbed_norm1_observable",
    "post_processing_decomposition",
    "cesaro_supermatrix",
    "kraus_commutant",
]

_JOINT_DIAG_SEED = 1717
# Seed of the random Hermitian element of the Kraus algebra whose eigenbasis
# narrows the search in ``kraus_commutant``; any seed gives the same space.
_COMMUTANT_SEED = 2718
# A restricted singular value this close above the null threshold may be a
# near-null direction that the candidates hold only in part.
_COMMUTANT_EDGE = 100.0
# Relative widening of the ``||S||_2`` bracket in ``kraus_commutant``, far
# above the rounding of the restricted singular value, of ``||Q||`` and of
# the Gram eigenvalue it stands for.
_SCALE_SLACK = np.array([1 - 1e-9, 1 + 1e-9])
# The fixed-space and commutant projectors come from two different
# factorizations, so they agree only to rounding of both; a rank_tol tighter
# than this would reject an exact commutant on that rounding alone.
_COMMUTANT_AGREE_FLOOR = 1e-8
# A commuting family is block-diagonal in the eigenbasis of its random
# combination only up to that basis's eigenvector error, which grows as the
# cluster gaps shrink; a family that does not commute misses this by far.
_JOINT_BLOCK_TOL = 1e-7
# Seed of the diagonal weight and the functional that fix the basis of the
# support of rho0 (``p_isometry``); any seed gives a basis of the same range.
_SUPPORT_SEED = 1414
# A channel whose unit images ``Phi(1)`` and ``Phi*(1)`` lie this close to 1
# is unital to rounding, and its fixed space may come from the commutant of
# its Kraus family.  Not a Tolerance: it decides no property of the channel,
# only which of two algorithms computes the one fixed space, and the report
# may move by no more than rounding (1e-12) with that choice.  A defect
# ``delta`` moves the dense path's ``rho0`` and state-side fixed space off
# ``1/d`` and the commutant by about ``delta`` over the spectral gap, so the
# bound sits just above the rounding of ``sum K K^dag`` (a few ``d eps``).
_UNITAL_ROUNDING = 1e-13
# The unital certificate clears ``rank_tol`` by this factor on both sides.
_UNITAL_MARGIN = 4.0
# A unital certificate that fails for a narrow candidate window retries with
# the window widened until every direction outside it has ``||S X|| / ||X||``
# this many times what the certificate needs, which leaves room for the
# candidates' coupling to them.
_UNITAL_WINDOW = 8.0
# The dense SVD's singular values of ``M - 1`` (``||M - 1|| <= 2`` for a
# unital channel) lie within this many ``d^2 eps`` of the exact ones.
_DENSE_ROUNDING = 16.0


@dataclasses.dataclass(frozen=True)
class FixedPointAnalysis:
    """Certified fixed-point data of a channel's dual.

    ``basis`` spans the dual fixed space ``{A : Phi*(A) = A}`` with a stack
    ``(fixed_dim, d, d)`` of Hermitian operators; ``fixed_states`` holds, as
    columns, an orthonormal vec-basis of the state-side fixed space
    ``{T : Phi(T) = T}`` (the left null vectors of ``M - 1`` from the same
    SVD as the right ones, or the commutant itself for a unital channel, so
    ``fixed_dim`` columns).  The spectral projector is kept factored:
    ``projector = proj_right @ proj_left``, with ``proj_right`` the right null
    vectors ``R`` (``d^2 x fixed_dim``) and ``proj_left = (L^dag R)^{-1} L^dag``
    (``fixed_dim x d^2``); for a unital channel ``R`` is the commutant ``C``
    and ``proj_left = C^dag``.  ``basis``, ``p_isometry`` (orthonormal columns
    spanning the support of ``rho0``) and ``restricted_basis`` are canonical:
    each depends only on the space it spans (:func:`opcore.hermitian_basis`,
    :func:`_support_isometry`), not on the vectors a decomposition happened
    to return.  Arrays are read-only.
    """

    dim: int
    fixed_dim: int
    basis: np.ndarray
    fixed_states: np.ndarray
    proj_right: np.ndarray
    proj_left: np.ndarray
    rho0: np.ndarray
    support_p: np.ndarray
    p_isometry: np.ndarray
    faithful: bool
    restricted_basis: np.ndarray
    algebra_certified: bool
    max_fixed_defect: float
    commutant_consistent: bool | None

    @property
    def projector(self) -> np.ndarray:
        """The dense ``d^2 x d^2`` spectral projector ``R (L^dag R)^{-1} L^dag``
        (``vec`` stacks columns), read-only."""
        proj = self.proj_right @ self.proj_left
        proj.setflags(write=False)
        return proj

    def average_dual(self, a: Any) -> np.ndarray:
        """Cesàro-averaged dual action ``Phi*_av(a)`` through the factored
        projector, ``R (Lt vec a)``, on one matrix or a stack ``(..., d, d)``;
        two matrix-vector products each, so a matrix's image does not depend
        on the stack it comes in."""
        m = _as_matrix(a)
        vecs = m.swapaxes(-1, -2).reshape(*m.shape[:-2], self.dim**2, 1)
        out = self.proj_right @ (self.proj_left @ vecs)
        return out.reshape(m.shape).swapaxes(-1, -2)

    def compress(self, a: Any) -> np.ndarray:
        """``W^dag a W``: the P-block of an operator."""
        w = self.p_isometry
        return w.conj().T @ _as_matrix(a) @ w

    def embed(self, b: np.ndarray) -> np.ndarray:
        """``W b W^dag``: extend a P-block operator by zero."""
        w = self.p_isometry
        return w @ np.asarray(b, dtype=complex) @ w.conj().T

    def to_dict(self) -> dict:
        return {
            "fixed_dim": self.fixed_dim,
            "faithful": self.faithful,
            "algebra_certified": self.algebra_certified,
            "max_fixed_defect": self.max_fixed_defect,
            "commutant_consistent": self.commutant_consistent,
            "support_rank": int(self.p_isometry.shape[1]),
            "P": self.support_p,
            "rho0": self.rho0,
            "basis": self.basis,
        }


def _null_spaces(a: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal right and left null bases of a square matrix."""
    u, s, vh = np.linalg.svd(a)
    n_null = int(np.sum(s <= rank_tol))
    if n_null == 0:
        raise ValueError("matrix has no null space at the requested tolerance")
    right = vh[-n_null:, :].conj().T
    left = u[:, -n_null:].copy()  # not a view that keeps all of u alive
    return right, left


def _stack_norm(family: np.ndarray, q: np.ndarray) -> float:
    """``||S||_2`` of the stacked commutator maps ``X -> [F, X]`` of an
    adjoint-closed family, from the largest eigenvalue of the ``d^2 x d^2``
    Gram ``S^dag S = conj(Q) (x) 1 + 1 (x) Q - 2 sum_F conj(F) (x) F``,
    ``Q = sum_F F^dag F``."""
    d = q.shape[0]
    flat = family.reshape(len(family), d * d)
    cross = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    eye = np.eye(d)
    gram = np.kron(q.conj(), eye) + np.kron(eye, q) - 2 * cross
    return float(np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)))


def kraus_commutant(phi: OperationMap, rank_tol: float = DEFAULT_TOL.rank_tol) -> np.ndarray:
    """Orthonormal vec-basis of ``{K_i, K_i^dag}'``.

    The commutant is the null space of the stack ``S`` of the ``2k``
    commutator maps ``X -> [F, X]``, ``F`` in ``{K_i, K_i^dag}``, with the
    null count ``s <= rank_tol * max(1, ||S||_2)``.  It is found in two stages.

    1. Every ``X`` that commutes with the family commutes with the Hermitian
       ``H = M + M^dag``, ``M = sum_i c_i K_i`` for fixed-seed random complex
       ``c``.  In the eigenbasis ``H = sum_a w_a v_a v_a^dag``,
       ``[H, X]`` has entries ``(w_a - w_b) <v_a, X v_b>``, so the commutant
       lies in ``span{v_a v_b^dag : |w_a - w_b| <= tau}``, an orthonormal
       vec-basis ``B`` of ``n'`` candidates.  The window is
       ``tau = max(sqrt(rank_tol), 100 eps / rank_tol) * max(1, ||H||)``:
       eigenvalues of ``H`` that are equal come out within ``eps ||H||`` of
       each other, far inside it, and the eigenvectors of clusters more
       than ``tau`` apart rotate by about ``eps ||H|| / tau <= rank_tol / 100``
       (Davis-Kahan), so no commutant direction leaves the candidates.  A
       window that is too wide costs only time.  A direction that commutes
       only to within the null threshold, not exactly, can leave them in
       part, which raises its restricted singular value (restricting ``S``
       to ``B`` never lowers one) up to about ``||S||_2 / tau`` times (Davis-
       Kahan); when a restricted value lies within ``max(_COMMUTANT_EDGE,
       ||S||_2 / tau)`` times the threshold, all ``d^2`` candidates, the
       full stack, give the count and basis instead.
    2. The commutators of the candidates, ``[F, v_a v_b^dag]``, form the
       ``(2k d^2) x n'`` matrix ``S B``, which is not built: in the
       eigenbasis its rows come from the family ``V^dag F V`` (two GEMMs),
       and each touches the candidates of two clusters of the window only,
       so the rows of each pair of clusters reduce to a small R factor
       (:func:`_cluster_rows`; one weighted row for two single
       eigenvalues, :func:`_singleton_rows`).  The SVD of the stacked
       factors, which have the Gram of ``S B``, gives the singular values
       and the null vectors ``V_null`` by the same null-count rule.  The
       full stack of all ``d^2`` candidates is built densely, and its QR's
       ``d^2 x d^2`` R factor takes the SVD.

    ``||S||_2`` sets the scales only, and it is bracketed before it is
    computed: ``||S B||_2 <= ||S||_2`` (the largest restricted singular
    value) and ``||S||_2 <= 2 ||Q||^{1/2}``, ``Q = sum_F F^dag F``, since
    ``||S^dag S|| <= ||conj(Q) (x) 1|| + ||1 (x) Q|| + 2 ||sum_F conj(F) (x) F||
    <= 4 ||Q||`` (Cauchy-Schwarz, the family being closed under the
    adjoint).  Both thresholds grow with the scale, so a singular value
    outside the two windows they sweep over the bracket is classified the
    same at every scale in it; only a value inside one makes
    :func:`_stack_norm` compute ``||S||_2`` from the ``d^2 x d^2`` Gram.

    ``B V_null`` is orthonormal.  For a generic family every cluster is a
    single eigenvalue and ``n' = d``: the cost is ``k d^3`` for the rotation
    and the SVD of a real ``d(d + 1)/2 x d`` matrix.  A pair of clusters of
    ``c`` and ``c'`` eigenvalues adds a QR of ``4 k c c'`` rows (``2 k c^2``
    for a cluster with itself) on the candidates of the two, and the
    stacked factors a QR with ``n'`` columns before the SVD (``k d^4`` more
    for the Gram, when it is needed).  When all ``d^2`` candidates are
    needed (``H`` a multiple of 1, e.g. for the identity channel, or at
    that edge) the dense full stack costs ``k d^6``.
    """
    return _commutant(phi, rank_tol).basis


class _Commutant(NamedTuple):
    """What :func:`_commutant` finds: the orthonormal vec-basis ``basis``, the
    restricted singular values ``singular`` (descending, the last ``n_null``
    counted null), ``outside``, a lower bound of ``||S X|| / ||X||`` over the
    directions ``X`` orthogonal to every candidate (``inf`` when the
    candidates are the full stack), and ``s_bound >= ||S||_2``."""

    basis: np.ndarray
    singular: np.ndarray
    n_null: int
    outside: float
    s_bound: float


def _commutant(phi: OperationMap, rank_tol: float, min_outside: float = 0.0) -> _Commutant:
    """:func:`kraus_commutant`'s two stages, with the data the unital
    certificate of :func:`_unital_fixed_space` reads.

    ``[H, X] = sum_i c_i [K_i, X] + conj(c_i) [K_i^dag, X]``, so
    ``||[H, X]|| <= sqrt(2) ||c||_2 ||S X||`` (Cauchy-Schwarz), while a
    direction orthogonal to every candidate has ``||[H, X]|| >= gap ||X||``
    for the smallest ``gap = |w_a - w_b|`` left out of the window: its
    ``||S X|| / ||X||`` is at least ``outside = gap / (sqrt(2) ||c||_2)``.
    ``min_outside`` widens the window until ``outside`` reaches it.
    """
    d = phi.in_dim
    if phi.out_dim != d:
        raise ValueError("commutant needs an endomorphism")
    kraus = np.stack(phi.kraus)
    family = np.concatenate([kraus, kraus.conj().swapaxes(1, 2)])
    flat = family.reshape(-1, d)  # the members stacked: Q is one GEMM
    q = flat.conj().T @ flat
    bracket = np.array([0.0, 2 * np.sqrt(max(np.linalg.eigvalsh(q)[-1], 0.0))])  # of ||S||_2
    s_norm = None

    rng = np.random.default_rng(_COMMUTANT_SEED)
    c = rng.standard_normal(len(kraus)) + 1j * rng.standard_normal(len(kraus))
    m = np.tensordot(c, kraus, axes=1)
    w, v = np.linalg.eigh(m + m.conj().T)
    eps = np.finfo(float).eps
    tau = max(np.sqrt(rank_tol), 100 * eps / rank_tol) * max(1.0, float(np.abs(w).max()))
    c_scale = np.sqrt(2) * float(np.linalg.norm(c))
    tau = max(tau, min_outside * c_scale)
    gaps = np.abs(w[:, None] - w[None, :])
    a, b = np.nonzero(gaps <= tau)
    outside = float(gaps[gaps > tau].min(initial=np.inf)) / c_scale

    def thresholds(scale):
        """The null threshold and the edge of the full-stack window."""
        thr = rank_tol * np.maximum(1.0, scale)
        return thr, np.maximum(_COMMUTANT_EDGE, scale / tau) * thr

    while True:
        cand = v[:, a].T[:, :, None] * v[:, b].conj().T[:, None, :]
        if len(a) == d * d:  # the full stack S, reduced to its d^2 x d^2 R factor
            comm = (family[:, None] @ cand - cand @ family[:, None]).transpose(0, 2, 3, 1)
            rows = np.linalg.qr(comm.reshape(-1, len(a)), mode="r")
        elif len(a) == d:  # every cluster of the window is one eigenvalue
            rows = _singleton_rows(v.conj().T @ family @ v)
        else:
            labels = np.concatenate([[0], np.cumsum(np.diff(w) > tau)])  # the clusters
            rows = _cluster_rows(v.conj().T @ family @ v, labels, a, b)
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        if s_norm is None:
            bracket[0] = max(bracket[0], s[0])
            thr, edge = thresholds(bracket * _SCALE_SLACK)
            if np.any(((s > thr[0]) & (s <= thr[1])) | ((s > edge[0]) & (s <= edge[1]))):
                s_norm = _stack_norm(family, q)
        thr, edge = thresholds(s_norm) if s_norm is not None else (thr[1], edge[1])
        if len(a) == d * d or not np.any((s > thr) & (s <= edge)):
            break
        a, b = np.divmod(np.arange(d * d), d)  # every candidate: the full stack
        outside = np.inf

    n_null = int(np.sum(s <= thr))
    basis = cand.transpose(0, 2, 1).reshape(len(a), d * d).T
    return _Commutant(basis @ vh[len(s) - n_null :].conj().T, s, n_null, outside,
                      float(bracket[1]))


def _singleton_rows(ft: np.ndarray) -> np.ndarray:
    """Rows with the Gram of :func:`_cluster_rows` when every cluster is one
    eigenvalue, so the candidates are the ``d`` projectors ``v_a v_a^dag`` in
    order: ``(sum_F |ft_ij|^2 + |ft_ji|^2)^{1/2} (e_j - e_i)`` for ``i <= j``
    (a singleton's own pair is a zero row, and there are at least ``d``
    rows).  No QR follows: at small ``d`` it costs more than it saves."""
    d = ft.shape[-1]
    power = np.einsum("fij,fij->ij", ft.conj(), ft).real  # sum_F |ft_ij|^2
    idx = np.arange(d)
    eye = np.eye(d)
    return (np.sqrt(power + power.T)[:, :, None] * (eye - eye[:, None]))[idx[:, None] <= idx]


def _cluster_rows(ft: np.ndarray, labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An ``n' x n'`` matrix with the Gram of the restricted stack ``S B`` (columns
    in the order of the candidates ``v_a v_b^dag``), from the family
    ``ft = V^dag F V`` in the eigenbasis of ``H`` and the clusters ``labels``
    of the window.

    There row ``(F, i, j)`` of ``S B`` is ``ft[F, i, a] [b = j] - [i = a]
    ft[F, b, j]``, and ``a`` and ``b`` of a candidate lie in one cluster, so
    the row touches only the candidates of the clusters of ``i`` and ``j``.
    The rows of each pair of clusters are reduced to their R factor on those
    candidates, by one batched QR per shape of the row groups, and a last QR
    reduces the stacked factors.
    """
    n = len(a)
    members = np.split(np.arange(len(labels)), np.flatnonzero(np.diff(labels)) + 1)
    groups: dict[tuple[int, int], list] = {}  # (rows i, rows j, columns) by shape
    for c1, first in enumerate(members):
        for c2, second in enumerate(members[c1:], c1):
            rows_i, rows_j = np.repeat(first, len(second)), np.tile(second, len(first))
            if c2 != c1:  # and the rows (j, i)
                rows_i, rows_j = np.r_[rows_i, rows_j], np.r_[rows_j, rows_i]
            cols = np.flatnonzero((labels[a] == c1) | (labels[a] == c2))
            groups.setdefault((len(rows_i), len(cols)), []).append((rows_i, rows_j, cols))
    blocks = []
    for parts in groups.values():
        rows_i, rows_j, cols = (np.stack(part) for part in zip(*parts))
        ri, rj, ca, cb = rows_i[:, :, None], rows_j[:, :, None], a[cols][:, None], b[cols][:, None]
        group = ft[:, ri, ca] * (cb == rj) - (ri == ca) * ft[:, cb, rj]  # (F, g, rows, cols)
        shape = (len(cols), -1, cols.shape[1])
        blocks.extend(zip(np.linalg.qr(group.swapaxes(0, 1).reshape(shape), mode="r"), cols))
    out = np.zeros((max(n, sum(len(r) for r, _ in blocks)), n), dtype=complex)
    at = 0
    for r, cols in blocks:
        out[at : at + len(r), cols] = r
        at += len(r)
    return np.linalg.qr(out, mode="r")  # n' x n': the SVD forms no tall U


def _projector_gap(q: np.ndarray, c: np.ndarray) -> float:
    """``||Q Q^dag - C C^dag||`` for orthonormal columns: ``||C - Q (Q^dag C)||``
    (an ``n x r`` matrix) at equal rank, 1 at unequal rank."""
    if q.shape[1] != c.shape[1]:
        return 1.0
    return op_norm_mat(c - q @ (q.conj().T @ c))


def _closed_under_products(basis: np.ndarray, eq_tol: float) -> bool:
    """Whether ``span(basis)`` (orthonormal Hermitian ``(r, n, n)``) holds the
    identity and every product ``a @ b`` of two basis elements, each to
    within ``eq_tol`` times its own scale.

    The span is closed under the adjoint, so its orthogonal projector
    commutes with it, and ``b @ a = (a @ b)^dag`` has the residual of
    ``a @ b``, adjoint: only the ``r (r + 1) / 2`` products with ``a`` not
    after ``b`` are checked.  They go ``opcore._BLOCK`` entries at a time,
    each block projected by one GEMM, since their stack would not fit in
    memory at large ``r`` (1.5 GB for the identity channel at ``d = 24``).
    """
    r, n = len(basis), basis.shape[-1]
    stack = basis.reshape(r, n * n).T
    stack_h = stack.conj().T

    def in_span(flat: np.ndarray, scale: np.ndarray) -> bool:
        resid = flat - stack @ (stack_h @ flat)
        return bool(np.all(np.linalg.norm(resid, axis=0) <= eq_tol * scale))

    if not in_span(np.eye(n).reshape(n * n, 1), np.sqrt(n)):
        return False
    per_block = max(1, _BLOCK // (n * n))
    first, second = np.triu_indices(r)
    for lo in range(0, len(first), per_block):
        prods = basis[first[lo : lo + per_block]] @ basis[second[lo : lo + per_block]]
        flat = prods.reshape(len(prods), n * n).T
        if not in_span(flat, np.maximum(1.0, np.linalg.norm(flat, axis=0))):
            return False
    return True


def _support_isometry(w: np.ndarray) -> np.ndarray:
    """The basis of the range of ``P = w w^dag`` (``w`` with orthonormal
    columns) that depends only on ``P``: the eigenvectors of ``w^dag S w`` for a
    fixed, seeded diagonal ``S``, each with the phase that makes a fixed,
    seeded real functional positive.  ``eigh(rho0)`` alone picks arbitrary
    vectors in a degenerate eigenspace of ``rho0``.  With a diagonal ``S`` and
    a real functional, a range spanned by standard basis vectors gets those
    vectors back, up to sign, so compressions of diagonal operators stay
    exactly diagonal (their commutators exactly zero)."""
    weight, functional = _seeded_weights(_SUPPORT_SEED, len(w))
    w = w @ np.linalg.eigh((w.conj().T * weight) @ w)[1]
    phase = functional @ w
    return w * (np.abs(phase) / phase)


def _unital_fixed_space(phi: OperationMap, tol: Tolerance) -> np.ndarray | None:
    """The commutant ``C`` of the Kraus family as the fixed space of a channel
    unital to rounding, or None when the certificate below fails and the
    dense SVD must decide.

    The supermatrix rule defines ``fixed_dim``: the count of singular values
    of ``M - 1`` at most ``rank_tol``.  With ``delta`` the larger defect of
    ``Phi(1)`` and ``Phi*(1)`` from 1 and ``S`` the commutator stack of
    :func:`kraus_commutant`, the identity
    ``||S X||^2 = <X, Q X> + <X, X Q> - 4 Re <X, Phi*(X)>``
    (``Q = sum_F F^dag F = Phi*(1) + Phi(1)``) gives, for unit ``X``,
    ``||(1 - Phi*) X|| >= Re <X, (1 - Phi*) X> >= ||S X||^2 / 4 - delta``,
    and ``(1 - Phi*) X = sum_i K_i^dag [K_i, X] + (1 - Phi*(1)) X`` gives
    ``||(1 - Phi*) X|| <= (1 + delta)^{1/2} ||S X|| + delta``.  So, by
    min-max, the ``n`` directions the commutant counts have singular values
    of ``M - 1`` at most ``(1 + delta)^{1/2} s_n + delta`` (``s_n`` the largest
    restricted value counted null), and every further one is at least
    ``beta^2 / 4 - delta``, ``beta`` a lower bound of ``||S X||`` over unit
    ``X`` orthogonal to ``C``.  Write ``X = Y + Z`` with ``Y`` in the
    candidates ``B`` (and orthogonal to ``C``, which lies in ``B``) and
    ``Z`` orthogonal to ``B``: ``||S X|| >= s' ||Y|| - ||S||_2 ||Z||`` (``s'``
    the smallest restricted value not counted null) and
    ``||S X|| >= g ||Z||`` (``g``, :attr:`_Commutant.outside`), whose
    minimum over ``||Y||^2 + ||Z||^2 = 1`` is
    ``beta = g s' / ((g + ||S||_2)^2 + s'^2)^{1/2}``.  The dense SVD moves
    each singular value by at most ``_DENSE_ROUNDING d^2 eps``; when the two
    bounds clear ``rank_tol`` by ``_UNITAL_MARGIN`` on both sides the dense
    rule counts exactly the commutant's ``n``, and the fixed space of ``Phi*``
    and of ``Phi`` (their null spaces, which hold ``C``) is ``C``.  When the
    certificate fails with ``g`` below ``_UNITAL_WINDOW`` times the ``beta``
    it needs, the commutant is found once more with the candidate window
    widened to reach that ``g``.
    """
    d = phi.in_dim
    eye = np.eye(d)
    delta = max(op_norms(np.array([_apply(phi, eye, False), phi.kraus_gram()]) - eye))
    if delta > _UNITAL_ROUNDING:
        return None
    rounding = _DENSE_ROUNDING * d * d * np.finfo(float).eps

    def certified(comm: _Commutant) -> bool:
        s, n = comm.singular, comm.n_null
        if n == 0:
            return False
        s_rest = s[len(s) - n - 1] if n < len(s) else np.inf
        g = comm.outside
        if np.isinf(s_rest) or np.isinf(g):
            beta = min(g, s_rest)
        else:
            beta = g * s_rest / math.hypot(g + comm.s_bound, s_rest)
        upper = math.sqrt(1 + delta) * s[len(s) - n] + delta + rounding
        lower = beta**2 / 4 - delta - rounding
        return _UNITAL_MARGIN * upper <= tol.rank_tol <= lower / _UNITAL_MARGIN

    comm = _commutant(phi, tol.rank_tol)
    need = 2 * math.sqrt(_UNITAL_MARGIN * tol.rank_tol + delta + rounding)  # of beta
    if not certified(comm) and comm.outside < _UNITAL_WINDOW * need:
        # the window may be what fails: widen it once
        comm = _commutant(phi, tol.rank_tol, _UNITAL_WINDOW * need)
    return comm.basis if certified(comm) else None


def _dense_fixed_space(phi: OperationMap, tol: Tolerance) -> tuple[np.ndarray, ...]:
    """The right and left null vectors ``R`` and ``L`` of ``M - 1`` from one
    SVD of the supermatrix, and ``(L^dag R)^{-1} L^dag``; raises when the
    eigenvalue-1 spectral data are numerically defective."""
    d = phi.in_dim
    gap = to_supermatrix(phi) - np.eye(d * d)
    right, left = _null_spaces(gap, tol.rank_tol)
    r = right.shape[1]
    if left.shape[1] != r:
        raise ValueError(
            f"left/right fixed-space dimensions disagree ({left.shape[1]} vs {r}); "
            "the eigenvalue-1 spectral data are numerically ambiguous"
        )
    lr = left.conj().T @ right
    smin = float(np.linalg.svd(lr, compute_uv=False).min())
    if smin <= tol.rank_tol:
        raise ValueError(
            f"eigenvalue-1 eigenspace is numerically defective "
            f"(pairing matrix smallest singular value {smin:.3e} at fixed dim {r}); "
            "cannot build the spectral projector"
        )
    return right, left, np.linalg.solve(lr, left.conj().T)


@_per_object
def analyze_fixed_points(
    phi: OperationMap, tol: Tolerance = DEFAULT_TOL
) -> FixedPointAnalysis:
    """Fixed-point space, Cesàro projector, support, and algebra certificate.

    Raises if ``phi`` is not a channel, or if the eigenvalue-1 spectral data
    are numerically defective (the left/right null pairing ``L R`` fails to
    invert at ``rank_tol``), which would make the projector meaningless.

    A channel unital to rounding takes its fixed space from the commutant
    of its Kraus family when :func:`_unital_fixed_space` certifies that the
    supermatrix rule would count the same space; then no supermatrix is
    built, ``rho0 = 1/d`` and ``commutant_consistent`` compares the
    Hermitian basis with the commutant it came from.

    The analysis is cached on the (immutable) map, once per tolerance, so
    every task on one channel shares it; its arrays are read-only.
    """
    if phi.in_dim != phi.out_dim:
        raise ValueError("fixed-point analysis needs an endomorphism")
    if not phi.is_channel(tol):
        raise ValueError("fixed-point analysis requires a channel")
    d = phi.in_dim
    comm = _unital_fixed_space(phi, tol)
    if comm is not None:
        right = left = comm
        proj_left = comm.conj().T
        rho0 = np.eye(d, dtype=complex) / d
    else:
        right, left, proj_left = _dense_fixed_space(phi, tol)
        # Phi_av(1/d) = Pi^dag vec(1/d), through the factors
        coeffs = right.conj().T @ vec(np.eye(d) / d)
        rho0 = _hermitian_parts(unvec(proj_left.conj().T @ coeffs, d))
    r = right.shape[1]

    herm = hermitian_basis(np.ascontiguousarray(right.T).reshape(r, d, d).swapaxes(1, 2),
                           tol.rank_tol)
    if len(herm) != r:
        raise ValueError(
            f"failed to build a Hermitian basis of the fixed space "
            f"({len(herm)} of {r} directions); the space is not adjoint-closed numerically"
        )
    max_defect = max_op_norm(_apply(phi, herm, True) - herm)

    w, v = np.linalg.eigh(rho0)
    mask = w > tol.rank_tol
    support = v[:, mask] @ v[:, mask].conj().T
    w_iso = _support_isometry(v[:, mask])
    rp = int(mask.sum())
    faithful = rp == d

    restricted = hermitian_basis(w_iso.conj().T @ herm @ w_iso, tol.rank_tol)

    certified = len(restricted) == r and max_defect <= tol.eq_tol
    if certified:
        certified = _closed_under_products(restricted, tol.eq_tol)

    commutant_consistent: bool | None = None
    if faithful:
        if comm is None:
            comm = kraus_commutant(phi, tol.rank_tol)
        # herm is Hilbert-Schmidt orthonormal: its vecs are orthonormal columns
        herm_vecs = herm.swapaxes(1, 2).reshape(r, d * d).T
        commutant_consistent = comm.shape[1] > 0 and bool(
            _projector_gap(herm_vecs, comm) <= max(tol.rank_tol, _COMMUTANT_AGREE_FLOOR)
        )

    for a in (herm, right, left, proj_left, rho0, support, w_iso, restricted):
        a.setflags(write=False)
    return FixedPointAnalysis(
        dim=d,
        fixed_dim=r,
        basis=herm,
        fixed_states=left,
        proj_right=right,
        proj_left=proj_left,
        rho0=rho0,
        support_p=support,
        p_isometry=w_iso,
        faithful=faithful,
        restricted_basis=restricted,
        algebra_certified=bool(certified),
        max_fixed_defect=float(max_defect),
        commutant_consistent=commutant_consistent,
    )


@dataclasses.dataclass(frozen=True)
class MinimalSupportReport(Record):
    """Support-projection identities of the averaged channel."""

    support_unital_defect: float
    kernel_annihilated_defect: float
    sandwich_defect: float
    fixed_states_supported_defect: float
    minimality_margin: float
    expanding_defect: float
    all_pass: bool


def check_minimal_support(
    analysis: FixedPointAnalysis, phi: OperationMap, tol: Tolerance = DEFAULT_TOL
) -> MinimalSupportReport:
    """Verify the defining properties of the minimal support projection ``P``.

    Checks that the averaged dual maps ``P`` to the identity and its
    complement to zero, that it sandwiches every input invisibly, that all
    state-side fixed operators live inside ``P``, that no rank-one reduction
    of ``P`` keeps the unitality property (minimality probe, over the
    projectors onto the columns of ``p_isometry``, a basis that depends only
    on ``P``), and that the one-step dual only expands ``P``.
    """
    d = analysis.dim
    p = analysis.support_p
    p_perp = np.eye(d) - p
    av = analysis.average_dual

    unital_defect = op_norm_mat(av(p) - np.eye(d))
    kernel_defect = op_norm_mat(av(p_perp))

    # av(X) = sum_k R_k <L~_k, X>, R_k and L~_k the unvec'ed column k of R
    # and conjugated row k of Lt, and <L~_k, P X P> = <P L~_k P, X>, so
    # av(E_ij) - av(P E_ij P) = sum_k R_k conj(D_k)_ij, D_k = L~_k - P L~_k P;
    # conj(D_k) is row k of Lt, unvec'ed, minus conj(P) (that) conj(P)
    r = analysis.fixed_dim
    rows = analysis.proj_left.reshape(r, d, d).swapaxes(1, 2)
    p_t = p.T
    coeffs = (rows - p_t @ rows @ p_t).swapaxes(1, 2).reshape(r, d * d)
    sandwich = 0.0
    per_block = max(1, _BLOCK // (d * d))
    for lo in range(0, d * d, per_block):
        images = (analysis.proj_right @ coeffs[:, lo : lo + per_block]).T
        sandwich = max(sandwich, max_op_norm(images.reshape(-1, d, d).swapaxes(1, 2)))

    # the columns of fixed_states, unvec'ed
    states = analysis.fixed_states.T.reshape(-1, d, d).swapaxes(1, 2)
    states_defect = max_op_norm(states - p @ states @ p)

    # P minus one rank-one projector of its support at a time
    w = analysis.p_isometry.T
    reduced = p - w[:, :, None] * w.conj()[:, None, :]
    margin = min(op_norms(av(reduced) - np.eye(d)), default=np.inf)

    # the dual only expands P: Phi*(P) - P >= 0 and P_perp - Phi*(P_perp) >= 0
    img = _apply(phi, np.array([p, p_perp]), True)
    gaps = np.array([img[0] - p, p_perp - img[1]])
    spectra = np.linalg.eigvalsh(0.5 * (gaps + gaps.conj().swapaxes(1, 2)))
    expanding_defect = float(max(-spectra.min(), 0.0))

    all_pass = (
        unital_defect <= tol.eq_tol
        and kernel_defect <= tol.eq_tol
        and sandwich <= tol.eq_tol
        and states_defect <= tol.eq_tol
        and margin > tol.eq_tol
        and expanding_defect <= tol.eq_tol
    )
    return MinimalSupportReport(
        support_unital_defect=float(unital_defect),
        kernel_annihilated_defect=float(kernel_defect),
        sandwich_defect=float(sandwich),
        fixed_states_supported_defect=float(states_defect),
        minimality_margin=margin,
        expanding_defect=expanding_defect,
        all_pass=bool(all_pass),
    )


def _joint_eigenprojectors(mats: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Joint eigenprojectors of a commuting Hermitian family ``(n, d, d)``.

    Diagonalizes a fixed-seed random real combination, clusters its spectrum
    at ``rank_tol`` gaps, verifies that every matrix ``M`` is ``sum_c m_c P_c``
    within ``_JOINT_BLOCK_TOL`` for the cluster projectors ``P_c`` and its
    cluster means ``m_c`` of the rotated diagonal, and re-draws
    deterministically on collision.  Returns the projector stack and the
    ``(n, n_clusters)`` matrix of cluster means.
    """
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    for attempt in range(8):
        rng = np.random.default_rng(_JOINT_DIAG_SEED + attempt)
        coeffs = rng.standard_normal(len(mats))
        combo = sum(c * m for c, m in zip(coeffs, mats))
        combo = 0.5 * (combo + combo.conj().T)
        w, v = np.linalg.eigh(combo)
        clusters = eigen_clusters(w, tol.rank_tol * np.maximum(1.0, np.abs(w[1:])))
        rotated = v.conj().T @ mats @ v
        diag = np.diagonal(rotated, axis1=1, axis2=2)
        # one sum per cluster, each rounding as the trace of its block
        values = np.array([diag[:, c].sum(axis=1).real / len(c) for c in clusters]).T
        means = np.repeat(values, [len(c) for c in clusters], axis=1)[:, None, :]
        if max_op_norm(rotated - means * np.eye(len(w))) <= _JOINT_BLOCK_TOL:
            return np.array([v[:, c] @ v[:, c].conj().T for c in clusters]), values
    raise RuntimeError(
        "joint diagonalization failed: the family does not commute numerically"
    )


def _max_commutator(a: np.ndarray, b: np.ndarray) -> float:
    """``max ||a b - b a||`` over two broadcast stacks; 0.0 for an empty one."""
    return max_op_norm(_commutators(a, b))


@dataclasses.dataclass(frozen=True)
class ConditionCheck(Record):
    defect: float
    passed: bool
    applicable: bool
    note: str = ""


@dataclasses.dataclass(frozen=True)
class StructuralReport(Record):
    """Necessary structural conditions on the minimal support.

    Each condition reports its commutation/sharpness defect, whether it
    passes at ``eq_tol``, and whether its hypotheses applied to the inputs;
    non-applicable conditions are informational only.
    """

    faithful: bool
    fixed_dim: int
    support_rank: int
    average_holds: bool
    nondisturbed: bool
    first_kind: bool
    repeatable: bool
    qubit_support_collapse: bool
    conditions: dict[str, ConditionCheck]

    def all_applicable_pass(self) -> bool:
        return all(c.passed for c in self.conditions.values() if c.applicable)


def structural_necessary_conditions(
    m: MeasurementScheme,
    f: Observable,
    q: AdditiveQuantity,
    tol: Tolerance = DEFAULT_TOL,
) -> StructuralReport:
    """Commutation constraints forced by conservation on the support ``P``.

    With average conservation, nondisturbed observables must commute (after
    compression to the support of the measurement channel's fixed states)
    with the measured observable and with the conserved-shift operator;
    first-kind instruments force a commutative compressed measured
    observable that commutes with the compressed system quantity; repeatable
    instruments additionally force sharpness on the support.  For qubit
    systems with rank-one support, the fixed space is trivial and the same
    conditions are evaluated without compression.
    """
    if f.dim != m.sys_dim:
        raise ValueError("observable dimension does not match the system")
    cons = _scheme_conservation(m, q, tol)[1]
    inst = scheme_to_instrument(m, tol)
    e_obs = measured_observable(m)
    analysis = analyze_fixed_points(inst.total(), tol)

    nondisturbed = disturbance_profile(inst, f).max_norm <= tol.eq_tol

    repeat_defect, fk_defect = _scheme_repeat_first_kind(m, tol)
    first_kind = fk_defect <= tol.eq_tol
    repeatable = repeat_defect <= tol.eq_tol

    rp = analysis.p_isometry.shape[1]
    qubit_collapse = m.sys_dim == 2 and rp == 1
    if qubit_collapse:
        # rank-one support on a qubit: the fixed space is trivial and the
        # compression would erase everything, so test on the full space
        compress = embed = lambda a: a
    else:
        compress, embed = analysis.compress, analysis.embed

    e_mats = e_obs._effects
    p_e = compress(e_mats)
    p_f = compress(f._effects)
    p_n = compress(q.n_sys)
    shift = compress(_apply(inst.total(), embed(p_n), True)) - p_n
    i, j = np.triu_indices(len(p_e), 1)

    # a commutative measured observable realized by its own square-root
    # instrument forces full commutation with the system quantity
    # on every matrix unit X: sum_k K X K^dag - S X S^dag, S = sqrt(E(x)),
    # the duals of the families K^dag and S^dag
    kraus = _stack_families([op._kraus for op in inst.operations])
    roots = _psd_sqrts(e_mats, tol)[:, None]
    luders_defect = _dual_gap(kraus.conj().swapaxes(-1, -2), roots.conj().swapaxes(-1, -2))
    luders_like = luders_defect <= tol.eq_tol

    def check(worst: float, applicable: bool, note: str = "") -> ConditionCheck:
        return ConditionCheck(worst, worst <= tol.eq_tol, applicable, note)

    applicable_nd = cons.average_holds and nondisturbed
    applicable_fk = cons.average_holds and first_kind
    conditions = {
        "nondisturbed-commutes-measured": check(
            _max_commutator(p_f[None], p_e[:, None]), applicable_nd
        ),
        "nondisturbed-commutes-conserved-shift": check(
            _max_commutator(p_f, shift), applicable_nd
        ),
        "first-kind-commutative": check(_max_commutator(p_e[i], p_e[j]), applicable_fk),
        "first-kind-commutes-quantity": check(_max_commutator(p_e, p_n), applicable_fk),
        "repeatable-sharp-on-support": check(
            max(max_op_norm(p_e @ p_e - p_e), max_op_norm(p_e[i] @ p_e[j])),
            cons.average_holds and repeatable,
        ),
        "luders-commutative-quantity": check(
            _max_commutator(e_mats, q.n_sys),
            cons.average_holds and luders_like and e_obs.is_commutative(tol),
            "" if luders_like
            else f"instrument differs from square-root form by {luders_defect:.3e}",
        ),
    }

    return StructuralReport(
        faithful=analysis.faithful,
        fixed_dim=analysis.fixed_dim,
        support_rank=rp,
        average_holds=cons.average_holds,
        nondisturbed=nondisturbed,
        first_kind=first_kind,
        repeatable=repeatable,
        qubit_support_collapse=qubit_collapse,
        conditions=conditions,
    )


def _norm_one_refinement(
    analysis: FixedPointAnalysis,
    compressed: np.ndarray,
    tol: Tolerance,
    key: Callable[[np.ndarray], Any],
    descending: bool = False,
) -> tuple[np.ndarray, np.ndarray, Observable]:
    """The norm-1 observable behind commuting compressed effects.

    Takes the joint eigenprojectors ``R(z)`` of ``compressed``, sorts them by
    ``key`` of their column of eigenvalues, and averages the stack back
    through the channel into ``G(z) = Phi*_av(W R(z) W^dag)``.  Returns the sorted
    projector stack, the sorted ``(n_effects, n_z)`` eigenvalue matrix and
    the observable ``z_k -> G(z_k)``, unchecked: the callers report its defects.
    """
    projs, values = _joint_eigenprojectors(compressed, tol)
    order = sorted(range(len(projs)), key=lambda z: key(values[:, z]), reverse=descending)
    projs = projs[order]
    g = analysis.average_dual(analysis.embed(projs))
    labels = [f"z{k}" for k in range(len(order))]
    return projs, values[:, order], Observable._derived(labels, _hermitian_parts(g))


@dataclasses.dataclass(frozen=True)
class Norm1Result:
    """Norm-1 observable extracted from a nondisturbed nontrivial one; the
    ``states`` and ``projectors`` are read-only stacks."""

    observable: Observable
    states: np.ndarray
    projectors: np.ndarray
    skipped_outcomes: tuple[str, ...]
    faithful: bool
    sharp: bool
    norm_defect: float
    fixed_defect: float
    compression_defect: float
    distinguish_defect: float

    def to_dict(self) -> dict:
        return {
            "outcomes": list(self.observable.outcomes),
            "effects": self.observable._effects,
            "skipped_outcomes": list(self.skipped_outcomes),
            "faithful": self.faithful,
            "sharp": self.sharp,
            "norm_defect": self.norm_defect,
            "fixed_defect": self.fixed_defect,
            "compression_defect": self.compression_defect,
            "distinguish_defect": self.distinguish_defect,
        }


def nondisturbed_norm1_observable(
    phi: OperationMap, f: Observable, tol: Tolerance = DEFAULT_TOL
) -> Norm1Result:
    """Refine a nondisturbed nontrivial observable into a norm-1 one.

    Requires every effect of ``f`` fixed by the dual of ``phi`` (error
    otherwise) and ``f`` nontrivial.  The compressed effects are thinned to a
    maximal commuting subfamily greedily in declaration order, their joint
    eigenprojectors ``R(z)`` are averaged back through the channel into
    effects ``G(z)`` with ``P G(z) P = R(z)`` (hence norm one), and each
    ``G(z)`` comes with a state the channel routes to outcome ``z`` with
    certainty.  When the channel has faithful fixed states the result is
    sharp.
    """
    if phi.in_dim != phi.out_dim:
        raise ValueError("needs an endomorphism")
    if f.dim != phi.in_dim:
        raise ValueError("observable dimension does not match the channel")
    if f.is_trivial(tol):
        raise ValueError("observable is trivial; nothing to extract")
    effects = f._effects
    worst_delta = max_op_norm(_apply(phi, effects, True) - effects)
    if worst_delta > tol.eq_tol:
        raise ValueError(
            f"observable is disturbed by the channel (max defect {worst_delta:.3e})"
        )

    analysis = analyze_fixed_points(phi, tol)
    compressed = analysis.compress(effects)
    # commutes[i, j]: ||[C_i, C_j]|| <= eq_tol, every pair from one batched SVD
    commutes = np.array(op_norms(_commutators(compressed[:, None], compressed))) <= tol.eq_tol
    accepted: list[int] = []
    skipped: list[str] = []
    for i, label in enumerate(f.outcomes):
        if commutes[i, accepted].all():
            accepted.append(i)
        else:
            skipped.append(label)

    projs, _, g_obs = _norm_one_refinement(
        analysis, compressed[accepted], tol, lambda col: tuple(np.round(col, 9)), descending=True
    )
    g_mats = g_obs._effects
    norm_defect = max(abs(n - 1.0) for n in op_norms(g_mats))
    fixed_defect = max_op_norm(_apply(phi, g_mats, True) - g_mats)
    compress_defect = max_op_norm(analysis.compress(g_mats) - projs)

    # the normalized eigenvalue-1 projector of each G(z)
    cols = _norm_one_projectors(g_obs.outcomes, np.linalg.eigh(g_mats), tol)[0]
    if len(cols) < len(g_mats):
        raise RuntimeError("constructed effect does not attain norm one")
    states = np.array(list(_projectors(cols).values()))
    states = states / np.real(np.trace(states, axis1=1, axis2=2))[:, None, None]
    states.setflags(write=False)
    projs.setflags(write=False)

    # probs[i, j] = tr[G(z_j) Phi(rho_i)], which should be delta_ij
    outs = _apply(phi, states, False)
    probs = np.real(np.trace(g_mats @ outs[:, None], axis1=2, axis2=3))
    distinguish = np.abs(probs - np.eye(len(states))).max()

    return Norm1Result(
        observable=g_obs,
        states=states,
        projectors=projs,
        skipped_outcomes=tuple(skipped),
        faithful=analysis.faithful,
        sharp=g_obs.is_sharp(tol),
        norm_defect=float(norm_defect),
        fixed_defect=float(fixed_defect),
        compression_defect=float(compress_defect),
        distinguish_defect=float(distinguish),
    )


@dataclasses.dataclass(frozen=True)
class PostProcessingResult:
    """Classical decomposition ``E(x) = sum_z p(x|z) G(z)``."""

    observable: Observable
    matrix: np.ndarray
    outcomes: tuple[str, ...]
    reconstruction_defect: float
    faithful: bool
    sharp: bool

    def to_dict(self) -> dict:
        return {
            "labels": list(self.observable.outcomes),
            "effects": self.observable._effects,
            "matrix": self.matrix,
            "outcomes": list(self.outcomes),
            "reconstruction_defect": self.reconstruction_defect,
            "faithful": self.faithful,
            "sharp": self.sharp,
        }


def post_processing_decomposition(
    inst: Instrument, tol: Tolerance = DEFAULT_TOL
) -> PostProcessingResult:
    """Recover the norm-1 observable and stochastic matrix behind a
    first-kind instrument.

    The induced observable must be nontrivial and fixed by the dual of the
    total channel (first-kindness); its compressed effects must commute, as
    the structure theory demands, and non-commutation raises.  Columns of
    ``p`` are sorted ascending-lexicographically so the decomposition is
    reproducible; the recovered effects satisfy ``E(x) = sum_z p(x|z) G(z)``
    up to the reported defect.
    """
    e_obs = inst.induced_observable()
    if e_obs.is_trivial(tol):
        raise ValueError("induced observable is trivial; no decomposition")
    fk_defect = _repeat_first_kind(inst, e_obs)[1]
    if fk_defect > tol.eq_tol:
        raise ValueError(
            f"instrument is not first-kind (fixed-point defect {fk_defect:.3e})"
        )
    analysis = analyze_fixed_points(inst.total(), tol)
    e_mats = e_obs._effects
    c = analysis.compress(e_mats)
    i, j = np.triu_indices(len(c), 1)
    worst = _max_commutator(c[i], c[j])
    if worst > tol.eq_tol:
        raise ValueError(
            f"compressed effects do not commute (defect {worst:.3e}); "
            "no classical post-processing decomposition exists"
        )
    _, values, g_obs = _norm_one_refinement(
        analysis, c, tol, lambda col: tuple(np.round(np.clip(col, 0.0, 1.0), 9))
    )
    p_mat = np.clip(values, 0.0, 1.0)

    # sum_z p(x|z) G(z), accumulated over z in order
    g_mats = g_obs._effects
    recon = max_op_norm((p_mat[:, :, None, None] * g_mats).sum(axis=1) - e_mats)

    return PostProcessingResult(
        observable=g_obs,
        matrix=p_mat,
        outcomes=e_obs.outcomes,
        reconstruction_defect=float(recon),
        faithful=analysis.faithful,
        sharp=g_obs.is_sharp(tol),
    )


def cesaro_supermatrix(phi: OperationMap, n_iter: int) -> np.ndarray:
    """``(1/N) sum_{k=1..N} M^k`` of the dual supermatrix, for cross-checks."""
    if n_iter < 1:
        raise ValueError(f"n_iter must be positive, got {n_iter}")
    m = to_supermatrix(phi)
    # binary doubling over the bits of N: with S_a = sum_{k=1..a} M^k,
    # S_2a = S_a + M^a S_a and S_{2a+1} = S_2a + M^(2a+1)
    acc, power = m, m
    for bit in bin(n_iter)[3:]:
        acc = acc + power @ acc
        power = power @ power
        if bit == "1":
            power = power @ m
            acc = acc + power
    return acc / n_iter
