"""Dense operators on small finite-dimensional Hilbert spaces.

Everything downstream works with explicit complex matrices, so this module
fixes the conventions once: a shared :class:`Tolerance` pair (``eq_tol`` for
equality of operators, ``rank_tol`` for rank/spectral-gap decisions),
Kronecker ordering with the first factor slowest, and column-stacking
vectorization used by the supermatrix code.

Inside waylab a matrix is a read-only complex ``ndarray``.  :class:`Operator`
is the edge type: public functions accept it (:func:`_checked` validates
each input once) and the public one-matrix helpers return it.

Composite indices follow ``i = i_first * dim_second + i_second``: for a
system-apparatus space the system index varies slowest, which is exactly
``numpy.kron(system_op, apparatus_op)``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Operator",
    "is_hermitian",
    "is_psd",
    "is_state",
    "is_unitary",
    "op_norm",
    "psd_sqrt",
    "fidelity",
    "eigen_clusters",
    "eigenspace_projector",
    "commutator",
    "hermitian_basis",
]

MatrixLike = Union["Operator", np.ndarray, Sequence[Sequence[complex]]]


@dataclasses.dataclass(frozen=True)
class Tolerance:
    """Shared numerical thresholds.

    ``eq_tol`` decides operator equalities and inequality slacks; ``rank_tol``
    decides rank and eigenvalue-cluster membership.  Both must be strictly
    positive and finite.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("eq_tol", "rank_tol"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # an exact comparison: an int beyond float range fails it too
            if not (number and 0 < value <= sys.float_info.max):
                raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")


DEFAULT_TOL = Tolerance()


def _as_matrix(a: MatrixLike) -> np.ndarray:
    """The complex array of a matrix-like of any shape, unchecked."""
    return a.mat if isinstance(a, Operator) else np.asarray(a, dtype=complex)


def _checked(a: MatrixLike) -> np.ndarray:
    """A read-only C-ordered complex copy of a square, non-empty matrix with
    finite entries: the one validation of every square matrix that enters."""
    m = np.array(_as_matrix(a), dtype=complex, copy=True, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("operator dimension must be at least 1")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("operator entries must be finite")
    m.setflags(write=False)
    return m


def _hermitian_parts(stack: np.ndarray) -> np.ndarray:
    """``(A + A^dag) / 2`` of one matrix or of each matrix of a stack."""
    return 0.5 * (stack + stack.conj().swapaxes(-2, -1))


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a, b]`` for stacks (or single matrices) that broadcast together."""
    return a @ b - b @ a


class Operator:
    """A square complex matrix on a single finite-dimensional space, held as a
    read-only array."""

    __slots__ = ("_mat",)

    def __init__(self, mat: MatrixLike):
        self._mat = _checked(mat)

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """The one Hermiticity rule, ``||A - A^dag|| <= eq_tol``, for a matrix or a stack."""
    return max_op_norm(m - m.conj().swapaxes(-2, -1)) <= tol.eq_tol


def is_psd(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return is_hermitian(m, tol) and bool(np.linalg.eigvalsh(_hermitian_parts(m))[0] >= -tol.eq_tol)


def is_state(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return is_psd(m, tol) and abs(np.trace(m) - 1.0) <= tol.eq_tol


def is_unitary(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return op_norm_mat(m.conj().T @ m - np.eye(len(m))) <= tol.eq_tol


# Entries (1 MiB of complex) per block of the kernels that stream a stack too
# large to hold at once in blocks of fixed size.
_BLOCK = 2**16
# max_op_norm's direct-SVD size, in matrices times their larger side: below
# it, one batched SVD of 2x2 to 12x12 matrices takes less time than the
# Frobenius pre-pass.
_DIRECT_SVD = 32


def _sv_max(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(stack, 2, axis=(-2, -1))`` bit for bit: the same LAPACK
    call, whose singular values come out in descending order, without the
    dispatch that costs more than the SVD of a small matrix."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _fro2(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a stack ``(..., r, c)`` of complex matrices."""
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(*stack.shape[:-2], -1).view(float)
    return np.einsum("...k,...k->...", flat, flat)


def op_norm_mat(m: np.ndarray) -> float:
    """Largest singular value of a raw matrix."""
    if m.size == 0:
        return 0.0
    return float(_sv_max(m))


def max_op_norm(stack: np.ndarray) -> float:
    """Largest operator norm over a stack ``(..., r, c)`` of matrices.

    Returns the same float as ``np.linalg.norm(stack, 2, axis=(-2, -1)).max()``
    while taking SVDs of only a few matrices.  Exactness: ``||A||_2 <= ||A||_F``
    for every matrix, so once ``best`` is the largest singular value of the
    matrix with the largest Frobenius norm, a matrix with ``||A||_F < best``
    cannot hold the maximum.  The survivors (Frobenius norm at least ``best``,
    with a ``1e-12`` relative margin for the rounding of both norms) include
    the maximizer, and each one's SVD is the LAPACK call the full expression
    makes for it, so the maximum over them is bit-identical.  A short stack of
    small matrices (count times the larger side at most ``_DIRECT_SVD``) takes
    the batched SVD of all of them directly, finite or not: the pruning pass
    would cost more than it saves.  On a larger stack with a non-finite
    Frobenius norm the pruning stops and the full expression runs unchanged.
    An empty or all-zero stack gives 0.0 without any SVD (NaN is nonzero, so
    a non-finite stack still takes the paths above), and the matrix whose norm
    is ``best`` is not decomposed again among the survivors.
    """
    if not stack.any():
        return 0.0
    if stack.size <= _DIRECT_SVD * min(stack.shape[-2:]):
        return float(_sv_max(stack).max())
    fro = np.sqrt(_fro2(stack))
    if not np.isfinite(fro).all():
        return float(np.linalg.norm(stack, 2, axis=(-2, -1)).max())
    top = np.unravel_index(np.argmax(fro), fro.shape)
    best = _sv_max(stack[top])
    if stack.ndim == 2:
        return float(best)
    survivors = fro * (1.0 + 1e-12) >= best
    survivors[top] = False
    if survivors.any():
        best = max(best, _sv_max(stack[survivors]).max())
    return float(best)


def op_norm(a: MatrixLike) -> float:
    """Operator norm (largest singular value)."""
    return op_norm_mat(_as_matrix(a))


def op_norms(stack: np.ndarray) -> list:
    """:func:`op_norm_mat` of each matrix of a stack ``(..., r, c)``, bit for bit,
    from one batched SVD, as (nested lists of) Python floats."""
    return _sv_max(stack).tolist()


def commutator(a: MatrixLike, b: MatrixLike) -> Operator:
    return Operator(_commutators(_as_matrix(a), _as_matrix(b)))


def psd_sqrt(a: MatrixLike, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Principal square root of a positive semidefinite operator.

    The input is symmetrized before diagonalizing; eigenvalues below
    ``-eq_tol`` are rejected (the error names the most negative one) and
    small negative noise is clipped to zero.  Eigenvalues at the
    diagonalization noise floor (``dim * eps * max eigenvalue``) are snapped
    to zero as well, since the square root would otherwise turn them into
    ``sqrt(eps)``-sized kernel components.
    """
    return Operator(_psd_sqrts(_as_matrix(a)[None], tol)[0])


def _psd_sqrts(stack: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`psd_sqrt` of each matrix of a stack ``(n, d, d)``, from one
    Hermitian check, one batched ``eigh`` and one batched product; the errors
    name the stack's most negative eigenvalue."""
    if not is_hermitian(stack, tol):
        raise ValueError("psd_sqrt requires a Hermitian operator")
    h = _hermitian_parts(stack)
    w, v = np.linalg.eigh(h)
    if w.min() < -tol.eq_tol:
        raise ValueError(
            f"psd_sqrt requires a positive semidefinite operator; "
            f"most negative eigenvalue is {w.min():.6e}"
        )
    w = np.clip(w, 0.0, None)
    w[w < w[:, -1:] * h.shape[-1] * np.finfo(float).eps] = 0.0
    return (v * np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-2, -1)


def fidelity(rho: MatrixLike, sigma: MatrixLike, tol: Tolerance = DEFAULT_TOL) -> float:
    """State fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))**2``.

    Both arguments must be density operators; the squared-trace convention
    makes ``fidelity(rho, rho) == 1`` and orthogonal pure states give 0.
    """
    r, s = _checked(rho), _checked(sigma)
    if not is_state(r, tol):
        raise ValueError("fidelity: first argument is not a density operator")
    if not is_state(s, tol):
        raise ValueError("fidelity: second argument is not a density operator")
    sq = _psd_sqrts(r[None], tol)[0]
    inner = sq @ s @ sq
    w = np.linalg.eigvalsh(_hermitian_parts(inner))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def eigen_clusters(w: np.ndarray, gap: Union[float, np.ndarray]) -> list[np.ndarray]:
    """Split an ascending spectrum ``w`` into runs of indices.

    A new run starts wherever ``np.diff(w) > gap``; ``gap`` is a scalar or one
    threshold per neighbouring pair.  The absolute gap ``rank_tol`` is right
    for spectra of effects and other bounded Hermitian operators; a spectrum
    of unbounded scale (``fixpt._joint_eigenprojectors``' random combination)
    takes the relative gap ``rank_tol * max(1, |w[1:]|)``.
    """
    return np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > gap) + 1)


def eigenspace_projector(a: MatrixLike, value: float, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Orthogonal projector onto the eigenspace of ``a`` near ``value``.

    Takes the union of the :func:`eigen_clusters` (gap ``rank_tol``) that hold
    an eigenvalue within ``rank_tol`` of ``value``, so nearly degenerate
    clusters are never split.  Returns the zero operator when no eigenvalue
    qualifies.  ``a`` must be Hermitian.
    """
    m = _as_matrix(a)
    if not is_hermitian(m, tol):
        raise ValueError("eigenspace_projector requires a Hermitian operator")
    cols = _eigenspace_columns(*np.linalg.eigh(_hermitian_parts(m)), value, tol.rank_tol)
    if cols is None:
        return Operator(np.zeros_like(m))
    return Operator(cols @ cols.conj().T)


def _eigenspace_columns(
    w: np.ndarray, v: np.ndarray, value: float, rank_tol: float
) -> np.ndarray | None:
    """The eigenvectors (columns of ``v``, ascending eigenvalues ``w``, as
    ``np.linalg.eigh`` returns them) that :func:`eigenspace_projector` keeps
    for ``value``, or ``None`` when no eigenvalue qualifies."""
    hit = np.abs(w - value) <= rank_tol
    runs = [c for c in eigen_clusters(w, rank_tol) if hit[c].any()]
    if not runs:
        return None
    # hits and clusters are contiguous, so the union is one column range
    return v[:, runs[0][0] : runs[-1][-1] + 1]


# Seed of the fixed, generic weights and sign functional that make
# :func:`hermitian_basis` a function of the span alone; any seed gives a
# basis of the same space.
_CANONICAL_SEED = 3141


@functools.cache
def _seeded_weights(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A fixed positive weight in ``[1, 2)`` and a fixed functional on ``n``
    coordinates, drawn from ``seed`` once per process: the generic choices
    that make a basis canonical (read-only)."""
    rng = np.random.default_rng(seed)
    weight, functional = rng.uniform(1.0, 2.0, n), rng.standard_normal(n)
    for a in (weight, functional):
        a.setflags(write=False)
    return weight, functional


def hermitian_basis(
    mats: Union[np.ndarray, Sequence[np.ndarray]], rank_tol: float = DEFAULT_TOL.rank_tol
) -> np.ndarray:
    """Orthonormal Hermitian basis, a stack ``(k, d, d)``, of the *-closed
    span of ``mats``, which depends only on that span.

    Each matrix splits into its Hermitian part and its anti-Hermitian part
    times ``-i``.  A Hermitian matrix is a real vector of ``2 d^2`` coordinates
    (the real and imaginary parts of its entries), in which the dot product
    is the Hilbert-Schmidt inner product.  One SVD of the stack of all parts
    gives the rank, the singular values above ``rank_tol``, and an orthonormal
    basis ``B`` of the real span, the leading right singular vectors.  A part
    of small norm thus adds no direction of its own: only the span counts.

    The basis is then made canonical.  For a fixed, seeded positive weight
    ``D`` on the coordinates, the eigenvectors ``Q`` of the ``k x k`` Gram
    matrix ``B D B^T`` give the rows of ``Q^T B``, in ascending order of the
    eigenvalues, each with the sign that makes a fixed, seeded functional
    positive.  A rotation ``O B`` of the basis turns the Gram matrix into
    ``O (B D B^T) O^T``, whose eigenvectors are ``O Q``, so ``Q^T B`` is
    unchanged; generic weights leave the eigenvalues distinct.
    """
    a = np.asarray(mats, dtype=complex)
    d = a.shape[-1]
    h = _hermitian_parts(a)
    parts = np.concatenate([h, -1j * (a - h)])
    coords = parts.reshape(len(parts), d * d).view(float)
    _, s, vh = np.linalg.svd(coords, full_matrices=False)
    basis = vh[: int(np.sum(s > rank_tol))]
    weight, functional = _seeded_weights(_CANONICAL_SEED, 2 * d * d)
    basis = np.linalg.eigh((basis * weight) @ basis.T)[1].T @ basis
    basis *= np.where(basis @ functional < 0.0, -1.0, 1.0)[:, None]
    return _hermitian_parts(np.ascontiguousarray(basis).view(complex).reshape(-1, d, d))
