"""Completely positive maps in Kraus form.

:class:`OperationMap` stores a Kraus family ``{K_i}`` with ``K_i: in -> out``
as one read-only stacked array of shape ``(k, out_dim, in_dim)``.  Every
Kraus application goes through one kernel, :func:`_apply`, which takes a
stack ``(n, d, d)`` of inputs (or a single matrix) and returns
``sum_i K_i t K_i^dag`` (state side) or ``sum_i K_i^dag a K_i`` (dual side)
for each input as one broadcast ``matmul`` summed over the Kraus axis.
``apply_map``/``apply_dual`` are its one-matrix public forms.  Checks that
run over the ``d**2`` matrix units ``E_ij`` (unit ``i * d + j`` has its one
at ``(i, j)``) use :func:`_unit_images` instead: it returns the images of
``L E_ij R`` for all units from one GEMM with the Kraus axis as its inner
dimension, and the check takes one ``opcore.max_op_norm`` of the stack.

The constructor validates shapes only; whether the family is trace
non-increasing (``is_operation``) or trace preserving (``is_channel``) is a
predicate, because several useful Kraus views (duals of non-unital channels,
restriction maps) intentionally live outside the trace-non-increasing cone
while their ``apply`` is still the map we want.

Vectorization is column-stacking: ``vec(ABC) = (C^T kron A) vec(B)``, so the
dual map's supermatrix is ``sum K^T kron K^dag`` and the state-side
supermatrix is its adjoint.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from .opcore import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    max_op_norm,
    op_norm_mat,
)
from . import serialize

__all__ = [
    "OperationMap",
    "SuperMatrix",
    "MultiplicabilityResult",
    "vec",
    "unvec",
    "apply_map",
    "apply_dual",
    "sesquilinear",
    "commutator_defect_bound",
    "check_multiplicability",
    "compose",
    "dual_view",
    "to_supermatrix",
    "compress",
    "psd_leq",
    "operation_from_json",
    "operation_to_json",
]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    c = rows if cols is None else cols
    return np.asarray(v, dtype=complex).reshape(rows, c, order="F")


class OperationMap:
    """A completely positive map given by an explicit Kraus family."""

    __slots__ = ("_kraus", "in_dim", "out_dim")

    def __init__(self, kraus: Sequence[Any]):
        mats = []
        for k in kraus:
            m = k.mat if isinstance(k, Operator) else np.asarray(k, dtype=complex)
            if m.ndim != 2:
                raise ValueError(f"Kraus operators must be matrices, got shape {m.shape}")
            mats.append(m)
        if not mats:
            raise ValueError("OperationMap needs at least one Kraus operator")
        shape = mats[0].shape
        for m in mats[1:]:
            if m.shape != shape:
                raise ValueError(
                    f"inconsistent Kraus shapes: {m.shape} vs {shape}"
                )
        stack = np.array(mats, dtype=complex)
        stack.setflags(write=False)
        self._kraus = stack
        self.out_dim, self.in_dim = shape

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """The Kraus matrices, as read-only views into the stacked array."""
        return tuple(self._kraus)

    def __len__(self) -> int:
        return len(self._kraus)

    def __repr__(self) -> str:
        return (
            f"OperationMap(in_dim={self.in_dim}, out_dim={self.out_dim}, "
            f"n_kraus={len(self._kraus)})"
        )

    def kraus_gram(self) -> np.ndarray:
        """``sum K^dag K`` (equals the identity for channels)."""
        return _apply(self, np.eye(self.out_dim), True)

    def is_operation(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Trace non-increasing: ``sum K^dag K <= 1``."""
        gap = np.eye(self.in_dim) - self.kraus_gram()
        w = np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))
        return bool(w.min() >= -tol.eq_tol)

    def is_channel(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return op_norm_mat(self.kraus_gram() - np.eye(self.in_dim)) <= tol.eq_tol

    def is_unital(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.in_dim != self.out_dim:
            return False
        eye = np.eye(self.out_dim)
        return op_norm_mat(_apply(self, eye, False) - eye) <= tol.eq_tol

    @classmethod
    def identity(cls, dim: int) -> "OperationMap":
        return cls([np.eye(dim)])

    @classmethod
    def from_unitary(cls, u: Any) -> "OperationMap":
        return cls([u])


@dataclasses.dataclass(frozen=True)
class SuperMatrix:
    """Matrix of the dual (observable-side) action on vectorized operators.

    ``m @ vec(a) == vec(apply_dual(a))``; shape ``(in_dim**2, out_dim**2)``.
    """

    m: np.ndarray
    in_dim: int
    out_dim: int

    def apply_dual_vec(self, a: np.ndarray) -> np.ndarray:
        return unvec(self.m @ vec(a), self.in_dim)

    def apply_state_vec(self, t: np.ndarray) -> np.ndarray:
        """State-side action via the adjoint supermatrix."""
        return unvec(self.m.conj().T @ vec(t), self.out_dim)


def _as_square(a: Any, dim: int, what: str) -> np.ndarray:
    m = a.mat if isinstance(a, Operator) else np.asarray(a, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {m.shape}")
    return m


def _apply(phi: OperationMap, x: np.ndarray, dual: bool) -> np.ndarray:
    """The Kraus kernel: ``sum_i K_i x K_i^dag``, or ``sum_i K_i^dag x K_i``
    when ``dual``, for one matrix ``x`` or each matrix of a stack ``(..., d, d)``.

    One broadcast ``matmul`` over the Kraus axis, summed in Kraus order; the
    intermediate holds ``k`` matrices per input.
    """
    k = phi._kraus
    kh = k.conj().swapaxes(1, 2)
    left, right = (kh, k) if dual else (k, kh)
    return (left @ np.expand_dims(x, -3) @ right).sum(axis=-3)


def _unit_images(
    phi: OperationMap,
    dual: bool,
    left: np.ndarray | None = None,
    right: np.ndarray | None = None,
) -> np.ndarray:
    """The map applied to ``L E_ij R`` for every matrix unit ``E_ij`` at once.

    Returns the stack ``(d * d, ...)`` whose entry ``i * d + j`` is
    ``_apply(phi, L E_ij R, dual)``, with ``L``/``R`` the identity when unset.
    Since ``L E_ij R`` is the outer product of column ``i`` of ``L`` and row
    ``j`` of ``R``, the dual image is
    ``sum_k (K_k^dag L)[:, i] (R K_k)[j, :]`` (the state image swaps ``K_k``
    and ``K_k^dag``): one GEMM with inner dimension ``k``, ``k * d**4``
    multiply-adds for all units together.
    """
    k = phi._kraus
    kh = k.conj().swapaxes(1, 2)
    a, b = (kh, k) if dual else (k, kh)
    if left is not None:
        a = a @ left
    if right is not None:
        b = right @ b
    n, p, d = a.shape
    q = b.shape[2]
    images = a.transpose(2, 1, 0).reshape(d * p, n) @ b.reshape(n, d * q)
    return images.reshape(d, p, d, q).transpose(0, 2, 1, 3).reshape(d * d, p, q)


def apply_map(phi: OperationMap, t: Any) -> Operator:
    """State-side action ``sum K t K^dag``."""
    return Operator(_apply(phi, _as_square(t, phi.in_dim, "input"), False))


def apply_dual(phi: OperationMap, a: Any) -> Operator:
    """Observable-side action ``sum K^dag a K``."""
    return Operator(_apply(phi, _as_square(a, phi.out_dim, "input"), True))


def sesquilinear(phi: OperationMap, a: Any, b: Any) -> Operator:
    """Defect form ``Phi*(a^dag b) - Phi*(a^dag) Phi*(b)``.

    Requires ``in_dim == out_dim`` so the product of images is defined.  For
    a unital CP map this is the operator Cauchy-Schwarz kernel: it is PSD at
    ``a == b`` and vanishes exactly on multiplicative elements.
    """
    if phi.in_dim != phi.out_dim:
        raise ValueError("sesquilinear needs an endomorphism (in_dim == out_dim)")
    am = _as_square(a, phi.out_dim, "a")
    bm = _as_square(b, phi.out_dim, "b")
    first = apply_dual(phi, am.conj().T @ bm).mat
    second = apply_dual(phi, am.conj().T).mat @ apply_dual(phi, bm).mat
    return Operator(first - second)


def commutator_defect_bound(
    phi: OperationMap,
    a: Any,
    b: Any,
    tol: Tolerance = DEFAULT_TOL,
):
    """How far the dual map is from covariant on the pair ``(a, b)``.

    Returns a BoundReport comparing
    ``lhs = || [Phi*(a), Phi*(b)] - Phi*([a, b]) ||`` against
    ``rhs = ||<<a|a>>||^1/2 ||<<b^dag|b^dag>>||^1/2
            + ||<<a^dag|a^dag>>||^1/2 ||<<b|b>>||^1/2``
    built from the sesquilinear defects of each argument.
    """
    from .reporting import make_report

    am = _as_square(a, phi.out_dim, "a")
    bm = _as_square(b, phi.out_dim, "b")
    fa = apply_dual(phi, am).mat
    fb = apply_dual(phi, bm).mat
    lhs = op_norm_mat((fa @ fb - fb @ fa) - apply_dual(phi, am @ bm - bm @ am).mat)

    def defect(x: np.ndarray) -> float:
        return op_norm_mat(sesquilinear(phi, x, x).mat)

    rhs = np.sqrt(max(defect(am), 0.0)) * np.sqrt(max(defect(bm.conj().T), 0.0)) + np.sqrt(
        max(defect(am.conj().T), 0.0)
    ) * np.sqrt(max(defect(bm), 0.0))
    return make_report(
        bound_id="dual-commutator-defect",
        outcome="",
        lhs=float(lhs),
        rhs=float(rhs),
        tol=tol,
    )


@dataclasses.dataclass(frozen=True)
class MultiplicabilityResult:
    """Outcome of the multiplicative-domain check at a fixed ``b``.

    ``applicable`` is False when the precondition
    ``||Phi*(b^dag b) - Phi*(b^dag) Phi*(b)|| <= eq_tol`` fails; then
    ``holds`` is None and ``precondition_defect`` reports the obstruction.
    When applicable, ``witness`` is the worst product defect
    ``||Phi*(a b) - Phi*(a) Phi*(b)||`` over the matrix-unit basis for ``a``.
    """

    applicable: bool
    precondition_defect: float
    holds: bool | None
    witness: float | None


def check_multiplicability(
    phi: OperationMap, b: Any, tol: Tolerance = DEFAULT_TOL
) -> MultiplicabilityResult:
    bm = _as_square(b, phi.out_dim, "b")
    pre = op_norm_mat(sesquilinear(phi, bm, bm).mat)
    if pre > tol.eq_tol:
        return MultiplicabilityResult(False, float(pre), None, None)
    fb = apply_dual(phi, bm).mat
    worst = max_op_norm(_unit_images(phi, True, right=bm) - _unit_images(phi, True) @ fb)
    # Cauchy-Schwarz gives ||defect||^2 <= precondition * ||<<a|a>>||, and
    # ||<<a|a>>|| <= 2 for matrix units under a unital dual, hence the scale.
    threshold = float(np.sqrt(2.0 * tol.eq_tol) + tol.eq_tol)
    return MultiplicabilityResult(True, float(pre), bool(worst <= threshold), float(worst))


def compose(phi2: OperationMap, phi1: OperationMap) -> OperationMap:
    """``phi2 after phi1`` on states; Kraus products, no pruning."""
    if phi1.out_dim != phi2.in_dim:
        raise ValueError(
            f"cannot compose: inner output dim {phi1.out_dim} != outer input dim {phi2.in_dim}"
        )
    products = phi2._kraus[:, None] @ phi1._kraus
    return OperationMap(products.reshape(-1, phi2.out_dim, phi1.in_dim))


def dual_view(phi: OperationMap) -> OperationMap:
    """Kraus view whose ``apply`` equals ``phi``'s ``apply_dual``."""
    return OperationMap(phi._kraus.conj().swapaxes(1, 2))


def to_supermatrix(phi: OperationMap) -> SuperMatrix:
    # Not built through _apply: the kernel's BLAS products differ from these at
    # rounding level, enough to rotate the SVD null-space basis of a degenerate
    # fixed space, which the fixed-point report prints.
    m = sum(np.kron(k.T, k.conj().T) for k in phi._kraus)
    return SuperMatrix(m=m, in_dim=phi.in_dim, out_dim=phi.out_dim)


def compress(phi: OperationMap, tol: Tolerance = DEFAULT_TOL) -> OperationMap:
    """Minimal Kraus family via the Choi eigendecomposition.

    Eigenvalues at or below ``rank_tol`` are dropped; eigenvectors are
    de-phased on their largest-magnitude entry so the output is deterministic.
    """
    din, dout = phi.in_dim, phi.out_dim
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for k in phi.kraus:
        v = vec(k)
        choi += np.outer(v, v.conj())
    w, vmat = np.linalg.eigh(0.5 * (choi + choi.conj().T))
    ops = []
    for idx in range(len(w) - 1, -1, -1):
        if w[idx] <= tol.rank_tol:
            break
        col = vmat[:, idx]
        pivot = int(np.argmax(np.abs(col)))
        phase = col[pivot] / abs(col[pivot])
        col = col * np.conj(phase)
        ops.append(np.sqrt(w[idx]) * unvec(col, dout, din))
    if not ops:
        ops = [np.zeros((dout, din), dtype=complex)]
    return OperationMap(ops)


def psd_leq(a: Any, b: Any, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Loewner order ``a <= b``: smallest eigenvalue of ``b - a >= -eq_tol``."""
    am = a.mat if isinstance(a, Operator) else np.asarray(a, dtype=complex)
    bm = b.mat if isinstance(b, Operator) else np.asarray(b, dtype=complex)
    gap = bm - am
    w = np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))
    return bool(w.min() >= -tol.eq_tol)


def operation_from_json(obj: Any, where: str = "channel") -> OperationMap:
    """Build from ``{"kraus": [matrix, ...]}`` or ``{"unitary": matrix}``."""
    if not isinstance(obj, dict):
        raise serialize.SchemaError(f"{where}: expected an object")
    if "unitary" in obj:
        u = serialize.matrix_from_json(obj["unitary"], f"{where}.unitary")
        return OperationMap([u])
    if "kraus" in obj:
        ks = obj["kraus"]
        if not isinstance(ks, list) or not ks:
            raise serialize.SchemaError(f"{where}.kraus: expected a non-empty list")
        return OperationMap(
            [serialize.matrix_from_json(k, f"{where}.kraus[{i}]") for i, k in enumerate(ks)]
        )
    raise serialize.SchemaError(f"{where}: needs a 'kraus' or 'unitary' field")


def operation_to_json(phi: OperationMap) -> dict:
    return {"kraus": [serialize.matrix_to_json(k) for k in phi.kraus]}
