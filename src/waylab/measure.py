"""Observables, instruments, and measurement schemes.

An :class:`Observable` is a finite POVM with ordered opaque string labels.
An :class:`Instrument` is an outcome-indexed family of trace-non-increasing
operations whose sum is a channel; its induced observable is
``x -> I*_x(1)``.  A :class:`MeasurementScheme` bundles an apparatus space,
an initial apparatus state ``xi``, a coupling channel on the composite, and a
pointer observable; :func:`scheme_to_instrument` realizes the measured
instrument ``I_x(t) = tr_A[(1 (x) Z(x)) E(t (x) xi)]`` in explicit Kraus
form, and :func:`restriction_maps` exposes the system/apparatus restrictions
used by the trade-off bounds.

An observable's effects are one read-only ``(n, d, d)`` stack.  Public
constructors check their input; what is derived from checked objects with
no tolerance decision is valid as a theorem and is built unchecked, by the
one ``_derived`` path of :class:`Observable` and of :class:`Instrument`.

Everything indexes composite spaces with the system slowest, matching
``numpy.kron(system_op, apparatus_op)``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Literal, Sequence

import numpy as np

from .cpmaps import (
    OperationMap,
    _Immutable,
    _apply,
    _max_unit_norm,
    _per_object,
    _stack_families,
    compose,
    dual_view,
)
from .opcore import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    _checked,
    _commutators,
    _eigenspace_columns,
    _hermitian_parts,
    _psd_sqrts,
    eigen_clusters,
    is_hermitian,
    is_state,
    max_op_norm,
    op_norm_mat,
    op_norms,
)
from .reporting import Record

__all__ = [
    "Observable",
    "Instrument",
    "MeasurementScheme",
    "RestrictionMaps",
    "ItemCheck",
    "RepeatabilityReport",
    "sharp_observable",
    "luders_instrument",
    "collapse_instrument",
    "scheme_to_instrument",
    "measured_observable",
    "restriction_maps",
    "heisenberg_pointer",
    "normal_dilation",
    "repeatability_report",
]


# Entries of the left factor stack per block of families in ``_dual_gap``:
# 16 MiB of complex, all outcomes of a Lüders instrument up to d = 32 at once.
_FRAME_BLOCK = 2**20


def _outcome_index(outcomes: tuple[str, ...], x: str) -> int:
    try:
        return outcomes.index(str(x))
    except ValueError:
        raise KeyError(f"unknown outcome {x!r}") from None


class Observable:
    """POVM with ordered outcome labels.

    The effects are one read-only ``(n, d, d)`` stack, ``_effects``; the
    :class:`Operator` s of :attr:`effects` are built on request.  The
    constructor checks, in one batched pass, that each is Hermitian with
    spectrum in [0, 1] and that they sum to the identity (within ``eq_tol``);
    :meth:`_derived` skips that.  Labels are opaque strings, kept in order.
    """

    __slots__ = ("_outcomes", "_effects", "dim")

    def __init__(
        self,
        outcomes: Sequence[str],
        effects: Sequence[Any],
        tol: Tolerance = DEFAULT_TOL,
    ):
        labels = tuple(str(x) for x in outcomes)
        mats = [_checked(e) for e in effects]
        if len(labels) != len(mats):
            raise ValueError(f"{len(labels)} outcomes but {len(mats)} effects")
        if not mats:
            raise ValueError("observable needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        if len({m.shape for m in mats}) > 1:
            raise ValueError("effects must share one dimension")
        stack = np.array(mats)
        w = np.linalg.eigvalsh(_hermitian_parts(stack))
        skew = np.array(op_norms(stack - stack.conj().swapaxes(1, 2)))
        bad = (skew > tol.eq_tol) | (w[:, 0] < -tol.eq_tol) | (w[:, -1] > 1.0 + tol.eq_tol)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"effect {labels[i]!r} is not a valid effect "
                             f"(spectrum [{w[i, 0]:.3e}, {w[i, -1]:.3e}])")
        gap = op_norm_mat(stack.sum(axis=0) - np.eye(stack.shape[1]))
        if gap > tol.eq_tol:
            raise ValueError(f"effects do not sum to the identity (defect {gap:.3e})")
        self._set(labels, stack)

    @classmethod
    def _derived(cls, outcomes: Sequence[str], effects: np.ndarray) -> "Observable":
        """``outcomes -> effects`` (a fresh stack, taken over), unchecked: only
        for an observable derived from checked objects with no tolerance decision."""
        obs = cls.__new__(cls)
        obs._set(tuple(outcomes), np.ascontiguousarray(effects, dtype=complex))
        return obs

    def _set(self, outcomes: tuple[str, ...], stack: np.ndarray) -> None:
        stack.setflags(write=False)
        self._outcomes, self._effects, self.dim = outcomes, stack, stack.shape[-1]

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self._outcomes

    @property
    def effects(self) -> tuple[Operator, ...]:
        return tuple(Operator(m) for m in self._effects)

    def effect(self, x: str) -> Operator:
        return Operator(self._effects[_outcome_index(self._outcomes, x)])

    def __len__(self) -> int:
        return len(self._outcomes)

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim}, outcomes={list(self._outcomes)!r})"

    # -- predicates ------------------------------------------------------

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The effects of every outcome pair ``i < j``, as two stacks."""
        i, j = np.triu_indices(len(self._effects), 1)
        return self._effects[i], self._effects[j]

    def is_sharp(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """All effects are projections and mutually orthogonal."""
        e = self._effects
        a, b = self._pairs()
        return max(
            max_op_norm(e - e.conj().swapaxes(1, 2)), max_op_norm(e @ e - e), max_op_norm(a @ b)
        ) <= tol.eq_tol

    def is_commutative(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return max_op_norm(_commutators(*self._pairs())) <= tol.eq_tol

    def is_trivial(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Every effect is a multiple of the identity."""
        mats = self._effects
        scalars = np.trace(mats, axis1=1, axis2=2)[:, None, None] / self.dim
        return max_op_norm(mats - scalars * np.eye(self.dim)) <= tol.eq_tol


class Instrument:
    """Outcome-indexed operations summing to a channel (checked by the
    constructor, within ``eq_tol``; :meth:`_derived` skips the checks)."""

    __slots__ = ("_outcomes", "_operations", "_total", "dim")

    def __init__(
        self,
        outcomes: Sequence[str],
        operations: Sequence[OperationMap],
        tol: Tolerance = DEFAULT_TOL,
    ):
        labels = tuple(str(x) for x in outcomes)
        ops = tuple(operations)
        if len(labels) != len(ops):
            raise ValueError(f"{len(labels)} outcomes but {len(ops)} operations")
        if not ops:
            raise ValueError("instrument needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        d = ops[0].in_dim
        for op in ops:
            if op.in_dim != d or op.out_dim != d:
                raise ValueError("instrument operations must be endomorphisms of one space")
        # sum K^dag K <= 1 for every outcome (OperationMap.is_operation), by
        # one batched eigvalsh
        grams = _kraus_grams(ops)
        gaps = np.eye(d) - grams
        bad = ~(np.linalg.eigvalsh(_hermitian_parts(gaps))[:, 0] >= -tol.eq_tol)  # NaN is bad
        if bad.any():
            raise ValueError(f"operation {labels[int(np.argmax(bad))]!r} is not trace non-increasing")
        self._set(labels, ops)
        gap = op_norm_mat(grams.sum(axis=0) - np.eye(d))
        if gap > tol.eq_tol:
            raise ValueError(f"total map is not a channel (completeness defect {gap:.3e})")

    @classmethod
    def _derived(cls, outcomes: Sequence[str], operations: Sequence[OperationMap]) -> "Instrument":
        """``outcomes -> operations``, unchecked: only for an instrument
        derived from checked objects without a tolerance decision."""
        inst = cls.__new__(cls)
        inst._set(tuple(outcomes), tuple(operations))
        return inst

    def _set(self, outcomes: tuple[str, ...], ops: tuple[OperationMap, ...]) -> None:
        self._outcomes, self._operations, self.dim = outcomes, ops, ops[0].in_dim
        self._total = OperationMap(np.concatenate([op._kraus for op in ops]))

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self._outcomes

    @property
    def operations(self) -> tuple[OperationMap, ...]:
        return self._operations

    def operation(self, x: str) -> OperationMap:
        return self._operations[_outcome_index(self._outcomes, x)]

    def __repr__(self) -> str:
        return f"Instrument(dim={self.dim}, outcomes={list(self._outcomes)!r})"

    def total(self) -> OperationMap:
        """The measurement channel ``I_X = sum_x I_x``."""
        return self._total

    def induced_observable(self) -> Observable:
        """``x -> I*_x(1)``, not checked again."""
        return Observable._derived(self._outcomes, _hermitian_parts(_kraus_grams(self._operations)))


def _kraus_grams(ops: Sequence[OperationMap]) -> np.ndarray:
    """``I*_x(1) = sum_k K_k^dag K_k`` of every operation, ``(n, in, in)``: one
    GEMM per operation over its Kraus operators stacked along the rows (the
    families zero-padded to one length)."""
    stack = _stack_families([op._kraus for op in ops])
    stack = stack.reshape(len(stack), -1, stack.shape[-1])
    return stack.conj().swapaxes(1, 2) @ stack


class MeasurementScheme(_Immutable):
    """Apparatus state + coupling channel + pointer observable.

    A scheme (``xi`` a read-only array) is immutable once built: assigning to
    or deleting any attribute raises.  Its derivations (instrument, measured
    observable, restriction maps, conservation and repeatability defects) are
    cached on the scheme itself by :func:`cpmaps._per_object`, and a changed
    field would leave them stale.
    """

    __slots__ = ("sys_dim", "app_dim", "xi", "coupling", "pointer", "_memo")

    def __init__(
        self,
        sys_dim: int,
        app_dim: int,
        xi: Any,
        coupling: OperationMap,
        pointer: Observable,
        tol: Tolerance = DEFAULT_TOL,
    ):
        sys_dim, app_dim, xi = int(sys_dim), int(app_dim), _checked(xi)
        if sys_dim < 1 or app_dim < 1:
            raise ValueError("dimensions must be positive")
        if len(xi) != app_dim:
            raise ValueError(f"xi dimension {len(xi)} does not match apparatus dim {app_dim}")
        if not is_state(xi, tol):
            raise ValueError("xi must be a density operator")
        d = sys_dim * app_dim
        if coupling.in_dim != d or coupling.out_dim != d:
            raise ValueError(
                f"coupling must act on the {d}-dimensional composite, "
                f"got {coupling.out_dim}x{coupling.in_dim}"
            )
        if not coupling.is_channel(tol):
            raise ValueError("coupling must be a channel")
        if pointer.dim != app_dim:
            raise ValueError(
                f"pointer dimension {pointer.dim} does not match apparatus dim "
                f"{app_dim}"
            )
        fields = zip(self.__slots__, (sys_dim, app_dim, xi, coupling, pointer, {}))
        for name, value in fields:
            object.__setattr__(self, name, value)

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.pointer.outcomes

    def __repr__(self) -> str:
        return (
            f"MeasurementScheme(sys_dim={self.sys_dim}, app_dim={self.app_dim}, "
            f"outcomes={list(self.pointer.outcomes)!r})"
        )


@dataclasses.dataclass(frozen=True)
class RestrictionMaps:
    """System/apparatus restrictions of a scheme.

    ``gamma_xi``:   B on S(x)A  ->  tr_A[B (1 (x) xi)]          (system side)
    ``gamma_xi_e``: B on S(x)A  ->  gamma_xi(E*(B))             (after coupling)
    ``conj_channel``: t on S    ->  tr_S[E(t (x) xi)]           (apparatus side)
    ``conj_dual``:  its dual on apparatus observables.

    All four are Kraus views whose ``apply`` is the stated map; the
    Heisenberg-side views need not be trace non-increasing.
    """

    gamma_xi: OperationMap
    gamma_xi_e: OperationMap
    conj_channel: OperationMap
    conj_dual: OperationMap


def sharp_observable(a: Any, tol: Tolerance = DEFAULT_TOL) -> Observable:
    """Spectral observable of a Hermitian operator.

    Eigenvalues are clustered by ``rank_tol`` gaps; outcomes are labelled
    ``e0, e1, ...`` in ascending eigenvalue order.
    """
    m = _checked(a)
    if not is_hermitian(m, tol):
        raise ValueError("sharp_observable requires a Hermitian operator")
    w, v = np.linalg.eigh(_hermitian_parts(m))
    clusters = eigen_clusters(w, tol.rank_tol)
    labels = [f"e{k}" for k in range(len(clusters))]
    return Observable._derived(labels, [v[:, idx] @ v[:, idx].conj().T for idx in clusters])


def luders_instrument(e: Observable, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """``I_x(t) = sqrt(E(x)) t sqrt(E(x))``."""
    ops = [OperationMap([root]) for root in _psd_sqrts(e._effects, tol)]
    return Instrument._derived(e.outcomes, ops)


def collapse_instrument(
    e: Observable, vectors: Sequence[Any], tol: Tolerance = DEFAULT_TOL
) -> Instrument:
    """``I_x(t) = tr[E(x) t] |psi_x><psi_x|`` for unit vectors ``psi_x``."""
    if len(vectors) != len(e.outcomes):
        raise ValueError("need one collapse vector per outcome")
    d = e.dim
    ops = []
    for sq, v in zip(_psd_sqrts(e._effects, tol), vectors):
        psi = np.asarray(v, dtype=complex).reshape(-1)
        if psi.shape != (d,):
            raise ValueError(f"collapse vector has length {psi.shape[0]}, expected {d}")
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > tol.eq_tol:
            raise ValueError(f"collapse vector is not normalized (norm {norm:.6f})")
        ops.append(OperationMap([np.outer(psi, sq[k, :]) for k in range(d)]))
    return Instrument(e.outcomes, ops, tol)


def _xi_decomposition(xi: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Weighted spectral vectors ``sqrt(q_i) phi_i`` with ``q_i > rank_tol``, as
    rows in descending order of ``q_i``."""
    w, v = np.linalg.eigh(_hermitian_parts(xi))
    keep = np.flatnonzero(w > tol.rank_tol)[::-1]
    if not keep.size:
        raise ValueError("xi has no spectral weight above rank_tol")
    return np.sqrt(w[keep])[:, None] * v[:, keep].T


@_per_object
def scheme_to_instrument(m: MeasurementScheme, tol: Tolerance = DEFAULT_TOL) -> Instrument:
    """Explicit Kraus form of ``I_x(t) = tr_A[(1 (x) Z(x)) E(t (x) xi)]``.

    Kraus factors combine the coupling's Kraus operators, the spectral
    vectors of ``xi``, square roots of the pointer effects, and a contraction
    over the apparatus basis.
    """
    dS, dA = m.sys_dim, m.app_dim
    weighted = _xi_decomposition(m.xi, tol)
    lifts = np.kron(np.eye(dS), _psd_sqrts(m.pointer._effects, tol))
    b = (lifts[:, None] @ m.coupling._kraus).reshape(len(lifts), -1, dS, dA, dS, dA)
    # per outcome x, Kraus operators (1 (x) <a|) (1 (x) sqrt Z(x)) L (1 (x) |phi>),
    # ordered by L, then phi, then a
    kraus = np.einsum("xlpasb,fb->xlfaps", b, weighted).reshape(len(lifts), -1, dS, dS)
    return Instrument(m.pointer.outcomes, [OperationMap(k) for k in kraus], tol)


@_per_object
def _coupled_pointer(m: MeasurementScheme) -> np.ndarray:
    """The stack ``E*(1 (x) Z(x))`` over the pointer outcomes, read-only."""
    stack = _apply(m.coupling, np.kron(np.eye(m.sys_dim), m.pointer._effects), True)
    stack.setflags(write=False)
    return stack


@_per_object
def measured_observable(m: MeasurementScheme) -> Observable:
    """Effects ``Gamma_xi(E*(1 (x) Z(x)))`` of the scheme."""
    dS, dA = m.sys_dim, m.app_dim
    one_xi = np.kron(np.eye(dS), m.xi)
    prods = (_coupled_pointer(m) @ one_xi).reshape(-1, dS, dA, dS, dA)
    return Observable._derived(m.pointer.outcomes, _hermitian_parts(np.einsum("niaja->nij", prods)))


@_per_object
def restriction_maps(m: MeasurementScheme, tol: Tolerance = DEFAULT_TOL) -> RestrictionMaps:
    dS, dA = m.sys_dim, m.app_dim
    eye_s = np.eye(dS)
    sqrt_xi = _psd_sqrts(m.xi[None], tol)[0]
    gamma = OperationMap(np.kron(eye_s, sqrt_xi[:, None, :]))
    gamma_e = compose(gamma, dual_view(m.coupling))
    # L (1 (x) |phi>) split into its dS row blocks, ordered by L, then phi, then s
    weighted = _xi_decomposition(m.xi, tol)
    v = m.coupling._kraus[:, None] @ np.kron(eye_s, weighted[:, :, None])
    conj = OperationMap(v.reshape(-1, dA, dS))
    return RestrictionMaps(
        gamma_xi=gamma,
        gamma_xi_e=gamma_e,
        conj_channel=conj,
        conj_dual=dual_view(conj),
    )


@_per_object
def heisenberg_pointer(m: MeasurementScheme) -> Observable:
    """Coupled pointer ``Z^tau(x) = E*(1 (x) Z(x))`` on the composite."""
    return Observable._derived(m.pointer.outcomes, _hermitian_parts(_coupled_pointer(m)))


def normal_dilation(e: Observable, tol: Tolerance = DEFAULT_TOL) -> MeasurementScheme:
    """Unitary scheme whose instrument is the Lüders instrument of ``e``.

    The apparatus has one dimension per outcome, starts in ``|0><0|``, and
    the coupling extends ``psi (x) |0> -> sum_x sqrt(E(x)) psi (x) |x>`` to a
    unitary by Gram-Schmidt over the standard basis, skipping near-dependent
    vectors at ``rank_tol``.
    """
    dS, n = e.dim, len(e.outcomes)
    dim = dS * n
    u = np.zeros((dim, dim), dtype=complex)
    # column s n holds sum_x sqrt(E(x)) |s> (x) |x>
    sqrts = _psd_sqrts(e._effects, tol)
    u[:, ::n] = sqrts.transpose(1, 0, 2).reshape(dim, dS)
    open_slots = [s * n + x for s in range(dS) for x in range(1, n)]
    chosen = [u[:, s * n] for s in range(dS)]
    slot_iter = iter(open_slots)
    for idx in range(dim):
        if len(chosen) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        for c in chosen:
            v = v - np.vdot(c, v) * c
        norm = np.linalg.norm(v)
        if norm > tol.rank_tol:
            v = v / norm
            u[:, next(slot_iter)] = v
            chosen.append(v)
    if len(chosen) != dim:
        raise RuntimeError("failed to complete the dilation isometry to a unitary")
    xi = np.zeros((n, n), dtype=complex)
    xi[0, 0] = 1.0
    pointer = Observable(e.outcomes, [np.diag(row) for row in np.eye(n)], tol)
    return MeasurementScheme(dS, n, xi, OperationMap([u]), pointer, tol)


# ---------------------------------------------------------------------------
# repeatability / first-kindness diagnostics
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ItemCheck(Record):
    defect: float
    passed: bool
    evaluated: bool = True
    note: str = ""


@dataclasses.dataclass(frozen=True)
class RepeatabilityReport(Record):
    outcomes: tuple[str, ...]
    repeatable: bool
    repeatability_defect: float
    per_outcome_defects: dict[str, float]
    first_kind: bool
    first_kind_defect: float
    sharp_equivalence_ok: bool | None
    items: dict[str, ItemCheck]
    items_applicable: bool


def _repeat_first_kind(
    inst: Instrument, e: Observable
) -> tuple[float, float, dict[str, float]]:
    """Repeatability and first-kind defects of ``inst`` against ``e``.

    Returns ``||sum_x E(x) - I*_x(E(x))||``, ``max_x ||I*_X(E(x)) - E(x)||``
    and the per-outcome ``||I*_x(E(x)) - E(x)||``.  ``e`` is the instrument's
    induced observable, or the measured observable of the scheme behind it.
    """
    effects = e._effects
    kraus = _stack_families([inst.operation(x)._kraus for x in e.outcomes])
    backs = (kraus.conj().swapaxes(-1, -2) @ effects[:, None] @ kraus).sum(axis=1)
    per_outcome = dict(zip(e.outcomes, op_norms(backs - effects)))
    first_kind = max_op_norm(_apply(inst.total(), effects, True) - effects)
    return op_norm_mat((effects - backs).sum(axis=0)), first_kind, per_outcome


def _norm_one_projectors(
    outcomes: Sequence[str], eig: tuple[np.ndarray, np.ndarray], tol: Tolerance
) -> tuple[dict[str, np.ndarray], list[str], float]:
    """Eigenvalue-1 eigenvectors of the effects with norm above ``rank_tol``,
    from the caller's batched ``eigh`` ``eig`` of the Hermitian effects (one
    per outcome): the columns ``w`` whose projector ``w w^dag`` is ``P(x)`` as
    :func:`opcore.eigenspace_projector` takes it.

    Also returns the outcomes whose effect has no eigenvalue-1 eigenspace and
    ``max_x |1 - ||E(x)|| |`` over those effects.
    """
    cols: dict[str, np.ndarray] = {}
    missing: list[str] = []
    gap = 0.0
    for x, w, v in zip(outcomes, *eig):
        n = float(np.abs(w).max())
        if n <= tol.rank_tol:
            continue
        gap = max(gap, abs(1.0 - n))
        found = _eigenspace_columns(w, v, 1.0, tol.rank_tol)
        if found is None:
            missing.append(x)
        else:
            cols[x] = found
    return cols, missing, gap


def _projectors(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``x -> w w^dag`` for the columns of :func:`_norm_one_projectors`."""
    return {x: w @ w.conj().T for x, w in cols.items()}


def _exclusivity_defect(proj: dict[str, np.ndarray], obs: Observable) -> float:
    """``max ||P(x) E(y) - delta_xy P(x)||`` over every pair at once; 0.0 when
    there are no projectors."""
    if not proj:
        return 0.0
    pmats = np.array(list(proj.values()))
    prods = pmats[:, None] @ obs._effects
    own = [obs.outcomes.index(x) for x in proj]
    prods[np.arange(len(own)), own] -= pmats
    return max_op_norm(prods)


def _dual_gap(
    first: np.ndarray,
    second: np.ndarray,
    left: np.ndarray | None = None,
    rights: tuple[np.ndarray | Literal["adjoint"] | None, ...] = (None,),
    drop: np.ndarray | None = None,
) -> float:
    """``max ||sum F^dag L A R F - sum S^dag A S||`` over every matrix unit ``A``,
    family ``i`` and frame: the defect of ``Phi_1 = Phi_2`` for the duals
    ``Phi_1`` of ``first`` (framed) and ``Phi_2`` of ``second``.

    ``first[i]`` and ``second[i]`` are zero-padded Kraus stacks
    (``(n, k, out, in)`` and ``(n, k', out, in)``; ``k' = 0`` is the zero map).
    ``first`` may instead be one stack ``(1, k, out, in)`` for every family,
    with ``drop[i]`` (``(n, k)`` bools) the operators family ``i`` leaves out.
    The frames ``(L, R)`` of family ``i`` share ``L = left[i]``, and each of
    ``rights`` gives one ``R``: ``rights[r][i]`` for an array (``(n, out,
    out)``), the identity for None (as for ``left``), and ``L^dag`` for
    ``"adjoint"``, which needs ``k' = 0``.  A state-side map
    ``sum K A K^dag`` is the dual of the family ``K^dag``.  The factors of
    :func:`cpmaps._max_unit_norm` are ``a = [F^dag L, -S^dag]`` and
    ``b = [R F, S]``, one ``a`` for all frames: for ``"adjoint"`` ``b`` is
    the adjoint of ``a``, so the two share their Grams, and with ``R`` the
    identity and one shared ``first``, one ``b`` serves every family of a
    block.  The factors are built for blocks of families of at most
    ``_FRAME_BLOCK`` entries of ``a`` each, never for all families at once.
    """
    n, k, rows, cols = len(second), *first.shape[1:]
    m = k + second.shape[1]
    if m > k and any(isinstance(right, str) for right in rights):
        raise ValueError("the adjoint frame needs an empty second family")
    first_h = first.conj().swapaxes(-1, -2)
    per_block = max(1, _FRAME_BLOCK // max(1, m * rows * cols))
    worst = 0.0
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        own, own_h = (first, first_h) if len(first) == 1 else (first[lo:hi], first_h[lo:hi])
        a = np.empty((hi - lo, m, cols, rows), dtype=complex)
        if left is None:
            a[:, :k] = own_h
        else:
            # one GEMM per family: the Kraus operators stacked along the rows of F^dag
            fl = own_h.reshape(len(own_h), k * cols, rows) @ left[lo:hi]
            a[:, :k] = fl.reshape(hi - lo, k, cols, rows)
        if drop is not None:
            a[:, :k][drop[lo:hi]] = 0.0
        a[:, k:] = -second[lo:hi].conj().swapaxes(-1, -2)
        bs = []
        for right in rights:
            if isinstance(right, str):
                bs.append(None)  # L^dag F = (F^dag L)^dag
            elif right is None and len(first) == 1 and m == k:
                bs.append(first)
            else:
                b = np.empty((hi - lo, m, rows, cols), dtype=complex)
                b[:, :k] = own if right is None else (right[lo:hi, None] @ own)
                b[:, k:] = second[lo:hi]
                bs.append(b)
        worst = _max_unit_norm(a, *bs, worst=worst)
    return worst


@_per_object
def _scheme_repeat_first_kind(
    m: MeasurementScheme, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float]:
    """Repeatability and first-kind defects (:func:`_repeat_first_kind`) of the
    scheme's instrument against its measured observable."""
    return _repeat_first_kind(scheme_to_instrument(m, tol), measured_observable(m))[:2]


def repeatability_report(
    inst: Instrument,
    m: MeasurementScheme | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> RepeatabilityReport:
    """Repeatability and first-kindness diagnostics for an instrument.

    The headline ``repeatability_defect`` is ``||1 - sum_x I*_x(E(x))||``,
    the worst-case probability that an immediate second run disagrees with
    the first; it vanishes exactly when ``I*_x(E(x)) = E(x)`` for every
    outcome because each gap ``E(x) - I*_x(E(x))`` is positive.  Per-outcome
    gaps are reported alongside.  The structural identities that repeatable
    instruments must satisfy are evaluated on the matrix-unit basis; the
    three identities that involve the apparatus need ``m`` and are marked
    unevaluated otherwise (its system must be that of ``inst``, and its pointer
    must have every outcome of ``inst``).
    Output distinguishability is probed on the maximally mixed state and
    three fixed-seed random states so reports stay deterministic.
    """
    d = inst.dim
    if m is not None and m.sys_dim != d:
        raise ValueError(f"scheme system dimension {m.sys_dim} does not match the "
                         f"instrument dimension {d}")
    missing = [] if m is None else [x for x in inst.outcomes if x not in m.outcomes]
    if missing:
        raise ValueError(f"instrument outcomes {missing} are not outcomes of the scheme's "
                         f"pointer {list(m.outcomes)}")
    e_obs = inst.induced_observable()
    eye = np.eye(d)

    repeat_defect, fk_defect, per_outcome = _repeat_first_kind(inst, e_obs)
    repeatable = repeat_defect <= tol.eq_tol
    first_kind = fk_defect <= tol.eq_tol

    sharp_flag: bool | None = None
    if e_obs.is_sharp(tol):
        sharp_flag = repeatable == first_kind

    # each identity below is checked on every matrix unit A at once, for all
    # outcomes (Kraus families zero-padded to one length) and frames together
    ops = inst.operations
    kraus = _stack_families([op._kraus for op in ops])
    items: dict[str, ItemCheck] = {}

    # (i) I*_x(A) = I*_x(E(x) A) = I*_x(A E(x)) = I*_x(E(x) A E(x)).  E(x) is
    # exactly Hermitian and I*_y preserves adjoints, so the image of E_ij
    # under the (1, E(x)) frame is the adjoint of the image of E_ji under the
    # (E(x), 1) frame: the two frames have the same maximum, here and in
    # (ii), and only (E(x), 1) and (E(x), E(x)) are checked
    e_mats = e_obs._effects
    sandwich = _dual_gap(kraus, kraus, e_mats, (None, e_mats))
    items["sandwich-own-effect"] = ItemCheck(sandwich, sandwich <= tol.eq_tol)

    # (ii) the total dual agrees with the single-outcome dual on E(x)-framed
    # forms; their difference is the dual of the other outcomes' Kraus family:
    # the total family with the outcome's own operators dropped.  With no
    # second family, the (E(x), E(x)) frame's right factor E(x) F is the
    # adjoint of the left one F^dag E(x)
    total = inst.total()._kraus
    own = np.repeat(np.eye(len(ops), dtype=bool), [len(op) for op in ops], axis=1)
    localizes = _dual_gap(total[None], kraus[:, :0], e_mats, (None, "adjoint"), own)
    items["total-localizes"] = ItemCheck(localizes, localizes <= tol.eq_tol)

    # (iv)/(v): eigenvalue-1 projectors of the effects and their exclusivity
    cols, missing, norm_gap = _norm_one_projectors(e_obs.outcomes, np.linalg.eigh(e_mats), tol)
    proj = _projectors(cols)
    items["norm-one-projectors"] = ItemCheck(
        norm_gap,
        norm_gap <= tol.rank_tol and not missing,
        note=("missing eigenvalue-1 eigenspace for: " + ", ".join(missing)) if missing else "",
    )

    worst = _exclusivity_defect(proj, e_obs)
    items["projector-exclusivity"] = ItemCheck(worst, worst <= tol.eq_tol)

    # (vi) I*_x(A) = I*_x(P(x) A P(x))
    worst = 0.0
    evaluated_vi = bool(proj)
    if proj:
        p_mats = np.array(list(proj.values()))
        own = [inst.outcomes.index(x) for x in proj]
        worst = _dual_gap(kraus[own], kraus[own], p_mats, (p_mats,))
    items["projector-sandwich"] = ItemCheck(
        worst, worst <= tol.eq_tol, evaluated=evaluated_vi,
        note="" if evaluated_vi else "no eigenvalue-1 projectors available",
    )

    # output distinguishability: normalized outputs for different outcomes
    # are orthogonal (rho_x rho_y = 0)
    rng = np.random.default_rng(171)
    probes = [eye / d]
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        probes.append(rho / np.trace(rho))
    outs = (kraus[:, None] @ np.array(probes)[:, None] @ kraus[:, None].conj().swapaxes(-1, -2)
            ).sum(axis=2)
    weights = np.real(np.trace(outs, axis1=-2, axis2=-1))
    worst = 0.0
    for outs_r, p_r in zip(outs.swapaxes(0, 1), weights.T):
        seen = p_r > tol.rank_tol
        normed = outs_r[seen] / p_r[seen, None, None]
        i, j = np.triu_indices(len(normed), 1)
        worst = max(worst, max_op_norm(normed[i] @ normed[j]))
    items["output-orthogonality"] = ItemCheck(worst, worst <= tol.eq_tol)

    if m is not None:
        maps = restriction_maps(m, tol)
        pointer = m.pointer
        dA = m.app_dim
        eye_a = np.eye(dA)

        # (iii) E(x) = Gamma^E_xi(E(x)^n (x) 1) = Gamma^E_xi(1 (x) Z(x)^n)
        z_mats = pointer._effects[[_outcome_index(pointer.outcomes, x) for x in e_obs.outcomes]]
        worst = 0.0
        for n_pow in (1, 2, 3):
            lifted = np.concatenate([
                np.kron(np.linalg.matrix_power(e_mats, n_pow), eye_a),
                np.kron(eye, np.linalg.matrix_power(z_mats, n_pow)),
            ])
            sides = _apply(maps.gamma_xi_e, lifted, False)
            worst = max(worst, max_op_norm(sides - np.concatenate([e_mats, e_mats])))
        items["moment-identities"] = ItemCheck(worst, worst <= tol.eq_tol)

        # pointer-side eigenvalue-1 projectors
        qcols, q_missing, q_gap = _norm_one_projectors(
            pointer.outcomes, np.linalg.eigh(_hermitian_parts(pointer._effects)), tol
        )
        qproj = _projectors(qcols)
        worst = max(q_gap, _exclusivity_defect(qproj, pointer))
        items["pointer-projectors"] = ItemCheck(
            worst,
            worst <= tol.eq_tol and not q_missing,
            note=("missing pointer eigenspace for: " + ", ".join(q_missing))
            if q_missing
            else "",
        )

        if qproj and not q_missing:
            q_total = sum(qproj.values())[None]
            # (vii) the apparatus restriction only sees the pointer support
            conj = maps.conj_channel._kraus[None]
            worst = _dual_gap(conj, conj, q_total, (q_total,))
            items["conjugate-pointer-support"] = ItemCheck(worst, worst <= tol.eq_tol)

            # (viii) I*_x(A) = Gamma^E_xi(A (x) Q(x)): with the eigenvalue-1
            # columns w_r of Z(x), A (x) Q(x) = sum_r (1 (x) w_r) A (1 (x) w_r)^dag,
            # so the right side is the state-side map of the family G (1 (x) w_r)
            # over the Kraus operators G of Gamma^E_xi
            xs = [x for x in inst.outcomes if x in qcols]
            worst = 0.0
            if xs:
                w = _stack_families([qcols[x].T for x in xs])
                g = maps.gamma_xi_e._kraus.reshape(-1, d, d, dA)
                lifted = np.einsum("gosa,xra->xgros", g, w).reshape(len(xs), -1, d, d)
                own = [inst.outcomes.index(x) for x in xs]
                worst = _dual_gap(lifted.conj().swapaxes(-1, -2), kraus[own])
            items["restriction-identity"] = ItemCheck(worst, worst <= tol.eq_tol)
        else:
            note = "pointer effects do not attain norm one"
            items["conjugate-pointer-support"] = ItemCheck(0.0, False, evaluated=False, note=note)
            items["restriction-identity"] = ItemCheck(0.0, False, evaluated=False, note=note)
    else:
        note = "requires a measurement scheme"
        for key in ("moment-identities", "pointer-projectors",
                    "conjugate-pointer-support", "restriction-identity"):
            items[key] = ItemCheck(0.0, False, evaluated=False, note=note)

    return RepeatabilityReport(
        outcomes=inst.outcomes,
        repeatable=bool(repeatable),
        repeatability_defect=float(repeat_defect),
        per_outcome_defects=per_outcome,
        first_kind=bool(first_kind),
        first_kind_defect=float(fk_defect),
        sharp_equivalence_ok=sharp_flag,
        items=items,
        items_applicable=bool(repeatable),
    )
