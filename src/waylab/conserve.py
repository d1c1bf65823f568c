"""Additive conserved quantities and how well channels respect them.

Average conservation of ``N`` under a channel ``Phi`` means ``Phi*(N) = N``;
full conservation additionally requires ``Phi*(N^2) = N^2`` (which forces
all higher moments).  For unitary channels both notions collapse to
``[U, N] = 0``, and :func:`check_unitary_equivalence` verifies the three
defects agree on zero versus nonzero.

:func:`qfi` is the quantum Fisher information of ``exp(-itN)`` encoding in
the symmetric-logarithmic-derivative closed form; pure states give four
times the variance and states commuting with ``N`` give zero.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from .cpmaps import OperationMap, _apply, _per_object
from .measure import MeasurementScheme, Observable, heisenberg_pointer
from .opcore import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    _checked,
    _commutators,
    _hermitian_parts,
    eigen_clusters,
    is_hermitian,
    is_state,
    is_unitary,
    op_norm_mat,
    op_norms,
)
from .reporting import Record

__all__ = [
    "AdditiveQuantity",
    "ConservationReport",
    "UnitaryConservationReport",
    "YanaseReport",
    "check_conservation",
    "check_unitary_equivalence",
    "variance",
    "qfi",
    "conservative_unitary",
    "yanase_conditions",
]


@dataclasses.dataclass(frozen=True, eq=False)
class AdditiveQuantity:
    """System and apparatus parts of an additively conserved quantity, each a
    read-only array, Hermitian to within ``tol``.  Equality is identity: the
    derivations cached per quantity (:func:`cpmaps._per_object`) key on it."""

    n_sys: np.ndarray
    n_app: np.ndarray
    tol: Tolerance = dataclasses.field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self) -> None:
        for name in ("n_sys", "n_app"):
            object.__setattr__(self, name, _require_hermitian(getattr(self, name), self.tol, name))

    def composite(self) -> np.ndarray:
        """``N = n_sys (x) 1 + 1 (x) n_app`` with the system slowest, read-only."""
        ds, da = len(self.n_sys), len(self.n_app)
        n = np.kron(self.n_sys, np.eye(da)) + np.kron(np.eye(ds), self.n_app)
        n.setflags(write=False)
        return n


@dataclasses.dataclass(frozen=True)
class ConservationReport(Record):
    average_defect: float
    full_defect: float
    average_holds: bool
    full_holds: bool


def _require_hermitian(n: Any, tol: Tolerance, what: str) -> np.ndarray:
    m = _checked(n)
    if not is_hermitian(m, tol):
        raise ValueError(f"{what} must be Hermitian")
    return m


def check_conservation(
    phi: OperationMap, n: Any, tol: Tolerance = DEFAULT_TOL
) -> ConservationReport:
    """Defects ``||Phi*(N) - N||`` and ``||Phi*(N^2) - N^2||``.

    ``full_holds`` requires both moments; deciding on the first two moments
    suffices because higher moments then follow by induction.
    """
    n = _require_hermitian(n, tol, "conserved quantity")
    if not phi.is_channel(tol):
        raise ValueError("check_conservation requires a channel")
    if phi.in_dim != len(n) or phi.out_dim != len(n):
        raise ValueError(f"quantity dimension {len(n)} does not match channel "
                         f"({phi.out_dim}x{phi.in_dim})")
    return _conservation(phi, n, tol)


def _conservation(phi: OperationMap, n: np.ndarray, tol: Tolerance) -> ConservationReport:
    """:func:`check_conservation`'s report for inputs already checked: both
    moment defects from one kernel call on the stack ``[N, N^2]``."""
    moments = np.array([n, n @ n])
    avg, full = op_norms(_apply(phi, moments, True) - moments)
    average_holds = avg <= tol.eq_tol
    return ConservationReport(
        average_defect=float(avg),
        full_defect=float(full),
        average_holds=bool(average_holds),
        full_holds=bool(average_holds and full <= tol.eq_tol),
    )


@_per_object
def _scheme_conservation(
    m: MeasurementScheme, q: AdditiveQuantity, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, ConservationReport]:
    """``N = q.composite()`` and its :func:`check_conservation` report under the
    coupling, after checking that ``q`` lives on the spaces of ``m``."""
    dims = (len(q.n_sys), len(q.n_app))
    if dims != (m.sys_dim, m.app_dim):
        raise ValueError(f"quantity dimensions {dims} do not match the scheme "
                         f"({m.sys_dim}, {m.app_dim})")
    n_comp = q.composite()
    return n_comp, _conservation(m.coupling, n_comp, tol)


@dataclasses.dataclass(frozen=True)
class UnitaryConservationReport(Record):
    commutator_norm: float
    average_defect: float
    full_defect: float
    consistent: bool


def check_unitary_equivalence(
    u: Any, n: Any, tol: Tolerance = DEFAULT_TOL
) -> UnitaryConservationReport:
    """For unitary channels, ``[U, N] = 0``, average, and full conservation
    are one condition; report all three defects and whether they agree."""
    u = _checked(u)
    if not is_unitary(u, tol):
        raise ValueError("check_unitary_equivalence requires a unitary")
    n = _require_hermitian(n, tol, "conserved quantity")
    if u.shape != n.shape:
        raise ValueError("dimension mismatch between unitary and quantity")
    comm = op_norm_mat(_commutators(u, n))
    report = _conservation(OperationMap([u]), n, tol)
    flags = [comm <= tol.eq_tol, report.average_holds, report.full_holds]
    return UnitaryConservationReport(
        commutator_norm=float(comm),
        average_defect=report.average_defect,
        full_defect=report.full_defect,
        consistent=bool(all(flags) or not any(flags)),
    )


def _observable_and_state(n: Any, state: Any, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """A Hermitian ``n`` and a density operator ``state`` on one space, as arrays."""
    n, rho = _require_hermitian(n, tol, "observable"), _checked(state)
    if not is_state(rho, tol):
        raise ValueError("expected a density operator")
    if n.shape != rho.shape:
        raise ValueError("dimension mismatch between observable and state")
    return n, rho


def variance(n: Any, state: Any, tol: Tolerance = DEFAULT_TOL) -> float:
    n, rho = _observable_and_state(n, state, tol)
    m1 = float(np.real(np.trace(rho @ n)))
    m2 = float(np.real(np.trace(rho @ n @ n)))
    return max(m2 - m1 * m1, 0.0)


def qfi(n: Any, state: Any, tol: Tolerance = DEFAULT_TOL) -> float:
    """Quantum Fisher information of ``rho -> exp(-itN) rho exp(itN)``.

    Closed form ``2 sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) |<i|N|j>|^2`` over
    eigenpairs of the state, skipping pairs with ``l_i + l_j <= rank_tol``.
    """
    n, rho = _observable_and_state(n, state, tol)
    w, v = np.linalg.eigh(_hermitian_parts(rho))
    w = np.clip(w, 0.0, None)
    nmat = v.conj().T @ n @ v
    s = w[:, None] + w
    keep = s > tol.rank_tol
    diff = (w[:, None] - w)[keep]
    return 2.0 * float(np.sum(diff * diff / s[keep] * np.abs(nmat[keep]) ** 2))


def conservative_unitary(
    n: Any,
    rng: np.random.Generator,
    strength: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> Operator:
    """Random unitary commuting with ``n``.

    Samples a Hermitian generator block-diagonal in the eigenspaces of ``n``
    (eigenvalues clustered at ``rank_tol`` gaps) and exponentiates it block
    by block, each block through its own ``eigh``.  One Newton-Schulz step
    ``U (3 - U^dag U) / 2`` towards the unitary polar factor then takes
    ``||U^dag U - 1||`` to the rounding of one product.
    """
    n = _require_hermitian(n, tol, "conserved quantity")
    w, v = np.linalg.eigh(_hermitian_parts(n))
    d = len(n)
    e = np.zeros((d, d), dtype=complex)
    for idx in eigen_clusters(w, tol.rank_tol):
        k = len(idx)
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        theta, basis = np.linalg.eigh(0.5 * strength * (z + z.conj().T))
        e[np.ix_(idx, idx)] = (basis * np.exp(1j * theta)) @ basis.conj().T
    u = v @ e @ v.conj().T
    return Operator(0.5 * u @ (3.0 * np.eye(d) - u.conj().T @ u))


@dataclasses.dataclass(frozen=True)
class YanaseReport(Record):
    """Pointer-compatibility diagnostics for a scheme and quantity.

    ``yanase_defect`` is ``max_x ||[Z(x), N_A]||`` (pointer commutes with the
    apparatus part); ``weak_defect`` is ``max_x ||[Z^tau(x), N]||`` for the
    coupled pointer against the composite quantity.  For a unitary coupling
    that conserves ``N`` on average the two conditions are equivalent and the
    report records whether the computed defects agree.  The per-outcome maps
    are read-only: :func:`yanase_conditions` hands one cached report to every
    caller.
    """

    yanase_defect: float
    weak_defect: float
    per_outcome_yanase: Mapping[str, float]
    per_outcome_weak: Mapping[str, float]
    unitary_coupling: bool
    average_conserving: bool
    equivalence_applicable: bool
    equivalence_consistent: bool | None
    defect_gap: float | None


def _commutator_norms(obs: Observable, n: np.ndarray) -> Mapping[str, float]:
    """``||[E(x), n]||`` per outcome of ``obs``, from one stack, read-only."""
    return MappingProxyType(dict(zip(obs.outcomes, op_norms(_commutators(obs._effects, n)))))


@_per_object
def yanase_conditions(
    m: MeasurementScheme, q: AdditiveQuantity, tol: Tolerance = DEFAULT_TOL
) -> YanaseReport:
    """The :class:`YanaseReport`, cached on ``m`` per quantity and tolerance."""
    n_comp, cons = _scheme_conservation(m, q, tol)
    per_y = _commutator_norms(m.pointer, q.n_app)
    per_w = _commutator_norms(heisenberg_pointer(m), n_comp)
    yanase = max(per_y.values())
    weak = max(per_w.values())

    unitary = len(m.coupling) == 1 and is_unitary(m.coupling._kraus[0], tol)
    average = cons.average_holds
    applicable = unitary and average
    consistent: bool | None = None
    gap: float | None = None
    if applicable:
        consistent = (yanase <= tol.eq_tol) == (weak <= tol.eq_tol)
        gap = float(abs(yanase - weak))
    return YanaseReport(
        yanase_defect=float(yanase),
        weak_defect=float(weak),
        per_outcome_yanase=per_y,
        per_outcome_weak=per_w,
        unitary_coupling=bool(unitary),
        average_conserving=bool(average),
        equivalence_applicable=bool(applicable),
        equivalence_consistent=consistent,
        defect_gap=gap,
    )
