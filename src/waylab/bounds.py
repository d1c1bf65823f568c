"""Quantitative trade-off bounds as BoundReport records.

Four evaluators cover the inequality families:

``eval_disturbance_bounds``
    how much measuring one observable disturbs another, with and without an
    additive conserved quantity;
``eval_measurability_bounds``
    how well a scheme approximates a target observable under conservation;
``eval_way``
    unconditional obstructions to sharp measurements of operators that do
    not commute with the conserved quantity (repeatable/Yanase and
    weak-Yanase routes);
``eval_distinguishability_bounds``
    fidelity and norm-gap limits on connecting orthogonal states through a
    measurement.

Each report records both sides, the slack, and whether the statement's
hypotheses held for the supplied inputs; hypothesis failures are flags, not
errors, except for the structural preconditions spelled out per function.
QFI-based bounds that are only stated under full conservation are skipped
entirely when full conservation fails.

One record type, :class:`Profile` (``outcomes``, ``norms``, ``max_norm``),
holds the per-outcome gap norms of :func:`disturbance_profile` and
:func:`error_profile`.  Every per-outcome quantity is computed on the stack
of all outcomes: one Kraus application or matrix product and one batched
norm, in declaration order.  Each bound is then one array expression for its
right side, and :func:`_rows` turns the families of an evaluator into rows,
interleaved per outcome (per ``(x,y)`` pair, x-major, for the pair families).
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .conserve import (
    AdditiveQuantity,
    _scheme_conservation,
    qfi,
    variance,
    yanase_conditions,
)
from .cpmaps import _apply, _per_object
from .measure import (
    Instrument,
    MeasurementScheme,
    Observable,
    _norm_one_projectors,
    _projectors,
    _scheme_repeat_first_kind,
    measured_observable,
    restriction_maps,
    scheme_to_instrument,
)
from .opcore import (
    DEFAULT_TOL,
    Tolerance,
    _commutators,
    _eigenspace_columns,
    _sv_max,
    fidelity,
    op_norm_mat,
    op_norms,
)
from .reporting import BoundReport, digest_inputs, make_report, summarize

__all__ = [
    "BoundReport",
    "summarize",
    "Profile",
    "disturbance_profile",
    "error_profile",
    "eval_disturbance_bounds",
    "eval_measurability_bounds",
    "eval_way",
    "eval_distinguishability_bounds",
]


@dataclasses.dataclass(frozen=True)
class Profile:
    """Per-outcome operator norms of a gap between two effect families: the
    disturbance ``delta(y) = I*_X(F(y)) - F(y)`` (:func:`disturbance_profile`)
    or the error ``eps(x) = Lambda*(Z(x)) - target(x)`` (:func:`error_profile`)."""

    outcomes: tuple[str, ...]
    norms: dict[str, float]
    max_norm: float


def _profile(outcomes: tuple[str, ...], gaps: np.ndarray) -> Profile:
    norms = dict(zip(outcomes, op_norms(gaps)))
    return Profile(outcomes=outcomes, norms=norms, max_norm=max(norms.values()))


def disturbance_profile(inst: Instrument, f: Observable) -> Profile:
    if inst.dim != f.dim:
        raise ValueError(
            f"instrument dimension {inst.dim} does not match observable dimension {f.dim}"
        )
    return _profile(f.outcomes, _apply(inst.total(), f._effects, True) - f._effects)


def error_profile(m: MeasurementScheme, target: Observable) -> Profile:
    if target.dim != m.sys_dim:
        raise ValueError(
            f"target dimension {target.dim} does not match system dimension {m.sys_dim}"
        )
    if target.outcomes != m.pointer.outcomes:
        raise ValueError(
            f"target outcomes {list(target.outcomes)} do not match pointer outcomes "
            f"{list(m.pointer.outcomes)}"
        )
    gaps = measured_observable(m)._effects - target._effects
    return _profile(target.outcomes, gaps)


@_per_object
def _gamma_moment_defect(
    m: MeasurementScheme, q: AdditiveQuantity, tol: Tolerance = DEFAULT_TOL
) -> float:
    """``|| Gamma^E_xi(N^2) - Gamma^E_xi(N)^2 ||`` for the composite ``N`` of ``q``."""
    n = _scheme_conservation(m, q, tol)[0]
    first, second = _apply(restriction_maps(m, tol).gamma_xi_e, np.array([n, n @ n]), False)
    return float(op_norm_mat(second - first @ first))


@_per_object
def _scheme_qfi(
    m: MeasurementScheme, q: AdditiveQuantity, tol: Tolerance = DEFAULT_TOL
) -> float:
    """:func:`conserve.qfi` of the apparatus quantity ``N_A`` in ``xi``."""
    return qfi(q.n_app, m.xi, tol)


def _scheme_digest_items(m: MeasurementScheme) -> list:
    return [
        m.sys_dim,
        m.app_dim,
        m.xi,
        list(m.coupling.kraus),
        list(m.pointer.outcomes),
        list(m.pointer._effects),
    ]


def _rows(
    tol: Tolerance, digest: str, outcomes: Any, *families: tuple
) -> list[BoundReport]:
    """The rows of families that share their outcomes, one
    :func:`reporting.make_report` per outcome and family, the families
    interleaved per outcome.

    A family is ``(bound_id, lhs, rhs, hypothesis_satisfied, hypothesis)``.
    Each of its last four fields is one value for the whole family or an
    array of one value per outcome; ``outcomes`` may be a grid, such as the
    ``(x,y)`` labels of the pair families, and the fields broadcast against
    it, so rows come in its row-major order.
    """
    labels = np.asarray(outcomes, dtype=object)
    columns = [
        [np.broadcast_to(np.asarray(v, dtype=object), labels.shape).ravel() for v in fields]
        for _, *fields in families
    ]
    return [
        make_report(family[0], x, lhs[k], rhs[k], tol, digest, ok[k], hyp[k])
        for k, x in enumerate(labels.ravel())
        for family, (lhs, rhs, ok, hyp) in zip(families, columns)
    ]


def eval_disturbance_bounds(
    m: MeasurementScheme,
    f: Observable,
    q: AdditiveQuantity | None = None,
    assert_extremal: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> list[BoundReport]:
    """Commutation-disturbance trade-offs for the scheme's instrument.

    Always emitted, per outcome pair ``(x, y)`` of the measured and probed
    observables: the joint-measurability commutator bound (hypothesis:
    nondisturbance), the second-moment disturbance bound (no hypothesis),
    its exact-nondisturbance refinement (hypothesis: ``delta(y) = 0``), and
    the observable-level coarse bound (no hypothesis).  With a quantity
    ``q``: the conserved variants gated by average conservation, plus the
    Fisher-information forms, which are emitted only under full conservation
    (and the extremal one only when the caller asserts instrument
    extremality).
    """
    if f.dim != m.sys_dim:
        raise ValueError(
            f"observable dimension {f.dim} does not match system dimension {m.sys_dim}"
        )
    inst = scheme_to_instrument(m, tol)
    e_obs = measured_observable(m)
    digest_items = _scheme_digest_items(m) + [
        list(f.outcomes),
        list(f._effects),
        bool(assert_extremal),
    ]
    if q is not None:
        digest_items += [q.n_sys, q.n_app]
    digest = digest_inputs("disturbance", *digest_items)

    total = inst.total()
    fm, em = f._effects, e_obs._effects
    img, img_sq = np.split(_apply(total, np.concatenate([fm, fm @ fm]), True), 2)
    # per outcome y of f: ||delta(y)||, its unsharpness, ||I*_X(F^2) - I*_X(F)^2||
    # and ||I*_X(F^2) - F^2||
    dy, uf, sesq, exact = _sv_max(
        np.stack([img - fm, fm @ fm - fm, img_sq - img @ img, img_sq - fm @ fm])
    )
    max_dy = dy.max()
    undisturbed = dy <= tol.eq_tol
    delta_hyp = [f"delta(y) = 0 (||delta(y)|| = {v:.3e})" for v in dy]

    # per pair (x, y), x-major: the outcome grid broadcasts x down, y across
    pairs = [[f"({x},{y})" for y in f.outcomes] for x in e_obs.outcomes]
    lhs = _sv_max(_commutators(em[:, None], fm))
    cross = 2.0 * np.sqrt(_sv_max(em @ em - em))[:, None]
    reports = _rows(
        tol, digest, pairs,
        (
            "compat-commutator", lhs, cross * np.sqrt(uf), max_dy <= tol.eq_tol,
            f"joint measurability via nondisturbance (max ||delta|| = {max_dy:.3e})",
        ),
        ("disturb-commutator", lhs, dy + cross * np.sqrt(sesq), True, ""),
        ("disturb-commutator-nondisturbing", lhs, cross * np.sqrt(exact), undisturbed, delta_hyp),
        ("disturb-commutator-unsharpness", lhs, dy + cross * np.sqrt(2.0 * dy + uf), True, ""),
    )
    if q is None:
        return reports

    cons = _scheme_conservation(m, q, tol)[1]
    base = 2.0 * op_norm_mat(q.n_sys) * dy
    gamma_cross = 2.0 * np.sqrt(_gamma_moment_defect(m, q, tol))
    avg_hyp = f"average conservation (defect = {cons.average_defect:.3e})"
    comm = _commutators(fm, q.n_sys)
    lhs = _sv_max(comm - _apply(total, comm, True))
    reports += _rows(
        tol, digest, f.outcomes,
        (
            "conserve-disturb-commutator", lhs, base + gamma_cross * np.sqrt(sesq),
            cons.average_holds, avg_hyp,
        ),
        (
            "conserve-disturb-commutator-nondisturbing", lhs,
            base + gamma_cross * np.sqrt(exact), cons.average_holds & undisturbed,
            [avg_hyp + " + " + h for h in delta_hyp],
        ),
        (
            "conserve-disturb-unsharpness", lhs, base + gamma_cross * np.sqrt(2.0 * dy + uf),
            cons.average_holds, avg_hyp,
        ),
    )
    if cons.full_holds:
        qval = _scheme_qfi(m, q, tol)
        full_hyp = f"full conservation (defect = {cons.full_defect:.3e})"
        families = [("conserve-disturb-qfi", lhs, base + 0.5 * np.sqrt(qval), True, full_hyp)]
        if assert_extremal:
            families.append((
                "conserve-disturb-qfi-extremal", lhs, base + np.sqrt(qval) * np.sqrt(sesq), True,
                full_hyp + " + caller-asserted extremal instrument",
            ))
        reports += _rows(tol, digest, f.outcomes, *families)
    return reports


def eval_measurability_bounds(
    m: MeasurementScheme,
    target: Observable,
    q: AdditiveQuantity,
    assert_extremal: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> list[BoundReport]:
    """Error trade-offs for approximating ``target`` under conservation.

    Per outcome: the commutator transfer bound (hypothesis: average
    conservation) and, under full conservation only, the Fisher-information
    bound plus its extremal ``eps = 0`` refinement when requested.
    """
    prof = error_profile(m, target)
    cons = _scheme_conservation(m, q, tol)[1]
    maps = restriction_maps(m, tol)
    gamma_cross = 2.0 * np.sqrt(_gamma_moment_defect(m, q, tol))
    digest = digest_inputs(
        "measurability",
        *_scheme_digest_items(m),
        list(target.outcomes),
        list(target._effects),
        q.n_sys,
        q.n_app,
        bool(assert_extremal),
    )
    tm = target._effects
    # error_profile checked that target and pointer share their outcome order
    pointer_comm = _commutators(m.pointer._effects, q.n_app)
    transferred = _apply(maps.conj_dual, pointer_comm, False)
    # per outcome x: ||eps(x)||, the target's unsharpness, the lhs
    eps = np.array(list(prof.norms.values()))
    ut, lhs = _sv_max(np.stack([tm @ tm - tm, _commutators(tm, q.n_sys) - transferred]))
    base = 2.0 * op_norm_mat(q.n_sys) * eps
    reports = _rows(
        tol, digest, target.outcomes,
        (
            "measure-error-commutator", lhs, base + gamma_cross * np.sqrt(2.0 * eps + ut),
            cons.average_holds, f"average conservation (defect = {cons.average_defect:.3e})",
        ),
    )
    if cons.full_holds:
        qval = _scheme_qfi(m, q, tol)
        full_hyp = f"full conservation (defect = {cons.full_defect:.3e})"
        families = [("measure-error-qfi", lhs, base + 0.5 * np.sqrt(qval), True, full_hyp)]
        if assert_extremal:
            families.append((
                "measure-error-qfi-extremal", lhs, np.sqrt(qval) * np.sqrt(ut), eps <= tol.eq_tol,
                [
                    full_hyp + " + caller-asserted extremal target + exact measurement "
                    f"(||eps(x)|| = {v:.3e})"
                    for v in eps
                ],
            ))
        reports += _rows(tol, digest, target.outcomes, *families)
    return reports


def eval_way(
    m: MeasurementScheme, q: AdditiveQuantity, tol: Tolerance = DEFAULT_TOL
) -> list[BoundReport]:
    """Measurability obstructions for the scheme's own measured observable.

    The unsharpness bound (repeatable-or-Yanase route) is emitted only when
    one disjunct holds within ``eq_tol``; its hypothesis flag additionally
    records average conservation.  The weak-Yanase variance and Fisher forms
    are always emitted with the weak Yanase condition as hypothesis; the
    target here is the measured observable itself, so the error terms of the
    general statements vanish identically.
    """
    e_obs = measured_observable(m)
    cons = _scheme_conservation(m, q, tol)[1]
    yan = yanase_conditions(m, q, tol)
    digest = digest_inputs("way", *_scheme_digest_items(m), q.n_sys, q.n_app)

    repeat_defect = _scheme_repeat_first_kind(m, tol)[0]
    repeatable = repeat_defect <= tol.eq_tol

    em = e_obs._effects
    # per outcome x: the measured effect's unsharpness and ||[E(x), N_S]||
    ue, lhs = _sv_max(np.stack([em @ em - em, _commutators(em, q.n_sys)]))
    reports: list[BoundReport] = []

    if repeatable or yan.yanase_defect <= tol.eq_tol:
        route = (
            f"repeatable instrument (defect = {repeat_defect:.3e})"
            if repeatable
            else f"pointer Yanase condition (defect = {yan.yanase_defect:.3e})"
        )
        reports += _rows(
            tol, digest, e_obs.outcomes,
            (
                "way-unsharpness", lhs,
                2.0 * np.sqrt(_gamma_moment_defect(m, q, tol)) * np.sqrt(ue),
                cons.average_holds,
                f"average conservation (defect = {cons.average_defect:.3e}) + {route}",
            ),
        )

    weak_ok = yan.weak_defect <= tol.eq_tol
    weak_hyp = f"weak Yanase condition (defect = {yan.weak_defect:.3e})"
    return reports + _rows(
        tol, digest, e_obs.outcomes,
        (
            "way-weak-yanase-variance", lhs,
            2.0 * np.sqrt(variance(q.n_app, m.xi, tol)) * np.sqrt(ue), weak_ok, weak_hyp,
        ),
        ("way-weak-yanase-qfi", lhs, 0.5 * np.sqrt(_scheme_qfi(m, q, tol)), weak_ok, weak_hyp),
    )


def eval_distinguishability_bounds(
    m: MeasurementScheme,
    q: AdditiveQuantity,
    psi: Any,
    phi: Any,
    thm7_outcome: str | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[BoundReport]:
    """Limits on coherently connecting two orthogonal input vectors.

    Emits the fidelity bound for the supplied pair (error if the vectors are
    not orthonormal), ``|<psi|N_S|phi>| <= ||N_A|| F_out + ||N_S|| F_conj``
    with the root fidelities ``F = tr|sqrt(rho) sqrt(sigma)|`` (square roots
    of ``opcore.fidelity``) of the two inputs' images under the measurement
    channel and under the conjugate channel; norm-gap bounds for every
    outcome whose extreme eigenspaces contain the pair (or the named
    ``thm7_outcome``, which raises if it names no outcome of the scheme or if
    membership fails); and, for repeatable instruments, the commutation check
    of each measured effect against the support-compressed system quantity.
    The extreme eigenspace projectors and the eigenvalue-1 projectors of the
    commutation check (``measure._norm_one_projectors``, as in the
    repeatability report) come from one batched ``eigh`` of the measured
    effects, which are exactly Hermitian by construction.
    """
    dS = m.sys_dim
    psi_v = np.asarray(psi, dtype=complex).reshape(-1)
    phi_v = np.asarray(phi, dtype=complex).reshape(-1)
    if psi_v.shape != (dS,) or phi_v.shape != (dS,):
        raise ValueError(f"vectors must have length {dS}")
    for name, v in (("psi", psi_v), ("phi", phi_v)):
        if abs(np.linalg.norm(v) - 1.0) > tol.eq_tol:
            raise ValueError(f"{name} is not normalized (norm {np.linalg.norm(v):.6f})")
    overlap = abs(np.vdot(psi_v, phi_v))
    if overlap > tol.eq_tol:
        raise ValueError(f"psi and phi are not orthogonal (|<psi|phi>| = {overlap:.3e})")
    if thm7_outcome is not None and thm7_outcome not in m.outcomes:
        raise ValueError(
            f"unknown outcome {thm7_outcome!r}; the scheme's outcomes are {list(m.outcomes)}"
        )

    inst = scheme_to_instrument(m, tol)
    e_obs = measured_observable(m)
    maps = restriction_maps(m, tol)
    cons = _scheme_conservation(m, q, tol)[1]
    digest = digest_inputs(
        "distinguishability", *_scheme_digest_items(m), q.n_sys, q.n_app, psi_v, phi_v
    )
    avg_hyp = f"average conservation (defect = {cons.average_defect:.3e})"

    inputs = np.array([np.outer(psi_v, psi_v.conj()), np.outer(phi_v, phi_v.conj())])
    out_fid = fidelity(*_apply(inst.total(), inputs, False), tol)
    conj_fid = fidelity(*_apply(maps.conj_channel, inputs, False), tol)
    lhs_overlap = float(abs(np.vdot(psi_v, q.n_sys @ phi_v)))
    ns_norm = op_norm_mat(q.n_sys)
    reports = _rows(
        tol, digest, [""],
        (
            "distinguish-fidelity", lhs_overlap,
            op_norm_mat(q.n_app) * np.sqrt(out_fid) + ns_norm * np.sqrt(conj_fid),
            cons.average_holds, avg_hyp,
        ),
    )

    repeat_defect, fk_defect = _scheme_repeat_first_kind(m, tol)
    em = e_obs._effects
    eig = spectra, vectors = np.linalg.eigh(em)

    def projector(k: int, value: float) -> np.ndarray:
        """:func:`opcore.eigenspace_projector` of effect ``k`` at ``value``."""
        cols = _eigenspace_columns(spectra[k], vectors[k], value, tol.rank_tol)
        return np.zeros((dS, dS), dtype=complex) if cols is None else cols @ cols.conj().T

    # a and b are the largest and smallest eigenvalues of each effect
    a, gap = _sv_max(np.stack([em, np.eye(dS) - em]))
    b = 1.0 - gap
    member = np.zeros(len(em), dtype=bool)
    for k, x in enumerate(e_obs.outcomes):
        if a[k] - b[k] <= tol.rank_tol:
            if x == thm7_outcome:
                raise ValueError(
                    f"outcome {x!r}: effect is trivial (max and min eigenvalues coincide)"
                )
            continue
        res_psi = float(np.linalg.norm(psi_v - projector(k, a[k]) @ psi_v))
        res_phi = float(np.linalg.norm(phi_v - projector(k, b[k]) @ phi_v))
        member[k] = res_psi <= tol.rank_tol and res_phi <= tol.rank_tol
        if not member[k] and x == thm7_outcome:
            raise ValueError(
                f"outcome {x!r}: psi/phi are outside the extreme eigenspaces "
                f"(residuals {res_psi:.3e}, {res_phi:.3e})"
            )
    reports += _rows(
        tol, digest, np.array(e_obs.outcomes, dtype=object)[member],
        (
            "distinguish-norm-gap", lhs_overlap,
            ns_norm * (
                np.sqrt(a) * np.sqrt(np.maximum(b, 0.0))
                + np.sqrt(np.maximum(1.0 - a, 0.0)) * np.sqrt(np.maximum(1.0 - b, 0.0))
            )[member],
            cons.average_holds and fk_defect <= tol.eq_tol,
            avg_hyp + f" + first-kind instrument (defect = {fk_defect:.3e})",
        ),
    )

    if repeat_defect <= tol.eq_tol:
        p_total = sum(
            _projectors(_norm_one_projectors(e_obs.outcomes, eig, tol)[0]).values(),
            np.zeros((dS, dS), dtype=complex),
        )
        compressed = p_total @ q.n_sys @ p_total
        reports += _rows(
            tol, digest, e_obs.outcomes,
            (
                "repeat-commutant", _sv_max(_commutators(em, compressed)), 0.0,
                cons.average_holds,
                avg_hyp + f" + repeatable instrument (defect = {repeat_defect:.3e})",
            ),
        )
    return reports
