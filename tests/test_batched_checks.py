"""The batched matrix-unit checks against a plain per-unit loop.

Each check is ``max_ij ||Psi(E_ij)||`` over the matrix units for a map
``Psi(X) = sum_m a_m X b_m`` given by its factor stacks, and goes through one
primitive, ``cpmaps._max_unit_norm``.  It has two paths: for a short family
(``2 M <= min(p, q)``) the norms come from products of ``M x M`` QR factors
and no image is built; otherwise the images are built by one GEMM per block
and reduced by one batched operator norm (``opcore.max_op_norm``).  The
reference here walks the units one at a time through the public
``apply_dual``/``apply_map`` and keeps the worst defect, the way the checks
were first written; both must agree to 1e-12 on random instruments,
channels and schemes, on both paths and on both sides of a map.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waylab import Instrument, Observable, OperationMap
from waylab.conserve import AdditiveQuantity, conservative_unitary
from waylab.cpmaps import _SCREEN_MIN, _max_unit_norm, _stack_families, apply_dual, apply_map
from waylab.fixpt import (
    analyze_fixed_points,
    check_minimal_support,
    structural_necessary_conditions,
)
from waylab.measure import (
    MeasurementScheme,
    _dual_gap,
    luders_instrument,
    measured_observable,
    normal_dilation,
    repeatability_report,
    restriction_maps,
    scheme_to_instrument,
    sharp_observable,
)
from waylab.opcore import (
    DEFAULT_TOL,
    _DIRECT_SVD,
    eigenspace_projector,
    max_op_norm,
    op_norm,
    op_norm_mat,
    psd_sqrt,
)
from waylab.rand import haar_unitary, random_channel, random_hermitian, random_povm, random_state

AGREE = 1e-12
DIMS = st.sampled_from([2, 3, 4])
SEEDS = st.integers(0, 2**32 - 1)
KINDS = st.sampled_from(["instrument", "norm-one", "scheme", "dilation"])
SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)


def units(d):
    for i in range(d):
        for j in range(d):
            a = np.zeros((d, d), dtype=complex)
            a[i, j] = 1.0
            yield a


def dual_total(inst, a):
    return sum(apply_dual(op, a).mat for op in inst.operations)


def eigen_one_projectors(obs, tol):
    """Eigenvalue-1 projectors of the effects that have one, and whether any
    effect of nonzero norm lacks one."""
    proj, missing = {}, False
    for x, eff in zip(obs.outcomes, obs.effects):
        if op_norm(eff) <= tol.rank_tol:
            continue
        p = eigenspace_projector(eff, 1.0, tol)
        if op_norm(p) <= tol.rank_tol:
            missing = True
        else:
            proj[x] = p.mat
    return proj, missing


def reference_items(inst, m, tol=DEFAULT_TOL):
    d = inst.dim
    e_obs = inst.induced_observable()
    ref = {"sandwich-own-effect": 0.0, "total-localizes": 0.0}
    for x, eff in zip(e_obs.outcomes, e_obs.effects):
        op, em = inst.operation(x), eff.mat
        for a in units(d):
            base = apply_dual(op, a).mat
            for probe in (em @ a, a @ em, em @ a @ em):
                own = apply_dual(op, probe).mat
                ref["sandwich-own-effect"] = max(
                    ref["sandwich-own-effect"], op_norm_mat(own - base)
                )
                ref["total-localizes"] = max(
                    ref["total-localizes"], op_norm_mat(dual_total(inst, probe) - own)
                )

    proj, _ = eigen_one_projectors(e_obs, tol)
    if proj:
        worst = 0.0
        for x, pm in proj.items():
            op = inst.operation(x)
            for a in units(d):
                worst = max(
                    worst, op_norm_mat(apply_dual(op, pm @ a @ pm).mat - apply_dual(op, a).mat)
                )
        ref["projector-sandwich"] = worst

    if m is not None:
        qproj, q_missing = eigen_one_projectors(m.pointer, tol)
        norms = [op_norm(z) for z in m.pointer.effects]
        worst = max((abs(1.0 - n) for n in norms if n > tol.rank_tol), default=0.0)
        for x, qm in qproj.items():
            for y, zy in zip(m.pointer.outcomes, m.pointer.effects):
                prod = qm @ zy.mat
                worst = max(worst, op_norm_mat(prod - qm if x == y else prod))
        ref["pointer-projectors"] = worst
        if qproj and not q_missing:
            maps = restriction_maps(m, tol)
            q_total = sum(qproj.values())
            worst = 0.0
            for b in units(m.app_dim):
                base = apply_dual(maps.conj_channel, b).mat
                sand = apply_dual(maps.conj_channel, q_total @ b @ q_total).mat
                worst = max(worst, op_norm_mat(sand - base))
            ref["conjugate-pointer-support"] = worst
            worst = 0.0
            for x, qm in qproj.items():
                for a in units(d):
                    lhs = apply_dual(inst.operation(x), a).mat
                    rhs = apply_map(maps.gamma_xi_e, np.kron(a, qm)).mat
                    worst = max(worst, op_norm_mat(rhs - lhs))
            ref["restriction-identity"] = worst
    return ref


def norm_one_effects(d, rng):
    """Two effects with eigenvalue 1 on one basis vector each of a random
    basis; the other basis vectors are shared at random weights, so for
    ``d > 2`` the effects are unsharp and their eigenvalue-1 projectors do
    not sum to the identity."""
    v = haar_unitary(d, rng).mat
    w = np.zeros((2, d))
    w[[0, 1], [0, 1]] = 1.0
    w[:, 2:] = rng.dirichlet([1.0, 1.0], size=d - 2).T
    return [v @ np.diag(w[x]) @ v.conj().T for x in range(2)]


def random_scheme(rng, d_sys, d_app):
    coupling = OperationMap([haar_unitary(d_sys * d_app, rng).mat])
    xi = random_state(d_app, rng, rank=min(2, d_app))
    pointer = Observable(["p0", "p1"], norm_one_effects(d_app, rng))
    return MeasurementScheme(d_sys, d_app, xi, coupling, pointer)


@given(seed=SEEDS, d_sys=DIMS, d_app=DIMS, kind=KINDS)
@example(seed=0, d_sys=12, d_app=3, kind="scheme")  # restriction-identity screened
@SETTINGS
def test_repeatability_items_match_unit_loop(seed, d_sys, d_app, kind):
    rng = np.random.default_rng(seed)
    m = None
    if kind == "instrument":
        kraus = random_channel(d_sys, d_sys, 3, rng).kraus
        inst = Instrument(["a", "b"], [OperationMap(kraus[:1]), OperationMap(kraus[1:])])
    elif kind == "norm-one":
        # effects with eigenvalue 1, each followed by a random unitary
        ops = [
            OperationMap([haar_unitary(d_sys, rng).mat @ psd_sqrt(e).mat])
            for e in norm_one_effects(d_sys, rng)
        ]
        inst = Instrument(["a", "b"], ops)
    else:
        if kind == "scheme":
            m = random_scheme(rng, d_sys, d_app)
        else:
            m = normal_dilation(sharp_observable(random_hermitian(d_sys, rng)))
        inst = scheme_to_instrument(m)
    rep = repeatability_report(inst, m)
    e_obs = inst.induced_observable()
    assert rep.per_outcome_defects == {
        x: op_norm(apply_dual(inst.operation(x), eff).mat - eff.mat)
        for x, eff in zip(e_obs.outcomes, e_obs.effects)
    }
    ref = reference_items(inst, m)
    assert ref, "the reference evaluated nothing"
    for key, value in ref.items():
        item = rep.items[key]
        assert item.evaluated, key
        assert abs(item.defect - value) <= AGREE, (key, item.defect, value)
    for key in ("projector-sandwich", "conjugate-pointer-support", "restriction-identity"):
        if key not in ref:
            assert not rep.items[key].evaluated, key


@pytest.mark.parametrize("kind", ["sharp", "unsharp"])
def test_total_localizes_at_d12_matches_unit_loop(kind):
    # the Lüders instrument of the luders-d12 benchmark's kind of observable
    # (images at rounding level), and of a 12-outcome unsharp one (images of
    # order one): the shared-factor screen against one unit at a time
    d = 12
    rng = np.random.default_rng(12)
    if kind == "sharp":
        u = haar_unitary(d, rng).mat
        effects = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
    else:
        effects = random_povm(d, d, rng)
    inst = luders_instrument(Observable([f"x{i}" for i in range(d)], effects))
    n_kraus = len(inst.total().kraus)
    assert 2 * n_kraus > d and 2 * len(effects) * d**4 > _SCREEN_MIN  # the screened path
    total = inst.total()
    expected = 0.0
    for x, eff in zip(inst.outcomes, inst.induced_observable().effects):
        op, em = inst.operation(x), eff.mat
        for a in units(d):
            for probe in (em @ a, em @ a @ em):  # the (E, 1) and (E, E) frames
                gap = apply_dual(total, probe).mat - apply_dual(op, probe).mat
                expected = max(expected, op_norm_mat(gap))
    got = repeatability_report(inst).items["total-localizes"].defect
    assert abs(got - expected) <= AGREE
    assert (expected < 1e-12) == (kind == "sharp")


def reference_pair_items(inst, tol=DEFAULT_TOL):
    """``projector-exclusivity`` and ``output-orthogonality``, one pair at a time."""
    d = inst.dim
    e_obs = inst.induced_observable()
    proj, _ = eigen_one_projectors(e_obs, tol)
    exclusivity = 0.0
    for x, pm in proj.items():
        for y, eff in zip(e_obs.outcomes, e_obs.effects):
            prod = pm @ eff.mat
            exclusivity = max(
                exclusivity, op_norm_mat(prod - pm) if x == y else op_norm_mat(prod)
            )
    rng = np.random.default_rng(171)  # the report's probe states
    probes = [np.eye(d) / d]
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        probes.append(rho / np.trace(rho))
    orthogonality = 0.0
    for rho in probes:
        outs = []
        for x in inst.outcomes:
            out = apply_map(inst.operation(x), rho).mat
            p = float(np.real(np.trace(out)))
            if p > tol.rank_tol:
                outs.append(out / p)
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                orthogonality = max(orthogonality, op_norm_mat(outs[i] @ outs[j]))
    return exclusivity, orthogonality


@given(seed=SEEDS, d=DIMS,
       kind=st.sampled_from(["instrument", "norm-one", "luders", "null-outcome", "single"]))
@SETTINGS
def test_pairwise_items_match_pair_loop(seed, d, kind):
    rng = np.random.default_rng(seed)
    kraus = random_channel(d, d, 3, rng).kraus
    if kind == "instrument":
        ops = [OperationMap(kraus[:1]), OperationMap(kraus[1:2]), OperationMap(kraus[2:])]
    elif kind == "norm-one":
        ops = [
            OperationMap([haar_unitary(d, rng).mat @ psd_sqrt(e).mat])
            for e in norm_one_effects(d, rng)
        ]
    elif kind == "luders":
        v = haar_unitary(d, rng).mat
        h = v @ np.diag(rng.integers(0, 3, size=d).astype(float)) @ v.conj().T
        ops = list(luders_instrument(sharp_observable(h)).operations)
    elif kind == "null-outcome":
        # an outcome that never occurs drops out of every probe's pairs, and
        # it comes first, so the projectors are not indexed like the effects
        ops = [OperationMap([np.zeros((d, d))])] + [
            OperationMap([psd_sqrt(e).mat]) for e in norm_one_effects(d, rng)
        ]
    else:
        ops = [OperationMap(kraus)]  # no pairs at all: both defects are 0.0
    inst = Instrument([f"x{i}" for i in range(len(ops))], ops)
    rep = repeatability_report(inst)
    exclusivity, orthogonality = reference_pair_items(inst)
    assert rep.items["projector-exclusivity"].defect == exclusivity
    assert rep.items["output-orthogonality"].defect == orthogonality


@given(seed=SEEDS, d=DIMS, extra=st.integers(0, 1), unital=st.booleans(), data=st.data())
@SETTINGS
def test_minimal_support_sandwich_matches_unit_loop(seed, d, extra, unital, data):
    # a channel into an r-dimensional subspace, in a random basis, so the
    # support projection P of its fixed states is a proper, complex projector,
    # or a mixture of unitaries, whose projector is the orthogonal one onto
    # its Kraus commutant; then a random projector in place of P, which moves
    # the defect from rounding level to order one
    rng = np.random.default_rng(seed)
    r = data.draw(st.integers(1, d - 1))
    u = haar_unitary(d, rng).mat
    if unital:
        phi = OperationMap([np.sqrt(0.5) * haar_unitary(d, rng).mat for _ in range(1 + extra)]
                           + [np.sqrt(0.5 - 0.5 * extra) * u])
    else:
        into = random_channel(d, r, -(-d // r) + extra, rng).kraus
        phi = OperationMap([u @ np.vstack([k, np.zeros((d - r, d))]) @ u.conj().T for k in into])
    analysis = analyze_fixed_points(phi)
    v = u[:, :r]
    for p in (analysis.support_p, v @ v.conj().T):
        moved = dataclasses.replace(analysis, support_p=p)
        worst = 0.0
        for a in units(d):
            worst = max(worst, op_norm(moved.average_dual(a) - moved.average_dual(p @ a @ p)))
        assert abs(check_minimal_support(moved, phi).sandwich_defect - worst) <= AGREE


@given(seed=SEEDS, d_sys=DIMS, d_app=DIMS, dilation=st.booleans())
@SETTINGS
def test_structural_luders_note_matches_unit_loop(seed, d_sys, d_app, dilation):
    rng = np.random.default_rng(seed)
    f = sharp_observable(random_hermitian(d_sys, rng))
    if dilation:
        m = normal_dilation(sharp_observable(random_hermitian(d_sys, rng)))
        d_app = m.app_dim
        q = AdditiveQuantity(np.zeros((d_sys, d_sys)), np.zeros((d_app, d_app)))
    else:
        q = AdditiveQuantity(
            np.diag(rng.integers(-2, 3, size=d_sys).astype(float)),
            np.diag(rng.integers(-2, 3, size=d_app).astype(float)),
        )
        u = conservative_unitary(q.composite(), rng, strength=1.5)
        xi = random_state(d_app, rng, rank=min(2, d_app))
        pointer = sharp_observable(random_hermitian(d_app, rng))
        m = MeasurementScheme(d_sys, d_app, xi, OperationMap([u.mat]), pointer)
    rep = structural_necessary_conditions(m, f, q)

    inst = scheme_to_instrument(m)
    ref = luders_instrument(measured_observable(m))
    worst = 0.0
    for x in inst.outcomes:
        for a in units(d_sys):
            diff = apply_map(inst.operation(x), a).mat - apply_map(ref.operation(x), a).mat
            worst = max(worst, op_norm_mat(diff))
    note = rep.conditions["luders-commutative-quantity"].note
    if worst <= DEFAULT_TOL.eq_tol:
        assert note == ""
    else:
        assert note == f"instrument differs from square-root form by {worst:.3e}"


STACK_KINDS = st.sampled_from(
    ["random", "rank-one", "zero", "single", "non-square", "tied-frobenius"]
)


def full_max_op_norm(stack):
    return float(np.linalg.norm(stack, 2, axis=(-2, -1)).max())


def random_stack(kind, n, d, rng):
    def ginibre(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "random":
        return ginibre(n, d, d)
    if kind == "rank-one":
        return ginibre(n, d, 1) @ ginibre(n, 1, d)
    if kind == "zero":
        return np.zeros((n, d, d), dtype=complex)
    if kind == "single":
        return ginibre(1, d, d)
    if kind == "non-square":
        return ginibre(n, d, d + 2)
    # equal Frobenius norms, different operator norms: the pruning keeps all
    # of them, and only their SVDs tell the maximum
    u = np.linalg.qr(ginibre(n, d, d))[0]
    s = rng.dirichlet(np.ones(d), size=n) ** 0.5
    return u * s[:, None, :]


@given(seed=SEEDS, kind=STACK_KINDS, n=st.integers(1, 40), d=st.integers(1, 6),
       lead=st.booleans())
@SETTINGS
def test_max_op_norm_equals_full_svd_bitwise(seed, kind, n, d, lead):
    stack = random_stack(kind, n, d, np.random.default_rng(seed))
    if lead:
        # extra leading axes, as the repeatability items pass them
        stack = stack[None].repeat(2, axis=0)
    assert max_op_norm(stack) == full_max_op_norm(stack)


def outcome(f, x):
    """``repr`` of ``f(x)``, or of what it raised (so nan matches nan)."""
    try:
        return repr(f(x))
    except Exception as exc:  # compared with the full expression's, not handled
        return repr(exc)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_max_op_norm_single_matrix_and_non_finite(bad):
    rng = np.random.default_rng(5)
    # the first shape of each pair takes the direct SVD, the second the
    # pruned path
    small, large = rng.standard_normal((4, 3)), rng.standard_normal((40, 30))
    assert large.size > _DIRECT_SVD * min(large.shape) >= _DIRECT_SVD * 3 >= small.size
    for m in (small, large):
        assert max_op_norm(m) == full_max_op_norm(m)
    for shape in ((5, 3, 3), (40, 6, 6)):
        stack = rng.standard_normal(shape)
        stack[2, 1, 1] = bad
        with np.errstate(invalid="ignore"):
            assert outcome(max_op_norm, stack) == outcome(full_max_op_norm, stack)
    assert stack.size > _DIRECT_SVD * 6
    stack[17, 0, 4] = np.inf if np.isnan(bad) else np.nan  # both kinds at once
    with np.errstate(invalid="ignore"):
        assert outcome(max_op_norm, stack) == outcome(full_max_op_norm, stack)


def test_max_op_norm_decomposes_no_zero_stack_and_no_matrix_twice(monkeypatch):
    decomposed = []  # matrices per np.linalg.svd call
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        decomposed.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for zero in (np.zeros((12, 12, 12), dtype=complex), np.zeros((40, 40))):
        assert zero.size > _DIRECT_SVD * min(zero.shape[-2:])
        assert max_op_norm(zero) == 0.0
    assert decomposed == []
    # Frobenius norms that do not separate: every matrix survives the pruning,
    # and the argmax, decomposed first, is not decomposed again among them
    tied = random_stack("tied-frobenius", 40, 6, np.random.default_rng(3))
    assert max_op_norm(tied) == full_max_op_norm(tied)
    assert decomposed == [1, 39]
    decomposed.clear()
    # one dominant matrix: its SVD alone decides
    separated = tied.copy()
    separated[7] *= 10.0
    assert max_op_norm(separated) == full_max_op_norm(separated)
    assert decomposed == [1]


def framed_factors(kraus, left, right, dual):
    """Factors of ``X -> I(L X R) - I(X)`` for the map ``I`` of the Kraus
    family ``kraus``: its dual ``sum K^dag . K`` or its state side
    ``sum K . K^dag``."""
    kh = kraus.conj().swapaxes(1, 2)
    outer, inner = (kh, kraus) if dual else (kraus, kh)
    return np.concatenate([outer @ left, -outer]), np.concatenate([right @ inner, inner])


@given(seed=SEEDS, d=st.sampled_from([2, 3, 4, 5, 6, 8]), k=st.integers(1, 3),
       dual=st.booleans(), kind=st.sampled_from(["channel", "restriction", "conjugate"]))
@example(seed=0, d=8, k=1, dual=True, kind="channel")  # factored: 2M = 4 <= 8
@example(seed=0, d=8, k=1, dual=False, kind="channel")
@example(seed=1, d=3, k=3, dual=True, kind="channel")  # materialized: 2M = 12 > 3
@example(seed=1, d=3, k=3, dual=False, kind="channel")
@SETTINGS
def test_max_unit_norm_matches_unit_loop(seed, d, k, dual, kind):
    rng = np.random.default_rng(seed)
    if kind == "channel":
        phi = random_channel(d, d, k, rng)
    else:
        # non-square, with the first k Kraus operators: S(x)A -> S and S -> A
        maps = restriction_maps(random_scheme(rng, min(d, 4), 2))
        phi = maps.gamma_xi_e if kind == "restriction" else maps.conj_channel
        phi = OperationMap(phi.kraus[:k])
    n = phi.out_dim if dual else phi.in_dim

    def ginibre():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    eye = np.eye(n)
    frames = [(ginibre(), eye), (eye, ginibre()), (ginibre(), ginibre())]
    kraus = np.array(phi.kraus)
    factors = [framed_factors(kraus, left, right, dual) for left, right in frames]
    got = _max_unit_norm(np.array([a for a, _ in factors]), np.array([b for _, b in factors]))

    apply = apply_dual if dual else apply_map
    expected = max(
        op_norm_mat(apply(phi, left @ a @ right).mat - apply(phi, a).mat)
        for left, right in frames
        for a in units(n)
    )
    assert abs(got - expected) <= AGREE * max(1.0, expected)


def total_localizes_factors(inst):
    """The factors of ``repeatability_report``'s ``total-localizes`` item: for
    each outcome ``x`` the dual of the other outcomes' Kraus family, framed
    by ``(E(x), 1)``, ``(1, E(x))`` and ``(E(x), E(x))``."""
    e = inst.induced_observable()._effects
    eye = np.eye(inst.dim)
    families = [op._kraus for op in inst.operations]
    a, b = [], []
    for x, ex in enumerate(e):
        others = np.concatenate([k for y, k in enumerate(families) if y != x])
        for left, right in ((ex, eye), (eye, ex), (ex, ex)):
            a.append(others.conj().swapaxes(1, 2) @ left)
            b.append(right @ others)
    return np.array(a), np.array(b)


def dense_unit_max(a, b):
    """The image ``U_i W_j`` of every unit, each the product of its own factor
    slices as ``_max_unit_norm``'s screen builds it, and the full SVD of
    each: the screen's maximum without the screen."""
    n_f, m, p, d = a.shape
    q = b.shape[-1]
    rows = a.transpose(0, 3, 2, 1).reshape(n_f, d * p, m)
    cols = b.reshape(n_f, m, d * q)
    return max(
        full_max_op_norm(rows[f, i * p : (i + 1) * p] @ cols[f, :, j * q : (j + 1) * q])
        for f in range(n_f) for i in range(d) for j in range(d)
    )


@given(seed=SEEDS, d=st.integers(3, 8), kind=st.sampled_from(["luders", "unsharp", "random"]))
@example(seed=0, d=3, kind="luders")  # few images: one GEMM, no screen
@example(seed=0, d=8, kind="luders")  # images at rounding level
@example(seed=0, d=7, kind="unsharp")  # images of order one
@example(seed=2, d=7, kind="luders")  # an odd size
@example(seed=2, d=5, kind="random")
@example(seed=1, d=8, kind="random")  # O(1) images over several rounds
@SETTINGS
def test_screened_max_unit_norm_matches_unit_loop(seed, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "luders":
        inst = luders_instrument(sharp_observable(random_hermitian(d, rng)))
    elif kind == "unsharp":
        n = d // 2 + 2
        inst = luders_instrument(Observable([f"x{i}" for i in range(n)], random_povm(d, n, rng)))
    else:
        n = d // 4 + 2
        kraus = random_channel(d, d, 2 * n, rng).kraus
        inst = Instrument([f"x{i}" for i in range(n)],
                          [OperationMap(kraus[2 * x : 2 * x + 2]) for x in range(n)])
    a, b = total_localizes_factors(inst)
    assert 2 * a.shape[1] > d  # the long-family path
    got = _max_unit_norm(a, b)
    expected = max(
        op_norm_mat(sum(a[f, m] @ unit @ b[f, m] for m in range(a.shape[1])))
        for f in range(len(a))
        for unit in units(d)
    )
    assert abs(got - expected) <= AGREE * max(1.0, expected)
    # the screen never drops the maximizer of the images it builds
    assert got == dense_unit_max(a, b)
    assert (got < 1e-12) == (kind == "luders")


@pytest.mark.parametrize("flat", [5, 6, 7])
def test_screened_max_unit_norm_far_down_the_bound_order(flat):
    """Images ``U_i W_j`` with unitary ``W_j``: unitary ``U_i`` for
    ``i < flat`` (Frobenius norm ``sqrt(8)``, norm 1) and rank-one ``U_i`` of
    norm 1.5 and less after them, so the maximum lies behind all
    ``9 * 8 * flat`` flat images in the screen's order and is reached only
    after several doubling rounds (at a rank that varies with ``flat``)."""
    rng = np.random.default_rng(flat)
    d, n_f = 8, 9
    a, b = [], []
    for _ in range(n_f):
        u = np.array([haar_unitary(d, rng).mat for _ in range(d)])
        for i in range(flat, d):
            x, y = haar_unitary(d, rng).mat[:, 0], haar_unitary(d, rng).mat[0]
            u[i] = (1.5 - 0.1 * (i - flat)) * np.outer(x, y)
        w = np.array([haar_unitary(d, rng).mat for _ in range(d)])
        a.append(u.transpose(2, 1, 0))  # a[f, m][:, i] is column m of U_i
        b.append(w.transpose(1, 0, 2))  # b[f, m][j, :] is row m of W_j
    a, b = np.array(a), np.array(b)
    assert n_f * d**4 > _SCREEN_MIN  # the screened path
    got = _max_unit_norm(a, b)
    assert abs(got - 1.5) <= AGREE
    assert got == dense_unit_max(a, b)


@pytest.mark.parametrize("n_f,m", [(3, 2), (1, 6), (9, 6)])  # factored, one GEMM, screened
def test_max_unit_norm_shares_the_left_factor(n_f, m):
    # several right stacks against one left stack: the adjoint of the left
    # one (None), a stack shared by every f and a stack per f, each against
    # its explicit single-stack maximum and the GEMM of all images
    rng = np.random.default_rng(n_f * 10 + m)
    d = 8

    def ginibre(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = ginibre(n_f, m, d, d)
    adjoint = a.conj().swapaxes(-1, -2)
    shared, own = ginibre(1, m, d, d), ginibre(n_f, m, d, d)
    spread = np.broadcast_to(shared, own.shape)
    for b, explicit in ((None, adjoint), (shared, spread), (own, own)):
        got = _max_unit_norm(a, b)
        assert abs(got - _max_unit_norm(a, explicit)) <= AGREE * got
        assert abs(got - dense_unit_max(a, explicit)) <= AGREE * got
    both = _max_unit_norm(a, None, shared, own)
    assert both == max(_max_unit_norm(a, b) for b in (None, shared, own))
    assert _max_unit_norm(a, None, own, worst=2 * both) == 2 * both


@pytest.mark.parametrize("shape", [(0, 2, 3, 3), (2, 0, 3, 3), (3, 0, 8, 8)])
def test_max_unit_norm_of_no_map_is_zero(shape):
    f, m, p, d = shape
    assert _max_unit_norm(np.zeros(shape, complex), np.zeros((f, m, d, p), complex)) == 0.0


def stacked_unit_images(kraus, left, right):
    """The dual images of ``L E_ij R`` for every matrix unit as one
    ``(d * d, d, d)`` stack (entry ``i * d + j``), from one GEMM over the
    Kraus axis: the materialized form the matrix-unit checks had before
    they were written as factors."""
    a = kraus.conj().swapaxes(1, 2) @ left
    b = right @ kraus
    n, p, d = a.shape
    q = b.shape[2]
    images = a.transpose(2, 1, 0).reshape(d * p, n) @ b.reshape(n, d * q)
    return images.reshape(d, p, d, q).transpose(0, 2, 1, 3).reshape(d * d, p, q)


def stacked_items(inst):
    """``sandwich-own-effect``, ``total-localizes`` (as ``total - own``) and
    ``projector-sandwich`` from materialized unit-image stacks."""
    d = inst.dim
    eye = np.eye(d)
    e_obs = inst.induced_observable()
    total = np.array(inst.total().kraus)
    sandwich = localizes = 0.0
    for x, eff in zip(e_obs.outcomes, e_obs.effects):
        own_kraus = np.array(inst.operation(x).kraus)
        base = stacked_unit_images(own_kraus, eye, eye)
        for left, right in ((eff.mat, eye), (eye, eff.mat), (eff.mat, eff.mat)):
            own = stacked_unit_images(own_kraus, left, right)
            sandwich = max(sandwich, full_max_op_norm(own - base))
            localizes = max(
                localizes, full_max_op_norm(stacked_unit_images(total, left, right) - own)
            )
    proj, _ = eigen_one_projectors(e_obs, DEFAULT_TOL)
    projector = None
    for x, pm in proj.items():
        own_kraus = np.array(inst.operation(x).kraus)
        defect = full_max_op_norm(
            stacked_unit_images(own_kraus, pm, pm) - stacked_unit_images(own_kraus, eye, eye)
        )
        projector = max(projector or 0.0, defect)
    return sandwich, localizes, projector


@given(seed=SEEDS, d=st.sampled_from([2, 3, 4, 6, 8]),
       sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       norm_one=st.booleans())
@example(seed=3, d=8, sizes=[1, 1, 1], norm_one=False)  # factored own-effect items
@SETTINGS
def test_non_repeatable_items_match_stacked_images(seed, d, sizes, norm_one):
    # random instruments with Kraus families of different lengths (so the
    # outcomes are zero-padded to one length) are far from repeatable
    rng = np.random.default_rng(seed)
    kraus = random_channel(d, d, sum(sizes), rng).kraus
    ends = np.cumsum(sizes)
    ops = [OperationMap(kraus[end - k : end]) for k, end in zip(sizes, ends)]
    if norm_one:
        # effects with eigenvalue 1, so projector-sandwich is evaluated
        ops = [
            OperationMap([haar_unitary(d, rng).mat @ psd_sqrt(e).mat])
            for e in norm_one_effects(d, rng)
        ]
    inst = Instrument([f"x{i}" for i in range(len(ops))], ops)
    rep = repeatability_report(inst)
    assert rep.repeatability_defect > 1e-3
    sandwich, localizes, projector = stacked_items(inst)
    assert max(sandwich, localizes) > 1e-3
    assert abs(rep.items["sandwich-own-effect"].defect - sandwich) <= AGREE
    assert abs(rep.items["total-localizes"].defect - localizes) <= AGREE
    if projector is None:
        assert not rep.items["projector-sandwich"].evaluated
    else:
        assert abs(rep.items["projector-sandwich"].defect - projector) <= AGREE


@given(seed=SEEDS, d=st.integers(2, 6), sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4))
@SETTINGS
def test_adjoint_frames_have_one_maximum(seed, d, sizes):
    # repeatability_report drops the (1, E(x)) frame of its own-effect and
    # total-localizes items: E(x) is exactly Hermitian, so that frame's image
    # of E_ij is the adjoint of the (E(x), 1) frame's image of E_ji
    rng = np.random.default_rng(seed)
    kraus = random_channel(d, d, sum(sizes), rng).kraus
    ends = np.cumsum(sizes)
    inst = Instrument([f"x{i}" for i in range(len(sizes))],
                      [OperationMap(kraus[end - k : end]) for k, end in zip(sizes, ends)])
    own = _stack_families([op._kraus for op in inst.operations])
    others = _stack_families([np.delete(np.array(kraus), np.s_[end - k : end], axis=0)
                              for k, end in zip(sizes, ends)])
    e = inst.induced_observable()._effects
    rep = repeatability_report(inst)
    for item, first, second in (("sandwich-own-effect", own, own),
                                ("total-localizes", others, others[:, :0])):
        left_frame = _dual_gap(first, second, e)
        assert abs(_dual_gap(first, second, None, (e,)) - left_frame) <= AGREE
        # E as R: the explicit right factor R F, not the adjoint of the left
        # one ("adjoint"), which the report's total-localizes item takes
        both = _dual_gap(first, second, e, (e,))
        assert abs(rep.items[item].defect - max(left_frame, both)) <= AGREE
    assert abs(_dual_gap(others, others[:, :0], e, ("adjoint",)) - both) <= AGREE
    with pytest.raises(ValueError, match="adjoint frame"):
        _dual_gap(own, own, e, ("adjoint",))
