"""The stacked bound evaluators against a plain per-outcome loop.

The evaluators, the profiles and the Yanase report take each per-outcome
operator norm from one batched norm of a stack of outcomes
(``opcore.op_norms``).  The references here walk the outcomes one at a time
through numpy arithmetic on each effect matrix and ``op_norm``, the way the
evaluators were first written.  The arithmetic is the same, so every value
must agree exactly.  A last property reorders the declared outcomes and
matches rows by label, which catches a stack zipped with the wrong labels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab import Observable, OperationMap, Operator
from waylab.bounds import (
    disturbance_profile,
    error_profile,
    eval_distinguishability_bounds,
    eval_disturbance_bounds,
    eval_measurability_bounds,
    eval_way,
)
from waylab.conserve import (
    AdditiveQuantity,
    conservative_unitary,
    qfi,
    variance,
    yanase_conditions,
)
from waylab.cpmaps import apply_dual, apply_map
from waylab.measure import (
    MeasurementScheme,
    heisenberg_pointer,
    measured_observable,
    normal_dilation,
    restriction_maps,
    scheme_to_instrument,
    sharp_observable,
)
from waylab.opcore import (
    DEFAULT_TOL,
    _hermitian_parts,
    commutator,
    eigenspace_projector,
    op_norm,
)
from waylab.rand import haar_unitary, random_channel, random_hermitian, random_povm, random_state

SEEDS = st.integers(0, 2**32 - 1)
# conserving: a conserving unitary coupling, so full conservation holds and
# every Fisher-information row is emitted; dilation: a Lüders instrument of a
# sharp observable, repeatable, with the inputs in the extreme eigenspaces of
# one effect; channel: a three-Kraus coupling that conserves nothing
KINDS = st.sampled_from(["conserving", "dilation", "channel"])
DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)])
SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


def integer_spectrum(d, rng):
    while True:
        vals = rng.integers(-2, 3, size=d).astype(float)
        if vals.max() > vals.min():
            return np.diag(vals)


def scenario(seed, kind, dims):
    """A scheme, a probed observable, a quantity, a target and two inputs."""
    rng = np.random.default_rng(seed)
    ds, da = dims
    if kind == "dilation":
        h = random_hermitian(ds, rng).mat
        m = normal_dilation(sharp_observable(h))
        q = AdditiveQuantity(random_hermitian(ds, rng), random_hermitian(m.app_dim, rng))
        vecs = np.linalg.eigh(h)[1]
        psi, phi = vecs[:, 0], vecs[:, -1]
    else:
        if kind == "conserving":
            q = AdditiveQuantity(integer_spectrum(ds, rng), integer_spectrum(da, rng))
            coupling = OperationMap([conservative_unitary(q.composite(), rng, 1.5).mat])
        else:
            q = AdditiveQuantity(random_hermitian(ds, rng), random_hermitian(da, rng))
            coupling = random_channel(ds * da, n_kraus=3, rng=rng)
        xi = random_state(da, rng, rank=min(2, da))
        pointer = sharp_observable(random_hermitian(da, rng))
        m = MeasurementScheme(ds, da, xi, coupling, pointer)
        v = haar_unitary(ds, rng).mat
        psi, phi = v[:, 0], v[:, 1]
    f = Observable([f"f{i}" for i in range(3)], random_povm(ds, 3, rng))
    target = Observable(list(m.outcomes), random_povm(ds, len(m.outcomes), rng))
    return m, f, q, target, psi, phi


def effects(obs):
    """``(outcome, effect matrix)`` pairs of an observable."""
    return zip(obs.outcomes, (e.mat for e in obs.effects))


def unsharpness(eff):
    return op_norm(eff @ eff - eff)


def rows_by_key(reports):
    return {(r.bound_id, r.outcome): r for r in reports}


def assert_rows(reports, expected):
    """Each expected ``(bound_id, outcome) -> (lhs, rhs or None)`` is a row
    with exactly these sides; every row of a checked family is expected."""
    rows = rows_by_key(reports)
    families = {bound_id for bound_id, _ in expected}
    assert {k for k in rows if k[0] in families} == set(expected)
    for key, (lhs, rhs) in expected.items():
        assert rows[key].lhs == lhs, key
        if rhs is not None:
            assert rows[key].rhs == rhs, key


@given(seed=SEEDS, kind=KINDS, dims=DIMS)
@SETTINGS
def test_profiles_match_outcome_loop(seed, kind, dims):
    m, f, q, target, _, _ = scenario(seed, kind, dims)
    inst = scheme_to_instrument(m)
    prof = disturbance_profile(inst, f)
    assert prof.outcomes == f.outcomes
    total = inst.total()
    assert prof.norms == {y: op_norm(apply_dual(total, fy).mat - fy) for y, fy in effects(f)}
    assert prof.max_norm == max(prof.norms.values())
    measured = measured_observable(m)
    err = error_profile(m, target)
    assert err.norms == {x: op_norm(measured.effect(x).mat - tx) for x, tx in effects(target)}
    assert err.max_norm == max(err.norms.values())


@given(seed=SEEDS, kind=KINDS, dims=DIMS)
@SETTINGS
def test_coupled_pointer_matches_outcome_loop(seed, kind, dims):
    m, _, q, _, _, _ = scenario(seed, kind, dims)
    ds, da = m.sys_dim, m.app_dim
    eye_s = np.eye(ds)
    one_xi = np.kron(eye_s, m.xi)
    eye_c = np.eye(ds, dtype=complex)
    coupled = [apply_dual(m.coupling, np.kron(eye_c, zx)).mat for _, zx in effects(m.pointer)]
    # the apparatus factor traced out of each coupled effect times 1 (x) xi
    reduced = [
        _hermitian_parts(np.einsum("iaja->ij", (z @ one_xi).reshape(ds, da, ds, da)))
        for z in coupled
    ]
    for got, want in zip(measured_observable(m).effects, reduced):
        assert np.array_equal(got.mat, want)
    for got, want in zip(heisenberg_pointer(m).effects, coupled):
        assert np.array_equal(got.mat, _hermitian_parts(want))

    rep = yanase_conditions(m, q)
    n_comp = q.composite()
    assert rep.per_outcome_yanase == {
        x: op_norm(commutator(zx, q.n_app)) for x, zx in effects(m.pointer)
    }
    assert rep.per_outcome_weak == {
        x: op_norm(commutator(_hermitian_parts(z), n_comp))
        for x, z in zip(m.outcomes, coupled)
    }
    assert rep.yanase_defect == max(rep.per_outcome_yanase.values())
    assert rep.weak_defect == max(rep.per_outcome_weak.values())


@given(seed=SEEDS, kind=KINDS, dims=DIMS)
@SETTINGS
def test_disturbance_rows_match_outcome_loop(seed, kind, dims):
    m, f, q, _, _, _ = scenario(seed, kind, dims)
    inst = scheme_to_instrument(m)
    total = inst.total()

    def dual(a):
        return apply_dual(total, a).mat

    expected = {}
    for x, ex in effects(measured_observable(m)):
        for y, fy in effects(f):
            pair = f"({x},{y})"
            img, img_sq = dual(fy), dual(fy @ fy)
            delta = op_norm(dual(fy) - fy)
            sesq = op_norm(img_sq - img @ img)
            exact = op_norm(img_sq - fy @ fy)
            lhs = op_norm(commutator(ex, fy))
            ue, uf = np.sqrt(unsharpness(ex)), unsharpness(fy)
            expected["compat-commutator", pair] = (lhs, 2.0 * ue * np.sqrt(uf))
            expected["disturb-commutator", pair] = (lhs, delta + 2.0 * ue * np.sqrt(sesq))
            expected["disturb-commutator-nondisturbing", pair] = (
                lhs, 2.0 * ue * np.sqrt(exact)
            )
            expected["disturb-commutator-unsharpness", pair] = (
                lhs, delta + 2.0 * ue * np.sqrt(2.0 * delta + uf)
            )
    reports = eval_disturbance_bounds(m, f, q, assert_extremal=True)
    full = any(r.bound_id == "conserve-disturb-qfi" for r in reports)
    assert full == (kind == "conserving")
    for y, fy in effects(f):
        comm = commutator(fy, q.n_sys)
        lhs = op_norm(comm.mat - dual(comm))
        families = ["conserve-disturb-commutator", "conserve-disturb-commutator-nondisturbing",
                    "conserve-disturb-unsharpness"]
        if full:
            families += ["conserve-disturb-qfi", "conserve-disturb-qfi-extremal"]
        for bound_id in families:
            expected[bound_id, y] = (lhs, None)
    assert_rows(reports, expected)


@given(seed=SEEDS, kind=KINDS, dims=DIMS)
@SETTINGS
def test_measurability_rows_match_outcome_loop(seed, kind, dims):
    m, _, q, target, _, _ = scenario(seed, kind, dims)
    maps = restriction_maps(m)
    reports = eval_measurability_bounds(m, target, q, assert_extremal=True)
    full = kind == "conserving"
    qval = qfi(q.n_app, m.xi)
    expected = {}
    for x, tx in effects(target):
        transferred = apply_map(maps.conj_dual, commutator(m.pointer.effect(x), q.n_app))
        lhs = op_norm(commutator(tx, q.n_sys).mat - transferred.mat)
        expected["measure-error-commutator", x] = (lhs, None)
        if full:
            expected["measure-error-qfi", x] = (lhs, None)
            expected["measure-error-qfi-extremal", x] = (
                lhs, np.sqrt(qval) * np.sqrt(unsharpness(tx))
            )
    assert_rows(reports, expected)


@given(seed=SEEDS, kind=KINDS, dims=DIMS)
@SETTINGS
def test_way_rows_match_outcome_loop(seed, kind, dims):
    m, _, q, _, _, _ = scenario(seed, kind, dims)
    reports = eval_way(m, q)
    var_xi = variance(q.n_app, m.xi)
    expected = {}
    for x, ex in effects(measured_observable(m)):
        lhs = op_norm(commutator(ex, q.n_sys))
        ue = np.sqrt(unsharpness(ex))
        expected["way-weak-yanase-variance", x] = (lhs, 2.0 * np.sqrt(var_xi) * ue)
        expected["way-weak-yanase-qfi", x] = (lhs, None)
        if any(r.bound_id == "way-unsharpness" for r in reports):
            expected["way-unsharpness", x] = (lhs, None)
    assert_rows(reports, expected)


@given(seed=SEEDS, kind=KINDS, dims=DIMS)
@SETTINGS
def test_distinguishability_rows_match_outcome_loop(seed, kind, dims):
    m, _, q, _, psi, phi = scenario(seed, kind, dims)
    tol = DEFAULT_TOL
    e_obs = measured_observable(m)
    ns_norm = op_norm(q.n_sys)
    expected = {}
    for x, eff in effects(e_obs):
        a = op_norm(eff)
        b = 1.0 - op_norm(np.eye(m.sys_dim) - eff)
        if a - b <= tol.rank_tol:
            continue
        p_max = eigenspace_projector(eff, a).mat
        p_min = eigenspace_projector(eff, b).mat
        if (np.linalg.norm(psi - p_max @ psi) <= tol.rank_tol
                and np.linalg.norm(phi - p_min @ phi) <= tol.rank_tol):
            rhs = ns_norm * (
                np.sqrt(a) * np.sqrt(max(b, 0.0))
                + np.sqrt(max(1.0 - a, 0.0)) * np.sqrt(max(1.0 - b, 0.0))
            )
            expected["distinguish-norm-gap", x] = (abs(np.vdot(psi, q.n_sys @ phi)), rhs)
    reports = eval_distinguishability_bounds(m, q, psi, phi)
    if kind == "dilation":
        assert expected
    if any(r.bound_id == "repeat-commutant" for r in reports):
        p_total = np.zeros((m.sys_dim, m.sys_dim), dtype=complex)
        for eff in e_obs.effects:
            if op_norm(eff) > tol.rank_tol:
                p_total += eigenspace_projector(eff, 1.0).mat
        compressed = Operator(p_total @ q.n_sys @ p_total)
        for x, eff in effects(e_obs):
            expected["repeat-commutant", x] = (op_norm(commutator(eff, compressed)), 0.0)
    if kind == "dilation":
        assert ("repeat-commutant", e_obs.outcomes[0]) in expected
    assert_rows(reports, expected)


def permuted(obs, order):
    return Observable(
        [obs.outcomes[i] for i in order], [obs.effects[i] for i in order]
    )


@given(seed=SEEDS, kind=KINDS, dims=DIMS, data=st.data())
@SETTINGS
def test_rows_follow_labels_not_declaration_order(seed, kind, dims, data):
    m, f, q, target, psi, phi = scenario(seed, kind, dims)
    n = len(m.outcomes)
    f_order = data.draw(st.permutations(range(len(f.outcomes))))
    z_order = data.draw(st.permutations(range(n)))
    m2 = MeasurementScheme(
        m.sys_dim, m.app_dim, m.xi, m.coupling, permuted(m.pointer, z_order)
    )
    f2, target2 = permuted(f, f_order), permuted(target, z_order)

    def rows(m, f, target):
        return rows_by_key(
            eval_disturbance_bounds(m, f, q, assert_extremal=True)
            + eval_measurability_bounds(m, target, q, assert_extremal=True)
            + eval_way(m, q)
            + eval_distinguishability_bounds(m, q, psi, phi)
        )

    before, after = rows(m, f, target), rows(m2, f2, target2)
    assert set(before) == set(after)
    for key, r in before.items():
        assert abs(after[key].lhs - r.lhs) <= 1e-9, key
        assert abs(after[key].rhs - r.rhs) <= 1e-9, key
    y1, y2 = yanase_conditions(m, q), yanase_conditions(m2, q)
    for x in m.outcomes:
        assert abs(y1.per_outcome_yanase[x] - y2.per_outcome_yanase[x]) <= 1e-9
        assert abs(y1.per_outcome_weak[x] - y2.per_outcome_weak[x]) <= 1e-9
