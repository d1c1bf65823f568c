import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab import Observable, Operator, OperationMap, Tolerance, op_norm, tensor
from waylab.bounds import _gamma_moment_defect
from waylab.conserve import AdditiveQuantity, yanase_conditions
from waylab.cpmaps import apply_dual, apply_map, to_supermatrix
from waylab.fixpt import analyze_fixed_points
from waylab.measure import (
    Instrument,
    MeasurementScheme,
    _coupled_pointer,
    collapse_instrument,
    heisenberg_pointer,
    instrument_from_json,
    instrument_to_json,
    luders_instrument,
    measured_observable,
    normal_dilation,
    observable_from_json,
    observable_to_json,
    repeatability_report,
    restriction_maps,
    scheme_from_json,
    scheme_to_instrument,
    scheme_to_json,
    sharp_observable,
)
from waylab.rand import haar_unitary, random_hermitian
from waylab.serialize import SchemaError

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

# CNOT with the system as control, composite index i = i_S * dA + i_A
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


def unsharp_qubit(lam):
    plus = (np.eye(2) + lam * SX) / 2.0
    return Observable(["plus", "minus"], [plus, np.eye(2) - plus])


def cnot_scheme():
    pointer = Observable(["z0", "z1"], [P0, P1])
    return MeasurementScheme(2, 2, Operator(P0), OperationMap([CNOT]), pointer)


def test_observable_validation():
    with pytest.raises(ValueError, match="distinct"):
        Observable(["a", "a"], [P0, P1])
    with pytest.raises(ValueError, match="outcomes but"):
        Observable(["a"], [P0, P1])
    with pytest.raises(ValueError, match="at least one"):
        Observable([], [])
    with pytest.raises(ValueError, match="sum to the identity"):
        Observable(["a", "b"], [P0, 0.5 * P1])
    with pytest.raises(ValueError, match="not a valid effect"):
        Observable(["a", "b"], [1.5 * P0, np.eye(2) - 1.5 * P0])
    with pytest.raises(ValueError, match="share one dimension"):
        Observable(["a", "b"], [P0, np.eye(3)])


def test_observable_accessors():
    obs = unsharp_qubit(0.5)
    assert obs.outcomes == ("plus", "minus")
    assert len(obs) == 2
    np.testing.assert_allclose(obs.effect("minus").mat, (np.eye(2) - 0.5 * SX) / 2.0)
    with pytest.raises(KeyError):
        obs.effect("sideways")


def test_observable_predicates():
    sharp = Observable(["z0", "z1"], [P0, P1])
    assert sharp.is_sharp()
    assert sharp.is_commutative()
    assert sharp.is_norm_one()
    assert not sharp.is_trivial()
    # a zero effect does not break norm one
    assert Observable(["z0", "z1", "never"], [P0, P1, np.zeros((2, 2))]).is_norm_one()

    fuzzy = unsharp_qubit(0.5)
    assert not fuzzy.is_sharp()
    assert fuzzy.is_commutative()
    assert not fuzzy.is_norm_one()

    coin = Observable(["t0", "t1"], [0.3 * np.eye(2), 0.7 * np.eye(2)])
    assert coin.is_trivial()
    assert coin.is_commutative()


def loop_is_sharp(obs, tol):
    """``Observable.is_sharp`` as one SVD per outcome pair."""
    if not all(e.is_projection(tol) for e in obs.effects):
        return False
    mats = [e.mat for e in obs.effects]
    return all(
        op_norm(mats[i] @ mats[j]) <= tol.eq_tol
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    )


def loop_is_commutative(obs, tol):
    mats = [e.mat for e in obs.effects]
    return all(
        op_norm(mats[i] @ mats[j] - mats[j] @ mats[i]) <= tol.eq_tol
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    )


def loop_is_trivial(obs, tol):
    d = obs.dim
    return all(
        op_norm(e.mat - np.trace(e.mat) / d * np.eye(d)) <= tol.eq_tol for e in obs.effects
    )


def loop_is_norm_one(obs, tol):
    norms = [op_norm(e) for e in obs.effects]
    return all(n <= tol.rank_tol or abs(n - 1.0) <= tol.rank_tol for n in norms)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 4]),
    kind=st.sampled_from(["tilted", "perturbed"]),
    offset=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_pair_predicates_match_pair_loop(seed, d, kind, offset):
    # rank-one projectors of a random basis, with the second one tilted
    # toward the first, or with a Hermitian perturbation added to the first,
    # by offset * eq_tol: the pair norms sit on both sides of eq_tol
    tol = Tolerance()
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, rng).mat.copy()
    size = offset * tol.eq_tol
    if kind == "tilted" and d > 1:
        v[:, 1] = np.cos(size) * v[:, 1] + np.sin(size) * v[:, 0]
    effects = [np.outer(v[:, i], v[:, i].conj()) for i in range(d)]
    if kind == "perturbed":
        h = random_hermitian(d, rng).mat
        effects[0] = effects[0] + size * h / op_norm(h)
    obs = Observable([f"o{i}" for i in range(d)], effects, Tolerance(eq_tol=1e-6))
    assert obs.is_sharp(tol) == loop_is_sharp(obs, tol)
    assert obs.is_commutative(tol) == loop_is_commutative(obs, tol)
    assert obs.is_trivial(tol) == loop_is_trivial(obs, tol)
    assert obs.is_norm_one(tol) == loop_is_norm_one(obs, tol)


def test_sharp_observable_orders_by_eigenvalue():
    obs = sharp_observable(SZ)
    assert obs.outcomes == ("e0", "e1")
    np.testing.assert_allclose(obs.effect("e0").mat, P1, atol=1e-14)
    np.testing.assert_allclose(obs.effect("e1").mat, P0, atol=1e-14)

    degenerate = sharp_observable(np.diag([1.0, 1.0, -1.0]))
    assert degenerate.outcomes == ("e0", "e1")
    np.testing.assert_allclose(degenerate.effect("e0").mat, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(degenerate.effect("e1").mat, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    with pytest.raises(ValueError, match="Hermitian"):
        sharp_observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_luders_instrument_definition():
    obs = unsharp_qubit(0.6)
    inst = luders_instrument(obs)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    for x in obs.outcomes:
        sq = Operator(obs.effect(x).mat)
        w, v = np.linalg.eigh(sq.mat)
        root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        np.testing.assert_allclose(inst.apply(x, rho).mat, root @ rho @ root, atol=1e-12)
    assert inst.total().is_channel()
    induced = inst.induced_observable()
    for x in obs.outcomes:
        np.testing.assert_allclose(induced.effect(x).mat, obs.effect(x).mat, atol=1e-12)
    np.testing.assert_allclose(inst.apply_dual_total(np.eye(2)).mat, np.eye(2), atol=1e-12)


def test_collapse_instrument_definition():
    obs = Observable(["z0", "z1"], [P0, P1])
    inst = collapse_instrument(obs, [[1.0, 0.0], [0.0, 1.0]])
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    np.testing.assert_allclose(inst.apply("z0", rho).mat, 0.7 * P0, atol=1e-12)
    np.testing.assert_allclose(inst.apply("z1", rho).mat, 0.3 * P1, atol=1e-12)
    assert inst.total().is_channel()

    with pytest.raises(ValueError, match="one collapse vector per outcome"):
        collapse_instrument(obs, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="not normalized"):
        collapse_instrument(obs, [[2.0, 0.0], [0.0, 1.0]])


def test_instrument_validation():
    half = OperationMap([np.sqrt(0.5) * np.eye(2)])
    with pytest.raises(ValueError, match="channel"):
        Instrument(["a", "b"], [half, OperationMap([0.1 * np.eye(2)])])


def test_scheme_validation():
    pointer = Observable(["z0", "z1"], [P0, P1])
    coupling = OperationMap([CNOT])
    with pytest.raises(ValueError, match="density"):
        MeasurementScheme(2, 2, Operator(2.0 * P0), coupling, pointer)
    with pytest.raises(ValueError, match="composite"):
        MeasurementScheme(2, 3, Operator(np.diag([1.0, 0.0, 0.0])), coupling, pointer)
    with pytest.raises(ValueError, match="pointer dimension"):
        MeasurementScheme(
            2, 2, Operator(P0), coupling,
            Observable(["a"], [np.eye(3)]),
        )
    with pytest.raises(ValueError, match="channel"):
        MeasurementScheme(2, 2, Operator(P0), OperationMap([0.5 * CNOT]), pointer)


def test_scheme_derivations_are_cached_per_tolerance():
    m = cnot_scheme()
    tol = Tolerance(eq_tol=1e-9, rank_tol=1e-8)
    inst = scheme_to_instrument(m, tol)
    assert scheme_to_instrument(m, tol) is inst
    # the default tolerance is the same key, spelled out or not
    assert scheme_to_instrument(m) is inst
    assert scheme_to_instrument(m, tol=tol) is inst
    other = scheme_to_instrument(m, Tolerance(eq_tol=1e-7, rank_tol=1e-8))
    assert other is not inst
    assert measured_observable(m, tol) is measured_observable(m, tol)
    assert restriction_maps(m, tol) is restriction_maps(m, tol)
    assert heisenberg_pointer(m, tol) is heisenberg_pointer(m, tol)
    # another scheme with the same fields keeps its own derivations
    assert scheme_to_instrument(cnot_scheme(), tol) is not inst
    # the fixed-point analysis is cached the same way on the (immutable) map
    phi = inst.total()
    analysis = analyze_fixed_points(phi, tol)
    assert analyze_fixed_points(phi, tol) is analysis
    assert analyze_fixed_points(phi) is analysis
    assert analyze_fixed_points(phi, Tolerance(eq_tol=1e-7, rank_tol=1e-8)) is not analysis
    q = AdditiveQuantity(SZ / 2.0, SZ / 2.0)
    assert _gamma_moment_defect(m, q, tol) is _gamma_moment_defect(m, q, tol)
    assert _gamma_moment_defect(m, q) is _gamma_moment_defect(m, q, tol)
    yan = yanase_conditions(m, q, tol)
    assert yanase_conditions(m, q) is yan
    # the shared report cannot be edited by one caller under the next
    with pytest.raises(TypeError):
        yan.per_outcome_weak["z0"] = 1.0
    assert yanase_conditions(m, q, Tolerance(eq_tol=1e-7, rank_tol=1e-8)) is not yan
    assert yanase_conditions(m, AdditiveQuantity(SZ / 2.0, SZ / 2.0), tol) is not yan
    # the measured observable and the coupled pointer share one E*(1 (x) Z) stack
    for derive in (measured_observable, heisenberg_pointer):
        fresh = cnot_scheme()
        derive(fresh, tol)
        assert ("_coupled_pointer",) in fresh._memo
    coupled = _coupled_pointer(fresh)
    assert _coupled_pointer(fresh) is coupled and not coupled.flags.writeable


def test_scheme_is_immutable():
    m = cnot_scheme()
    for name, value in (
        ("xi", Operator(P1)),
        ("coupling", OperationMap([np.eye(4)])),
        ("pointer", m.pointer),
        ("sys_dim", 2),
        ("app_dim", 2),
    ):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, value)
    with pytest.raises(AttributeError, match="immutable"):
        del m.xi
    np.testing.assert_array_equal(m.xi.mat, P0)

    phi = scheme_to_instrument(m).total()
    for name in ("_kraus", "in_dim", "out_dim", "_memo"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(phi, name, getattr(phi, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(phi, name)
    # the cached analysis is shared, so its arrays are read-only
    analysis = analyze_fixed_points(phi)
    for a in (analysis.p_isometry, analysis.fixed_states, analysis.projector.m,
              *analysis.restricted_basis):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_cnot_scheme_is_luders_of_sharp_z():
    m = cnot_scheme()
    inst = scheme_to_instrument(m)
    assert inst.outcomes == ("z0", "z1")
    rho = np.array([[0.6, 0.3j], [-0.3j, 0.4]], dtype=complex)
    np.testing.assert_allclose(inst.apply("z0", rho).mat, P0 @ rho @ P0, atol=1e-12)
    np.testing.assert_allclose(inst.apply("z1", rho).mat, P1 @ rho @ P1, atol=1e-12)

    e = measured_observable(m)
    assert e.outcomes == ("z0", "z1")
    np.testing.assert_allclose(e.effect("z0").mat, P0, atol=1e-12)
    np.testing.assert_allclose(e.effect("z1").mat, P1, atol=1e-12)


def test_heisenberg_pointer_cnot():
    m = cnot_scheme()
    zt = heisenberg_pointer(m)
    assert zt.outcomes == ("z0", "z1")
    np.testing.assert_allclose(zt.effect("z0").mat, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(zt.effect("z1").mat, np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-12)
    # restricting the coupled pointer through the initial apparatus state
    # returns the measured observable
    maps = restriction_maps(m)
    e = measured_observable(m)
    for x in zt.outcomes:
        back = apply_map(maps.gamma_xi, zt.effect(x)).mat
        np.testing.assert_allclose(back, e.effect(x).mat, atol=1e-12)


def test_restriction_maps_identities():
    m = normal_dilation(unsharp_qubit(0.4))
    maps = restriction_maps(m)
    e = measured_observable(m)

    # the conjugate channel pulls pointer effects back to the measured POVM
    for x in m.pointer.outcomes:
        np.testing.assert_allclose(
            apply_dual(maps.conj_channel, m.pointer.effect(x)).mat,
            e.effect(x).mat,
            atol=1e-10,
        )

    # gamma_xi on a product observable contracts the apparatus factor
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    reduced = apply_map(maps.gamma_xi, tensor(a, b)).mat
    np.testing.assert_allclose(reduced, a * np.trace(b @ m.xi.mat), atol=1e-12)

    # gamma_xi_e composes the coupling dual with gamma_xi
    comp = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = apply_map(maps.gamma_xi_e, comp).mat
    rhs = apply_map(maps.gamma_xi, apply_dual(m.coupling, comp)).mat
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    # conjugate channel outputs apparatus states
    rho = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    out = apply_map(maps.conj_channel, rho)
    assert out.is_state()


def test_normal_dilation_realizes_luders():
    for obs in (
        unsharp_qubit(0.7),
        Observable(
            ["a", "b", "c"],
            [np.diag([0.7, 0.2, 0.1]), np.diag([0.2, 0.6, 0.3]), np.diag([0.1, 0.2, 0.6])],
        ),
    ):
        m = normal_dilation(obs)
        assert m.app_dim == len(obs.outcomes)
        assert m.pointer.outcomes == obs.outcomes
        assert m.pointer.is_sharp()
        np.testing.assert_allclose(m.xi.mat[0, 0], 1.0, atol=1e-14)
        assert abs(np.trace(m.xi.mat @ m.xi.mat) - 1.0) < 1e-12
        u = m.coupling.kraus[0]
        assert len(m.coupling.kraus) == 1
        np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)

        inst = scheme_to_instrument(m)
        ref = luders_instrument(obs)
        for x in obs.outcomes:
            got = to_supermatrix(inst.operation(x)).m
            want = to_supermatrix(ref.operation(x)).m
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_repeatability_unsharp_qubit_frozen():
    inst = luders_instrument(unsharp_qubit(0.5))
    rep = repeatability_report(inst)
    assert not rep.repeatable
    np.testing.assert_allclose(rep.repeatability_defect, 0.375, atol=1e-12)
    for x in ("plus", "minus"):
        np.testing.assert_allclose(rep.per_outcome_defects[x], 0.1875, atol=1e-12)
    assert rep.first_kind
    assert rep.first_kind_defect <= 1e-10
    assert rep.sharp_equivalence_ok is None
    assert not rep.items_applicable
    # apparatus-side items need a scheme
    for key in ("moment-identities", "pointer-projectors",
                "conjugate-pointer-support", "restriction-identity"):
        assert not rep.items[key].evaluated


def test_repeatability_sharp_collapse():
    obs = Observable(["z0", "z1"], [P0, P1])
    inst = collapse_instrument(obs, [[1.0, 0.0], [0.0, 1.0]])
    rep = repeatability_report(inst)
    assert rep.repeatable
    assert rep.repeatability_defect <= 1e-12
    assert rep.first_kind
    assert rep.sharp_equivalence_ok is True
    assert rep.items_applicable
    for key in ("sandwich-own-effect", "total-localizes", "norm-one-projectors",
                "projector-exclusivity", "projector-sandwich", "output-orthogonality"):
        item = rep.items[key]
        assert item.evaluated and item.passed, key


def test_repeatability_with_scheme_items():
    m = normal_dilation(sharp_observable(SZ))
    inst = scheme_to_instrument(m)
    rep = repeatability_report(inst, m)
    assert rep.repeatable
    assert rep.first_kind
    assert rep.sharp_equivalence_ok is True
    for key, item in rep.items.items():
        assert item.evaluated, key
        assert item.passed, (key, item.defect)
        assert item.defect <= 1e-9, key


def test_observable_json_roundtrip():
    obs = unsharp_qubit(0.3)
    back = observable_from_json(observable_to_json(obs))
    assert back.outcomes == obs.outcomes
    for x in obs.outcomes:
        np.testing.assert_allclose(back.effect(x).mat, obs.effect(x).mat, atol=0)

    with pytest.raises(SchemaError, match=r"observable\.outcomes"):
        observable_from_json({"outcomes": [], "effects": []})
    with pytest.raises(SchemaError, match=r"observable\.effects"):
        observable_from_json({"outcomes": ["a"], "effects": []})
    with pytest.raises(SchemaError, match="sum to the identity"):
        observable_from_json(
            {
                "outcomes": ["a"],
                "effects": [[[0.5, 0.0], [0.0, 0.5]]],
            }
        )


def test_instrument_json_roundtrip():
    inst = luders_instrument(unsharp_qubit(0.5))
    back = instrument_from_json(instrument_to_json(inst))
    assert back.outcomes == inst.outcomes
    for x in inst.outcomes:
        np.testing.assert_allclose(
            to_supermatrix(back.operation(x)).m,
            to_supermatrix(inst.operation(x)).m,
            atol=0,
        )
    with pytest.raises(SchemaError, match="one operation per outcome"):
        instrument_from_json({"outcomes": ["a", "b"], "operations": []})


def test_scheme_json_roundtrip():
    m = cnot_scheme()
    back = scheme_from_json(scheme_to_json(m), sys_dim=2)
    assert back.app_dim == 2
    np.testing.assert_allclose(back.xi.mat, m.xi.mat, atol=0)
    np.testing.assert_allclose(back.coupling.kraus[0], CNOT, atol=0)
    assert back.pointer.outcomes == ("z0", "z1")

    with pytest.raises(SchemaError, match="apparatus_dim"):
        scheme_from_json({"xi": [[1.0]]}, sys_dim=2)
    bad = scheme_to_json(m)
    bad["xi"] = [[0.5, 0.0], [0.0, 0.0]]
    with pytest.raises(SchemaError, match="density"):
        scheme_from_json(bad, sys_dim=2)
