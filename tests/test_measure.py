import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab import Observable, Operator, OperationMap, Tolerance, op_norm
from waylab.bounds import _gamma_moment_defect
from waylab.conserve import AdditiveQuantity, yanase_conditions
from waylab.cpmaps import apply_dual, apply_map, to_supermatrix
from waylab.fixpt import (
    analyze_fixed_points,
    nondisturbed_norm1_observable,
    post_processing_decomposition,
)
from waylab.measure import (
    Instrument,
    MeasurementScheme,
    _coupled_pointer,
    collapse_instrument,
    heisenberg_pointer,
    luders_instrument,
    measured_observable,
    normal_dilation,
    repeatability_report,
    restriction_maps,
    scheme_to_instrument,
    sharp_observable,
)
from waylab.opcore import is_state
from waylab.rand import haar_unitary, random_channel, random_hermitian, random_povm, random_state
from waylab import serialize
from waylab.serialize import (
    SchemaError,
    instrument_from_json,
    instrument_to_json,
    observable_from_json,
    observable_to_json,
    operation_to_json,
    scheme_from_json,
    scheme_to_json,
)

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


NON_HERMITIAN = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
NON_FINITE = np.array([[1.0, np.nan], [0.0, 0.0]], dtype=complex)
HALF = OperationMap([np.sqrt(0.5) * np.eye(2)])

# bad (outcomes, effects) with the message every boundary gives for them
BAD_POVMS = {
    "non-hermitian": ((["a", "b"], [NON_HERMITIAN, np.eye(2) - NON_HERMITIAN]),
                      "effect 'a' is not a valid effect (spectrum [3.500e-01, 6.500e-01])"),
    "spectrum": ((["a", "b"], [1.5 * P0, np.eye(2) - 1.5 * P0]),
                 "effect 'a' is not a valid effect (spectrum [0.000e+00, 1.500e+00])"),
    "non-finite": ((["a", "b"], [NON_FINITE, P1]), "operator entries must be finite"),
    "not-identity": ((["a", "b"], [P0, 0.5 * P1]),
                     "effects do not sum to the identity (defect 5.000e-01)"),
    "mixed-dims": ((["a", "b"], [P0, np.eye(3)]), "effects must share one dimension"),
    "duplicate": ((["a", "a"], [P0, P1]), "outcome labels must be distinct"),
    "empty": (([], []), "observable needs at least one outcome"),
}
# bad (outcomes, operations) likewise
# (a non-finite Kraus entry fails in OperationMap itself: see
# test_operation_map_rejects_non_finite_kraus)
BAD_INSTRUMENTS = {
    "mixed-dims": ((["a", "b"], [HALF, OperationMap([np.eye(3)])]),
                   "instrument operations must be endomorphisms of one space"),
    "duplicate": ((["a", "a"], [HALF, HALF]), "outcome labels must be distinct"),
    "empty": (([], []), "instrument needs at least one outcome"),
    "trace-increasing": ((["a", "b"], [OperationMap([1.2 * P0]), OperationMap([P1])]),
                         "operation 'a' is not trace non-increasing"),
    "incomplete": ((["a", "b"], [HALF, OperationMap([0.1 * np.eye(2)])]),
                   "total map is not a channel (completeness defect 4.900e-01)"),
}


def povm_json(outcomes, effects):
    return {"outcomes": outcomes,
            "effects": [serialize.matrix_to_json(e) for e in effects]}


def as_pointer_of_scheme(outcomes, effects):
    scheme = scheme_to_json(cnot_scheme())
    scheme["pointer"] = povm_json(outcomes, effects)
    return scheme_from_json(scheme, sys_dim=2)


def instrument_json(outcomes, operations):
    return instrument_from_json(
        {"outcomes": outcomes, "operations": [operation_to_json(op) for op in operations]}
    )


# (entry point, its cases, error type, message prefix, message for an empty family)
BOUNDARIES = {
    "Observable": (Observable, BAD_POVMS, ValueError, "", None),
    "observable_from_json": (lambda o, e: observable_from_json(povm_json(o, e)), BAD_POVMS,
                             SchemaError, "observable: ",
                             "observable.outcomes: expected a non-empty list"),
    "scheme_from_json": (as_pointer_of_scheme, BAD_POVMS, SchemaError, "scheme.pointer: ",
                         "scheme.pointer.outcomes: expected a non-empty list"),
    "Instrument": (Instrument, BAD_INSTRUMENTS, ValueError, "", None),
    "instrument_from_json": (instrument_json, BAD_INSTRUMENTS, SchemaError, "instrument: ",
                             "instrument.outcomes: expected a non-empty list"),
}

# the JSON readers reject the NaN entry itself, by its path
JSON_NON_FINITE = {
    "observable_from_json": "observable.effects[0][0][1]: entries must be finite, got [nan, 0.0]",
    "scheme_from_json":
        "scheme.pointer.effects[0][0][1]: entries must be finite, got [nan, 0.0]",
}


@pytest.mark.parametrize(
    "entry,case",
    [(entry, case) for entry, spec in BOUNDARIES.items() for case in spec[1]],
    ids=lambda v: v,
)
def test_boundaries_reject_bad_input(entry, case):
    build, cases, error, prefix, empty = BOUNDARIES[entry]
    (outcomes, items), message = cases[case]
    with pytest.raises(error) as caught:
        build(outcomes, items)
    expected = empty if case == "empty" and empty else prefix + message
    if case == "non-finite" and entry in JSON_NON_FINITE:
        expected = JSON_NON_FINITE[entry]
    assert str(caught.value) == expected


def test_operation_map_rejects_non_finite_kraus():
    # rejected when built, before a check's SVD meets the entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning included
        for bad in (np.array([[1.0, 0.0], [0.0, np.inf]]), NON_FINITE):
            with pytest.raises(ValueError, match="^Kraus operator entries must be finite$"):
                OperationMap([np.eye(2), bad])


def test_instrument_from_json_rejects_non_finite_kraus_entry():
    # the JSON reader rejects the entry itself, by its path
    operations = [operation_to_json(HALF), {"kraus": [serialize.matrix_to_json(NON_FINITE)]}]
    with pytest.raises(SchemaError) as caught:
        instrument_from_json({"outcomes": ["a", "b"], "operations": operations})
    want = "instrument.operations[1].kraus[0][0][1]: entries must be finite, got [nan, 0.0]"
    assert str(caught.value) == want


def test_observable_validation():
    with pytest.raises(ValueError, match="^1 outcomes but 2 effects$"):
        Observable(["a"], [P0, P1])
    # the effects are one read-only stack, and .effects holds the same matrices
    obs = unsharp_qubit(0.5)
    assert obs._effects.shape == (2, 2, 2) and not obs._effects.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        obs._effects[0, 0, 0] = 1.0
    for eff, mat in zip(obs.effects, obs._effects):
        assert eff.mat.tobytes() == mat.tobytes()


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
    assert not sharp.is_trivial()

    fuzzy = unsharp_qubit(0.5)
    assert not fuzzy.is_sharp()
    assert fuzzy.is_commutative()

    coin = Observable(["t0", "t1"], [0.3 * np.eye(2), 0.7 * np.eye(2)])
    assert coin.is_trivial()
    assert coin.is_commutative()


def loop_is_sharp(obs, tol):
    """``Observable.is_sharp`` as one SVD per outcome pair."""
    mats = [e.mat for e in obs.effects]
    if not all(op_norm(m - m.conj().T) <= tol.eq_tol and op_norm(m @ m - m) <= tol.eq_tol
               for m in mats):
        return False
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


DERIVED_TOL = 1e-12


def assert_valid_observable(obs, slack=DERIVED_TOL):
    """The checks the public constructor runs, to within ``slack``."""
    e = obs._effects
    assert max(op_norm(skew) for skew in e - e.conj().swapaxes(1, 2)) <= slack
    w = np.linalg.eigvalsh(e)
    assert w.min() >= -slack and w.max() <= 1.0 + slack
    assert op_norm(e.sum(axis=0) - np.eye(obs.dim)) <= slack


@given(seed=st.integers(0, 2**32 - 1), d_sys=st.integers(2, 5), d_app=st.integers(2, 5),
       n=st.integers(2, 4))
@settings(derandomize=True, max_examples=25, deadline=None)
def test_trusted_derivations_are_valid(seed, d_sys, d_app, n):
    """Every derivation that skips the constructor checks passes them."""
    rng = np.random.default_rng(seed)
    labels = [f"x{i}" for i in range(n)]
    pointer = Observable(labels, random_povm(d_app, n, rng))
    coupling = random_channel(d_sys * d_app, n_kraus=2, rng=rng)
    m = MeasurementScheme(d_sys, d_app, random_state(d_app, rng), coupling, pointer)
    for obs in (measured_observable(m), heisenberg_pointer(m),
                scheme_to_instrument(m).induced_observable()):
        assert_valid_observable(obs)

    e = Observable(labels, random_povm(d_sys, n, rng))
    inst = luders_instrument(e)
    for op in inst.operations:
        assert np.linalg.eigvalsh(np.eye(d_sys) - op.kraus_gram()).min() >= -DERIVED_TOL
    assert op_norm(inst.total().kraus_gram() - np.eye(d_sys)) <= DERIVED_TOL
    assert_valid_observable(inst.induced_observable())

    # a degenerate Hermitian operator with at least two eigenvalues, and a
    # random smearing of its spectral observable: Lüders-measured, that is
    # nondisturbed and first-kind, so both norm-1 refinements apply.  Their
    # effects are as exact as the fixed-point projector, which the records
    # report: sum_z G(z) - 1 is the sum over x of the reconstruction
    # defects, and over z of the compression defects (the channel is faithful)
    v = haar_unitary(d_sys, rng).mat
    spectrum = np.concatenate([[0.0, 1.0], rng.integers(0, 3, d_sys - 2)])
    sharp = sharp_observable(v @ np.diag(spectrum) @ v.conj().T)
    assert_valid_observable(sharp)
    p = rng.dirichlet(np.ones(n), size=len(sharp)).T
    smeared = Observable(labels, np.tensordot(p, sharp._effects, axes=1))
    smeared_inst = luders_instrument(smeared)
    post = post_processing_decomposition(smeared_inst)
    assert_valid_observable(post.observable, DERIVED_TOL + n * post.reconstruction_defect)
    norm1 = nondisturbed_norm1_observable(smeared_inst.total(), smeared)
    g = len(norm1.observable)
    assert_valid_observable(norm1.observable, DERIVED_TOL + g * norm1.compression_defect)


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
        out = apply_map(inst.operation(x), rho).mat
        np.testing.assert_allclose(out, root @ rho @ root, atol=1e-12)
    assert inst.total().is_channel()
    induced = inst.induced_observable()
    for x in obs.outcomes:
        np.testing.assert_allclose(induced.effect(x).mat, obs.effect(x).mat, atol=1e-12)
    np.testing.assert_allclose(apply_dual(inst.total(), np.eye(2)).mat, np.eye(2), atol=1e-12)


def test_collapse_instrument_definition():
    obs = Observable(["z0", "z1"], [P0, P1])
    inst = collapse_instrument(obs, [[1.0, 0.0], [0.0, 1.0]])
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    np.testing.assert_allclose(apply_map(inst.operation("z0"), rho).mat, 0.7 * P0,
                               atol=1e-12)
    np.testing.assert_allclose(apply_map(inst.operation("z1"), rho).mat, 0.3 * P1,
                               atol=1e-12)
    assert inst.total().is_channel()

    with pytest.raises(ValueError, match="one collapse vector per outcome"):
        collapse_instrument(obs, [[1.0, 0.0]])
    with pytest.raises(ValueError, match="not normalized"):
        collapse_instrument(obs, [[2.0, 0.0], [0.0, 1.0]])


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
    assert measured_observable(m) is measured_observable(m)
    assert restriction_maps(m, tol) is restriction_maps(m, tol)
    assert heisenberg_pointer(m) is heisenberg_pointer(m)
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
        derive(fresh)
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
    np.testing.assert_array_equal(m.xi, P0)

    phi = scheme_to_instrument(m).total()
    for name in ("_kraus", "in_dim", "out_dim", "_memo"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(phi, name, getattr(phi, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(phi, name)
    # the cached analysis is shared, so its arrays are read-only
    analysis = analyze_fixed_points(phi)
    for a in (analysis.p_isometry, analysis.fixed_states, analysis.projector,
              *analysis.restricted_basis):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_cnot_scheme_is_luders_of_sharp_z():
    m = cnot_scheme()
    inst = scheme_to_instrument(m)
    assert inst.outcomes == ("z0", "z1")
    rho = np.array([[0.6, 0.3j], [-0.3j, 0.4]], dtype=complex)
    np.testing.assert_allclose(apply_map(inst.operation("z0"), rho).mat, P0 @ rho @ P0,
                               atol=1e-12)
    np.testing.assert_allclose(apply_map(inst.operation("z1"), rho).mat, P1 @ rho @ P1,
                               atol=1e-12)

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
    reduced = apply_map(maps.gamma_xi, np.kron(a, b)).mat
    np.testing.assert_allclose(reduced, a * np.trace(b @ m.xi), atol=1e-12)

    # gamma_xi_e composes the coupling dual with gamma_xi
    comp = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = apply_map(maps.gamma_xi_e, comp).mat
    rhs = apply_map(maps.gamma_xi, apply_dual(m.coupling, comp)).mat
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    # conjugate channel outputs apparatus states
    rho = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    out = apply_map(maps.conj_channel, rho)
    assert is_state(out.mat)


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
        np.testing.assert_allclose(m.xi[0, 0], 1.0, atol=1e-14)
        assert abs(np.trace(m.xi @ m.xi) - 1.0) < 1e-12
        u = m.coupling.kraus[0]
        assert len(m.coupling.kraus) == 1
        np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)

        inst = scheme_to_instrument(m)
        ref = luders_instrument(obs)
        for x in obs.outcomes:
            got = to_supermatrix(inst.operation(x))
            want = to_supermatrix(ref.operation(x))
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
            to_supermatrix(back.operation(x)),
            to_supermatrix(inst.operation(x)),
            atol=0,
        )
    with pytest.raises(SchemaError, match="one operation per outcome"):
        instrument_from_json({"outcomes": ["a", "b"], "operations": []})


def test_scheme_json_roundtrip():
    m = cnot_scheme()
    back = scheme_from_json(scheme_to_json(m), sys_dim=2)
    assert back.app_dim == 2
    np.testing.assert_allclose(back.xi, m.xi, atol=0)
    np.testing.assert_allclose(back.coupling.kraus[0], CNOT, atol=0)
    assert back.pointer.outcomes == ("z0", "z1")

    with pytest.raises(SchemaError, match="apparatus_dim"):
        scheme_from_json({"xi": [[1.0]]}, sys_dim=2)
    bad = scheme_to_json(m)
    bad["xi"] = [[0.5, 0.0], [0.0, 0.0]]
    with pytest.raises(SchemaError, match="density"):
        scheme_from_json(bad, sys_dim=2)
