"""Conservation laws obstruct measurement: measurability and WAY bounds.

Four vignettes on qubit system + qubit apparatus:

1. A CNOT coupling conserves sigma_z/2 and measures the z-observable
   exactly; every bound report is satisfied with both sides zero.
2. Keeping the same coupling but asking for the x-observable, the target
   no longer commutes with the conserved quantity.  The error bound then
   says the commutator obstruction (left side) must stay below an
   expression in the measurement error (right side), which forces a
   nonzero error floor.
3. A generic coupling that commutes with total sigma_z/2, probing with a
   z-pointer (so the Yanase condition holds), measures an observable that
   fails to commute with the conserved quantity.  The WAY reports then
   have nonzero sides: the measured observable must stay unsharp, and the
   constraint relaxes as the apparatus carries more spread in the
   conserved quantity.
4. An exchange coupling read out through an x-pointer violates the weak
   Yanase condition; the reports flag the failed hypothesis instead of
   certifying anything.
"""

import numpy as np

from waylab import Observable, OperationMap
from waylab.bounds import eval_measurability_bounds, eval_way
from waylab.conserve import AdditiveQuantity, conservative_unitary, yanase_conditions
from waylab.measure import MeasurementScheme, sharp_observable


def exp_i(h, t):
    """``exp(i t h)`` of a Hermitian ``h``, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def show(reports):
    for r in reports:
        print(
            f"  {r.bound_id:<28} {r.outcome:<5} lhs {r.lhs:8.4f}  rhs {r.rhs:8.4f}"
            f"  hypothesis {'ok' if r.hypothesis_satisfied else 'VIOLATED'}"
            f"  satisfied {r.satisfied}"
        )


def main():
    ground = np.diag([1.0, 0.0]).astype(complex)
    pointer_z = sharp_observable(SZ)
    m_cnot = MeasurementScheme(2, 2, ground, OperationMap([CNOT]), pointer_z)
    q = AdditiveQuantity(SZ / 2, np.zeros((2, 2)))

    print("1. compatible target (z-observable, conserved sigma_z/2): all zero")
    show(eval_measurability_bounds(m_cnot, sharp_observable(SZ), q))
    print()

    print("2. incompatible target (x-observable): nonzero error is forced")
    tx = sharp_observable(SX)
    target = Observable(list(pointer_z.outcomes), list(tx.effects))
    show(eval_measurability_bounds(m_cnot, target, q))
    print()

    print("3. WAY reports for a conservative coupling with a z-pointer")
    rng = np.random.default_rng(5)
    q_both = AdditiveQuantity(SZ / 2, SZ / 2)
    u = conservative_unitary(q_both.composite(), rng, strength=1.5)
    xi_plus = np.full((2, 2), 0.5, dtype=complex)
    m_way = MeasurementScheme(2, 2, xi_plus, OperationMap([u.mat]), pointer_z)
    show(eval_way(m_way, q_both))
    print("  (nearly tight: the unsharpness expression barely clears the obstruction)")
    print()

    print("4. exchange coupling with an x-pointer: the Yanase condition fails")
    h = np.kron(SX, SX) + np.kron(SY, SY)
    u_ex = exp_i(h, -0.7)
    m_ex = MeasurementScheme(2, 2, ground, OperationMap([u_ex]), sharp_observable(SX))
    y = yanase_conditions(m_ex, q_both)
    print(f"  yanase defect {y.yanase_defect:.3f}, weak defect {y.weak_defect:.3f}")
    show(eval_way(m_ex, q_both))


if __name__ == "__main__":
    main()
