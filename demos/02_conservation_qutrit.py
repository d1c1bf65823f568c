"""Average conservation is strictly weaker than full conservation.

A qutrit channel sends the +1 eigenstate of N = diag(1, 0, -1) to itself,
the -1 eigenstate to itself, and splits the 0 eigenstate evenly between
them.  The mean of N is preserved on every input, yet the distribution of
N is not: an input concentrated at eigenvalue 0 comes out as a 50/50
mixture of the extremes.  check_conservation detects this by comparing the
pulled-back first moment (average case) against all pulled-back spectral
projections (full case).

For unitary channels there is no such gap: commuting with N is equivalent
to both notions at once, as check_unitary_equivalence verifies on a
conserving and a generic rotation.
"""

import numpy as np

from waylab import OperationMap
from waylab.conserve import check_conservation, check_unitary_equivalence


def exp_i(h, t):
    """``exp(i t h)`` of a Hermitian ``h``, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def main():
    e = np.eye(3, dtype=complex)
    n = np.diag([1.0, 0.0, -1.0])
    phi = OperationMap(
        [
            np.outer(e[:, 0], e[:, 0]),
            np.outer(e[:, 2], e[:, 2]),
            np.outer(e[:, 0], e[:, 1]) / np.sqrt(2.0),
            np.outer(e[:, 2], e[:, 1]) / np.sqrt(2.0),
        ]
    )

    rep = check_conservation(phi, n)
    print("qutrit decay channel, N = diag(1, 0, -1)")
    print(f"  average conserved : {rep.average_holds}  (defect {rep.average_defect:.2e})")
    print(f"  fully conserved   : {rep.full_holds}  (defect {rep.full_defect:.6f})")
    print("  the full defect of 1 is the eigenvalue-0 projection leaking entirely")
    print()

    rng = np.random.default_rng(7)
    h_commuting = np.diag(rng.standard_normal(3))
    u_cons = exp_i(h_commuting, 1.0)
    rep_cons = check_unitary_equivalence(u_cons, n)
    print("unitary generated by a Hamiltonian commuting with N")
    print(f"  commutator norm {rep_cons.commutator_norm:.2e}"
          f"  average defect {rep_cons.average_defect:.2e}"
          f"  full defect {rep_cons.full_defect:.2e}")

    h_generic = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h_generic = (h_generic + h_generic.conj().T) / 2.0
    u_gen = exp_i(h_generic, 1.0)
    rep_gen = check_unitary_equivalence(u_gen, n)
    print("generic unitary")
    print(f"  commutator norm {rep_gen.commutator_norm:.2e}"
          f"  average defect {rep_gen.average_defect:.2e}"
          f"  full defect {rep_gen.full_defect:.2e}")
    print()
    print("for unitaries the three numbers vanish together or not at all"
          f" (consistent={rep_cons.consistent} / {rep_gen.consistent})")


if __name__ == "__main__":
    main()
