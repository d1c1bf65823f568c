"""Fixed points of a measurement channel: projector, support, commutant.

analyze_fixed_points computes the spectral projector of the transition
matrix onto its eigenvalue-1 space, a basis of fixed operators, and a
full-rank fixed state when one exists.  This script shows:

  * a random channel whose fixed space is one-dimensional (the generic
    case), with the Cesàro average of channel powers converging to the
    same projector,
  * a channel with a degenerate fixed space that is NOT spanned by an
    algebra on the whole space; restricted to the support of a maximal
    fixed state it is, and check_minimal_support certifies the five
    structural facts that make the restriction work,
  * a unital channel, where the fixed space is exactly the commutant of
    the Kraus operators.
"""

import numpy as np

from waylab import OperationMap, op_norm
from waylab.cpmaps import to_supermatrix
from waylab.fixpt import analyze_fixed_points, cesaro_supermatrix, check_minimal_support, kraus_commutant
from waylab.rand import haar_unitary, random_channel


def main():
    rng = np.random.default_rng(12)

    phi = random_channel(3, 3, 3, rng)
    fp = analyze_fixed_points(phi)
    print("random channel on a qutrit")
    print(f"  fixed-space dimension {fp.fixed_dim}, faithful fixed state: {fp.faithful}")
    ces = cesaro_supermatrix(phi, 4000)
    gap = np.abs(ces - fp.projector).max()
    print(f"  Cesaro average after 4000 steps is {gap:.2e} from the spectral projector")
    print()

    e = np.eye(3, dtype=complex)
    decay = OperationMap(
        [
            np.outer(e[:, 0], e[:, 0]),
            np.outer(e[:, 2], e[:, 2]),
            np.outer(e[:, 0], e[:, 1]) / np.sqrt(2.0),
            np.outer(e[:, 2], e[:, 1]) / np.sqrt(2.0),
        ]
    )
    fp2 = analyze_fixed_points(decay)
    print("qutrit decay channel (middle level drains to the edges)")
    print(f"  fixed-space dimension {fp2.fixed_dim}, faithful fixed state: {fp2.faithful}")
    print(f"  support projection of the maximal fixed state:\n"
          f"{np.round(fp2.support_p.real, 10)}")
    lem = check_minimal_support(fp2, decay)
    print(f"  support certificate: all_pass={lem.all_pass},"
          f" minimality margin {lem.minimality_margin:.3f}")
    print(f"  restricted algebra certified: {fp2.algebra_certified}")
    print()

    weights = (0.5, 0.3, 0.2)
    kraus = [np.sqrt(w) * haar_unitary(3, rng).mat for w in weights]
    unital = OperationMap(kraus)
    fp3 = analyze_fixed_points(unital)
    comm = kraus_commutant(unital)
    print("mixture of three unitaries (unital)")
    print(f"  fixed-space dimension {fp3.fixed_dim},"
          f" commutant dimension {comm.shape[1]},"
          f" commutant consistent: {fp3.commutant_consistent}")
    worst = 0.0
    m_dual = to_supermatrix(unital)
    for col in comm.T:
        worst = max(worst, op_norm((m_dual @ col - col).reshape(3, 3, order="F")))
    print(f"  every commutant element is fixed to {worst:.2e}")


if __name__ == "__main__":
    main()
