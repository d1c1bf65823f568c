"""Seeded generators for random test objects.

All generators take a ``numpy.random.Generator`` so callers control
determinism; the CLI derives one generator per scenario from the declared
seed.  Haar unitaries use the QR decomposition with the phases of R's
diagonal divided out, which makes the distribution exactly Haar and the
output a deterministic function of the Gaussian draw.
"""

from __future__ import annotations

import numpy as np

from .cpmaps import OperationMap
from .opcore import DEFAULT_TOL, Operator, Tolerance, _hermitian_parts

__all__ = [
    "haar_unitary",
    "random_state",
    "random_hermitian",
    "random_povm",
    "random_channel",
]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(dim: int, rng: np.random.Generator) -> Operator:
    z = _ginibre(rng, dim, dim)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return Operator(q * phases)


def random_state(dim: int, rng: np.random.Generator, rank: int | None = None) -> Operator:
    """Density operator induced from a Haar vector on a purifying space.

    ``rank`` bounds the ancilla dimension (defaults to ``dim``, giving
    full-rank states almost surely).
    """
    r = dim if rank is None else int(rank)
    if not 1 <= r:
        raise ValueError(f"rank must be >= 1, got {rank}")
    psi = _ginibre(rng, dim, r)
    rho = psi @ psi.conj().T
    return Operator(rho / np.trace(rho))


def random_hermitian(dim: int, rng: np.random.Generator, norm: float = 1.0) -> Operator:
    z = _ginibre(rng, dim, dim)
    h = 0.5 * (z + z.conj().T)
    current = float(np.linalg.norm(h, 2))
    if current == 0.0:
        return Operator(np.zeros((dim, dim)))
    return Operator(h * (norm / current))


def random_povm(
    dim: int, n_outcomes: int, rng: np.random.Generator, tol: Tolerance = DEFAULT_TOL
) -> list[Operator]:
    """POVM from squared Ginibre blocks, normalized by S^(-1/2) G S^(-1/2)."""
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    raw = []
    for _ in range(n_outcomes):
        a = _ginibre(rng, dim, dim)
        raw.append(a.conj().T @ a)
    total = np.sum(raw, axis=0)
    w, v = np.linalg.eigh(0.5 * (total + total.conj().T))
    if w.min() <= tol.rank_tol:
        # essentially impossible for Ginibre draws; regenerate for safety
        return random_povm(dim, n_outcomes, rng, tol)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [Operator(_hermitian_parts(inv_sqrt @ g @ inv_sqrt)) for g in raw]


def random_channel(
    in_dim: int,
    out_dim: int | None = None,
    n_kraus: int | None = None,
    rng: np.random.Generator | None = None,
) -> OperationMap:
    """Random channel via a Haar-random isometry.

    A Ginibre block of shape ``(out_dim * n_kraus, in_dim)`` is orthogonalized
    into an isometry and sliced into Kraus operators, so the completeness
    relation holds to machine precision.
    """
    if rng is None:
        raise ValueError("random_channel requires an explicit rng")
    d_out = in_dim if out_dim is None else int(out_dim)
    k = d_out if n_kraus is None else int(n_kraus)
    if k < 1:
        raise ValueError("need at least one Kraus operator")
    if d_out * k < in_dim:
        raise ValueError(
            f"out_dim * n_kraus = {d_out * k} must be >= in_dim = {in_dim} for an isometry"
        )
    z = _ginibre(rng, d_out * k, in_dim)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    iso = q * phases
    return OperationMap([iso[i * d_out : (i + 1) * d_out, :] for i in range(k)])
