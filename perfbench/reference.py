"""Reference quantities computed with numpy alone.

Nothing here imports waylab: every check the benchmark makes on waylab's
output compares it with a number derived from the scenario JSON (or the
generator's raw matrices) by the formulas below.  Composite operators put
the system factor first, ``kron(system, apparatus)``, as waylab does.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

Dual = Callable[[np.ndarray], np.ndarray]


def matrix(obj: Any) -> np.ndarray:
    """Complex matrix from waylab's JSON form (rows of ``[re, im]`` pairs)."""
    rows = []
    for row in obj:
        rows.append([complex(c[0], c[1]) if isinstance(c, list) else complex(c) for c in row])
    return np.array(rows, dtype=complex)


def op_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def kraus_dual(kraus: Sequence[np.ndarray], b: np.ndarray) -> np.ndarray:
    """``sum_K K^dag B K``."""
    return sum(k.conj().T @ b @ k for k in kraus)


def luders_dual(projectors: Sequence[np.ndarray], b: np.ndarray) -> np.ndarray:
    """``sum_i P_i B P_i``."""
    return sum(p @ b @ p for p in projectors)


def _trace_apparatus(m: np.ndarray, d_sys: int, d_app: int) -> np.ndarray:
    return np.einsum("iaja->ij", m.reshape(d_sys, d_app, d_sys, d_app))


def scheme_dual(
    coupling: Sequence[np.ndarray], xi: np.ndarray, d_sys: int, b: np.ndarray
) -> np.ndarray:
    """Total dual channel ``tr_A[(1 (x) xi) sum_L L^dag (B (x) 1) L]``."""
    d_app = xi.shape[0]
    lifted = np.kron(b, np.eye(d_app))
    heis = sum(l.conj().T @ lifted @ l for l in coupling)
    return _trace_apparatus(np.kron(np.eye(d_sys), xi) @ heis, d_sys, d_app)


def scheme_channel(
    coupling: Sequence[np.ndarray], xi: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Total channel ``tr_A[sum_L L (rho (x) xi) L^dag]``."""
    d_sys, d_app = rho.shape[0], xi.shape[0]
    joint = np.kron(rho, xi)
    return _trace_apparatus(sum(l @ joint @ l.conj().T for l in coupling), d_sys, d_app)


def measured_effects(
    coupling: Sequence[np.ndarray], xi: np.ndarray, d_sys: int, pointer: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Effects ``E(x) = tr_A[(1 (x) xi) sum_L L^dag (1 (x) Z_x) L]``."""
    d_app = xi.shape[0]
    one_xi = np.kron(np.eye(d_sys), xi)
    effects = []
    for z in pointer:
        lifted = np.kron(np.eye(d_sys), z)
        heis = sum(l.conj().T @ lifted @ l for l in coupling)
        effects.append(_trace_apparatus(one_xi @ heis, d_sys, d_app))
    return effects


def spectral_projectors(h: np.ndarray) -> list[np.ndarray]:
    """Rank-one eigenprojectors of a Hermitian matrix with a simple spectrum,
    in ascending eigenvalue order (waylab's ``e0, e1, ...`` labels)."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    if np.min(np.diff(w)) <= 1e-6:
        raise ValueError("reference projectors need a non-degenerate spectrum")
    return [np.outer(v[:, i], v[:, i].conj()) for i in range(len(w))]


def dual_of_object(obj: dict, sys_dim: int) -> Dual:
    """Dual total channel of a scenario ``channel``, ``instrument`` or ``scheme``."""
    kind = obj["kind"]
    if kind == "channel":
        kraus = kraus_list(obj)
        return lambda b: kraus_dual(kraus, b)
    if kind == "instrument":
        kraus = [k for op in obj["operations"] for k in kraus_list(op)]
        return lambda b: kraus_dual(kraus, b)
    if kind == "scheme":
        coupling = kraus_list(obj["coupling"])
        xi = matrix(obj["xi"])
        return lambda b: scheme_dual(coupling, xi, sys_dim, b)
    raise ValueError(f"no reference channel for object kind {kind!r}")


def kraus_list(obj: dict) -> list[np.ndarray]:
    if "unitary" in obj:
        return [matrix(obj["unitary"])]
    return [matrix(k) for k in obj["kraus"]]


def commutator_norms(
    e_effects: dict[str, np.ndarray], f_effects: dict[str, np.ndarray]
) -> dict[str, float]:
    """``||[E(x), F(y)]||`` keyed by waylab's ``"(x,y)"`` outcome label."""
    return {
        f"({x},{y})": op_norm(ex @ fy - fy @ ex)
        for x, ex in e_effects.items()
        for y, fy in f_effects.items()
    }
