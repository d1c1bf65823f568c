"""Completely positive maps in Kraus form.

:class:`OperationMap` stores a Kraus family ``{K_i}`` with ``K_i: in -> out``
as one read-only stacked array of shape ``(k, out_dim, in_dim)``.  Every
Kraus application goes through one kernel, :func:`_apply`, which takes a
stack ``(n, d, d)`` of inputs (or a single matrix) and returns
``sum_i K_i t K_i^dag`` (state side) or ``sum_i K_i^dag a K_i`` (dual side)
for each input as one broadcast ``matmul`` summed over the Kraus axis.
``apply_map``/``apply_dual`` are its one-matrix public forms.  Checks that
run over the ``d**2`` matrix units ``E_ij`` are maps ``Psi(X) = sum_m a_m X b_m``
(a framed Kraus family minus another, say) and go through
:func:`_max_unit_norm`, which returns ``max_ij ||Psi(E_ij)||``.  When the
family is short (``2 M <= d``) it never builds an image: ``Psi(E_ij)`` is the
product of a ``d x M`` and an ``M x d`` factor, and the norm is that of the
product of their ``M x M`` QR factors.  For longer families, ``M x M`` Grams
bound every image's norm, and only the images whose bound reaches the
largest norm found so far are built and reduced, in descending order.

The constructor validates shapes and finite entries only; whether the
family is trace non-increasing (``is_operation``) or trace preserving
(``is_channel``) is a predicate, because several useful Kraus views (duals
of non-unital channels, restriction maps) intentionally live outside the
trace-non-increasing cone while their ``apply`` is still the map we want.

Vectorization is column-stacking: ``vec(ABC) = (C^T kron A) vec(B)``, so the
dual map's supermatrix is ``sum K^T kron K^dag`` and the state-side
supermatrix is its adjoint.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Sequence

import numpy as np

from .opcore import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    _BLOCK,
    _as_matrix,
    _fro2,
    _sv_max,
    max_op_norm,
    op_norm_mat,
)

__all__ = [
    "OperationMap",
    "vec",
    "unvec",
    "apply_map",
    "apply_dual",
    "compose",
    "dual_view",
    "to_supermatrix",
]


# ``_max_unit_norm``'s screen, timed against building all images on the
# ``total-localizes`` factors of sharp, unsharp and random instruments at
# d = 4..24, one BLAS thread.
# - ``_SCREEN_MIN``: the image entries up to which building all of them costs
#   less, whatever the images' norms (the screen lost at d = 5-6, 5600-23000
#   entries, and won from d = 7, 36000; measured with one GEMM of all images,
#   which costs about what one product per image does at these sizes).
# - ``_GRAM_SLACK``: the rounding margin of the Gram bound, in units of
#   ``(M + p + q)**2 eps ||G||_F ||H||_F``.
# - The images built per round start at ``_SCREEN_BATCH`` and double up to
#   ``_SCREEN_BATCH_MAX``: a first round of 16 finds the maximum of Lüders
#   factors, where a larger one only costs more, and where hundreds of images
#   reach the running maximum the doubling rounds cost about 15 % less in all
#   than rounds of 16.
_SCREEN_MIN = 2**15
_GRAM_SLACK = 16.0
_SCREEN_BATCH = 16
_SCREEN_BATCH_MAX = 64


def _per_object(fn):
    """Cache ``fn(obj, ...)`` on its immutable first argument ``obj``, keyed by
    ``fn``'s name and its other arguments with defaults filled in, so each
    derivation of an object runs once per tolerance (and quantity); the
    entries live in the object's ``_memo`` dict and die with it.  The names
    and defaults of the other parameters are read once, here; a call that
    does not bind raises the ``TypeError`` of ``inspect.Signature.bind``."""
    sig = inspect.signature(fn)
    params = list(sig.parameters.values())[1:]
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
        raise TypeError(f"{fn.__name__}: only plain parameters can key the cache")
    names = tuple(p.name for p in params)
    defaults = tuple(p.default for p in params)

    @functools.wraps(fn)
    def cached(obj: Any, *args: Any, **kwargs: Any):
        n = len(args)
        values = [kwargs.get(name, default) for name, default in zip(names[n:], defaults[n:])]
        if (n > len(names) or (kwargs and not kwargs.keys() <= set(names[n:]))
                or any(v is inspect.Parameter.empty for v in values)):
            sig.bind(obj, *args, **kwargs)  # raises
        key = (fn.__name__, *args, *values)
        if key not in obj._memo:
            obj._memo[key] = fn(obj, *args, **kwargs)
        return obj._memo[key]

    return cached


class _Immutable:
    """Base of the memo-carrying types: assigning to or deleting any attribute
    raises, so a cached derivation cannot go stale.  ``__init__`` sets the
    fields through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    c = rows if cols is None else cols
    return np.asarray(v, dtype=complex).reshape(rows, c, order="F")


class OperationMap(_Immutable):
    """A completely positive map given by an explicit Kraus family.

    A map is immutable once built: assigning to or deleting any attribute
    raises.  Analyses of the map (its fixed points) are cached on the map
    itself by :func:`_per_object`, and a changed field would leave them stale.
    """

    __slots__ = ("_kraus", "in_dim", "out_dim", "_memo")

    def __init__(self, kraus: Sequence[Any]):
        mats = [_as_matrix(k) for k in kraus]
        if not mats:
            raise ValueError("OperationMap needs at least one Kraus operator")
        for m in mats:
            if m.ndim != 2:
                raise ValueError(f"Kraus operators must be matrices, got shape {m.shape}")
            if m.shape != mats[0].shape:
                raise ValueError(f"inconsistent Kraus shapes: {m.shape} vs {mats[0].shape}")
        stack = np.array(mats, dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operator entries must be finite")
        stack.setflags(write=False)
        out_dim, in_dim = mats[0].shape
        for name, value in zip(self.__slots__, (stack, in_dim, out_dim, {})):
            object.__setattr__(self, name, value)

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """The Kraus matrices, as read-only views into the stacked array."""
        return tuple(self._kraus)

    def __len__(self) -> int:
        return len(self._kraus)

    def __repr__(self) -> str:
        return (
            f"OperationMap(in_dim={self.in_dim}, out_dim={self.out_dim}, "
            f"n_kraus={len(self._kraus)})"
        )

    def kraus_gram(self) -> np.ndarray:
        """``sum K^dag K`` (equals the identity for channels)."""
        return _apply(self, np.eye(self.out_dim), True)

    def is_operation(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Trace non-increasing: ``sum K^dag K <= 1``."""
        gap = np.eye(self.in_dim) - self.kraus_gram()
        w = np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))
        return bool(w.min() >= -tol.eq_tol)

    def is_channel(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return op_norm_mat(self.kraus_gram() - np.eye(self.in_dim)) <= tol.eq_tol

    def is_unital(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.in_dim != self.out_dim:
            return False
        eye = np.eye(self.out_dim)
        return op_norm_mat(_apply(self, eye, False) - eye) <= tol.eq_tol


def _as_square(a: Any, dim: int, what: str) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {m.shape}")
    return m


def _apply(phi: OperationMap, x: np.ndarray, dual: bool) -> np.ndarray:
    """The Kraus kernel: ``sum_i K_i x K_i^dag``, or ``sum_i K_i^dag x K_i``
    when ``dual``, for one matrix ``x`` or each matrix of a stack ``(..., d, d)``.

    One broadcast ``matmul`` over the Kraus axis, summed in Kraus order; the
    intermediate holds ``k`` matrices per input.
    """
    k = phi._kraus
    kh = k.conj().swapaxes(1, 2)
    left, right = (kh, k) if dual else (k, kh)
    return (left @ x[..., None, :, :] @ right).sum(axis=-3)


def _max_unit_norm(a: np.ndarray, *rights: np.ndarray | None, worst: float = 0.0) -> float:
    """``max ||sum_m a[f, m] E_ij b[f, m]||`` over every ``f``, every right stack
    ``b`` of ``rights`` and every matrix unit ``E_ij``, and ``worst``, for
    finite factor stacks ``a`` ``(F, M, p, d)`` and ``b`` ``(F, M, d, q)``, or
    ``(1, M, d, q)`` for one right stack shared by every ``f`` (one ``q`` for
    all); a right stack None is the adjoint of the left one,
    ``b[f, m] = a[f, m]^dag``.  The maximum over no image is 0.0.

    The image of ``E_ij`` is ``U_i W_j``, where ``U_i`` (``p x M``) has the
    columns ``a[f, m][:, i]`` and ``W_j`` (``M x q``) the rows
    ``b[f, m][j, :]``; the right stacks share ``U_i`` and what is derived
    from it.  When ``2 M <= min(p, q)``, thin QRs ``U_i = Q_i R_i`` and
    ``W_j^dag = Q'_j S_j`` give ``||U_i W_j|| = ||R_i S_j^dag||``: the norms of
    ``d**2`` matrices ``M x M`` per ``f`` and right stack, and no image is
    built.  Otherwise every image that is built is the product ``U_i W_j``
    of its own factor slices, so it rounds the same whichever other images
    are built with it, and the maximum is exact up to the rounding of that
    one product.  Up to ``_SCREEN_MIN`` entries of images in all are built,
    as one broadcast product per right stack, and go to
    ``opcore.max_op_norm``; more are screened, in chunks of ``f`` of at most
    ``opcore._BLOCK`` Gram entries:
    ``||U_i W_j||_F**2 = tr(G_i H_j)`` with the ``M x M`` Grams
    ``G_i = U_i^dag U_i`` and ``H_j = W_j W_j^dag`` (``G_j`` for the adjoint,
    one set for a shared right stack), and a margin
    ``_GRAM_SLACK (M + p + q)**2 eps ||G_i||_F ||H_j||_F`` covers the rounding
    of the Grams, of the trace and of the image itself, so each bound is at
    least the computed norm of its image.  Images are built and their norms
    taken in descending order of the bound, in rounds of doubling size, until
    the next bound falls below the largest norm so far, which no image left
    can exceed.
    """
    n_f, m, p, d = a.shape
    q = next((b.shape[-1] for b in rights if b is not None), p)
    rows = a.transpose(0, 3, 2, 1)  # U_i = rows[f, i]
    if 2 * m <= min(p, q):
        r = np.linalg.qr(rows, mode="r")
        for b in rights:
            s = r if b is None else np.linalg.qr(b.transpose(0, 2, 3, 1).conj(), mode="r")
            # einsum, not matmul: a broadcast matmul of tiny matrices costs a
            # BLAS call each
            s = np.broadcast_to(s, r.shape)
            worst = max(worst, max_op_norm(np.einsum("fiab,fjcb->fijac", r, s.conj())))
        return worst
    rows = np.ascontiguousarray(rows)
    # W_j = cols[f, j]; None for the adjoint, W_j = U_j^dag
    cols = [None if b is None else b.swapaxes(1, 2) for b in rights]
    if n_f * len(cols) * d * p * d * q <= _SCREEN_MIN:
        for c in cols:
            w = rows.conj().swapaxes(-1, -2) if c is None else c
            worst = max(worst, max_op_norm(rows[:, :, None] @ w[:, None]))
        return worst
    slack = _GRAM_SLACK * (m + p + q) ** 2 * np.finfo(float).eps

    def grams(c: np.ndarray) -> np.ndarray:
        """The Grams ``H_j = W_j W_j^dag`` of a ``cols`` stack, ``(F, d, M, M)``."""
        w = np.ascontiguousarray(c)
        return w @ w.conj().swapaxes(-1, -2)

    shared = [None if c is None or len(c) > 1 else grams(c) for c in cols]
    bound = np.empty((n_f, len(cols), d, d))
    per_chunk = max(1, _BLOCK // (d * m * m))
    for lo in range(0, n_f, per_chunk):
        u = rows[lo : lo + per_chunk].reshape(-1, p, m)
        g = (u.conj().swapaxes(-1, -2) @ u).reshape(-1, d, m, m)
        # tr(G_i H_j) = Re sum_kl G_i[k, l] conj(H_j[k, l]) (H_j is Hermitian):
        # one real GEMM over the (re, im) parts
        g_parts = g.view(float).reshape(-1, d, 2 * m * m)
        for r, (c, h) in enumerate(zip(cols, shared)):
            if h is None:
                h = g if c is None else grams(c[lo : lo + per_chunk])
            fro2 = g_parts @ h.view(float).reshape(-1, d, 2 * m * m).swapaxes(1, 2)
            margin = slack * np.sqrt(_fro2(g)[:, :, None] * _fro2(h)[:, None, :])
            bound[lo : lo + per_chunk, r] = np.sqrt(np.maximum(fro2, 0.0) + margin)
    shape, bound = bound.shape, bound.reshape(-1)
    order = np.argsort(-bound)  # descending, a nan bound (never built) last
    at, size = 0, _SCREEN_BATCH
    while at < len(order):
        batch = order[at : at + size]
        at, size = at + size, min(2 * size, _SCREEN_BATCH_MAX)
        batch = batch[bound[batch] >= worst]
        if not len(batch):
            break
        images = np.empty((len(batch), p, q), dtype=complex)
        for slot, (fk, rk, ik, jk) in enumerate(zip(*np.unravel_index(batch, shape))):
            c = cols[rk]
            w = rows[fk, jk].conj().T if c is None else c[fk if len(c) > 1 else 0, jk]
            images[slot] = rows[fk, ik] @ w
        # a second screen before the SVDs: ||A||_2**2 <= ||A^dag A||_F
        sharper = np.sqrt(np.sqrt(_fro2(images.conj().swapaxes(-1, -2) @ images))
                          + slack * _fro2(images))
        top = np.argmax(sharper)
        worst = max(worst, float(_sv_max(images[top])))
        rest = sharper >= worst
        rest[top] = False
        worst = float(_sv_max(images[rest]).max(initial=worst))
    return worst


def _stack_families(families: Sequence[np.ndarray]) -> np.ndarray:
    """Kraus stacks ``(k_i, r, c)`` as one ``(n, max k_i, r, c)`` array, each
    zero-padded along its Kraus axis (a zero Kraus operator adds nothing)."""
    out = np.zeros((len(families), max(len(f) for f in families), *families[0].shape[1:]),
                   dtype=complex)
    for slot, fam in zip(out, families):
        slot[: len(fam)] = fam
    return out


def apply_map(phi: OperationMap, t: Any) -> Operator:
    """State-side action ``sum K t K^dag``."""
    return Operator(_apply(phi, _as_square(t, phi.in_dim, "input"), False))


def apply_dual(phi: OperationMap, a: Any) -> Operator:
    """Observable-side action ``sum K^dag a K``."""
    return Operator(_apply(phi, _as_square(a, phi.out_dim, "input"), True))


def compose(phi2: OperationMap, phi1: OperationMap) -> OperationMap:
    """``phi2 after phi1`` on states; Kraus products, no pruning."""
    if phi1.out_dim != phi2.in_dim:
        raise ValueError(
            f"cannot compose: inner output dim {phi1.out_dim} != outer input dim {phi2.in_dim}"
        )
    products = phi2._kraus[:, None] @ phi1._kraus
    return OperationMap(products.reshape(-1, phi2.out_dim, phi1.in_dim))


def dual_view(phi: OperationMap) -> OperationMap:
    """Kraus view whose ``apply`` equals ``phi``'s ``apply_dual``."""
    return OperationMap(phi._kraus.conj().swapaxes(1, 2))


def to_supermatrix(phi: OperationMap) -> np.ndarray:
    """The dual supermatrix ``sum_i K_i^T kron K_i^dag``, read-only: ``m @ vec(a)
    == vec(apply_dual(phi, a))``, shape ``(in_dim**2, out_dim**2)``.

    Entry ``((a, b), (c, e))`` is ``sum_i K_i[c, a] conj(K_i[e, b])``: one GEMM
    over the Kraus axis of the flattened stack, reshaped.
    """
    k = phi._kraus
    n_in, n_out = phi.in_dim, phi.out_dim
    flat = k.reshape(len(k), n_out * n_in)
    total = (flat.T @ flat.conj()).reshape(n_out, n_in, n_out, n_in).transpose(1, 3, 0, 2)
    total = total.reshape(n_in * n_in, n_out * n_out)
    total.setflags(write=False)
    return total
