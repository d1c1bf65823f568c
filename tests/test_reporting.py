"""The inputs digest: one rounding pass over a list of same-shape arrays."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from waylab.reporting import _rounded, _rounded_rows, digest_inputs

SPECIALS = [0.0, -0.0, 1.0, 10.0, 1e3, 1e-5, 1e22, 1e-300, -100.0, 0.5e-7]


def per_array_digest(*items):
    """``digest_inputs`` with every array of a list rounded on its own."""
    h = hashlib.sha256()

    def feed(item):
        if isinstance(item, str):
            h.update(b"\x01s" + item.encode("utf-8"))
        elif isinstance(item, np.ndarray):
            h.update(b"\x04m" + str(item.shape).encode("ascii") + _rounded(item))
        else:
            h.update(b"\x05l" + str(len(item)).encode("ascii"))
            for sub in item:
                feed(sub)

    for item in items:
        feed(item)
    return h.hexdigest()[:12]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), d=st.integers(1, 4),
       scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e4, 1e200]), zeros=st.booleans(),
       special=st.sampled_from(SPECIALS), complex_=st.booleans())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_rounded_rows_match_per_array_rounding(seed, n, d, scale, zeros, special, complex_):
    # exact powers of ten as the largest entry (where a vectorized log10 may
    # be one ulp off), all-zero arrays, -0.0 and tiny values
    rng = np.random.default_rng(seed)
    stack = scale * rng.uniform(-0.9, 0.9, (n, d, d))
    if complex_:
        stack = stack + 1j * scale * rng.uniform(-0.9, 0.9, (n, d, d))
    stack[0].reshape(-1)[0] = special
    stack[-1].reshape(-1)[-1] = 10.0 ** rng.integers(-20, 20)
    if zeros:
        stack[rng.integers(n)] = -0.0
    assert _rounded_rows(stack) == [_rounded(a) for a in stack]
    arrays = list(stack)
    assert digest_inputs("x", arrays, [arrays[0], stack[:, :1]]) == per_array_digest(
        "x", arrays, [arrays[0], stack[:, :1]]
    )
