"""Test-suite setup: the BLAS is pinned to one thread before numpy loads, as
in ``perfbench`` and ``tools/oracle.py``, so the tests run the kernels as the
benchmark and the oracle do.  A few tests compare a kernel bit for bit with a
reference that takes the same BLAS product on the same operands (each
matrix-unit image of ``cpmaps._max_unit_norm``, for one)."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
