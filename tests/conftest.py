"""Test-suite setup: the BLAS is pinned to one thread before numpy loads, as
in ``perfbench`` and ``tools/oracle.py``.  Several tests compare a kernel bit
for bit with a reference that takes the same BLAS products, and a threaded
BLAS may split the two products between its threads differently."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
