"""Reference sweep over the dimension of a Lüders channel.

    python3 perfbench/sweep.py            # d = 2, 4, 8, 12, 16
    python3 perfbench/sweep.py 2 4 8      # chosen dimensions

Times ``analyze_fixed_points``, ``kraus_commutant`` and ``repeatability_report``
once each on the Lüders instrument of a random non-degenerate sharp
observable (the ``luders-d12`` workload's input at other ``d``), with BLAS
pinned as in ``run.py``, and prints a Markdown table.  It stops at 16: at
``d = 24`` the full SVD inside ``kraus_commutant`` asks for an 11.4 GiB ``U``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # as in run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from waylab import Observable  # noqa: E402
from waylab.fixpt import analyze_fixed_points, kraus_commutant  # noqa: E402
from waylab.measure import luders_instrument, repeatability_report  # noqa: E402


def luders(d: int, seed: int = 0):
    rng = np.random.default_rng([seed, d])
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    projectors = [np.outer(q[:, i], q[:, i].conj()) for i in range(d)]
    return luders_instrument(Observable([f"x{i}" for i in range(d)], projectors))


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main(dims: list[int]) -> None:
    print(f"BLAS threads: {BLAS_THREADS}")
    print("| d | analyze_fixed_points s | kraus_commutant s | repeatability_report s |")
    print("| ---: | ---: | ---: | ---: |")
    for d in dims:
        inst = luders(d)
        phi = inst.total()
        t_fp = timed(analyze_fixed_points, phi)
        t_kc = timed(kraus_commutant, phi)
        t_rep = timed(repeatability_report, inst)
        print(f"| {d} | {t_fp:.3f} | {t_kc:.3f} | {t_rep:.3f} |", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [2, 4, 8, 12, 16])
