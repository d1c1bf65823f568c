"""Write every equivalence-oracle output of this checkout to one directory.

    python3 tools/oracle.py OUT_DIR [SRC_DIR]

Run it on two checkouts; ``diff -r`` of the two directories is then the
byte-identity check between them.  With ``SRC_DIR``, waylab is imported from
that directory (another checkout's ``src/``) while the oracle's own inputs,
the battery generator and the benchmark's workloads stay this checkout's, so
a newer oracle can be run against older code and the two directories hold
the same files.  It writes:

* ``suite.json``, ``suite.csv``: ``waylab suite`` with ``--csv``;
* ``builtin-<name>.json``: each builtin scenario with ``--run``, at its
  default parameters;
* ``conservative-scheme-4x6-s0.json``: ``conservative-scheme --sys-dim 4
  --app-dim 6 --seed 0 --run``;
* ``luders-d12-s0.json``, ``luders-d12-s97.json``: ``waylab run`` on the
  benchmark's ``luders-d12`` scenario at seeds 0 and 97;
* ``repeatability-random-d8.json``: ``waylab run`` with a ``repeatability``
  task on a random 3-outcome instrument at ``d = 8`` with 2 Kraus operators
  per outcome, far from repeatable, whose own-effect items take the factored
  matrix-unit path;
* ``luders-unsharp-d10.json``: ``waylab run`` with ``fixed-points`` and
  ``repeatability`` tasks on the Lüders instrument of a random 8-outcome
  unsharp observable at ``d = 10``: its ``total-localizes`` item takes the
  screened long-family matrix-unit path with O(1) images, and its trivial
  commutant comes out of restricted singular values of order one;
* ``unsharp-pointer-3x4.json``, ``unsharp-pointer-12x3.json``: ``waylab run``
  with a ``repeatability`` task on a scheme (random unitary coupling, rank-2
  ``xi``) whose two unsharp pointer effects each have eigenvalue 1 on one
  vector of a random basis, at ``d_S x d_A = 3 x 4`` and ``12 x 3``: its
  ``restriction-identity`` defect is of order one, and at ``12 x 3`` it
  takes the screened matrix-unit path;
* ``cnot-extremal.json``: ``waylab run`` on the CNOT scheme measuring ``Z``
  with the conserved ``Z/2 (x) 1``: disturbance and measurability bounds with
  ``assert_extremal`` and the distinguishability bounds of ``|1>`` against
  ``|0>``, so the ``*-qfi-extremal``, ``distinguish-norm-gap`` and
  ``repeat-commutant`` rows are covered;
* ``conservation-unitary.json``: ``waylab run`` with a ``conservation`` task
  on a seeded random channel at ``d = 4`` against a random Hermitian
  operator (defects of order one), and ``unitary-equivalence`` tasks on a
  unitary that commutes with ``diag(1, 0, 0, -1)`` and on a Haar unitary
  that does not;
* ``commutant-gram-window.json``: ``waylab run`` with ``fixed-points``
  tasks on two unital qutrit channels ``rho -> (rho + U rho U^dag) / 2``,
  ``U = diag(1, e^{i delta}, -1)``, at ``rank_tol = 1e-6``: the commutator
  stack's singular value ``delta`` (1.5e-6 and 2.5e-6) lies between the
  null thresholds of the two ends of the ``||S||_2`` bracket, so
  ``kraus_commutant`` takes ``||S||_2 = 2`` from the Gram and counts the
  value as null in the first channel only;
* ``near-unit-smearing.json``: ``waylab run`` with a ``fixed-points`` task
  on the Lüders instrument of a two-outcome smearing ``E(0) = a P +
  a' (1 - P)`` at ``d = 4``, whose non-fixed channel eigenvalue
  ``sqrt(a a') + sqrt((1 - a)(1 - a'))`` is about ``1 - 1e-9``: inside
  ``rank_tol`` for the supermatrix rule, far outside it for the Kraus
  commutant, so the unital path's certificate fails and the dense SVD counts
  all 16 directions;
* ``demo-<script>.txt``: each demo's standard output;
* ``battery-<offset>.json``: every bound row of the four evaluators and the
  Yanase report for each of 200 random scenarios of the acceptance battery
  (``tests/test_acceptance.py``) at offsets 1000, 5600 and 24692600, in the
  order the evaluators return them (unsorted, unlike the CLI report), so
  these files pin the evaluators' row order;
* ``exit-codes.txt``: the exit code of every command above.

BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _sub in ("tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, _sub))

BUILTINS = (
    "qubit-luders",
    "qutrit-average-vs-full",
    "normal-dilation",
    "conservative-scheme",
    "rank1-collapse",
)
BATTERY_OFFSETS = (1000, 5600, 24692600)
BATTERY_SIZE = 200
LUDERS_SEEDS = (0, 97)


def random_instrument_scenario() -> dict:
    from waylab import Instrument, OperationMap
    from waylab.serialize import instrument_to_json
    from waylab.rand import random_channel

    kraus = random_channel(8, 8, 6, np.random.default_rng(9)).kraus
    inst = Instrument(
        ["a", "b", "c"], [OperationMap(kraus[i : i + 2]) for i in (0, 2, 4)]
    )
    return {
        "schema": 1,
        "name": "repeatability-random-d8",
        "system_dim": 8,
        "objects": {"I": {"kind": "instrument", **instrument_to_json(inst)}},
        "tasks": [{"op": "repeatability", "instrument": "I"}],
    }


def luders_unsharp_scenario() -> dict:
    from waylab import Observable
    from waylab.measure import luders_instrument
    from waylab.rand import random_povm
    from waylab.serialize import instrument_to_json

    effects = random_povm(10, 8, np.random.default_rng(10))
    inst = luders_instrument(Observable([f"x{i}" for i in range(8)], effects))
    return {
        "schema": 1,
        "name": "luders-unsharp-d10",
        "system_dim": 10,
        "objects": {"I": {"kind": "instrument", **instrument_to_json(inst)}},
        "tasks": [
            {"op": "fixed-points", "instrument": "I"},
            {"op": "repeatability", "instrument": "I"},
        ],
    }


def unsharp_pointer_scenario(d_sys: int, d_app: int) -> dict:
    from waylab import serialize
    from waylab.rand import haar_unitary, random_state

    rng = np.random.default_rng([d_sys, d_app])
    v = haar_unitary(d_app, rng).mat
    weights = np.zeros((2, d_app))
    weights[[0, 1], [0, 1]] = 1.0
    weights[:, 2:] = rng.dirichlet([1.0, 1.0], size=d_app - 2).T
    scheme = {
        "kind": "scheme",
        "apparatus_dim": d_app,
        "xi": serialize.matrix_to_json(random_state(d_app, rng, rank=2).mat),
        "coupling": {"unitary": serialize.matrix_to_json(haar_unitary(d_sys * d_app, rng).mat)},
        "pointer": {
            "outcomes": ["p0", "p1"],
            "effects": [serialize.matrix_to_json(v @ np.diag(w) @ v.conj().T) for w in weights],
        },
    }
    return {"schema": 1, "name": f"unsharp-pointer-{d_sys}x{d_app}", "system_dim": d_sys,
            "objects": {"M": scheme}, "tasks": [{"op": "repeatability", "scheme": "M"}]}


def cnot_extremal_scenario() -> dict:
    from waylab import serialize

    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    cnot = np.eye(4)[[0, 1, 3, 2]]
    z_half = np.diag([0.5, -0.5])
    pointer = {
        "outcomes": ["z0", "z1"],
        "effects": [serialize.matrix_to_json(p0), serialize.matrix_to_json(p1)],
    }
    objects = {
        "M": {
            "kind": "scheme",
            "apparatus_dim": 2,
            "xi": serialize.matrix_to_json(p0),
            "coupling": {"unitary": serialize.matrix_to_json(cnot)},
            "pointer": pointer,
        },
        "F": {"kind": "observable", **pointer},
        "N": {
            "kind": "quantity",
            "system": serialize.matrix_to_json(z_half),
            "apparatus": serialize.matrix_to_json(np.zeros((2, 2))),
        },
        "psi": {"kind": "vector", "values": serialize.vector_to_json([0.0, 1.0])},
        "phi": {"kind": "vector", "values": serialize.vector_to_json([1.0, 0.0])},
    }
    tasks = [
        {"op": "disturbance-bounds", "scheme": "M", "observable": "F", "quantity": "N",
         "assert_extremal": True},
        {"op": "measurability-bounds", "scheme": "M", "target": "F", "quantity": "N",
         "assert_extremal": True},
        {"op": "distinguishability-bounds", "scheme": "M", "quantity": "N",
         "psi": "psi", "phi": "phi"},
    ]
    return {"schema": 1, "name": "cnot-extremal", "system_dim": 2,
            "objects": objects, "tasks": tasks}


def conservation_unitary_scenario() -> dict:
    from waylab import serialize
    from waylab.conserve import conservative_unitary
    from waylab.rand import haar_unitary, random_channel, random_hermitian
    from waylab.serialize import operation_to_json

    rng = np.random.default_rng(4)
    n = np.diag([1.0, 0.0, 0.0, -1.0])
    mats = {
        "H": random_hermitian(4, rng, norm=2.0).mat,
        "N": n,
        "U_comm": conservative_unitary(n, rng, strength=1.5).mat,
        "U_haar": haar_unitary(4, rng).mat,
    }
    objects = {"Phi": {"kind": "channel", **operation_to_json(random_channel(4, 4, 3, rng))}}
    for name, mat in mats.items():
        objects[name] = {"kind": "operator", "matrix": serialize.matrix_to_json(mat)}
    tasks = [
        {"op": "conservation", "channel": "Phi", "operator": "H"},
        {"op": "unitary-equivalence", "unitary": "U_comm", "operator": "N"},
        {"op": "unitary-equivalence", "unitary": "U_haar", "operator": "N"},
    ]
    return {"schema": 1, "name": "conservation-unitary", "system_dim": 4,
            "objects": objects, "tasks": tasks}


def gram_window_scenario() -> dict:
    from waylab import OperationMap
    from waylab.serialize import operation_to_json

    objects = {}
    for name, delta in (("Phi_in", 1.5e-6), ("Phi_out", 2.5e-6)):
        u = np.diag(np.exp(1j * np.array([0.0, delta, np.pi])))
        phi = OperationMap([np.sqrt(0.5) * np.eye(3), np.sqrt(0.5) * u])
        objects[name] = {"kind": "channel", **operation_to_json(phi)}
    return {"schema": 1, "name": "commutant-gram-window", "system_dim": 3,
            "tolerance": {"eq_tol": 1e-5, "rank_tol": 1e-6}, "objects": objects,
            "tasks": [{"op": "fixed-points", "channel": name} for name in objects]}


def near_unit_smearing_scenario() -> dict:
    from waylab import Observable
    from waylab.measure import luders_instrument
    from waylab.rand import haar_unitary
    from waylab.serialize import instrument_to_json

    a = 0.3
    # 1 - (sqrt(a a') + sqrt((1 - a)(1 - a'))) = (a' - a)^2 / (8 a (1 - a)) to
    # leading order
    a_next = a + np.sqrt(8 * a * (1 - a) * 1e-9)
    u = haar_unitary(4, np.random.default_rng(12)).mat
    e0 = (u * np.array([a, a, a_next, a_next])) @ u.conj().T
    inst = luders_instrument(Observable(["0", "1"], [e0, np.eye(4) - e0]))
    return {
        "schema": 1,
        "name": "near-unit-smearing",
        "system_dim": 4,
        "objects": {"I": {"kind": "instrument", **instrument_to_json(inst)}},
        "tasks": [{"op": "fixed-points", "instrument": "I"}],
    }


def cli_outputs(out_dir: str) -> list[str]:
    """Run the CLI oracles; returns one ``name exit-code`` line per run."""
    from waylab import cli
    from workloads import Luders

    runs = [("suite", ["suite", "--csv", os.path.join(out_dir, "suite.csv")])]
    runs += [(f"builtin-{name}", ["builtin", name, "--run"]) for name in BUILTINS]
    runs.append((
        "conservative-scheme-4x6-s0",
        ["builtin", "conservative-scheme", "--sys-dim", "4", "--app-dim", "6",
         "--seed", "0", "--run"],
    ))
    with tempfile.TemporaryDirectory() as work:
        for seed in LUDERS_SEEDS:
            seed_dir = os.path.join(work, str(seed))
            os.mkdir(seed_dir)
            runs.append((f"luders-d12-s{seed}", ["run", Luders(seed, seed_dir).path]))
        for scenario in (
            random_instrument_scenario(), luders_unsharp_scenario(),
            unsharp_pointer_scenario(3, 4), unsharp_pointer_scenario(12, 3),
            cnot_extremal_scenario(), conservation_unitary_scenario(), gram_window_scenario(),
            near_unit_smearing_scenario(),
        ):
            path = os.path.join(work, f"{scenario['name']}.json")
            with open(path, "w") as fh:
                json.dump(scenario, fh)
            runs.append((scenario["name"], ["run", path]))
        lines = []
        for name, argv in runs:
            out = os.path.join(out_dir, f"{name}.json")
            rc = cli.main([*argv, "--out", out, "--quiet"])
            lines.append(f"{name} {rc}")
    return lines


def demo_outputs(out_dir: str, src: str) -> list[str]:
    """Run each demo in its own process; returns ``name exit-code`` lines."""
    demos = os.path.join(ROOT, "demos")
    env = dict(os.environ, PYTHONPATH=src)
    lines = []
    for script in sorted(os.listdir(demos)):
        if not script.endswith(".py"):
            continue
        name = f"demo-{script[:-3]}"
        done = subprocess.run(
            [sys.executable, os.path.join(demos, script)],
            env=env, capture_output=True, text=True,
        )
        with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
            fh.write(done.stdout)
        lines.append(f"{name} {done.returncode}")
    return lines


def battery_outputs(out_dir: str) -> None:
    from test_acceptance import _battery_reports, _bound_battery_scenario
    from waylab import serialize
    from waylab.conserve import yanase_conditions

    for offset in BATTERY_OFFSETS:
        scenarios = []
        for i in range(BATTERY_SIZE):
            m, f, q, target, psi, phi = _bound_battery_scenario(i, offset)
            scenarios.append({
                "bounds": [r.to_dict() for r in _battery_reports(m, f, q, target, psi, phi)],
                "yanase": yanase_conditions(m, q).to_dict(),
            })
        with open(os.path.join(out_dir, f"battery-{offset}.json"), "w") as fh:
            fh.write(serialize.dumps(scenarios))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: oracle.py OUT_DIR [SRC_DIR]", file=sys.stderr)
        return 2
    out_dir = argv[0]
    src = os.path.abspath(argv[1] if len(argv) == 2 else os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    os.makedirs(out_dir, exist_ok=True)
    lines = cli_outputs(out_dir) + demo_outputs(out_dir, src)
    battery_outputs(out_dir)
    with open(os.path.join(out_dir, "exit-codes.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
