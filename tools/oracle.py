"""Write every equivalence-oracle output of this checkout to one directory.

    python3 tools/oracle.py OUT_DIR

Run it on two checkouts; ``diff -r`` of the two directories is then the
byte-identity check between them.  It writes:

* ``suite.json``: ``waylab suite``;
* ``builtin-<name>.json``: each builtin scenario with ``--run``, at its
  default parameters;
* ``conservative-scheme-4x6-s0.json``: ``conservative-scheme --sys-dim 4
  --app-dim 6 --seed 0 --run``;
* ``luders-d12-s0.json``, ``luders-d12-s97.json``: ``waylab run`` on the
  benchmark's ``luders-d12`` scenario at seeds 0 and 97;
* ``demo-<script>.txt``: each demo's standard output;
* ``battery-<offset>.json``: every bound row of the four evaluators and the
  Yanase report for each of 200 random scenarios of the acceptance battery
  (``tests/test_acceptance.py``) at offsets 1000, 5600 and 24692600.  No CLI
  path reaches ``eval_distinguishability_bounds``, so this is its oracle;
* ``exit-codes.txt``: the exit code of every command above.

waylab, the benchmark's workloads and the battery are imported from this
checkout.  BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _sub in ("tests", "perfbench", "src"):
    sys.path.insert(0, os.path.join(ROOT, _sub))

from waylab import cli, serialize  # noqa: E402
from waylab.conserve import yanase_conditions  # noqa: E402

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


def cli_outputs(out_dir: str) -> list[str]:
    """Run the CLI oracles; returns one ``name exit-code`` line per run."""
    from workloads import Luders

    runs = [("suite", ["suite"])]
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
        lines = []
        for name, argv in runs:
            out = os.path.join(out_dir, f"{name}.json")
            rc = cli.main([*argv, "--out", out, "--quiet"])
            lines.append(f"{name} {rc}")
    return lines


def demo_outputs(out_dir: str) -> list[str]:
    """Run each demo in its own process; returns ``name exit-code`` lines."""
    demos = os.path.join(ROOT, "demos")
    env = dict(os.environ, PYTHONPATH=SRC)
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
    if len(argv) != 1:
        print("usage: oracle.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = argv[0]
    os.makedirs(out_dir, exist_ok=True)
    lines = cli_outputs(out_dir) + demo_outputs(out_dir)
    battery_outputs(out_dir)
    with open(os.path.join(out_dir, "exit-codes.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
