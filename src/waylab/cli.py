"""Command-line front end.

Three subcommands: ``run`` evaluates scenario files, ``builtin`` materializes
(and optionally runs) named example scenarios, and ``suite`` executes a fixed
deterministic battery whose report is byte-identical across runs.

A scenario is a JSON object declaring named operators, observables,
instruments, channels, schemes, vectors, and additive quantities, plus a
task list binding them to evaluators.  Every run emits one report object:
the evaluated bound inequalities (sorted), the per-task records, and a
summary.  Exit code 0 means every hypothesis-satisfying bound held and every
certification task passed; 1 flags a violation or failed certification; 2
flags a schema or validation error in the inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from typing import Any, Callable

import numpy as np

from . import serialize
from .bounds import (
    eval_distinguishability_bounds,
    eval_disturbance_bounds,
    eval_measurability_bounds,
    eval_way,
)
from .conserve import (
    AdditiveQuantity,
    _scheme_conservation,
    check_conservation,
    check_unitary_equivalence,
    conservative_unitary,
    yanase_conditions,
)
from .cpmaps import OperationMap
from .fixpt import (
    analyze_fixed_points,
    cesaro_supermatrix,
    check_minimal_support,
    nondisturbed_norm1_observable,
    post_processing_decomposition,
    structural_necessary_conditions,
)
from .measure import (
    Instrument,
    MeasurementScheme,
    Observable,
    luders_instrument,
    normal_dilation,
    repeatability_report,
    scheme_to_instrument,
    sharp_observable,
)
from .opcore import DEFAULT_TOL, Tolerance, op_norm_mat
from .rand import random_state
from .reporting import BoundReport, summarize
from .serialize import SchemaError

# norm1-observable and post-processing rebuild an object through several
# eigendecompositions and solves, whose rounding adds up past eq_tol; their
# task is ok when the reconstruction defects stay below this.
_RECONSTRUCTION_OK_TOL = 1e-7

class _Scenario:
    def __init__(self, name: str, sys_dim: int, tol: Tolerance):
        self.name = name
        self.sys_dim = sys_dim
        self.tol = tol
        self.objects: dict[str, tuple[str, Any]] = {}

    def get(self, task_idx: int, field: str, name: Any, kinds: tuple[str, ...]) -> Any:
        where = f"tasks[{task_idx}].{field}"
        if not isinstance(name, str):
            raise SchemaError(f"{where}: expected an object name string")
        if name not in self.objects:
            raise SchemaError(f"{where}: no object named {name!r}")
        kind, value = self.objects[name]
        if kind not in kinds:
            raise SchemaError(
                f"{where}: object {name!r} has kind {kind!r}, expected one of {kinds}"
            )
        return value


def _number(value: Any, where: str, kinds: tuple[type, ...]) -> float:
    """``value`` as a float when it is one of ``kinds`` (never a bool) that
    ``float`` reads; otherwise a schema error naming ``where``."""
    if isinstance(value, kinds) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise SchemaError(f"{where}: expected a number, got {value!r}")


def _resolve_tolerance(scenario_obj: dict, args: argparse.Namespace) -> Tolerance:
    """Precedence: command line over environment over scenario over default.
    A scenario value must be a JSON number, an environment value a number's text."""
    block = scenario_obj.get("tolerance")
    block = {} if block is None else serialize._object(block, "tolerance")
    tols = {}
    for field, env, flag in (("eq_tol", "WAYLAB_TOL", "tol"),
                             ("rank_tol", "WAYLAB_RANK_TOL", "rank_tol")):
        value = block.get(field, getattr(DEFAULT_TOL, field))
        tols[field] = _number(value, f"tolerance.{field}", (int, float))
        if env in os.environ:
            tols[field] = _number(os.environ[env], env, (str,))
        if getattr(args, flag, None) is not None:
            tols[field] = getattr(args, flag)
    return serialize._built("tolerance", Tolerance, **tols)


def parse_scenario(obj: Any, args: argparse.Namespace) -> tuple[_Scenario, list[dict]]:
    if not isinstance(obj, dict):
        raise SchemaError("scenario: expected a JSON object")
    if obj.get("schema") != 1:
        raise SchemaError("scenario.schema: expected the integer 1")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError("scenario.name: expected a non-empty string")
    sys_dim = obj.get("system_dim")
    if type(sys_dim) is not int or sys_dim < 1:
        raise SchemaError("scenario.system_dim: expected a positive integer")
    tol = _resolve_tolerance(obj, args)
    scn = _Scenario(name, sys_dim, tol)
    objects = serialize._object(obj.get("objects", {}), "scenario.objects")
    for key, body in objects.items():
        scn.objects[key] = serialize.object_from_json(body, f"objects.{key}", sys_dim, tol)
    tasks = obj.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise SchemaError("scenario.tasks: expected a non-empty list")
    for i, t in enumerate(tasks):
        if not isinstance(t, dict) or not isinstance(t.get("op"), str):
            raise SchemaError(f"tasks[{i}]: expected an object with an 'op' string")
    return scn, tasks


def _as_channel(get: Callable[..., Any], idx: int, task: dict, tol: Tolerance) -> OperationMap:
    """Accept a channel, an instrument's total, or a scheme's total channel;
    ``get`` is :func:`run_task`'s field accessor."""
    if "channel" in task:
        return get("channel")
    if "instrument" in task or "scheme" in task:
        return _as_instrument(get, idx, task, tol).total()
    raise SchemaError(f"tasks[{idx}]: needs one of 'channel', 'instrument', 'scheme'")


def _as_instrument(get: Callable[..., Any], idx: int, task: dict, tol: Tolerance) -> Instrument:
    if "instrument" in task:
        return get("instrument")
    if "scheme" in task:
        return scheme_to_instrument(get("scheme"), tol)
    raise SchemaError(f"tasks[{idx}]: needs 'instrument' or 'scheme'")


def _flag(idx: int, task: dict, field: str) -> bool:
    """An optional boolean task field; absent means false."""
    value = task.get(field, False)
    if not isinstance(value, bool):
        raise SchemaError(f"tasks[{idx}].{field}: expected true or false, got {value!r}")
    return value


def run_task(scn: _Scenario, idx: int, task: dict) -> tuple[dict, list[BoundReport]]:
    op = task["op"]
    tol = scn.tol
    record: dict[str, Any] = {"index": idx, "op": op, "ok": None}
    reports: list[BoundReport] = []

    def get(field: str, *kinds: str) -> Any:
        """The object a task field names; its kind defaults to the field's name."""
        return scn.get(idx, field, task.get(field), kinds or (field,))

    if op == "disturbance-bounds":
        reports = eval_disturbance_bounds(
            get("scheme"),
            get("observable"),
            get("quantity") if "quantity" in task else None,
            _flag(idx, task, "assert_extremal"),
            tol,
        )
    elif op == "measurability-bounds":
        reports = eval_measurability_bounds(
            get("scheme"),
            get("target", "observable"),
            get("quantity"),
            _flag(idx, task, "assert_extremal"),
            tol,
        )
    elif op == "way-bounds":
        reports = eval_way(get("scheme"), get("quantity"), tol)
    elif op == "distinguishability-bounds":
        reports = eval_distinguishability_bounds(
            get("scheme"),
            get("quantity"),
            get("psi", "vector"),
            get("phi", "vector"),
            task.get("outcome"),
            tol,
        )
    elif op == "conservation":
        if "scheme" in task:
            rep = _scheme_conservation(get("scheme"), get("quantity"), tol)[1]
        else:
            rep = check_conservation(_as_channel(get, idx, task, tol), get("operator"), tol)
        record.update(rep.to_dict())
    elif op == "unitary-equivalence":
        rep = check_unitary_equivalence(get("unitary", "operator"), get("operator"), tol)
        record.update(rep.to_dict())
        record["ok"] = rep.consistent
    elif op == "repeatability":
        inst = _as_instrument(get, idx, task, tol)
        rep = repeatability_report(inst, get("scheme") if "scheme" in task else None, tol)
        record.update(rep.to_dict())
        if rep.repeatable:
            failed = [
                k for k, item in rep.items.items() if item.evaluated and not item.passed
            ]
            record["ok"] = not failed
            if failed:
                record["failed_items"] = failed
    elif op == "fixed-points":
        phi = _as_channel(get, idx, task, tol)
        analysis = analyze_fixed_points(phi, tol)
        support = check_minimal_support(analysis, phi, tol)
        record["analysis"] = analysis.to_dict()
        record["support_checks"] = support.to_dict()
        record["ok"] = bool(
            analysis.algebra_certified
            and support.all_pass
            and analysis.commutant_consistent in (None, True)
        )
    elif op == "structural":
        rep = structural_necessary_conditions(
            get("scheme"), get("observable"), get("quantity"), tol
        )
        record.update(rep.to_dict())
        record["ok"] = rep.all_applicable_pass()
    elif op == "norm1-observable":
        res = nondisturbed_norm1_observable(
            _as_channel(get, idx, task, tol), get("observable"), tol
        )
        record.update(res.to_dict())
        worst = max(
            res.norm_defect, res.fixed_defect, res.compression_defect, res.distinguish_defect
        )
        record["ok"] = worst <= _RECONSTRUCTION_OK_TOL
    elif op == "post-processing":
        res = post_processing_decomposition(_as_instrument(get, idx, task, tol), tol)
        record.update(res.to_dict())
        record["ok"] = res.reconstruction_defect <= _RECONSTRUCTION_OK_TOL
    elif op == "yanase":
        rep = yanase_conditions(get("scheme"), get("quantity"), tol)
        record.update(rep.to_dict())
        if rep.equivalence_applicable:
            record["ok"] = rep.equivalence_consistent
    else:
        raise SchemaError(f"tasks[{idx}].op: unknown operation {op!r}")
    if op.endswith("-bounds"):
        record["bounds_emitted"] = len(reports)
    return record, reports


def run_scenario(scn: _Scenario, tasks: list[dict]) -> dict:
    records: list[dict] = []
    all_reports: list[BoundReport] = []
    for i, task in enumerate(tasks):
        try:
            record, reports = run_task(scn, i, task)
        except SchemaError:
            raise
        except (ValueError, RuntimeError) as exc:
            raise SchemaError(f"tasks[{i}] ({task['op']}): {exc}") from exc
        records.append(record)
        # rows in task order, each task's sorted by (bound_id, outcome)
        all_reports.extend(sorted(reports, key=lambda r: (r.bound_id, r.outcome)))
    summary = summarize(all_reports)
    summary["tasks_ok"] = sum(1 for r in records if r["ok"] is True)
    summary["tasks_failed"] = sum(1 for r in records if r["ok"] is False)
    return {
        "schema": 1,
        "scenario": scn.name,
        "tolerance": {"eq_tol": scn.tol.eq_tol, "rank_tol": scn.tol.rank_tol},
        "tasks": records,
        "bounds": [r.to_dict() for r in all_reports],
        "summary": summary,
    }


def _report_exit(report: dict) -> int:
    s = report["summary"]
    return 1 if (s["violated"] > 0 or s["tasks_failed"] > 0) else 0


# The CSV columns after the scenario name: bound-row keys, of which the
# floats are written as the JSON report writes them.
_CSV_COLUMNS = (
    "bound_id",
    "outcome",
    "lhs",
    "rhs",
    "slack",
    "satisfied",
    "hypothesis_satisfied",
    "inputs_digest",
)
_CSV_FLOATS = ("lhs", "rhs", "slack")


def _write_csv(path: str, reports: list[dict]) -> None:
    fmt = serialize.format_float
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", *_CSV_COLUMNS])
        for rep in reports:
            for b in rep["bounds"]:
                row = [fmt(b[k]) if k in _CSV_FLOATS else b[k] for k in _CSV_COLUMNS]
                writer.writerow([rep["scenario"], *row])


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)


def _scenario(name: str, system_dim: int, objects: dict, tasks: list[dict]) -> dict:
    return dict(schema=1, name=name, system_dim=system_dim, objects=objects, tasks=tasks)


def _quantity_json(n_sys: np.ndarray, n_app: np.ndarray) -> dict:
    return {
        "kind": "quantity",
        "system": serialize.matrix_to_json(n_sys),
        "apparatus": serialize.matrix_to_json(n_app),
    }


def _builtin_qubit_luders(args: argparse.Namespace) -> dict:
    lam = args.lam
    if not 0.0 < lam <= 1.0:
        raise SchemaError(f"--lam must lie in (0, 1], got {lam}")
    b_plus = 0.5 * (np.eye(2) + lam * _SX)
    b_minus = 0.5 * (np.eye(2) - lam * _SX)
    b = Observable(["plus", "minus"], [b_plus, b_minus])
    inst = luders_instrument(b)
    m = normal_dilation(b)
    f = sharp_observable(_SZ)
    objects = {
        "B": {"kind": "observable", **serialize.observable_to_json(b)},
        "F": {"kind": "observable", **serialize.observable_to_json(f)},
        "I": {"kind": "instrument", **serialize.instrument_to_json(inst)},
        "M": {"kind": "scheme", **serialize.scheme_to_json(m)},
        "N": _quantity_json(0.5 * _SZ, 0.5 * _SZ),
    }
    tasks = [
        {"op": "disturbance-bounds", "scheme": "M", "observable": "F", "quantity": "N"},
        {"op": "disturbance-bounds", "scheme": "M", "observable": "B"},
        {"op": "way-bounds", "scheme": "M", "quantity": "N"},
        {"op": "conservation", "scheme": "M", "quantity": "N"},
        {"op": "repeatability", "scheme": "M"},
        {"op": "fixed-points", "instrument": "I"},
        {"op": "structural", "scheme": "M", "observable": "F", "quantity": "N"},
    ]
    return _scenario(f"qubit-luders-lam{lam:g}", 2, objects, tasks)


def _builtin_qutrit_average_vs_full(args: argparse.Namespace) -> dict:
    e = np.eye(3, dtype=complex)
    kraus = [
        np.outer(e[:, 0], e[:, 0]),
        np.outer(e[:, 2], e[:, 2]),
        np.outer(e[:, 0], e[:, 1]) / np.sqrt(2.0),
        np.outer(e[:, 2], e[:, 1]) / np.sqrt(2.0),
    ]
    phi = OperationMap(kraus)
    n = np.diag([1.0, 0.0, -1.0]).astype(complex)
    objects = {
        "Phi": {"kind": "channel", **serialize.operation_to_json(phi)},
        "N": {"kind": "operator", "matrix": serialize.matrix_to_json(n)},
    }
    tasks = [
        {"op": "conservation", "channel": "Phi", "operator": "N"},
        {"op": "fixed-points", "channel": "Phi"},
    ]
    return _scenario("qutrit-average-vs-full", 3, objects, tasks)


def _builtin_normal_dilation(args: argparse.Namespace) -> dict:
    effects = [
        np.diag([0.7, 0.2, 0.1]).astype(complex),
        np.diag([0.2, 0.6, 0.3]).astype(complex),
        np.diag([0.1, 0.2, 0.6]).astype(complex),
    ]
    b = Observable(["a", "b", "c"], effects)
    inst = luders_instrument(b)
    m = normal_dilation(b)
    n = np.diag([1.0, 0.0, -1.0]).astype(complex)
    objects = {
        "B": {"kind": "observable", **serialize.observable_to_json(b)},
        "I": {"kind": "instrument", **serialize.instrument_to_json(inst)},
        "M": {"kind": "scheme", **serialize.scheme_to_json(m)},
        "N": _quantity_json(n, n),
    }
    tasks = [
        {"op": "repeatability", "scheme": "M"},
        {"op": "post-processing", "instrument": "I"},
        {"op": "fixed-points", "instrument": "I"},
        {"op": "way-bounds", "scheme": "M", "quantity": "N"},
        {"op": "conservation", "scheme": "M", "quantity": "N"},
    ]
    return _scenario("normal-dilation", 3, objects, tasks)


def _builtin_conservative_scheme(args: argparse.Namespace) -> dict:
    seed = args.seed
    ds, da = args.sys_dim, args.app_dim
    if ds < 2 or da < 2:
        raise SchemaError("--sys-dim and --app-dim must be at least 2")
    rng = np.random.default_rng(seed)
    vals_s = rng.integers(-1, 2, size=ds)
    while len(set(vals_s.tolist())) == 1:
        vals_s = rng.integers(-1, 2, size=ds)
    vals_a = rng.integers(-1, 2, size=da)
    while len(set(vals_a.tolist())) == 1:
        vals_a = rng.integers(-1, 2, size=da)
    n_sys = np.diag(vals_s.astype(float)).astype(complex)
    n_app = np.diag(vals_a.astype(float)).astype(complex)
    q = AdditiveQuantity(n_sys=n_sys, n_app=n_app)
    u = conservative_unitary(q.composite(), rng, strength=1.5)
    xi = random_state(da, rng, rank=min(2, da))
    if args.aligned:
        pointer = sharp_observable(np.diag(np.arange(float(da))))
    else:
        herm = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
        pointer = sharp_observable(0.5 * (herm + herm.conj().T))
    m = MeasurementScheme(ds, da, xi, OperationMap([u]), pointer)
    f = sharp_observable(np.diag(np.arange(float(ds))) + 0.0j)
    n_out = len(pointer.outcomes)
    target = Observable(
        list(pointer.outcomes), [np.eye(ds, dtype=complex) / n_out] * n_out
    )
    suffix = "-aligned" if args.aligned else ""
    objects = {
        "M": {"kind": "scheme", **serialize.scheme_to_json(m)},
        "F": {"kind": "observable", **serialize.observable_to_json(f)},
        "T": {"kind": "observable", **serialize.observable_to_json(target)},
        "N": _quantity_json(n_sys, n_app),
    }
    tasks = [
        {"op": "conservation", "scheme": "M", "quantity": "N"},
        {"op": "yanase", "scheme": "M", "quantity": "N"},
        {"op": "way-bounds", "scheme": "M", "quantity": "N"},
        {"op": "disturbance-bounds", "scheme": "M", "observable": "F", "quantity": "N"},
        {"op": "measurability-bounds", "scheme": "M", "target": "T", "quantity": "N"},
        {"op": "fixed-points", "scheme": "M"},
        {"op": "structural", "scheme": "M", "observable": "F", "quantity": "N"},
    ]
    return _scenario(f"conservative-scheme-{seed}-{ds}x{da}{suffix}", ds, objects, tasks)


def _builtin_rank1_collapse(args: argparse.Namespace) -> dict:
    gamma = args.gamma
    if not 0.0 < gamma < 1.0:
        raise SchemaError(f"--gamma must lie in (0, 1), got {gamma}")
    e = np.eye(3, dtype=complex)
    k0 = [np.outer(e[:, 0], e[:, 0]), np.sqrt(gamma) * np.outer(e[:, 0], e[:, 2])]
    k1 = [
        np.outer(e[:, 1], e[:, 1]),
        np.sqrt(1.0 - gamma) * np.outer(e[:, 1], e[:, 2]),
    ]
    inst = Instrument(["e0", "e1"], [OperationMap(k0), OperationMap(k1)])
    e_obs = inst.induced_observable()
    objects = {
        "I": {"kind": "instrument", **serialize.instrument_to_json(inst)},
        "Phi": {"kind": "channel", **serialize.operation_to_json(inst.total())},
        "E": {"kind": "observable", **serialize.observable_to_json(e_obs)},
    }
    tasks = [
        {"op": "repeatability", "instrument": "I"},
        {"op": "fixed-points", "instrument": "I"},
        {"op": "post-processing", "instrument": "I"},
        {"op": "norm1-observable", "channel": "Phi", "observable": "E"},
    ]
    return _scenario(f"rank1-collapse-gamma{gamma:g}", 3, objects, tasks)


_BUILTINS = {
    "qubit-luders": _builtin_qubit_luders,
    "qutrit-average-vs-full": _builtin_qutrit_average_vs_full,
    "normal-dilation": _builtin_normal_dilation,
    "conservative-scheme": _builtin_conservative_scheme,
    "rank1-collapse": _builtin_rank1_collapse,
}

# The scenarios of ``waylab suite``, in report order: each builtin with the
# parameters it is built from.
_SUITE = (
    *((_builtin_qubit_luders, {"lam": lam}) for lam in (0.1, 0.3, 0.5, 0.7, 0.9)),
    (_builtin_qutrit_average_vs_full, {}),
    (_builtin_normal_dilation, {}),
    (_builtin_conservative_scheme, {"seed": 7, "sys_dim": 2, "app_dim": 3, "aligned": False}),
    (_builtin_conservative_scheme, {"seed": 11, "sys_dim": 2, "app_dim": 3, "aligned": True}),
    (_builtin_rank1_collapse, {"gamma": 0.6}),
)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    import json

    reports = []
    for path in args.scenario:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # a decode error, or an integer of over 4300 digits
            print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
            return 2
        scn, tasks = parse_scenario(obj, args)
        reports.append(run_scenario(scn, tasks))
    payload = reports[0] if len(reports) == 1 else {"schema": 1, "reports": reports}
    _emit(serialize.dumps(payload), args.out)
    if args.csv:
        _write_csv(args.csv, reports)
    if not args.quiet:
        for rep in reports:
            s = rep["summary"]
            print(
                f"{rep['scenario']}: {s['total']} bounds "
                f"({s['violated']} violated, {s['hypothesis_violated']} hypothesis-flagged), "
                f"{s['tasks_failed']} tasks failed",
                file=sys.stderr,
            )
    return max((_report_exit(rep) for rep in reports), default=0)


def cmd_builtin(args: argparse.Namespace) -> int:
    scenario = _BUILTINS[args.name](args)
    if args.run:
        scn, tasks = parse_scenario(scenario, args)
        report = run_scenario(scn, tasks)
        _emit(serialize.dumps(report), args.out)
        if args.csv:
            _write_csv(args.csv, [report])
        return _report_exit(report)
    _emit(serialize.dumps(scenario), args.emit)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    scenario_args = argparse.Namespace(tol=args.tol, rank_tol=args.rank_tol)
    reports = []
    for builder, params in _SUITE:
        scn, tasks = parse_scenario(builder(argparse.Namespace(**params)), scenario_args)
        reports.append(run_scenario(scn, tasks))

    # cross-validate the spectral fixed-point projector against a long
    # Cesaro average of the qubit measurement channel
    b = Observable(
        ["plus", "minus"],
        [0.5 * (np.eye(2) + 0.5 * _SX), 0.5 * (np.eye(2) - 0.5 * _SX)],
    )
    phi = luders_instrument(b).total()
    analysis = analyze_fixed_points(phi)
    ces = cesaro_supermatrix(phi, 10_000)
    defect = float(op_norm_mat(analysis.projector - ces))
    # The defect is the truncation of a finite average, not rounding: the
    # non-fixed eigenvalue mu = sqrt(3)/2 leaves mu (1 - mu^N) / (N (1 - mu))
    # = 6.5e-4 at N = 10000.  This channel and N fix the bound above that,
    # so no resolved Tolerance (eq_tol is 1e-9 by default) sets it.
    cesaro_ok = defect <= 1e-3

    agg = {
        "scenarios": len(reports),
        "bounds_total": sum(r["summary"]["total"] for r in reports),
        "bounds_violated": sum(r["summary"]["violated"] for r in reports),
        "hypothesis_violated": sum(r["summary"]["hypothesis_violated"] for r in reports),
        "tasks_ok": sum(r["summary"]["tasks_ok"] for r in reports),
        "tasks_failed": sum(r["summary"]["tasks_failed"] for r in reports),
        "cesaro_defect": defect,
        "cesaro_ok": cesaro_ok,
    }
    payload = {"schema": 1, "suite": reports, "summary": agg}
    _emit(serialize.dumps(payload), args.out)
    if args.csv:
        _write_csv(args.csv, reports)
    if not args.quiet:
        print(
            f"suite: {agg['scenarios']} scenarios, {agg['bounds_total']} bounds, "
            f"{agg['bounds_violated']} violated, {agg['tasks_failed']} tasks failed, "
            f"cesaro defect {defect:.2e}",
            file=sys.stderr,
        )
    failed = agg["bounds_violated"] > 0 or agg["tasks_failed"] > 0 or not cesaro_ok
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; every :func:`main` call parses with it."""
    parser = argparse.ArgumentParser(
        prog="waylab",
        description="Evaluate measurement-disturbance and conservation-law "
        "trade-offs on finite-dimensional scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate scenario files")
    p_run.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    _common_flags(p_run)

    p_builtin = sub.add_parser("builtin", help="materialize a named scenario")
    p_builtin.add_argument("name", choices=sorted(_BUILTINS))
    p_builtin.add_argument("--lam", type=float, default=0.5, help="unsharpness parameter")
    p_builtin.add_argument("--gamma", type=float, default=0.6, help="leak weight")
    p_builtin.add_argument("--seed", type=int, default=7)
    p_builtin.add_argument("--sys-dim", type=int, default=2)
    p_builtin.add_argument("--app-dim", type=int, default=3)
    p_builtin.add_argument(
        "--aligned", action="store_true", help="pointer commuting with the apparatus quantity"
    )
    p_builtin.add_argument("--emit", metavar="PATH", help="write the scenario JSON here")
    p_builtin.add_argument("--run", action="store_true", help="evaluate instead of printing")
    _common_flags(p_builtin)

    p_suite = sub.add_parser("suite", help="run the deterministic battery")
    _common_flags(p_suite)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="write the report JSON here")
    p.add_argument("--csv", metavar="PATH", help="also write bound rows as CSV")
    p.add_argument("--tol", type=float, default=None, help="override eq_tol")
    p.add_argument("--rank-tol", type=float, default=None, help="override rank_tol")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "builtin":
            return cmd_builtin(args)
        return cmd_suite(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
