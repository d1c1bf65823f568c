"""Per-layer spans recorded from outside waylab.

:class:`Tracer` wraps waylab's public functions (and ``numpy.linalg.svd`` /
``eigh`` beneath them) for the duration of a ``with`` block.  Because
``from .cpmaps import apply_dual`` binds its own name in each importing
module, a function is patched under every name, in every waylab module,
that refers to it.  Spans are recorded only while :attr:`Tracer.active` is
set, so set-up and the benchmark's own reference checks are not counted.
Spans stay in memory until :meth:`Tracer.write_spans` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

LAYERS = (
    "cli",
    "serialize",
    "reporting",
    "bounds",
    "measure",
    "conserve",
    "fixpt",
    "cpmaps",
    "opcore",
    "linalg",
)

# Functions whose calls and inclusive time are reported per operation.
REPORTED = (
    "cli.parse_scenario",
    "cli.run_scenario",
    "serialize.dumps",
    "bounds.eval_disturbance_bounds",
    "bounds.eval_measurability_bounds",
    "bounds.eval_way",
    "bounds.eval_distinguishability_bounds",
    "measure.scheme_to_instrument",
    "measure.measured_observable",
    "measure.restriction_maps",
    "measure.repeatability_report",
    "conserve.check_conservation",
    "conserve.yanase_conditions",
    "fixpt.analyze_fixed_points",
    "fixpt.kraus_commutant",
    "fixpt.check_minimal_support",
    "fixpt.structural_necessary_conditions",
    "cpmaps.apply_map",
    "cpmaps.apply_dual",
    "cpmaps.to_supermatrix",
    "opcore.op_norm_mat",
    "linalg.svd",
    "linalg.eigh",
)

# Wrapped only so that their time lands in their own layer's self time.
ATTRIBUTED = (
    "cli.main",
    "cli.run_task",
    "serialize.matrix_from_json",
    "serialize.matrix_to_json",
    "reporting.make_report",
    "reporting.digest_inputs",
    "reporting.summarize",
)

OPERATOR = "opcore.Operator"
WAYLAB_MODULES = (
    "waylab",
    "waylab.cli",
    "waylab.serialize",
    "waylab.reporting",
    "waylab.bounds",
    "waylab.measure",
    "waylab.conserve",
    "waylab.fixpt",
    "waylab.cpmaps",
    "waylab.opcore",
    "waylab.rand",
)


class Tracer:
    """Spans and per-function counters for the calls made while active."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.svd_max_bytes = 0
        # (span id, parent id or -1, name index, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by child spans]
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each active call records one span."""
        idx = len(self.names)
        self.names.append(name)
        tracer = self
        stack = self._stack
        spans = self.spans
        calls, incl_ns, self_ns = self.calls, self.incl_ns, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                incl_ns[name] += dur
                self_ns[layer] += dur - frame[1]
                spans.append((sid, parent, idx, t0, t1))

        return wrapper

    def _svd(self, fn: Callable) -> Callable:
        inner = self.span("linalg.svd", "linalg", fn)
        tracer = self

        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            if tracer.active:
                tracer.svd_max_bytes = max(tracer.svd_max_bytes, int(np.asarray(a).nbytes))
            return inner(a, *args, **kwargs)

        return svd

    # -- installation --------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in WAYLAB_MODULES]
        by_name = {m.__name__.split(".")[-1]: m for m in modules}
        for qual in REPORTED + ATTRIBUTED:
            layer, fname = qual.split(".")
            if layer == "linalg":
                continue
            original = getattr(by_name[layer], fname)
            wrapped = self.span(qual, layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        operator = by_name["opcore"].Operator
        self._patch(operator, "__init__", self.span(OPERATOR, "opcore", operator.__init__))
        # numpy.linalg.norm(m, 2) reaches svd through the private module's global
        linalg_mods = [np.linalg]
        private = getattr(np.linalg, "_linalg", None)
        if private is not None:
            linalg_mods.append(private)
        svd = self._svd(np.linalg.svd)
        eigh = self.span("linalg.eigh", "linalg", np.linalg.eigh)
        for mod in linalg_mods:
            self._patch(mod, "svd", svd)
            self._patch(mod, "eigh", eigh)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.active = False
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- results -------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, idx, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{self.names[idx]}\t{t0}\t{t1}\n")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation figures from the tracer's counters over ``n_ops`` operations."""
    out: dict[str, tuple[float, str]] = {}
    calls, incl, self_ns = tracer.calls, tracer.incl_ns, tracer.self_ns
    for name in REPORTED:
        out[f"{name}.calls_per_op"] = (calls.get(name, 0) / n_ops, "calls/op")
        out[f"{name}.ms_per_op"] = (incl.get(name, 0) / 1e6 / n_ops, "ms/op")
    out[f"{OPERATOR}.calls_per_op"] = (calls.get(OPERATOR, 0) / n_ops, "calls/op")
    out["linalg.svd.max_input_mb"] = (tracer.svd_max_bytes / 1e6, "MB")
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = (self_ns.get(layer, 0) / 1e6 / n_ops, "ms/op")
    return out
