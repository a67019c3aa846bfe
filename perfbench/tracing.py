"""Outside-in trace: wrap public finsym functions, record spans, restore.

Each wrapped call records a span ``[name, parent, start, end]``; spans
stay in memory until the run ends.  Self time is a span's duration minus
the durations of its direct child spans.  For the functions in
``UNIQUE`` the tracer also counts distinct argument tuples, which is the
share of calls a per-point cache could skip.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

TRACED = (
    "scenario.build_scenario",
    "checks.run_scenario",
    "finsler.metric_validity",
    "finsler.finsler_sample",
    "finsler.chern_with_derivatives",
    "fields.ScalarFieldSpec.eval_jet",
    "symplectic.chern_preservation_residual",
    "fedosov.induce_connection",
    "fedosov.transform_connection",
    "curvature.curvature_induced",
    "curvature.curvature_fd_commutator",
    "report.emit_report",
)

# Counter name -> (traced function, required arguments or None).
UNIQUE = {
    "finsler.finsler_sample": ("finsler.finsler_sample", None),
    "finsler.chern_with_derivatives": ("finsler.chern_with_derivatives", None),
    "fields.eval_jet.o4": ("fields.ScalarFieldSpec.eval_jet", {"order": 4}),
}


class Tracer:
    """Install with ``with Tracer() as t:``; the originals come back on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._calls = {name: 0 for name in UNIQUE}
        self._keys = {name: set() for name in UNIQUE}
        self._alive: dict[int, object] = {}  # keeps id() keys unambiguous

    def __enter__(self) -> "Tracer":
        try:
            for name in TRACED:
                self._install(name)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _install(self, name: str) -> None:
        module_name, _, qualname = name.partition(".")
        module = sys.modules[f"finsym.{module_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(name, original))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "finsym"
                                   or mod_name.startswith("finsym.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _freeze(self, value):
        if isinstance(value, (np.ndarray, list, tuple)):
            arr = np.asarray(value, dtype=float)
            return (arr.shape, arr.tobytes())
        if isinstance(value, (int, float, str, type(None))):
            return value
        self._alive[id(value)] = value
        return ("id", id(value))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counters = [(counter, required) for counter, (target, required)
                    in UNIQUE.items() if target == name]
        signature = inspect.signature(fn) if counters else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                for counter, required in counters:
                    if required and any(arguments[k] != v
                                        for k, v in required.items()):
                        continue
                    self._calls[counter] += 1
                    self._keys[counter].add(
                        tuple(self._freeze(v) for v in arguments.values()))
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<name>.calls`` and ``<name>.self_s`` per traced function, plus
        ``<counter>.unique_share`` (1.0 when never called) and
        ``fields.eval_jet.o4.calls``."""
        calls = {name: 0 for name in TRACED}
        self_s = {name: 0.0 for name in TRACED}
        for name, parent, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for counter in UNIQUE:
            n = self._calls[counter]
            out[f"{counter}.unique_share"] = (
                len(self._keys[counter]) / n if n else 1.0, "ratio")
        out["fields.eval_jet.o4.calls"] = (self._calls["fields.eval_jet.o4"],
                                           "count")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: [name, parent index, start_s, end_s]."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start - t0, end - t0]))
                fh.write("\n")
