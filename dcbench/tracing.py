"""Spans around calls into the layers of dcobserver, recorded from outside.

``Tracer.install`` replaces every public function and method of the layer
modules with a timing wrapper, and rebinds every module attribute (the
package namespace included) that refers to one of them.  Calls one module
makes into another, or into itself, go through those attributes, so each
call becomes a span with a name, start, end and parent.  ``uninstall``
restores the originals.  Nothing in the library is edited.

Spans stay in memory for one pass; ``pass_metrics`` turns them into the
per-layer metrics of that pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("cli", "scenarios", "synthesis", "simulation", "closed_form", "linalg", "ccr")
PACKAGE = "dcobserver"

# Inclusive span time of these functions (and their call counts).
TIMED = (
    "linalg.eigenvalues_mp",
    "linalg.eigenvalues",
    "linalg.is_positive_definite",
    "linalg.expm",
    "synthesis.synthesize_observer",
    "synthesis.assemble_augmented",
    "simulation.propagate",
    "simulation.propagate_schedule",
    "simulation.time_average",
    "simulation.invariant_monitor",
)
COUNTED = ("linalg.eigenvalues_mp", "linalg.is_positive_definite", "linalg.expm", "simulation.propagate")
# Span time minus the time of the spans it caused.
SELF_TIMED = ("synthesis.verify_observer_conditions", "simulation.convergence_diagnostics")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, steps, nbytes]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, 0, 0]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if name.startswith("simulation."):
                tracer._record_arrays(span, result)
            return result

        return timed

    @staticmethod
    def _record_arrays(span, result):
        """Steps propagated and bytes of the series and averages a call returns."""
        maps = getattr(result, "maps", None)
        averages = getattr(result, "averages", None)
        for array in (maps, averages, getattr(result, "times", None)):
            if array is not None and (maps is not None or averages is not None):
                span[5] += array.nbytes
        if maps is not None:
            span[4] = maps.shape[0] - 1

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        for module in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def _install_methods(self, layer, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, f"{layer}.{cls.__name__}.{attr}"))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, f"{layer}.{cls.__name__}.{attr}")
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- one pass -------------------------------------------------------------

    def pass_metrics(self, duration: float, scale: float) -> dict:
        """Per-layer metrics of the spans recorded since the last call.

        Times are multiplied by ``scale``, the pass's calibration factor.
        """
        spans, self.spans = self.spans, []
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        m = {f"{key}_s": 0.0 for key in TIMED}
        m.update({f"{key}_calls": 0 for key in COUNTED})
        m.update({f"{key}_self_s": 0.0 for key in SELF_TIMED})
        m.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        m.update({"closed_form.calls": 0, "simulation.steps_propagated": 0, "simulation.maps_mb": 0.0})
        for index, (name, start, end, parent, steps, nbytes) in enumerate(spans):
            self_time = end - start - child_time[index]
            m[f"{name.split('.')[0]}.self_s"] += self_time
            if name in TIMED:
                m[f"{name}_s"] += end - start
            if name in COUNTED:
                m[f"{name}_calls"] += 1
            if name in SELF_TIMED:
                m[f"{name}_self_s"] += self_time
            if name.startswith("closed_form."):
                m["closed_form.calls"] += 1
            m["simulation.maps_mb"] += nbytes / 1e6
            # a series computed inside another series-producing call is not counted twice
            ancestor = parent
            while ancestor >= 0 and not spans[ancestor][4]:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                m["simulation.steps_propagated"] += steps
        m["trace.unattributed_s"] = duration - sum(m[f"{layer}.self_s"] for layer in LAYERS)
        return {key: value * scale if key.endswith("_s") else value for key, value in m.items()}


def median_metrics(passes: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
