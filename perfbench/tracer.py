"""Span tracer for the polyvar layers, installed from outside the package.

Every public function of each layer module, the public methods of
``DiscreteCurve`` and its ``__post_init__`` (so that curve construction is
counted) are replaced by a wrapper that records one span: name, start, end and
parent span.  The ``from .curves import ...`` statements copy function objects
into the importing modules, so every module binding of a wrapped function is
replaced, not only the defining one.  Spans are kept in flat arrays in memory
and written out once, at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("curves", "curvature", "variation", "offsets", "stability", "flow", "io", "svg", "cli")

# Private helpers that get a span of their own.  The flow's volume restoration
# builds a curve inside flow_step; its span lets the analysis tell the trial
# curves (direct children of flow_step) apart from the rescaled ones.
PRIVATE_SPANS = {"flow": ("_rescaled_to_volume",)}


class Tracer:
    """Wraps the layer functions on install() and restores them on uninstall().

    It may be installed and uninstalled repeatedly; the spans accumulate.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.accepted_steps = 0  # flow_step calls that returned an accepted step
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _wrap(self, qualname: str, func):
        fid = len(self.names)
        self.names.append(qualname)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        count_accepted = qualname == "flow.flow_step"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_accepted and result[1]["step_size_used"] is not None:
                self.accepted_steps += 1
            return result

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = {layer: importlib.import_module(f"polyvar.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or attr in PRIVATE_SPANS.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and public:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        plan = []
        cls = modules["curves"].DiscreteCurve
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__post_init__" or not attr.startswith("_")):
                plan.append((cls, attr, obj, self._wrap(f"curves.DiscreteCurve.{attr}", obj)))
        package_modules = [m for name, m in sys.modules.items() if name == "polyvar" or name.startswith("polyvar.")]
        for module in package_modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    plan.append((module, attr, obj, wrappers[obj]))
        return plan

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches or []):
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            accepted_steps=self.accepted_steps,
        )


@dataclass
class Spans:
    """The spans of one process, in call order (a parent precedes its children)."""

    names: list[str]
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    accepted_steps: int

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
            accepted_steps=np.array(self.accepted_steps),
        )

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as f:
            return cls(
                names=[str(s) for s in f["names"]],
                name_id=f["name_id"],
                parent=f["parent"],
                start=f["start"],
                end=f["end"],
                accepted_steps=int(f["accepted_steps"]),
            )

    def mask(self, qualname: str) -> np.ndarray:
        if qualname not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(qualname)

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        dur = self.end - self.start
        nested = self.parent >= 0
        children = np.bincount(self.parent[nested], weights=dur[nested], minlength=len(dur))
        return dur - children

    def inside(self, qualname: str) -> np.ndarray:
        """True for spans that have an ancestor span named qualname.

        Spans are stored in call order, so the descendants of span i are the
        contiguous run of spans that start before span i ends.
        """
        roots = np.flatnonzero(self.mask(qualname))
        stops = np.searchsorted(self.start, self.end[roots], side="left")
        edges = np.zeros(len(self.start) + 1, dtype=np.int64)
        np.add.at(edges, roots + 1, 1)
        np.add.at(edges, stops, -1)
        return np.cumsum(edges[:-1]) > 0


class LayerTotals:
    """Additive per-layer quantities accumulated over the span sets of a run."""

    def __init__(self):
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_by_name: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[np.ndarray]] = {}
        self.steps_inside: dict[str, int] = {}
        self.trial_curves = 0
        self.accepted_steps = 0
        self.span_count = 0

    def add(self, spans: Spans):
        self_t = spans.self_times()
        dur = spans.end - spans.start
        in_step = spans.inside("flow.flow_step")
        step_ids = np.flatnonzero(spans.mask("flow.flow_step"))
        with_points = spans.mask("curves.DiscreteCurve.with_points")
        self.trial_curves += int(np.count_nonzero(with_points & np.isin(spans.parent, step_ids)))
        self.accepted_steps += spans.accepted_steps
        self.span_count += len(dur)
        for fid, name in enumerate(spans.names):
            m = spans.name_id == fid
            if not m.any():
                continue
            total = float(self_t[m].sum())
            self.self_s[name.split(".", 1)[0]] += total
            self.self_by_name[name] = self.self_by_name.get(name, 0.0) + total
            self.calls[name] = self.calls.get(name, 0) + int(m.sum())
            self.durations.setdefault(name, []).append(dur[m])
            self.steps_inside[name] = self.steps_inside.get(name, 0) + int(np.count_nonzero(m & in_step))

    def p50(self, name: str) -> float:
        parts = self.durations.get(name)
        return float(np.median(np.concatenate(parts))) if parts else 0.0
