"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``admiss`` modules from outside the
package.  Each wrapped call records one span (id, parent id, group, function
name, start, end, thread id, attributes); spans are kept in memory and written
out when the run ends.  A name imported with ``from ... import`` is a second
binding of the same function object, so every binding in a loaded ``admiss``
module is replaced, not only the one in the defining module.

The parent of a span is carried in a context variable.  While tracing, the
thread pool that ``admiss.cli`` creates for sweep rows is replaced by one that
runs each task in a copy of the submitting context, so spans opened on worker
threads keep the span that submitted them as their parent.

A group's self time is the time inside its spans minus the part of each span
that the span's direct children cover (children on other threads included,
overlaps counted once).
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

# (owner, attribute, group, attribute recorder name or None)
# owner is a module name, or "module:Class" for a method on a class.
SPAN_TARGETS = [
    ("admiss.system_model:DiagonalSystem", "__init__", "system_model.build", None),
    ("admiss.system_model", "heat_system", "system_model.build", None),
    ("admiss.system_model", "load_system", "system_model.build", None),
    ("admiss.system_model", "spectral_measure", "system_model.spectral_measure", None),
    ("admiss.criteria", "c1_zen_carleson", "criteria.square", "square_atoms"),
    ("admiss.criteria", "c2_power_square", "criteria.square", "square_atoms"),
    ("admiss.criteria", "c5_sobolev_square", "criteria.square", "square_atoms"),
    ("admiss.criteria", "c7_halfsquare", "criteria.square", "square_atoms"),
    ("admiss.criteria", "c8_shifted_carleson", "criteria.square", "square_atoms"),
    ("admiss.criteria", "c4_strip_summability", "criteria.strip", None),
    ("admiss.criteria", "c6_sobolev_balayage", "criteria.strip", None),
    ("admiss.criteria", "r1_resolvent", "criteria.resolvent", "peak_alloc"),
    ("admiss.criteria", "r7_fractional_resolvent", "criteria.resolvent", "peak_alloc"),
    ("admiss.criteria", "dispatch", "criteria.dispatch", None),
    ("admiss.halfplane", "strip_masses", "halfplane.strip_masses", None),
    ("admiss.halfplane", "balayage_norm", "halfplane.balayage_norm", None),
    ("admiss.halfplane", "blaschke_products", "halfplane.blaschke_products", "pairs"),
    ("admiss.laplace_oracle", "kernel_condition_sweep",
     "laplace_oracle.kernel_condition_sweep", None),
    ("admiss.laplace_oracle", "embedding_value", "laplace_oracle.embedding_value", None),
    ("admiss.laplace_oracle", "space_norm", "laplace_oracle.space_norm", None),
    ("admiss.laplace_oracle", "empirical_ratio", "laplace_oracle.empirical_ratio", None),
    ("admiss.laplace_oracle", "isometry_check", "laplace_oracle.isometry_check", None),
    ("admiss.controllability", "interpolation_test", "controllability.test", None),
    ("admiss.controllability", "sobolev_controllability", "controllability.test", None),
    ("admiss.zen_weight", "weight", "zen_weight.weight", None),
    ("admiss.cli", "main", "cli", None),
]

# Per-layer metrics: name -> (unit, how it is derived).  Every traced run
# reports all of them; totals are per round of the timed pass.
PER_LAYER = {
    "system_model.build.self_s": "s",
    "system_model.build.calls": "count",
    "system_model.spectral_measure.self_s": "s",
    "criteria.square.self_s": "s",
    "criteria.square.atoms": "count",
    "criteria.strip.self_s": "s",
    "halfplane.strip_masses.self_s": "s",
    "criteria.resolvent.self_s": "s",
    "criteria.resolvent.peak_alloc_mb": "MB",
    "laplace_oracle.kernel_condition_sweep.self_s": "s",
    "laplace_oracle.embedding_value.self_s": "s",
    "laplace_oracle.embedding_value.calls": "count",
    "laplace_oracle.space_norm.self_s": "s",
    "laplace_oracle.space_norm.calls": "count",
    "laplace_oracle.empirical_ratio.self_s": "s",
    "laplace_oracle.isometry_check.self_s": "s",
    "halfplane.balayage_norm.self_s": "s",
    "halfplane.balayage_norm.calls": "count",
    "halfplane.quad.calls": "count",
    "halfplane.quad.integrand_evals": "count",
    "halfplane.blaschke_products.self_s": "s",
    "halfplane.blaschke_products.pairs": "count",
    "controllability.test.self_s": "s",
    "zen_weight.weight.self_s": "s",
    "zen_weight.weight.calls": "count",
    "criteria.dispatch.self_s": "s",
    "report.ladder_verdict.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}


def _admiss_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "admiss" or name.startswith("admiss."))]


class _ContextThreadPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Installs span and counter wrappers; computes per-layer metrics."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace every binding of ``original`` in the loaded admiss modules."""
        for module in _admiss_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        for owner_path, attr, group, recorder in SPAN_TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                cls = getattr(owner, class_name)
                self._patch(cls, attr, self._span_wrapper(getattr(cls, attr), group, recorder))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self._span_wrapper(original, group, recorder))
        report = sys.modules["admiss.report"]
        original = report.ladder_verdict
        self._rebind(original, self._count_wrapper(original, "report.ladder_verdict.calls"))
        # only the name bound in admiss.halfplane: other modules call quad too
        halfplane = sys.modules["admiss.halfplane"]
        self._patch(halfplane, "quad", self._quad_wrapper(halfplane.quad))
        self._patch(concurrent.futures, "ThreadPoolExecutor", _ContextThreadPool)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def _span_wrapper(self, fn, group: str, recorder: str | None):
        signature = inspect.signature(fn)
        current = self._current
        spans = self.spans
        ids = self._ids
        name = getattr(fn, "__qualname__", str(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if recorder == "square_atoms":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                n_min, n_max = bound.arguments["n_range"]
                attrs["atoms"] = len(bound.arguments["m"]) * (n_max - n_min + 1)
            elif recorder == "pairs":
                n = len(signature.bind(*args, **kwargs).arguments["points"])
                attrs["pairs"] = n * (n - 1)
            measure_alloc = recorder == "peak_alloc" and not tracemalloc.is_tracing()
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            if measure_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_alloc:
                    attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                current.reset(token)
                spans.append((span_id, parent, group, name, start, end,
                              threading.get_ident(), attrs))

        return wrapper

    def _count_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _quad_wrapper(self, quad):
        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            self.count("halfplane.quad.calls")

            def counted(*a):
                self.count("halfplane.quad.integrand_evals")
                return func(*a)

            return quad(counted, *args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, as a total per round of the timed pass
        (``peak_alloc_mb`` is the maximum over calls)."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append(s)
        self_s = Counter()
        calls = Counter()
        totals = Counter()
        peak_alloc = 0.0
        for s in self.spans:
            span_id, parent, group, _, start, end, _, attrs = s
            covered = _union_length([(max(c[4], start), min(c[5], end))
                                     for c in children[span_id]])
            self_s[group] += (end - start) - covered
            if parent is None or by_id[parent][2] != group:
                calls[group] += 1
                for key, value in attrs.items():
                    totals[f"{group}.{key}"] += value
            peak_alloc = max(peak_alloc, attrs.get("peak_alloc_mb", 0.0))
        per_round = {}
        for group in {t[2] for t in SPAN_TARGETS}:
            per_round[f"{group}.self_s"] = self_s[group] / rounds
            per_round[f"{group}.calls"] = calls[group] / rounds
        for key, value in list(totals.items()) + list(self.counters.items()):
            per_round[key] = value / rounds
        per_round["criteria.resolvent.peak_alloc_mb"] = peak_alloc
        return {name: float(per_round.get(name, 0.0)) for name in PER_LAYER}

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer start."""
        with open(path, "w") as fh:
            for span_id, parent, group, name, start, end, thread, attrs in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "group": group, "name": name,
                    "start": start - self._epoch, "end": end - self._epoch,
                    "thread": thread, **attrs}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    reach = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total
