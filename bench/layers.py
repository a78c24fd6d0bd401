"""Spans around the calls into each solver layer, installed from outside the
package.

Module attributes are swapped for wrappers and restored afterwards; methods
and system callables are shadowed on the objects that ``build_run`` returns.
No file of the package is edited, and a hook whose target is missing marks
its layer absent instead of failing the run.

A span is named ``(layer, operation)``.  Spans nest through a stack, so each
one's self time is its duration minus the time of the spans it encloses.
Only per-name aggregates are kept: calls, inclusive and self nanoseconds,
plus integer counters that hooks add (rows, repeated passes, Newton map
calls and failures).
"""

from __future__ import annotations

import inspect
from collections import defaultdict, deque
from time import perf_counter_ns

import numpy as np


class Spans:
    """Aggregated spans of one pass: per-name counts, times and counters."""

    def __init__(self):
        self._stack: list[list[int]] = []
        # (layer, op) -> [calls, inclusive ns, self ns]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.extra: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.stats.clear()
        self.extra.clear()

    def wrap(self, name: tuple[str, str], fn, before=None):
        """Return fn timed as span `name`; before(args) runs ahead of the span."""
        stack, stats = self._stack, self.stats

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            child = [0]
            stack.append(child)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = stats[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - child[0]

        return span


class Hooks:
    """Installs spans on module attributes and restores them on uninstall."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def module(self, mod, attr: str, layer: str, factory=None) -> bool:
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.missing.append(f"{mod.__name__}.{attr}")
            return False
        wrapped = (factory or (lambda f: self.spans.wrap((layer, attr), f)))(fn)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, wrapped)
        self.present.add(layer)
        return True

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def public_methods(self, obj, layer: str) -> None:
        """Shadow every public method of obj's class with a span on obj."""
        if obj is None:
            self.missing.append(f"{layer} object")
            return
        for name, _ in inspect.getmembers(type(obj), inspect.isfunction):
            if name.startswith("_"):
                continue
            try:
                object.__setattr__(obj, name,
                                   self.spans.wrap((layer, name), getattr(obj, name)))
            except (AttributeError, TypeError):
                self.missing.append(f"{type(obj).__name__}.{name}")
                continue
            self.present.add(layer)

    def system_callables(self, system) -> None:
        """Shadow each callable field of a system (residual, jacobian, ...)."""
        if system is None or not hasattr(system, "__dict__"):
            self.missing.append("system callables")
            return
        for name, fn in list(vars(system).items()):
            if name.startswith("_") or not callable(fn) or isinstance(fn, type):
                continue
            object.__setattr__(system, name, self.spans.wrap(
                ("problems", name), fn, before=self._row_counter(name)))
            self.present.add("problems")

    def _row_counter(self, name: str):
        """Counts rows, rows*n^2 and calls whose (x, q) repeats one of the
        previous three calls of the same callable."""
        extra = self.spans.extra
        recent: deque = deque(maxlen=3)

        def before(args):
            if len(args) < 2:
                return
            x = np.asarray(args[0])
            rows = len(args[1])
            extra[f"problems.{name}.rows"] += rows
            extra[f"problems.{name}.rows_n2"] += rows * x.size * x.size
            key = (x.tobytes(), rows)
            if key in recent:
                extra[f"problems.{name}.repeats"] += 1
            recent.append(key)

        return before

    def newton_factory(self, fn):
        """damped_newton as a span that also counts F/J calls and failures."""
        span = self.spans.wrap(("newton", "damped_newton"), fn)
        extra = self.spans.extra

        def damped_newton(F, J, *args, **kwargs):
            def counted(g):
                def call(z):
                    extra["newton.map_calls"] += 1
                    return g(z)
                return call
            try:
                return span(counted(F), counted(J), *args, **kwargs)
            except Exception:
                extra["newton.failures"] += 1
                raise

        return damped_newton
