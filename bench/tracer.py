"""Span tracer that wraps ``modality`` functions by name from outside the package.

Every public function (listed in its module's ``__all__``) is wrapped once.
The wrapper is then bound in place of the original in every ``modality.*``
module namespace that holds the same object, because modules such as
``solver``, ``modes`` and ``stattests`` import ``kde_auto`` and
``as_sample`` by name: patching ``modality.kde`` alone would miss their
calls. Functions are named ``<module>.<function>``; a metric that asks for
a name the package no longer defines reports it as absent.

Spans ``(name, start, end, parent)`` stay in memory until the run ends.
A span's self time is its duration minus the time its direct child spans
cover; calls run on one thread, so children nest and never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

PACKAGE = "modality"

# Work counted per call, as ``{counter: f(args, result)}``, for the functions
# whose cost or outcome the call count alone does not show.
COUNTERS = {
    "kde.kde_direct": {"pair_evals": lambda args, result: len(args[0]) * args[1].size},
    "kde.kde_fft": {"grid_points": lambda args, result: args[1].size},
    "io.read_data": {"rows": lambda args, result: len(result)},
    "solver.critical_bandwidth": {
        "evals": lambda args, result: result.iterations,
        "unverified": lambda args, result: int(not result.success),
    },
}


def _package_modules():
    """(name, module) for the package and each of its imported submodules."""
    return [(key, module) for key, module in sorted(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def public_functions() -> dict[str, object]:
    """``{"<module>.<function>": function}`` over each imported submodule's ``__all__``."""
    found = {}
    for key, module in _package_modules():
        if key == PACKAGE:
            continue
        for attr in getattr(module, "__all__", ()):
            func = getattr(module, attr, None)
            if inspect.isfunction(func) and func.__module__ == key:
                found[f"{key.rsplit('.', 1)[1]}.{attr}"] = func
    return found


class Tracer:
    """Records one span per call of each public function while installed."""

    def __init__(self):
        self.names: set[str] = set()
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span named ``name`` around the body, nested in the open span."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, func):
        counters = COUNTERS.get(name, {})

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            for counter, amount in counters.items():
                key = f"{name}.{counter}"
                self.counts[key] = self.counts.get(key, 0) + amount(args, result)
            return result

        return wrapper

    def _find_patches(self) -> None:
        wrappers = {}  # id -> (function, wrapper); the dict keeps each id's object alive
        for name, func in public_functions().items():
            wrappers[id(func)] = (func, self._wrap(name, func))
            self.names.add(name)
        for _, module in _package_modules():
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    self._patches.append((module, attr, *wrappers[id(value)]))

    def install(self) -> "Tracer":
        if not self._patches:
            self._find_patches()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, func, _ in self._patches:
            setattr(module, attr, func)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, and total and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                    "end": end - origin, "parent": parent}) + "\n")
