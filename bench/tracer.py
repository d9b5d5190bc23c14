"""Tracing of gaitadapt's public functions from outside the program.

The tracer replaces each named function with a timing wrapper in every
gaitadapt module that binds it, because `pipeline`, `discovery` and `cli`
import helpers by name (`from .encoder import encode_sequence`). Patching
only the defining module would miss those call sites.

Each wrapper records its inclusive time and its self time (inclusive time
minus the time of traced calls made inside it), keyed by the benchmark
stage that was running. Calls made while no stage runs pass through
untimed. A name the program no longer defines is listed in
`Patch.missing`, so that the metrics built on it can be reported as
unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict


class Stat:
    __slots__ = ("inclusive", "self_time", "calls")

    def __init__(self):
        self.inclusive = 0.0
        self.self_time = 0.0
        self.calls = 0


class Tracer:
    """Span accounting for one traced region, keyed by (stage, function).

    `counts[name]` sums the work counts that the function's count hook
    reports. A hook that no longer fits the program's API turns its count
    into NaN, which the caller reports as unmeasured.
    """

    def __init__(self):
        self.stage = ""
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def total(self, name: str, field: str = "inclusive") -> float:
        """Sum of one field of `name` over every stage."""
        return sum(getattr(s, field) for (_, n), s in self.stats.items() if n == name)

    def merged(self, other: "Tracer") -> "Tracer":
        """A tracer holding the spans and counts of both."""
        out = Tracer()
        for src in (self, other):
            for key, stat in src.stats.items():
                dst = out.stats[key]
                dst.inclusive += stat.inclusive
                dst.self_time += stat.self_time
                dst.calls += stat.calls
            for name, count in src.counts.items():
                out.counts[name] += count
        return out

    def in_stage(self, stage: str, name: str) -> float:
        s = self.stats.get((stage, name))
        return s.inclusive if s else 0.0

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stage:
                return fn(*args, **kwargs)
            tracer._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1] += dt
                stat = tracer.stats[(tracer.stage, name)]
                stat.inclusive += dt
                stat.self_time += dt - children
                stat.calls += 1
            if count is not None:
                try:
                    tracer.counts[name] += count(args, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    tracer.counts[name] = float("nan")
            return result

        return traced


class Patch:
    """Installs a tracer's wrappers into a package and undoes it on exit.

    `targets` lists (module, function, count) triples. `count`, when
    given, is called as count(args, result) and returns the work the call
    did, so counts are taken at the same boundary as the span.
    """

    def __init__(self, tracer: Tracer, package: str, targets):
        self.missing: list[str] = []
        self._package = package
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for module, func, count in targets:
            name = f"{module}.{func}"
            fn = getattr(importlib.import_module(f"{package}.{module}"), func, None)
            if fn is None:
                self.missing.append(name)
            else:
                self._wrappers[fn] = tracer.wrap(name, fn, count)

    def __enter__(self):
        prefix = self._package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self._package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])
        return self

    def __exit__(self, *exc):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)
        return False
