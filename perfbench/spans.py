"""Per-layer spans recorded from outside the program.

Tracer wraps the public functions of each ccmagma module (plus a few
methods) in place and restores them on uninstall.  Every call of a wrapped
function records a span (command id, span id, parent span id, name, start,
end), stamped with the thread's CPU clock so that time the hypervisor
steals from the vCPU does not count; self time is a span's duration minus
the durations of the wrapped calls nested directly inside it.  ParametricFamily.evaluate runs about 1.6
million times per catalog pass, so it is only counted.

MemoryTracer wraps check_axioms and internal_monoid alone and records the
tracemalloc peak above the starting level within each call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "core", "structures", "generation", "relations", "catalog")

METHODS = {  # (module, class, attribute) -> span name
    ("relations", "BinaryRelation", "is_internal"): "relations.is_internal",
    ("relations", "BinaryRelation", "is_reflexive"): "relations.is_reflexive",
    ("relations", "BinaryRelation", "is_symmetric"): "relations.is_symmetric",
    ("relations", "BinaryRelation", "is_transitive"): "relations.is_transitive",
    ("relations", "BinaryRelation", "is_difunctional"): "relations.is_difunctional",
    ("relations", "BinaryRelation", "is_congruence"): "relations.is_congruence",
    ("relations", "BinaryRelation", "classes"): "relations.classes",
    ("generation", "ToyodaParams", "__post_init__"): "generation.ToyodaParams",
}
COUNTED = {("catalog", "ParametricFamily", "evaluate"): "catalog.evaluate"}


def _work(name: str, args, result) -> int:
    """Units of work of one call, for the rate metrics."""
    if name == "core.check_axioms":
        return args[0].order ** 4
    if name == "core.parse_magma":
        return result.order ** 2
    if name == "catalog.sampled_axiom_check":
        return result.samples_tested ** 4
    return 0


def _modules():
    return {layer: importlib.import_module(f"ccmagma.{layer}") for layer in LAYERS}


def _public_functions(mod):
    return {name: fn for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not name.startswith("_")}


class _Patcher:
    """Replaces functions by wrappers in every ccmagma module namespace that
    binds them (cli imports names directly), and methods on their class."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, functions: set, methods: dict, wrap) -> None:
        mods = _modules()
        wrapped = {}
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod).items():
                if f"{layer}.{name}" in functions:
                    wrapped[fn] = wrap(fn, f"{layer}.{name}")
        namespaces = [m for k, m in sys.modules.items()
                      if k == "ccmagma" or k.startswith("ccmagma.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self.set_attr(ns, attr, wrapped[value])
        for (layer, cls_name, attr), name in methods.items():
            cls = getattr(mods[layer], cls_name)
            self.set_attr(cls, attr, wrap(vars(cls)[attr], name))

    def set_attr(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Spans of every wrapped call, kept in memory per command."""

    def __init__(self):
        self.spans: list[tuple] = []     # (command, id, parent, name, start_ns, end_ns)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.root_self_ns: list[int] = []  # self time of each top-level call
        self.command = 0                 # id of the running command, unique per run
        self.per_command: list[dict] = []  # calls of each command, last pass
        self._stack: list[list] = []     # [span id, child ns]
        self._patcher = _Patcher()

    def install(self) -> None:
        names = {f"{layer}.{name}" for layer, mod in _modules().items()
                 for name in _public_functions(mod)}
        self._patcher.patch(names, METHODS, self._wrap)
        for (layer, cls_name, attr), name in COUNTED.items():
            cls = getattr(importlib.import_module(f"ccmagma.{layer}"), cls_name)
            self._patcher.set_attr(cls, attr, self._count(vars(cls)[attr], name))

    def uninstall(self) -> None:
        self._patcher.restore()

    def reset(self) -> None:
        for d in (self.self_ns, self.calls, self.work):
            d.clear()
        self.root_self_ns.clear()

    def _wrap(self, fn, name):
        stack, spans, clock = self._stack, self.spans, time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (self.command, frame[0], parent, name, start, end)
                self.self_ns[name] += dur - frame[1]
                if parent is None:
                    self.root_self_ns.append(dur - frame[1])
                self.calls[name] += 1
            self.work[name] += _work(name, args, result)
            return result
        return wrapper

    def _count(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper


class MemoryTracer:
    """tracemalloc peak within each call of the two scans that allocate
    n^3-sized arrays."""

    NAMES = ("core.check_axioms", "structures.internal_monoid")

    def __init__(self):
        self.peak: dict[str, int] = {name: 0 for name in self.NAMES}
        self._patcher = _Patcher()

    def install(self) -> None:
        self._patcher.patch(set(self.NAMES), {}, self._wrap)
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        self._patcher.restore()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak[name] = max(self.peak[name], peak)
        return wrapper
