"""In-memory call spans around the public functions of the bsdof modules.

Installing a Tracer replaces every public function of the traced modules
by a recording wrapper, in every bsdof module that binds the function's
name.  Callers look names up in their own module's globals, so replacing
the binding there catches calls between modules and calls inside one
module alike, and the program's source stays untouched.

A span is a tuple (id, parent id, name, start ns, end ns); the parent is
the innermost open span of the same thread, or -1.  Spans are appended to
a list while the traced call runs and analysed after it returns.  Spans
opened on a thread with no open span of its own (a sampler worker) are
roots: their time is not subtracted from the span that started the pool.
"""

import functools
import inspect
import itertools
import sys
import threading
import time

# The layers of the program, one per module, named as in the metric names.
LAYERS = (
    "streams",
    "loads",
    "sampling",
    "network",
    "fd",
    "metrics",
    "environment",
    "optimize",
    "cli",
)

PACKAGE = "bsdof"


class Tracer:
    """Records spans of the public bsdof functions between install and uninstall."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved = []

    def _wrap(self, name, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()


class SpanTable:
    """Per-span self times and the nesting check of one traced call."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s[2], []).append(s)
        child_ns = {}
        self.violations = []
        for sid, parent, name, start, end in spans:
            if parent < 0:
                continue
            p = self.by_id.get(parent)
            if p is None:
                self.violations.append(f"{name} span {sid} has no recorded parent {parent}")
                continue
            if start < p[3] or end > p[4]:
                self.violations.append(f"{name} span {sid} lies outside its parent {p[2]}")
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self.self_ns = {}
        for sid, _, name, start, end in spans:
            own = (end - start) - child_ns.get(sid, 0)
            if own < 0:
                self.violations.append(f"children of {name} span {sid} exceed it by {-own} ns")
            self.self_ns[sid] = own

    def select(self, name, parent_name=None):
        """Spans called name, optionally only those whose parent is called parent_name."""
        spans = self.by_name.get(name, [])
        if parent_name is None:
            return spans
        return [s for s in spans if s[1] in self.by_id and self.by_id[s[1]][2] == parent_name]

    def calls(self, name, parent_name=None) -> int:
        return len(self.select(name, parent_name))

    def total_s(self, name, parent_name=None) -> float:
        return sum(s[4] - s[3] for s in self.select(name, parent_name)) * 1e-9

    def self_s(self, name) -> float:
        return sum(self.self_ns[s[0]] for s in self.select(name)) * 1e-9

    def layer_self_s(self, layer) -> float:
        prefix = layer + "."
        return sum(self.self_ns[s[0]] for s in self.spans if s[2].startswith(prefix)) * 1e-9

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds."""
        table = {}
        for sid, _, name, start, end in self.spans:
            row = table.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += self.self_ns[sid]
        return {
            name: {"calls": c, "s": incl * 1e-9, "self_s": own * 1e-9}
            for name, (c, incl, own) in sorted(table.items())
        }
