"""Spans around the public functions of each `mgeneral` module.

The wrappers are installed from outside the package, by replacing each
public function in every module namespace that holds it, so a call made
through `from .affine import is_m_general` is traced too.  `search` also
imports two private helpers from `affine`; they are wrapped so that affine
work inside a search shows up as affine.  `Field` methods are not wrapped.

Work done in `--workers` processes is not traced: the parent's span around
the search covers the wait.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from pathlib import Path

LAYERS = ("field", "affine", "arithmetic", "constructions", "bounds", "search", "cli")
PRIVATE_HELPERS = {"affine": ("_independent", "_check_m_range")}


class Tracer:
    """Keeps spans (id, name, start, end, parent id, workload) in memory,
    up to `max_spans`, and exact per-layer self time and call counts for
    every call."""

    def __init__(self, workload: str, max_spans: int = 50_000):
        self.workload = workload
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._saved: list[tuple[dict, str, object]] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spent = end - start
                self.self_s[layer] += spent - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += spent
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, name, start, end, parent, self.workload))
                else:
                    self.dropped += 1

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mgeneral.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or name in PRIVATE_HELPERS.get(layer, ())
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ and public:
                    wrappers[obj] = self._wrap(layer, obj)
        namespaces = [vars(mod) for mod in modules.values()]
        namespaces.append(vars(importlib.import_module("mgeneral")))
        for ns in namespaces:
            for name, obj in list(ns.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((ns, name, obj))
                    ns[name] = wrappers[obj]

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._saved):
            ns[name] = obj
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, workload in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "workload": workload}) + "\n")
