"""Layer spans recorded from outside the package.

`Tracer.install` wraps the public functions and methods of each layer
module where callers look them up: the defining module, every sibling
module that bound the same object with `from .x import y`, and dicts held at
module level (such as `verify.SUITES`).  It also wraps the `numpy.linalg`
entry points and charges each call to the innermost open layer span.

A span is [name, start, end, parent, linalg_calls, outermost]; spans stay in
memory until `write` dumps them as JSON lines.  `aggregate` turns a span
file into per-function and per-layer counts and times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("relspace", "cayley", "gelfand", "triplet", "sturm", "famindex",
          "symbols", "verify", "cli")

# Constructors and evaluation do real work in several layer classes
# (SymmetricModel, GelfandTriple, ExpPoly); other dunders are left alone.
_WRAPPED_DUNDERS = ("__init__", "__call__")


class Tracer:
    """Span recorder for one traced repetition."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.open_names = {}

    def wrap(self, name, fn):
        spans, stack, open_names = self.spans, self.stack, self.open_names
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_names.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            open_names[name] = depth + 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_names[name] = depth
                stack.pop()

        return traced

    def wrap_linalg(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][4] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_class(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def install(self, package="tripletflow"):
        """Wrap every layer's public callables and numpy.linalg in place.

        Meant for a throwaway process: nothing is restored.
        """
        modules = [importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS]
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        bound = [importlib.import_module(package)] + modules
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            obj[key] = replaced[val]
        for attr in np.linalg.__all__:
            obj = getattr(np.linalg, attr)
            if callable(obj) and not inspect.isclass(obj):
                setattr(np.linalg, attr, self.wrap_linalg(obj))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, linalg, outer) in enumerate(
                    self.spans):
                handle.write(json.dumps(
                    {"run": self.run_id, "id": i, "parent": parent,
                     "name": name, "start": start, "end": end,
                     "linalg": linalg, "outermost": outer}) + "\n")


def aggregate(path):
    """Per-function and per-layer totals from a span file.

    Returns {"functions": {name: {"calls", "s", "self_s"}},
    "layers": {layer: {"self_s", "linalg_calls"}}, "root_s", "spans"}.
    `s` counts only the outermost span of a name, so recursion is not
    counted twice; self time is a span's duration minus its children's.
    """
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            spans.append(json.loads(line))
    child_s = [0.0] * len(spans)
    root_s = 0.0
    for span in spans:
        dur = span["end"] - span["start"]
        if span["parent"] < 0:
            root_s += dur
        else:
            child_s[span["parent"]] += dur
    functions = {}
    layers = {layer: {"self_s": 0.0, "linalg_calls": 0} for layer in LAYERS}
    for span, inner in zip(spans, child_s):
        dur = span["end"] - span["start"]
        fn = functions.setdefault(span["name"],
                                  {"calls": 0, "s": 0.0, "self_s": 0.0})
        fn["calls"] += 1
        fn["self_s"] += dur - inner
        if span["outermost"]:
            fn["s"] += dur
        layer = layers[span["name"].split(".", 1)[0]]
        layer["self_s"] += dur - inner
        layer["linalg_calls"] += span["linalg"]
    return {"functions": functions, "layers": layers, "root_s": root_s,
            "spans": len(spans)}
