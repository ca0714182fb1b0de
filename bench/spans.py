"""Span tracing of sdesym from outside the package.

`Tracer.install()` replaces every public function of the traced modules by a
wrapper, under every module-level name it is bound to (the defining module,
each module that did `from .expr import evaluate`, and the package itself),
so calls are caught whichever name they go through.  `uninstall()` puts the
originals back.

Most wrappers record a span: the function, start, end and the enclosing
span.  Spans are kept in memory and written out by `write_spans`; self time
is a span's duration minus the part its child spans cover.  The hottest
kernel entry points (`COUNT_ONLY`) are only counted, so their time stays in
the caller's self time.  A call of a function that is already on the span
stack (recursion through its own public name) passes straight through and
is neither counted nor timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("problem", "expr", "determining", "ansatz", "lie", "transform",
          "numeric", "cli")

# scalar and compiled evaluation run millions of times per operation: count
# them, but do not time them
COUNT_ONLY = {"expr.evaluate", "expr.compile_fn"}


class Tracer:
    """Per-function counters and a span stack for the traced process."""

    def __init__(self):
        self.calls = {}          # qualified name -> outermost calls
        self.self_s = {}         # qualified name -> self time, s
        self.extra = {}          # qualified name -> {counter: value}
        self.spans = []          # (name, start, end, parent index, op)
        self.root_s = {}         # op -> summed duration of top-level spans
        self.op = 0
        self._stack = []         # [span index, start, child time]
        self._active = set()
        self._saved = []         # (module, attribute, original)
        self._extractors = {}

    # -- counters fed from arguments and results --------------------------
    def measure(self, name, fn):
        """Register fn(args, kwargs, result) -> {counter: value} for name."""
        self._extractors[name] = fn

    def _bump(self, name, args, kwargs, result):
        acc = self.extra.setdefault(name, {})
        for k, v in self._extractors[name](args, kwargs, result).items():
            acc[k] = acc.get(k, 0) + v

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, orig):
        active = self._active
        calls = self.calls
        calls.setdefault(name, 0)
        if name in COUNT_ONLY:
            @functools.wraps(orig)
            def counted(*args, **kwargs):
                if name in active:
                    return orig(*args, **kwargs)
                calls[name] += 1
                active.add(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    active.discard(name)
            return counted

        stack = self._stack
        spans = self.spans
        self.self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            if name in active:
                return orig(*args, **kwargs)
            calls[name] += 1
            active.add(name)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                dur = end - frame[1]
                spans[idx] = (name, frame[1], end, parent, self.op)
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                else:
                    self.root_s[self.op] = self.root_s.get(self.op, 0.0) + dur
                if name in self._extractors and result is not None:
                    self._bump(name, args, kwargs, result)
        return timed

    def install(self, package):
        """Wrap the public functions of every traced module of `package`."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    for hattr, hval in list(vars(holder).items()):
                        if hval is obj:
                            self._saved.append((holder, hattr, obj))
                            setattr(holder, hattr, wrapper)

    def uninstall(self):
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved.clear()

    # -- results ----------------------------------------------------------
    def summary(self):
        return {"calls": self.calls, "self_s": self.self_s, "extra": self.extra}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    name, start, end, parent, op = s
                    fh.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "op": op}) + "\n")


def register_counters(tracer):
    """Work counters read from the arguments and results of sdesym calls."""
    tracer.measure("ansatz.build_linear_system", lambda a, k, r: {
        "rows": r[0].shape[0], "unknowns": r[0].shape[1]})
    tracer.measure("numeric.flow_apply", lambda a, k, r: {
        "cells": a[0].paths.size})
    tracer.measure("numeric.euler_maruyama", lambda a, k, r: {
        "path_steps": r.paths.shape[0] * (r.paths.shape[1] - 1)})
    tracer.measure("lie.match_basis", lambda a, k, r: {"matched": int(r.matched)})


def merge(summaries):
    """Add up `Tracer.summary()` dicts, e.g. from several CLI processes."""
    out = {"calls": {}, "self_s": {}, "extra": {}}
    for s in summaries:
        for key in ("calls", "self_s"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, d in s["extra"].items():
            acc = out["extra"].setdefault(k, {})
            for kk, v in d.items():
                acc[kk] = acc.get(kk, 0) + v
    return out
