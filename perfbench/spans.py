"""Span recording around the public functions of each hopfact layer.

A :class:`Tracer` wraps each target function at every place a hopfact
module looks it up: a module that did ``from .action import act`` holds
its own binding, so every global bound to the original function object is
replaced, and :meth:`Tracer.uninstall` puts the originals back.  Spans
(name, parent, start, end) stay in flat arrays until :meth:`Tracer.pass_summary`
turns them into per-function call counts and self times.  One pass of the
CLI is one request; its root span is ``cli.main``.
"""

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, targets, hooks=None):
        """``targets`` are ``"<layer>.<function>"`` names inside hopfact;
        ``hooks`` maps some of them to ``hook(counters, args, kwargs, result)``,
        called after each successful call to count work done."""
        self.targets = list(targets)
        self.counters = {}
        self.missing = []
        self._names = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._wrappers = {}
        self._patched = []
        hooks = hooks or {}
        for index, target in enumerate(self.targets):
            layer, name = target.split(".", 1)
            try:
                func = getattr(importlib.import_module(f"hopfact.{layer}"), name)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            self._wrappers[id(func)] = (func, self._wrap(index, func, hooks.get(target)))

    def _wrap(self, index, func, hook):
        names, parents, starts, ends = self._names, self._parents, self._starts, self._ends
        stack, counters = self._stack, self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every hopfact global that refers to a target function."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "hopfact"
                                      or module_name.startswith("hopfact.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def pass_summary(self, durations_of=()) -> dict:
        """Per-target calls, self time and inclusive time (which counts a
        recursive call twice) of the spans recorded since the last summary,
        with the single durations of ``durations_of``; then forget the spans."""
        names = np.array(self._names, dtype=np.int64)
        parents = np.array(self._parents, dtype=np.int64)
        dur = np.array(self._ends) - np.array(self._starts)
        inner = parents >= 0
        children = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - children
        count = len(self.targets)
        calls = np.bincount(names, minlength=count)
        self_s = np.bincount(names, weights=self_time, minlength=count)
        incl_s = np.bincount(names, weights=dur, minlength=count)
        summary = {
            "calls": dict(zip(self.targets, calls.tolist())),
            "self_s": dict(zip(self.targets, self_s.tolist())),
            "incl_s": dict(zip(self.targets, incl_s.tolist())),
            "durations": {t: dur[names == self.targets.index(t)].tolist()
                          for t in durations_of},
            "counters": dict(self.counters),
        }
        for buf in (self._names, self._parents, self._starts, self._ends):
            del buf[:]
        self.counters.clear()
        return summary
