"""Benchmark-side tracing of the supersphere layers.

`Tracer.install()` replaces the public functions and methods of every
layer module with timing wrappers; `Tracer.uninstall()` puts the originals
back.  Nothing under the package changes on disk, and an untraced run
never installs anything.

A call counts as crossing a layer boundary when the caller on the trace
stack belongs to another layer.  Calls inside one layer pass straight
through, so a layer's time is measured once, where it is entered.  Time
spent in `fractions`, builtins and anything else that is not wrapped
counts toward the layer that called it.

`scalars` and `grassmann` are entered millions of times, so for them the
tracer keeps only (layer, calling layer) totals.  Every other boundary
crossing is also kept as a span: (layer, name, start, end, parent span,
op id).  Self time is a span's duration minus the time spent in child
layers.

Counters attach to single functions and run on every call, inside a layer
or across a boundary, so they count work however it is reached.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "supersphere"

# module -> layer; campaign and cli form one layer
LAYER_OF_MODULE = {
    "scalars": "scalars",
    "grassmann": "grassmann",
    "superfield": "superfield",
    "superconformal": "superconformal",
    "spheres": "spheres",
    "nsalgebra": "nsalgebra",
    "matrixalgebra": "matrixalgebra",
    "randgen": "randgen",
    "textio": "textio",
    "campaign": "campaign",
    "cli": "campaign",
}
LAYERS = ("scalars", "grassmann", "superfield", "superconformal", "spheres",
          "nsalgebra", "matrixalgebra", "randgen", "textio", "campaign")
AGGREGATED = frozenset({"scalars", "grassmann"})
ROOT = "bench"

_SKIPPED_DUNDERS = frozenset({
    "__new__", "__init_subclass__", "__class_getitem__", "__getattr__",
    "__getattribute__", "__setattr__", "__delattr__", "__reduce__",
    "__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
    "__deepcopy__",
})


def _wanted(name):
    if name.startswith("__") and name.endswith("__"):
        return name not in _SKIPPED_DUNDERS
    return not name.startswith("_")


class Tracer:
    """Wrappers, counters and spans for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)        # (layer, caller) -> count
        self.seconds = defaultdict(float)    # (layer, caller) -> total time
        self.self_s = defaultdict(float)     # layer -> self time
        self.raised = defaultdict(int)       # layer -> escaped exceptions
        self.counts = defaultdict(int)       # counter name -> value
        self.maxima = defaultdict(int)       # counter name -> largest value
        self.spans = []
        self.op = None
        self._stack = [[ROOT, 0.0, None]]    # [layer, child time, span index]
        self._patches = []                   # (owner, name, original)
        self._hooks = {}                     # (module, qualname) -> counter
        self._attached = set()
        self.missing_hooks = []

    # -- counters -----------------------------------------------------------

    def hook(self, module, qualname, counter):
        """Call counter(args, result) after every call of module.qualname."""
        self._hooks[(module, qualname)] = counter

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        modules = {
            short: sys.modules[f"{PACKAGE}.{short}"]
            for short in LAYER_OF_MODULE
            if f"{PACKAGE}.{short}" in sys.modules
        }
        for short, mod in modules.items():
            layer = LAYER_OF_MODULE[short]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    counter = self._counter(short, name)
                    if _wanted(name) or counter is not None:
                        wrapped = self._wrap(obj, layer, name, counter)
                        replaced[obj] = wrapped
                        self._patch(mod, name, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._install_class(short, layer, obj)
        # modules that imported a wrapped function by name see the wrapper too
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, name, replaced[obj])
        self.missing_hooks = sorted(f"{short}.{name}" for short, name
                                    in set(self._hooks) - self._attached)

    def _counter(self, short, qualname):
        counter = self._hooks.get((short, qualname))
        if counter is not None:
            self._attached.add((short, qualname))
        return counter

    def _install_class(self, short, layer, cls):
        for name, attr in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            counter = self._counter(short, qualname)
            if not _wanted(name) and counter is None:
                continue
            label = qualname
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrap(attr.__func__, layer, label, counter))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(attr.fget, layer, label, counter),
                               attr.fset, attr.fdel, attr.__doc__)
            elif inspect.isfunction(attr):
                new = self._wrap(attr, layer, label, counter)
            else:
                continue
            self._patch(cls, name, new)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, layer, name, counter):
        stack = self._stack
        calls, seconds, self_s = self.calls, self.seconds, self.self_s
        raised, spans = self.raised, self.spans
        keep_span = layer not in AGGREGATED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer:
                if counter is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                counter(args, result)
                return result
            frame = [layer, 0.0, None]
            if keep_span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                top[1] += elapsed
                key = (layer, top[0])
                calls[key] += 1
                seconds[key] += elapsed
                self_s[layer] += elapsed - frame[1]
                if keep_span:
                    spans[frame[2]] = (layer, name, start, end, top[2],
                                       tracer.op)
            if counter is not None:
                counter(args, result)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def layer_calls(self, layer):
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def by_caller(self, layer):
        """{calling layer: (calls, seconds)} for one layer."""
        return {caller: (n, self.seconds[(lay, caller)])
                for (lay, caller), n in sorted(self.calls.items())
                if lay == layer}
