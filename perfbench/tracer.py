"""Per-layer self time and call counts, recorded from outside the program.

`Tracer.install` rebinds every public function of the wavetrace layer
modules, in each layer module that binds it (so `invariants.hessian_matrix`
and `hessian.hessian_matrix` are both wrapped), plus the public methods and
arithmetic operators of their public classes.  Each wrapped call is a span
of the layer that defines the function; a layer's self time is the time of
its spans minus the time of the spans they contain.  Private helpers are not
wrapped, so their time counts toward the public function that called them.
`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "domain", "invariants", "hessian", "billiard", "feynman", "jets", "inverse")

_OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__truediv__", "__neg__", "__pow__")
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = f"{layer}.{getattr(fn, '__qualname__', getattr(fn, '__name__', '?'))}"
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        self._wrappers[key] = traced
        return traced

    def _rebind(self, owner, attr: str, value):
        # vars() keeps a class's staticmethod/classmethod descriptors intact
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        layer_of = {f"wavetrace.{layer}": layer for layer in LAYERS}
        for module in map(importlib.import_module, layer_of):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.ismodule(obj):
                    continue
                layer = layer_of.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == module.__name__:
                        self._install_class(obj, layer)
                elif callable(obj):
                    self._rebind(module, attr, self._wrap(obj, layer))

    def _install_class(self, cls: type, layer: str):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self._wrap(value.__func__, layer))
            elif isinstance(value, classmethod):
                wrapped = classmethod(self._wrap(value.__func__, layer))
            elif inspect.isfunction(value):
                wrapped = self._wrap(value, layer)
            else:
                continue
            self._rebind(cls, attr, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> tuple[dict[str, float], Counter]:
        return dict(self.self_s), Counter(self.calls)
