"""Spans at quasicode's layer boundaries, installed from outside the program.

Tracer.install() wraps the public functions and methods of every module of
a layer. A wrapped call entered from another layer (or from the benchmark)
opens a span; a call from inside the same layer only counts. A layer's self
time is the time of its spans minus the part covered by spans of other layers
they caused. Totals stay in memory and are written when the run ends.

Calls are also counted per function, which gives the exact counters: payload
multiplications and solves, Scalar wraps, vector builds and decodes.
Generators are timed only while they build the generator object; their
iteration is charged to the layer that iterates.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "algebra": ("quasicode.algebra.base", "quasicode.algebra.fields", "quasicode.algebra.hypercomplex",
                "quasicode.algebra.tables", "quasicode.algebra.audit", "quasicode.algebra.structure",
                "quasicode.algebra.specfile"),
    "finvec": ("quasicode.finvec",),
    "hamming": ("quasicode.hamming",),
    "reconstruct": ("quasicode.reconstruct",),
    "equivalence": ("quasicode.equivalence",),
    "linalg": ("quasicode.linalg",),
    "cli": ("quasicode.cli",),
}

# Methods traced besides the public ones: construction and the operators.
TRACED_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__call__")
# Payload arithmetic of the algebra classes: counted, not spanned.
COUNTED_PRIVATE = ("_mul", "_solve_left", "_solve_right")

# Exact counters reported by a traced run, as sums of per-function call counts.
COUNTERS = {
    "algebra.mul_calls": ("._mul",),
    "algebra.solve_calls": ("._solve_left", "._solve_right"),
    "algebra.scalar_wraps": ("Scalar.__init__",),
    "finvec.vector_builds": ("Column.__init__", "DenseVec.__init__", "FinVec.__init__"),
    "hamming.decode_calls": ("HammingCode.decode",),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, seconds covered by child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # spans entered, per layer
        self.fn_calls: Counter = Counter()  # calls per wrapped function, spans or not

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, layer: str, key: str):
        stack, self_s, calls, fn_calls = self.stack, self.self_s, self.calls, self.fn_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fn_calls[key] += 1
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[layer] += took - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += took

        return traced

    def _count(self, fn, key: str):
        fn_calls = self.fn_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            fn_calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            key = f"{cls.__name__}.{name}"
            if name in COUNTED_PRIVATE and inspect.isfunction(attr):
                setattr(cls, name, self._count(attr, key))
            elif name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._span(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._span(attr, layer, key))

    def install(self) -> None:
        """Wrap every layer's public surface, wherever quasicode's modules refer to it."""
        import quasicode.cli  # noqa: F401  (load every layer)

        replaced = {}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = sys.modules[module_name]
                for name, obj in list(vars(module).items()):
                    if getattr(obj, "__module__", None) != module_name:
                        continue
                    if inspect.isclass(obj):
                        self._wrap_class(obj, layer)
                    elif inspect.isfunction(obj) and not name.startswith("_"):
                        replaced[obj] = self._span(obj, layer, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "quasicode" and not module_name.startswith("quasicode."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "fn_calls": dict(self.fn_calls)}

    def merge(self, totals: dict) -> None:
        """Add the totals of a traced child process."""
        for layer, s in totals["self_s"].items():
            self.self_s[layer] += s
        self.calls.update(totals["calls"])
        self.fn_calls.update(totals["fn_calls"])

    def counters(self) -> dict[str, int]:
        out = {}
        for name, patterns in COUNTERS.items():
            out[name] = sum(n for key, n in self.fn_calls.items()
                            if any(key.endswith(p) for p in patterns))
        return out
