"""Span tracing of the library's layers, installed from outside the library.

``Tracer.install`` wraps every public function, method and property of each
layer module and rebinds the wrapper wherever a ``semimeasures`` module
imported the name (``from .strings import canon`` makes a second binding).
A call that enters a layer from another layer, or from the benchmark, opens
a span: name, parent, start and end go into flat arrays that stay in memory
until the run ends.  Calls inside the same layer only bump the function's
call count; their time is the layer's own.

``Dyadic`` arithmetic and comparison run millions of times per operation,
so they get no span each: their time is summed and subtracted from the
enclosing span instead, and ``Dyadic.__init__`` is only counted.

Generator functions (``all_strings``, ``strings_up_to``) return before
their work is done; iterating them is charged to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from typing import Any, Callable

LAYERS = ("dyadic", "strings", "semimeasure", "functional", "trim", "mltest", "serialize", "cli")
DYADIC = 0
DYADIC_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__",
              "__lt__", "__le__", "__gt__", "__ge__", "__eq__")
# strings functions whose leading arguments are string sets (counted as items_in)
STRING_SET_ARGS = {"canon": 1, "is_prefix_free": 1, "prefix_free_normalize": 1, "lebesgue_of_set": 1,
                   "extend_set": 1, "intersect_sets": 2, "subtract_sets": 2}
EMITTERS = ("functional.from_semimeasure", "functional.mirror_pair")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []  # every call per name, nested ones included
        self.index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_dyadic = array("q")  # Dyadic arithmetic time inside each span
        self.stack: list[tuple[int, int]] = []  # (layer, span index) of open spans
        self.dyadic_ops = 0
        self.dyadic_ns = 0
        self.constructed = 0
        self.stage_fn_calls = 0
        self.items_in = 0
        self.members_checked = 0
        self.pairs_emitted = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def _register(self, name: str, layer: int) -> int:
        self.index[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return self.index[name]

    def install(self) -> None:
        package = importlib.import_module("semimeasures")
        modules = [importlib.import_module(f"semimeasures.{name}") for name in LAYERS]
        wrapped: dict[int, tuple[Any, Any]] = {}
        for layer, (short, mod) in enumerate(zip(LAYERS, modules)):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._span(obj, layer, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, short)
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, layer: int, short: str) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if cls.__name__ == "Dyadic" and attr in DYADIC_OPS:
                self._set(cls, attr, self._dyadic_op(member))
            elif cls.__name__ == "Dyadic" and attr == "__init__":
                self._set(cls, attr, self._counting_init(member))
            elif cls.__name__ == "LeftCeSemiMeasure" and attr == "__init__":
                self._set(cls, attr, self._counting_stage_fn(member))
            elif attr.startswith("_"):
                continue
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._span(member.__func__, layer, name)))
            elif isinstance(member, property):
                self._set(cls, attr, property(self._span(member.fget, layer, name)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._span(member, layer, name))

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn: Callable, layer: int, name: str) -> Callable:
        k = self._register(name, layer)
        calls, stack = self.calls, self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends, dy = self.span_start, self.span_end, self.span_dyadic
        clock = time.perf_counter_ns
        before = self._before_hook(name)
        after = self._after_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[k] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            idx = len(names)
            names.append(k)
            parents.append(stack[-1][1] if stack else -1)
            dy.append(0)
            ends.append(0)
            stack.append((layer, idx))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _dyadic_op(self, fn: Callable) -> Callable:
        stack, dy = self.stack, self.span_dyadic
        clock = time.perf_counter_ns
        marker = (DYADIC, -1)

        @functools.wraps(fn)
        def wrapper(*args):
            if stack and stack[-1][0] == DYADIC:
                return fn(*args)
            parent = stack[-1][1] if stack else -1
            stack.append(marker)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stack.pop()
                self.dyadic_ops += 1
                self.dyadic_ns += dt
                if parent >= 0:
                    dy[parent] += dt

        return wrapper

    def _counting_init(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            self.constructed += 1
            fn(obj, *args, **kwargs)

        return wrapper

    def _counting_stage_fn(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(obj, stage_fn, *args, **kwargs):
            def counted(s):
                self.stage_fn_calls += 1
                return stage_fn(s)

            fn(obj, counted, *args, **kwargs)

        return wrapper

    def _before_hook(self, name: str) -> Callable | None:
        layer, _, func = name.partition(".")
        if layer == "strings" and func in STRING_SET_ARGS:
            n = STRING_SET_ARGS[func]

            def count_items(args):
                head = tuple(a if isinstance(a, (tuple, list, set, frozenset)) else tuple(a) for a in args[:n])
                self.items_in += sum(len(a) for a in head)
                return head + tuple(args[n:])

            return count_items
        if layer == "mltest":
            def count_members(args):
                for a in args:
                    levels = getattr(a, "levels", None)
                    if isinstance(levels, dict):
                        self.members_checked += sum(len(v) for v in levels.values())
                    elif isinstance(a, (list, tuple)) and a and not isinstance(a[0], str):
                        self.members_checked += sum(len(f) for f in a)
                return args

            return count_members
        return None

    def _after_hook(self, name: str) -> Callable | None:
        if name not in EMITTERS:
            return None

        def count_pairs(result):
            for phi in result if isinstance(result, tuple) else (result,):
                self.pairs_emitted += len(phi.events or ())

        return count_pairs

    # -- analysis ------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self.index[name]] if name in self.index else 0

    def self_times(self) -> tuple[list[int], list[int], dict[str, int]]:
        """Per layer: span count and self ns; per function name: self ns.

        A span's self time is its duration minus its child spans and the
        Dyadic arithmetic run directly inside it.
        """
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        spans = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        by_name: dict[str, int] = {}
        for i in range(n):
            k = self.span_name[i]
            own = self.span_end[i] - self.span_start[i] - child[i] - self.span_dyadic[i]
            layer = self.layer_of[k]
            spans[layer] += 1
            self_ns[layer] += own
            by_name[self.names[k]] = by_name.get(self.names[k], 0) + own
        spans[DYADIC] += self.dyadic_ops
        self_ns[DYADIC] += self.dyadic_ns
        return spans, self_ns, by_name
