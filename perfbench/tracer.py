"""Span tracer for lieembed, installed from outside the package.

``install`` wraps every public function of the layer modules, and
``LieAlgebra.__init__``, and rebinds each wrapped name in every lieembed
module that holds it, so ``from .exactlin import rref`` inside ``liecore``
is traced too.  Spans stay in memory; ``summary`` folds them into per-name
call counts and times and per-layer self times when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("exactlin", "liecore", "rootsys", "embed", "vecfield", "cli", "corpus")
# matrices passed to these are scanned for coefficient size
BITS_OF_ARG = {"exactlin.rref", "exactlin.char_poly", "exactlin.min_poly"}
FINDERS = ("embed.find_real_semisimple", "embed.find_compact")
CANDIDATE = "liecore.classify_element"


class Tracer:
    def __init__(self):
        # span: [name, parent index, request, start ns, end ns, returned, outermost]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.request = None
        self.max_bits = 0
        self.algebra_cache = None

    def wrap(self, name: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        scan = name in BITS_OF_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if scan and args:
                self._note_bits(args[0])
            depth = active.get(name, 0)
            active[name] = depth + 1
            span = [name, stack[-1] if stack else -1, self.request,
                    perf_counter_ns(), 0, False, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                return result
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
                active[name] = depth

        return traced

    def _note_bits(self, matrix):
        best = self.max_bits
        for row in getattr(matrix, "entries", ()):
            for x in row:
                if not x:
                    continue
                for part in ((x,) if isinstance(x, Fraction) else (x.a, x.b)):
                    best = max(best, part.numerator.bit_length(),
                               part.denominator.bit_length())
        self.max_bits = best

    def summary(self) -> dict:
        """Per-name ``calls`` and ``ms`` (outermost activations only, so
        recursion is not counted twice), per-layer self time, and the
        candidate-search counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, _req, t0, t1, _ok, _outer in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: dict[str, int] = {}
        ns: dict[str, int] = {}
        self_ns = {layer: 0 for layer in LAYERS}
        candidates = accepted = 0
        for i, (name, parent, _req, t0, t1, ok, outer) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            if outer:
                ns[name] = ns.get(name, 0) + (t1 - t0)
            self_ns[name.split(".", 1)[0]] += t1 - t0 - child_ns[i]
            if name in FINDERS and ok:
                accepted += 1
            elif name == CANDIDATE:
                p = parent
                while p >= 0 and spans[p][0] not in FINDERS:
                    p = spans[p][1]
                candidates += p >= 0
        info = self.algebra_cache.cache_info() if self.algebra_cache else None
        return {"calls": calls,
                "ms": {k: v / 1e6 for k, v in ns.items()},
                "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
                "candidates": candidates, "accepted": accepted,
                "max_bits": self.max_bits,
                "cache_hits": info.hits if info else 0,
                "cache_misses": info.misses if info else 0}


def _defined_in(obj, module) -> bool:
    fn = getattr(obj, "__wrapped__", obj)  # lru_cache wrappers
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


def install(tracer: Tracer) -> None:
    modules = {layer: importlib.import_module(f"lieembed.{layer}") for layer in LAYERS}
    by_name = modules["vecfield"].algebra_by_name
    tracer.algebra_cache = by_name if hasattr(by_name, "cache_info") else None
    # each wrapper holds its original, which keeps these ids valid
    wrappers: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and _defined_in(obj, module):
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for modname, module in list(sys.modules.items()):
        if modname == "lieembed" or modname.startswith("lieembed."):
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
    cls = modules["liecore"].LieAlgebra
    cls.__init__ = tracer.wrap("liecore.LieAlgebra", cls.__init__)
