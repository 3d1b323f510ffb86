"""Span tracing installed into smithcube from outside the program.

`install` rebinds, in every smithcube module and in the package namespace,
each public function to a wrapper that records a span: name, start, end
and the index of the enclosing span.  A function re-imported by a sibling
(`snf` in `cube` and `reduction`, `blocks` in `reduction`, ...) gets the
same wrapper under the name of the module that defines it.  IntMatrix
methods whose cost grows with the matrix are wrapped the same way, and
every IntMatrix built adds rows x cols to the `bigmat.dense_cells`
counter.  Spans stay in memory until `export`.

Scalar helpers that run once per matrix entry or per subset are counted
but not spanned; their time is part of their caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

MODULES = ("bigmat", "subsets", "canonical", "cube", "reduction", "cli")

# IntMatrix method -> span name suffix; element accessors are left alone
INTMATRIX_METHODS = {
    "__matmul__": "matmul", "__add__": "add", "__sub__": "sub", "__eq__": "eq",
    "scale": "scale", "transpose": "transpose", "submatrix": "submatrix",
    "determinant": "determinant", "row_lists": "row_lists",
    "zeros": "zeros", "identity": "identity", "diagonal": "diagonal",
}

COUNT_ONLY = frozenset({
    "bigmat.valuation", "bigmat.is_prime", "subsets.has_full_rank",
    "subsets.check_subset", "subsets.colex_rank", "subsets.colex_unrank",
})


# span name -> (counter suffix, amount from (args, result)); each amount is
# computed in constant time from shapes or lengths, so it adds no time to
# the enclosing span
MEASURES = {
    "bigmat.snf": ("cells", lambda a, r: a[0].rows * a[0].cols),
    "bigmat.matmul": ("mults", lambda a, r: a[0].rows * a[0].cols * a[1].cols),
    "bigmat.to_text": ("bytes", lambda a, r: len(r)),
    "bigmat.from_text": ("bytes", lambda a, r: len(a[0])),
    "subsets.incidence_matrix": ("cells", lambda a, r: r.rows * r.cols),
    "reduction.reduce_condensed": ("entries", lambda a, r: len(a[0].entries)),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._cached: dict = {}  # span name -> lru-cached original

    def wrap(self, name: str, fn):
        if hasattr(fn, "cache_info"):
            self._cached[name] = fn
        counters = self.counters
        if name in COUNT_ONLY:
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.monotonic
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure:
                counters[f"{name}.{measure[0]}"] += measure[1](args, result)
            return result
        return traced

    def export(self) -> dict:
        counters = dict(self.counters)
        for name, fn in self._cached.items():
            info = fn.cache_info()
            counters[name + ".cache_hits"] = info.hits
            counters[name + ".cache_misses"] = info.misses
        return {"spans": self.spans, "counters": counters}


def install(tracer: Tracer) -> None:
    package = importlib.import_module("smithcube")
    modules = [importlib.import_module(f"smithcube.{m}") for m in MODULES]
    wrappers: dict = {}  # id(original) -> wrapper
    for module in modules:
        for attr, value in list(vars(module).items()):
            home = getattr(value, "__module__", None) or ""
            if (attr.startswith("_") or isinstance(value, type)
                    or not callable(value) or not home.startswith("smithcube.")):
                continue
            if id(value) not in wrappers:
                name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                wrappers[id(value)] = tracer.wrap(name, value)
            setattr(module, attr, wrappers[id(value)])
    for attr, value in list(vars(package).items()):
        if id(value) in wrappers:
            setattr(package, attr, wrappers[id(value)])

    cls = importlib.import_module("smithcube.bigmat").IntMatrix
    for attr, short in INTMATRIX_METHODS.items():
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(f"bigmat.{short}", raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(f"bigmat.{short}", raw))
    init, counters = cls.__init__, tracer.counters

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counters["bigmat.dense_cells"] += self.rows * self.cols
    cls.__init__ = counted_init
