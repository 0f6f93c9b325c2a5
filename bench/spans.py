"""Span timing around calls into moriconic's public functions.

Modules import these names directly (``from .linalg import binary_form_gcd``),
so a wrapper only sees calls made through the name it replaced.  ``install``
therefore replaces every reference to a target in every loaded ``moriconic``
module and, for methods, every class attribute bound to it (``QPoly.__rmul__``
is ``__mul__``).  Targets that no longer exist are skipped and report zero.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (module, qualified name, counter name or None).  Counters are added after
# each call from the call's arguments and result.
TARGETS = (
    ("cli", "main", None),
    ("kronecker", "KroneckerModule.from_json", None),
    ("kronecker", "classify_stability", None),
    ("kronecker", "stratify", None),
    ("kronecker", "minor_gcd", None),
    ("kronecker", "column_minors", None),
    ("kronecker", "det_quadric", None),
    ("kronecker", "quadric_rank", None),
    ("kronecker", "cokernel_kind", None),
    ("linalg", "RatMatrix.rref", "cells"),
    ("linalg", "RatMatrix.right_nullspace", None),
    ("linalg", "binary_form_gcd", None),
    ("linalg", "quadratic_root_structure", None),
    ("conic", "plucker_conic", None),
    ("conic", "envelope", None),
    ("conic", "conic_degree", None),
    ("conic", "modify_family", None),
    ("conic", "LambdaFamily.from_json", None),
    ("chamber", "DivisorCombo.make", None),
    ("chamber", "resolve", None),
    ("chamber", "duality_reflect", None),
    ("motivic", "poincare", None),
    ("qpoly", "QPoly.exact_div", "quot_terms"),
    ("qpoly", "QPoly.__mul__", None),
)

COUNTERS = {
    "cells": lambda args, result: args[0].rows * args[0].cols,
    "quot_terms": lambda args, result: len(result.coeffs),
}

def span_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, qual, _ in TARGETS]


def counter_names() -> list[str]:
    return [f"{mod}.{qual}.{c}" for mod, qual, c in TARGETS if c]


class Tracer:
    """Calls, self time and counters per span."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_ns = dict.fromkeys(span_names(), 0)
        self.counts = dict.fromkeys(counter_names(), 0)
        self._stack = [0]  # child time accumulated per open span; [0] is the root
        self._restore = []

    def _wrap(self, name, func, counter):
        stack, calls, self_ns, counts = self._stack, self.calls, self.self_ns, self.counts
        count = COUNTERS[counter] if counter else None
        count_key = f"{name}.{counter}"

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                stack[-1] += elapsed
                self_ns[name] += elapsed - children
                calls[name] += 1
            if count:
                counts[count_key] += count(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, package):
        """Wrap every target of the imported package in place."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod, qual, counter in TARGETS:
            owner = sys.modules.get(f"{package}.{mod}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue
            name = f"{mod}.{qual}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
            holders = [owner] if path else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, key, wrapped)
                        self._restore.append((holder, key, raw))

    def uninstall(self):
        for holder, key, raw in reversed(self._restore):
            setattr(holder, key, raw)
        self._restore.clear()


def minor_gcd_cache_hits(package) -> int:
    """Hits so far of kronecker.minor_gcd's lru_cache; 0 once the cache is gone."""
    info = getattr(getattr(sys.modules.get(f"{package}.kronecker"), "minor_gcd", None), "cache_info", None)
    return info().hits if info else 0
