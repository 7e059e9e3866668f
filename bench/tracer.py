"""Span tracer that wraps dirac_zero_lab's public functions from outside.

The package imports functions by name (``from .freeop import
apply_a_spectral``), so wrapping ``freeop.apply_a_spectral`` alone would miss
the calls made through ``resonance`` or ``kernelnorm``.  ``install`` therefore
rebinds every module-level name, and every value of a module-level dict, that
refers to a wrapped function.  No program file is edited.

A span is ``[name, start, end, parent, info]``: ``name`` is ``module.function``,
times come from ``time.perf_counter``, ``parent`` is the index of the
enclosing span (-1 at top level) and ``info`` is an optional work count taken
from the call's arguments or result (see ``ANNOTATIONS``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "dirac_zero_lab"
UNTRACED_MODULES = ("cli",)  # the entry point: its time is what the spans leave over

# Public names the benchmark's per-layer metrics are computed from.  A name
# that a refactor removes is reported as missing; the metrics built on it
# then read zero.
EXPECTED = (
    "field.forward_fourier",
    "field.inverse_fourier",
    "field.l2_norm",
    "freeop.apply_a_spectral",
    "freeop.apply_a_quadrature",
    "potential.apply_potential",
    "potential.loss_yau",
    "potential.loss_yau_potential",
    "potential.from_em",
    "resonance.birman_schwinger_spectrum",
    "resonance.classify_threshold_state",
    "kernelnorm.estimate_norm",
)

# Work counts recorded per span: (args, kwargs, result) -> number.
ANNOTATIONS = {
    # pairs (x, y) summed by the N^6 quadrature; computed, not counted
    "freeop.apply_a_quadrature": lambda a, k, r: r.grid.N**6,
    "resonance.birman_schwinger_spectrum": lambda a, k, r: [r.iterations, len(r.eigenvalues)],
    "kernelnorm.estimate_norm": lambda a, k, r: r.iterations,
}


class Tracer:
    def __init__(self, expected=EXPECTED):
        self.expected = tuple(expected)
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self.annotation_errors: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATIONS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if annotate is not None:
                try:
                    span[4] = annotate(args, kwargs, result)
                except (AttributeError, TypeError) as exc:
                    self.annotation_errors.append(f"{name}: {exc}")
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every imported package module."""
        modules = {
            key[len(PACKAGE) + 1 :]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith(PACKAGE + ".") and mod is not None
        }
        replacement = {}
        for short, mod in sorted(modules.items()):
            if short in UNTRACED_MODULES:
                continue
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    replacement[id(fn)] = self._wrap(name, fn)
                    self.wrapped.append(name)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in replacement:
                    setattr(mod, attr, replacement[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in replacement:
                            val[key] = replacement[id(item)]
        self.missing = [n for n in self.expected if n not in self.wrapped]
