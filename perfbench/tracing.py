"""Spans around the public functions of every hkdd layer, for the traced run.

``install()`` wraps each function in ``TARGETS`` in every ``hkdd`` module
namespace that binds it (``cli`` and ``dynamics`` import names from
``salem``, so patching only the defining module would miss those calls) and
``AlgebraicReal.refined`` on its class. Each call records a span: function,
parent span, start and end. ``Tracer.summary()`` turns the spans of one job
into calls and self time per function, self time being the span's duration
minus the durations of its child spans, plus counts derived from outside:

- ``polynomial.refined.bits``: log2(input width / output width), summed;
- ``polynomial.divide_exact.fails``: calls that raised NotDivisibleError;
- ``salem.classify_charpoly.distinct``: distinct coefficient tuples;
- ``<layer>.<fn>.vectors_scanned``: ``linalg.bilinear`` calls made while
  ``enumerate_isometries`` or ``represents`` is the innermost span;
- ``dynamics.enumerate_isometries.found``: matrices it returned.

``linalg.bilinear`` gets a counter, not a span: it runs up to a million
times per job, and its time stays in the self time of its caller.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Besides the layer kernels, every hkdd function that cli.py calls directly
# and that does more than a lookup is wrapped, so that the self time left to
# cli.main is argument parsing and report rendering.
TARGETS = {
    "cli": ("main",),
    "linalg": ("mat_mul", "mat_pow", "det_bareiss", "integer_kernel", "solve_integer_system"),
    "polynomial": ("char_poly", "divide_exact", "square_free_part", "sturm_count", "isolate_real_roots",
                   "trace_polynomial", "format_fraction"),
    "salem": ("classify_charpoly", "peel_cyclotomic", "is_salem_polynomial", "salem_root_of"),
    "dynamics": ("degree_spectrum", "power_decimal", "exact_power_str", "enumerate_isometries",
                 "search_salem_isometries", "degree_from_classification", "validate_spectrum_shape"),
    "lattice": ("verify_isometry", "invariant_sublattice", "represents", "signature"),
    "hyperkahler": ("solve_beauville", "naturality_certificate", "kummer_first_degree", "hilbert_lattice",
                    "hilbert_from_extended", "kummer_spectrum", "compose", "power"),
    "jsonio": ("load_lattice", "load_matrix", "dump_json"),
}
SCANNERS = ("dynamics.enumerate_isometries", "lattice.represents")


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
    return names + ["polynomial.refined"]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.spans: list[list] = []  # [name index, parent span id, start, end]
        self.stack: list[int] = []
        self.bits = 0.0
        self.fails = 0
        self.distinct: set = set()
        self.found = 0
        self.scanned = dict.fromkeys(SCANNERS, 0)

    def wrap(self, name: str, fn, after=None):
        idx = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([idx, self.stack[-1] if self.stack else -1, 0.0, 0.0])
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, None, exc)
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid][2:] = (start, end)
            if after is not None:
                after(args, result, None)
            return result

        return traced

    def count_bilinear(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            if self.stack:
                name = self.names[self.spans[self.stack[-1]][0]]
                if name in self.scanned:
                    self.scanned[name] += 1
            return fn(*args)

        return counted

    def after_refined(self, args, result, exc):
        if result is not None:
            before, after = args[0].hi - args[0].lo, result.hi - result.lo
            self.bits += math.log2(before.numerator * after.denominator) - math.log2(
                before.denominator * after.numerator)

    def after_divide(self, args, result, exc):
        if exc is not None and type(exc).__name__ == "NotDivisibleError":
            self.fails += 1

    def after_classify(self, args, result, exc):
        self.distinct.add(args[0].coeffs)

    def after_enumerate(self, args, result, exc):
        if result is not None:
            self.found += len(result)

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the derived counts."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx, parent, start, end in self.spans:
            calls[idx] += 1
            self_s[idx] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        out["polynomial.refined.bits"] = self.bits
        out["polynomial.divide_exact.fails"] = self.fails
        out["salem.classify_charpoly.distinct"] = len(self.distinct)
        out["dynamics.enumerate_isometries.found"] = self.found
        for name, count in self.scanned.items():
            out[f"{name}.vectors_scanned"] = count
        return out


def install() -> Tracer:
    """Wrap the targets in place; call once, before any job runs."""
    import hkdd.cli  # noqa: F401  (loads every hkdd module)
    from hkdd import linalg
    from hkdd.polynomial import AlgebraicReal

    tracer = Tracer()
    hooks = {
        "polynomial.divide_exact": tracer.after_divide,
        "salem.classify_charpoly": tracer.after_classify,
        "dynamics.enumerate_isometries": tracer.after_enumerate,
    }
    modules = [m for key, m in sys.modules.items() if key == "hkdd" or key.startswith("hkdd.")]
    for layer, fns in TARGETS.items():
        home = sys.modules[f"hkdd.{layer}"]
        for fn in fns:
            original = getattr(home, fn)
            wrapped = tracer.wrap(f"{layer}.{fn}", original, hooks.get(f"{layer}.{fn}"))
            _rebind(modules, original, wrapped)
    _rebind(modules, linalg.bilinear, tracer.count_bilinear(linalg.bilinear))
    AlgebraicReal.refined = tracer.wrap("polynomial.refined", AlgebraicReal.refined, tracer.after_refined)
    return tracer


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
