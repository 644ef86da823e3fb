"""Span and counter tracing of the bouncepaths layers, installed from outside.

The tracer rebinds every public function of each layer module, in every
``bouncepaths.*`` module that holds the same function object (modules
import names with ``from .x import y``, so patching only the defining
module would miss calls), plus the suite table of ``verify`` and the
arithmetic methods of ``Series`` on the class.  Nothing under ``src/``
changes.

Spans are kept in memory as (name, start, end, parent) and summarised when
the run ends: a span's self time is its duration minus its child spans.
Counter bookkeeping runs outside the measured span and is recorded as a
``trace.hook`` child span, so it is not charged to the caller's self time.
The time to install the wrappers and to build the summary is reported as
``tracer_s``.
A span name the metrics read that no longer exists is reported as absent.
"""

import functools
import importlib
import inspect
import math
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("series", "closed_forms", "bounce", "beta_one", "enumeration", "verify", "cli")

SERIES_METHODS = {
    "__mul__": "series.mul",
    "__rmul__": "series.mul",
    "__pow__": "series.pow",
    "reciprocal": "series.reciprocal",
    "div": "series.div",
    "__add__": "series.add",
    "__radd__": "series.add",
    "__sub__": "series.sub",
    "__rsub__": "series.sub",
    "__neg__": "series.neg",
}

# Span names the per-layer metrics are read from.
EXPECTED = (
    "series.mul", "series.pow", "series.reciprocal", "series.div",
    "closed_forms.binomial", "closed_forms.g_series", "closed_forms.g_ab_series",
    "closed_forms.g_prefix_series", "closed_forms.fuss_catalan",
    "bounce.bounce_free_ab", "bounce.expand_marker_quotient", "bounce.bounce_table",
    "beta_one.nhc_nrb_series", "beta_one.nhc_prefix_series",
    "enumeration.enumerate_profiles", "enumeration.enumerate_syt",
    "verify.oracle-vs-table", "verify.total-bounces", "verify.syt", "verify.crosses",
    "cli.cmd_coeffs", "cli.cmd_bounce_table", "cli.cmd_verify", "cli.main",
)

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.names: set[str] = set()
        self._walked: set = set()
        self._restore: list = []
        self.overhead_s = 0.0  # installing and summarising, outside any span

    # ------------------------------------------------------------ wrapping

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` update counters."""
        spans, stack = self.spans, self.stack
        self.names.add(name)

        def hook(callback, *payload):
            t0 = perf_counter()
            callback(*payload)
            spans.append((HOOK, t0, perf_counter(), stack[-1] if stack else -1))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and the ``Series`` methods."""
        start = perf_counter()
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"bouncepaths.{layer}")
            except ImportError:
                continue
        suites = getattr(modules.get("verify"), "SUITES", {})
        suite_names = {id(fn): f"verify.{key}" for key, fn in suites.items()}

        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    is_suite = id(obj) in suite_names
                    name = suite_names.get(id(obj), f"{layer}.{attr}")
                    before, after = self._counting(name, obj, is_suite)
                    wrapped[id(obj)] = (obj, self.wrap(name, obj, before, after))

        for module_name, module in list(sys.modules.items()):
            if module_name == "bouncepaths" or module_name.startswith("bouncepaths."):
                for attr, obj in list(vars(module).items()):
                    entry = wrapped.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        self._rebind(module, attr, obj, entry[1])
        for key, fn in list(suites.items()):
            entry = wrapped.get(id(fn))
            if entry is not None and entry[0] is fn:
                suites[key] = entry[1]
                self._restore.append((suites, key, fn))

        series_cls = getattr(modules.get("series"), "Series", None)
        for attr, name in SERIES_METHODS.items():
            fn = vars(series_cls).get(attr) if series_cls is not None else None
            if isinstance(fn, types.FunctionType):
                before = self._count_mul if name == "series.mul" else None
                self._rebind(series_cls, attr, fn, self.wrap(name, fn, before))
        self.overhead_s += perf_counter() - start

    def absent(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.names]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    # ------------------------------------------------------------ counters

    def _count_mul(self, args, kwargs):
        counters = self.counters
        left, right = args
        operands = [left.coeffs]
        if hasattr(right, "coeffs"):
            a, b = left.coeffs, right.coeffs
            n = min(len(a), len(b))
            counters["series.mul.coeff_products"] += sum(
                n - i for i in range(n) if a[i]
            )
            operands.append(b)
        bits = max(max(map(int.bit_length, c)) for c in operands)
        if bits > counters["series.mul.max_bits"]:
            counters["series.mul.max_bits"] = bits

    def _counting(self, name, fn, is_suite):
        """Counter callbacks (before, after) for the span ``name``."""
        counters = self.counters
        if name == "enumeration.enumerate_profiles":
            signature = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                slope, k = bound.arguments["slope"], bound.arguments["k"]
                key = (slope.alpha, slope.beta, k)
                if key not in self._walked:
                    self._walked.add(key)
                    total = math.comb((slope.alpha + slope.beta) * k, slope.alpha * k)
                    counters["enumeration.paths_walked"] += total

            return None, after
        if name == "bounce.expand_marker_quotient":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                counters["bounce.expand_marker_quotient.cells"] += (
                    bound.arguments["max_left"] + 1
                ) * (bound.arguments["max_right"] + 1)

            return before, None
        if is_suite:
            def after(args, kwargs, results):
                counters["verify.checks"] += len(results)
                counters["verify.failed"] += sum(1 for r in results if not r.passed)

            return None, after
        return None, None

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only) and self seconds; plus the counters, absent names and the
        tracer's own install and summary time."""
        start = perf_counter()
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                entry["incl_s"] += end - start
        return {
            "spans": out,
            "counters": dict(self.counters),
            "absent": self.absent(),
            "tracer_s": self.overhead_s + perf_counter() - start,
        }

