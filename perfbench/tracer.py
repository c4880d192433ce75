"""Tracing from outside the program: spans and counters kept in memory.

The tracer replaces procure's public functions, wherever a module of the
package binds them, with wrappers that open a span; it replaces the oracle
and demand/schedule classes with factories whose objects are wrapped the
same way.  Nothing under ``src/`` changes, and ``uninstall`` puts every
original binding back.

A span is (name, start, end, parent).  A layer's self time is the duration
of its spans minus the part their child spans cover; it is accumulated as
spans close, so it stays complete when the stored span list hits its cap.
Valuation queries are far too many to store one by one: they are timed and
counted like spans but never stored.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 100_000

# (module, public function, layer).  Every binding of the function object in
# any procure module is wrapped, so calls one module makes into another
# (``run_meta`` as called by ``sealed_bid``) are traced too.
TRACED_FUNCTIONS = (
    ("harness", "experiment_records", "harness"),
    ("selection", "run_meta", "selection"),
    ("selection", "run_meta_lazy", "selection"),
    ("sealed_bid", "run_sealed_bid", "sealed_bid"),
    ("sealed_bid", "run_sealed_bid_lazy", "sealed_bid"),
    ("sealed_bid", "verify_ic", "verification"),
    ("sealed_bid", "verify_ir", "verification"),
    ("sealed_bid", "verify_nas", "verification"),
    ("verification", "suite_rule", "verification"),
    ("online", "run_posted_price", "online"),
    ("descending", "run_descending", "descending"),
    ("descending", "run_descending_from_online", "descending"),
    ("scoring", "online_price", "scoring"),
)

ORACLE_CLASSES = (("valuation", "CoverageOracle"), ("valuation", "NoisyOracle"))

# (module, class, span name, traced methods)
PROXIED_CLASSES = (
    ("descending", "CostScaledDemand", "descending.demand", ("__call__",)),
    ("descending", "LexicographicSchedule", "descending.schedule", ("pick",)),
)

SEALED_MECHANISMS = ("run_sealed_bid", "run_sealed_bid_lazy")
SELECTION_LOOPS = ("run_meta", "run_meta_lazy")
ONLINE_MECHANISMS = ("run_posted_price", "run_descending_from_online")


@functools.cache
def public_methods(cls) -> tuple[str, ...]:
    """Names of the plain public methods of a class (no properties)."""
    names = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        attr = inspect.getattr_static(cls, name)
        if isinstance(attr, (property, classmethod, staticmethod)) or not callable(attr):
            continue
        names.append(name)
    return tuple(names)


class Tracer:
    def __init__(self, package: str = "procure"):
        self.package = package
        self.clock = time.perf_counter
        self.stack: list[list] = []  # frames: [span index or None, child seconds]
        self.spans: list = []
        self.spans_dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.oracle_build_s = 0.0
        self.wrap_s = 0.0
        self.scratch_acc = [0.0, 0, 0]
        self.oracle_acc = [0.0, 0, 0]
        self.oracles: list = []
        # Sealed-bid phase: None outside a mechanism, "payment" inside one,
        # "allocation" inside its first non-excluded selection loop.
        self.phase: str | None = None
        self.allocation_pending = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a stored span."""
        stack = self.stack
        parent = stack[-1][0] if stack else None
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = None
            self.spans_dropped += 1
        frame = [index, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.inclusive_s[name] += duration
            self.counts[name] += 1
            if stack:
                stack[-1][1] += duration
            if index is not None:
                self.spans[index] = (name, start, end, parent)

    def root(self, fn):
        """Run one benchmark job under a root span and add up its oracles' query counters."""
        try:
            return self.call("bench.run", "bench", fn)
        finally:
            for oracle in self.oracles:
                count = getattr(oracle, "query_count", None)
                if isinstance(count, int):
                    self.counts["valuation.program_queries"] += count
                else:
                    self.counts["valuation.uncounted_oracles"] += 1
            self.oracles.clear()

    def _valuation(self, fn, acc: list):
        """Wrap one oracle or scratch method: timed and counted, never stored.

        ``acc`` is [self seconds, calls, calls in a payment phase]; plain
        list slots keep this hot wrapper cheaper than dictionary counters.
        """
        clock, stack, tracer = self.clock, self.stack, self

        def wrapped(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc[0] += duration - frame[1]
                acc[1] += 1
                if tracer.phase == "payment":
                    acc[2] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapped

    def valuation_totals(self) -> dict:
        """Valuation self time and call counts, folded in from the hot accumulators."""
        scratch, oracle = self.scratch_acc, self.oracle_acc
        return {
            "self_s": self.oracle_build_s + scratch[0] + oracle[0],
            "scratch_calls": scratch[1],
            "oracle_calls": oracle[1],
            "payment_calls": scratch[2] + oracle[2],
        }

    def _charge_build(self, duration: float) -> None:
        self.oracle_build_s += duration
        if self.stack:
            self.stack[-1][1] += duration

    def _charge_overhead(self, duration: float) -> None:
        """Time spent wrapping a new object: charged to no layer."""
        self.wrap_s += duration
        if self.stack:
            self.stack[-1][1] += duration

    # -- object wrappers -------------------------------------------------

    def _oracle_factory(self, cls):
        def build(*args, **kwargs):
            start = self.clock()
            oracle = cls(*args, **kwargs)
            built = self.clock()
            self._charge_build(built - start)
            self.counts["valuation.oracle_builds"] += 1
            for name in public_methods(type(oracle)):
                method = getattr(oracle, name)
                if name == "scratch":
                    setattr(oracle, name, self._scratch_factory(method))
                else:
                    setattr(oracle, name, self._valuation(method, self.oracle_acc))
            self.oracles.append(oracle)
            self._charge_overhead(self.clock() - built)
            return oracle

        return build

    def _scratch_factory(self, make_scratch):
        def scratch(*args, **kwargs):
            start = self.clock()
            s = make_scratch(*args, **kwargs)
            built = self.clock()
            self._charge_build(built - start)
            self.counts["valuation.scratch_builds"] += 1
            for name in public_methods(type(s)):
                setattr(s, name, self._valuation(getattr(s, name), self.scratch_acc))
            self._charge_overhead(self.clock() - built)
            return s

        return scratch

    def _proxy_factory(self, cls, span: str, methods: tuple[str, ...]):
        tracer = self

        class Proxy:
            def __init__(self, *args, **kwargs):
                self._inner = cls(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        for method in methods:
            def traced(self, *args, _method=method, **kwargs):
                return tracer.call(span, "descending", getattr(self._inner, _method), *args, **kwargs)

            setattr(Proxy, method, traced)
        Proxy.__name__ = cls.__name__
        return Proxy

    def _runner(self, runner):
        def traced_runner(*args, **kwargs):
            self.counts["verification.mechanism_runs"] += 1
            return self.call("verification.runner", "verification", runner, *args, **kwargs)

        return traced_runner

    # -- function wrappers -----------------------------------------------

    def _function(self, module: str, name: str, layer: str, fn):
        span = f"{module}.{name}"
        if name in SEALED_MECHANISMS:
            def wrapped(*args, **kwargs):
                saved = self.phase, self.allocation_pending
                self.phase, self.allocation_pending = "payment", True
                try:
                    outcome = self.call(span, layer, fn, *args, **kwargs)
                finally:
                    self.phase, self.allocation_pending = saved
                focus = kwargs.get("focus")
                paid = len(outcome.winners) if focus is None else int(focus in outcome.winners)
                self.counts["sealed_bid.paid_winners"] += paid
                return outcome
        elif name in SELECTION_LOOPS:
            def wrapped(*args, **kwargs):
                self.counts["selection.calls"] += 1
                excluded = kwargs.get("excluded")
                if excluded is not None:
                    self.counts["selection.excluded_calls"] += 1
                if self.phase == "payment" and self.allocation_pending and excluded is None:
                    self.allocation_pending = False
                    self.phase = "allocation"
                    try:
                        return self.call(span, layer, fn, *args, **kwargs)
                    finally:
                        self.phase = "payment"
                return self.call(span, layer, fn, *args, **kwargs)
        elif name in ONLINE_MECHANISMS:
            def wrapped(*args, **kwargs):
                self.counts["online.arrivals"] += args[1].n
                return self.call(span, layer, fn, *args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                return self.call(span, layer, fn, *args, **kwargs)
        return wrapped

    # -- install / uninstall ---------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in list(sys.modules.items()) if key == self.package or key.startswith(prefix)]

    def _rebind(self, original, replacement) -> None:
        """Point every procure binding of ``original`` at ``replacement``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _lookup(self, module: str, name: str):
        mod = sys.modules.get(f"{self.package}.{module}")
        return getattr(mod, name, None) if mod is not None else None

    def install(self) -> list[str]:
        """Wrap everything traced; returns the names that were not found."""
        targets = [(m, n, functools.partial(self._function, m, n, layer)) for m, n, layer in TRACED_FUNCTIONS]
        targets += [(m, n, self._oracle_factory) for m, n in ORACLE_CLASSES]
        targets += [(m, n, functools.partial(self._proxy_factory, span=span, methods=methods))
                    for m, n, span, methods in PROXIED_CLASSES]
        targets.append(("sealed_bid", "sealed_bid_runner",
                        lambda make: lambda *a, **k: self._runner(make(*a, **k))))
        missing = []
        for module, name, wrap in targets:
            original = self._lookup(module, name)
            if original is None:
                missing.append(f"{module}.{name}")
            else:
                self._rebind(original, wrap(original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def span_table(self) -> dict:
        """Stored spans in a compact form: name table plus [name, start, end, parent] rows."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        return {"names": list(names), "spans": rows, "dropped": self.spans_dropped}
