"""Span tracing around gridsleuth's public layer functions.

The wrappers live here, in the benchmark, and are installed into every
gridsleuth namespace that bound a layer function at import time (the
planner, metering and CLI modules import several by name), so calls
between modules are timed too. Spans are kept in memory with their parent
ids; a span's self time is its duration minus that of its children.
Spans are recorded only under a root span the benchmark opens, so the
correctness gate's own calls between episodes are never counted.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Layer name -> public functions timed in it. A function a later commit
# drops is skipped at install time and reports zero calls.
LAYERS = {
    "topology": ("build_topology", "validate_operating_state", "closed_components",
                 "adjacency_from_incidence"),
    "energize": ("energized_nodes", "frtu_coverage", "suspect_nodes"),
    "planner": ("localize", "isolate_dg_islands"),
    "metering": ("simulate_interval", "load_scenario"),
    "scoring": ("score_window", "rank_meters"),
    "cli": ("main",),
}
ORACLE = "metering.oracle"
VALIDATE = "topology.validate_operating_state"

# (span name, statistic) in report order; see ``layer_metrics``.
PER_LAYER = (
    ("topology.build_topology", "calls"), ("topology.build_topology", "s"),
    (VALIDATE, "calls"), (VALIDATE, "self_s"), (VALIDATE, "reject_ratio"),
    ("topology.closed_components", "calls"), ("topology.closed_components", "s"),
    ("topology.adjacency_from_incidence", "calls"),
    ("topology.adjacency_from_incidence", "s"),
    ("energize.energized_nodes", "calls"), ("energize.energized_nodes", "self_s"),
    ("energize.energized_nodes", "per_check"),
    ("energize.frtu_coverage", "calls"), ("energize.frtu_coverage", "self_s"),
    ("energize.suspect_nodes", "calls"),
    ("planner.localize", "calls"), ("planner.localize", "self_s"),
    ("planner.isolate_dg_islands", "calls"), ("planner.isolate_dg_islands", "s"),
    (ORACLE, "calls"), (ORACLE, "fresh_ratio"),
    ("metering.simulate_interval", "calls"), ("metering.simulate_interval", "self_s"),
    ("metering.load_scenario", "s"),
    ("scoring.score_window", "calls"), ("scoring.score_window", "s"),
    ("scoring.rank_meters", "s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s", "reject_ratio": "ratio",
         "per_check": "count", "fresh_ratio": "ratio"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    rejected: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """Open a root span; layer calls are recorded only inside one."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        """Callable that records a span around ``fn`` inside a root."""
        judge = name == VALIDATE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if judge:
                span.rejected = not result.ok
            return result

        return traced

    def install(self) -> None:
        """Swap each layer function for its wrapper wherever it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gridsleuth" or n.startswith("gridsleuth.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"gridsleuth.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is not None:
                    self._rebind(modules, original,
                                 self.wrap(f"{layer}.{fname}", original))
        # Oracles are callables built per run; whoever builds one through a
        # gridsleuth namespace (the benchmark or the CLI) gets it wrapped.
        metering = sys.modules.get("gridsleuth.metering")
        oracle_cls = getattr(metering, "SimulationOracle", None)
        if oracle_cls is not None:
            def traced_oracle(*args, **kwargs):
                return self.wrap(ORACLE, oracle_cls(*args, **kwargs))

            self._rebind([m for m in modules if m is not metering], oracle_cls,
                         traced_oracle)

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


def layer_metrics(tracer: Tracer, episodes: int, checks: int) -> dict[str, float]:
    """Per-layer statistics per episode, keyed ``<module>.<function>.<stat>``.

    ``calls``, ``s`` (inclusive seconds) and ``self_s`` are totals divided
    by ``episodes``; ``reject_ratio`` is the share of validations that were
    not ok; ``per_check`` is energizations per fresh FRTU check; and
    ``fresh_ratio`` is simulated intervals per oracle call.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    rejected = 0
    simulated_for_oracle = 0
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        calls[span.name] += 1
        total[span.name] += span.duration
        own[span.name] += self_s
        rejected += span.rejected
        if (span.name == "metering.simulate_interval" and span.parent is not None
                and tracer.spans[span.parent].name == ORACLE):
            simulated_for_oracle += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name, stat in PER_LAYER:
        if stat == "calls":
            value = calls[name] / episodes
        elif stat == "s":
            value = total[name] / episodes
        elif stat == "self_s":
            value = own[name] / episodes
        elif stat == "reject_ratio":
            value = ratio(rejected, calls[name])
        elif stat == "per_check":
            value = ratio(calls[name], checks)
        else:
            value = ratio(simulated_for_oracle, calls[name])
        out[f"{name}.{stat}"] = value
    return out
