"""Declarative SLOs over the macro-workload histograms.

An :class:`SLOSpec` is a list of rules, each either a latency ceiling
(percentile of ``repro_workload_latency_seconds`` for one op type, or
``"*"`` for all ops pooled) or a throughput floor::

    {"rules": [
        {"op": "publish", "percentile": 99.0, "max_latency_us": 800.0},
        {"op": "*", "percentile": 50.0, "max_latency_us": 200.0},
        {"min_throughput_ops_per_s": 100.0}
    ]}

The :class:`SLOWatchdog` evaluates the rules *during* a run (the
workload runner checks at deterministic points of the traffic window)
and once more at drain.  Every newly failing rule:

* lands on :attr:`SLOWatchdog.breaches` (one entry per rule per run);
* emits an ``slo_breach`` event on the world's bus;
* bumps ``repro_slo_breaches_total{workload,op}``;
* and -- first breach only -- triggers a flight-recorder dump with
  the one-line repro command, so the operator gets the event context
  of the moment the objective was lost, not of the end of the run.

Latency rules are evaluated against the *bucketed* histogram
(:meth:`~repro.obs.metrics.Histogram.percentile`), the same numbers
the exposition reports -- deterministic on the simulator.  Throughput
floors need the full makespan, so they are only judged on the final
check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .metrics import Histogram, MetricsRegistry


class SLOError(Exception):
    """Malformed SLO specification."""


@dataclass(frozen=True, slots=True)
class SLORule:
    """One objective: a latency ceiling or a throughput floor."""

    op: str = "*"
    percentile: float = 99.0
    max_latency_us: Optional[float] = None
    min_throughput_ops_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.percentile <= 100.0:
            raise SLOError(f"percentile must be in [0, 100], "
                           f"got {self.percentile}")
        if self.max_latency_us is None \
                and self.min_throughput_ops_per_s is None:
            raise SLOError("a rule needs max_latency_us or "
                           "min_throughput_ops_per_s")

    def describe(self) -> str:
        if self.max_latency_us is not None:
            return f"{self.op} p{self.percentile:g} <= {self.max_latency_us:g}us"
        return f"throughput >= {self.min_throughput_ops_per_s:g} ops/s"


@dataclass(frozen=True, slots=True)
class SLOSpec:
    """An ordered set of rules."""

    rules: tuple[SLORule, ...] = ()

    @classmethod
    def from_dict(cls, data: dict) -> "SLOSpec":
        if not isinstance(data, dict) \
                or not isinstance(data.get("rules"), list):
            raise SLOError('an SLO spec is {"rules": [...]}')
        rules = []
        for i, raw in enumerate(data["rules"]):
            if not isinstance(raw, dict):
                raise SLOError(f"rules[{i}]: expected an object")
            known = {"op", "percentile", "max_latency_us",
                     "min_throughput_ops_per_s"}
            bad = set(raw) - known
            if bad:
                raise SLOError(f"rules[{i}]: unknown key(s) "
                               f"{', '.join(sorted(bad))}")
            try:
                rules.append(SLORule(**raw))
            except TypeError as exc:
                raise SLOError(f"rules[{i}]: {exc}") from exc
        return cls(rules=tuple(rules))

    @classmethod
    def from_json(cls, text: str) -> "SLOSpec":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise SLOError(f"bad SLO JSON: {exc}") from exc

    def to_dict(self) -> dict:
        return {"rules": [
            {k: v for k, v in (("op", r.op),
                               ("percentile", r.percentile),
                               ("max_latency_us", r.max_latency_us),
                               ("min_throughput_ops_per_s",
                                r.min_throughput_ops_per_s))
             if v is not None}
            for r in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True, slots=True)
class SLOBreach:
    """One rule that failed: the observation that broke it."""

    rule: SLORule
    observed: float
    message: str


class SLOWatchdog:
    """Evaluate an :class:`SLOSpec` against a run's live registry."""

    def __init__(self, spec: SLOSpec, registry: MetricsRegistry,
                 workload: str, bus=None, recorder=None,
                 repro: str = "") -> None:
        self.spec = spec
        self.registry = registry
        self.workload = workload
        self.bus = bus
        self.recorder = recorder
        self.repro = repro
        self.breaches: list[SLOBreach] = []
        self.checks = 0
        #: Flight dump captured at the first breach ("" if none).
        self.flight_dump = ""
        self._tripped: set[SLORule] = set()

    # -- histogram access ----------------------------------------------------

    def _latency_histogram(self, op: str) -> Optional[Histogram]:
        family = self.registry._families.get(
            "repro_workload_latency_seconds")
        if family is None:
            return None
        if op != "*":
            inst = family.series.get((self.workload, op))
            return inst if isinstance(inst, Histogram) else None
        pooled: Optional[Histogram] = None
        for (workload, _op), inst in sorted(family.series.items()):
            if workload != self.workload or not isinstance(inst, Histogram):
                continue
            if pooled is None:
                pooled = Histogram(inst.buckets)
            for i, count in enumerate(inst.counts):
                pooled.counts[i] += count
            pooled.sum += inst.sum
            pooled.count += inst.count
            pooled.min = min(pooled.min, inst.min)
            pooled.max = max(pooled.max, inst.max)
        return pooled

    # -- evaluation ----------------------------------------------------------

    def check(self, completed: int = 0, elapsed_s: float = 0.0,
              final: bool = False) -> list[SLOBreach]:
        """One evaluation pass; returns the *newly* tripped rules.

        Latency ceilings are judged on every check; throughput floors
        only when ``final`` (an open-loop run's rate is meaningless
        before drain).
        """
        self.checks += 1
        fresh: list[SLOBreach] = []
        for rule in self.spec.rules:
            if rule in self._tripped:
                continue
            breach = None
            if rule.max_latency_us is not None:
                hist = self._latency_histogram(rule.op)
                observed = hist.percentile(rule.percentile) \
                    if hist is not None and hist.count else None
                if observed is not None \
                        and observed * 1e6 > rule.max_latency_us:
                    breach = SLOBreach(
                        rule=rule, observed=observed,
                        message=(f"{rule.describe()} breached: "
                                 f"p{rule.percentile:g} = "
                                 f"{observed * 1e6:.3f}us"))
            elif final and rule.min_throughput_ops_per_s is not None:
                rate = completed / elapsed_s if elapsed_s > 0 else 0.0
                if rate < rule.min_throughput_ops_per_s:
                    breach = SLOBreach(
                        rule=rule, observed=rate,
                        message=(f"{rule.describe()} breached: "
                                 f"{rate:.1f} ops/s"))
            if breach is None:
                continue
            self._tripped.add(rule)
            fresh.append(breach)
            self.breaches.append(breach)
            self._report(breach)
        return fresh

    def _report(self, breach: SLOBreach) -> None:
        self.registry.counter(
            "repro_slo_breaches_total",
            "SLO rules tripped by the watchdog.",
            ("workload", "op")).labels(
                self.workload, breach.rule.op).inc()
        if self.bus is not None and self.bus.active:
            self.bus.emit("slo_breach", note=breach.message)
        if self.recorder is not None and not self.flight_dump:
            self.flight_dump = self.recorder.dump(
                f"slo breach: {breach.message}", repro=self.repro)

    def ok(self) -> bool:
        return not self.breaches
