"""Spans and exactmath call counters for the traced run.

Nothing here touches `src/`: the counters are wrappers installed on the
package's public entry points for the length of a traced run and removed
afterwards.  Spans and counters stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from math import gcd, lcm

import sasano.exactmath as exactmath
import sasano.systems as systems
import sasano.verify as verify

from points import SYSTEMS
from workloads import Cli, Construct

# rational_roots searches divisors of the extreme coefficients of the
# square-free part up to this bound and falls back to np.roots above it
SMALL_COEFF_BOUND = 10 ** 12


class Counter:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """In-memory spans plus call counters around exactmath entry points."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.values = {}
        self._stack = []
        self._child_time = []
        self._patches = []
        self.op = None

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def span_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def count(self, name: str, amount: int = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.values[name] = max(self.values.get(name, 0), value)

    # -- call counters ----------------------------------------------------------

    def _wrap(self, key: str, fn, before=None):
        counter = self.counters.setdefault(key, Counter())
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            counter.calls += 1
            counter.active += 1
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                counter.active -= 1
                counter.self_s += elapsed - child_time.pop()
                if counter.active == 0:  # recursive calls count once in s
                    counter.s += elapsed
                if child_time:
                    child_time[-1] += elapsed

        return wrapper

    def _patch(self, owner, attr: str, key: str, before=None) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(key, original, before))

    def install(self) -> None:
        poly, rf = exactmath.Polynomial, exactmath.RationalFunction
        self._patch(poly, "__mul__", "exactmath.mul")
        self._patch(poly, "gcd", "exactmath.gcd")
        self._patch(poly, "__floordiv__", "exactmath.exact_div")
        for attr in ("__add__", "__radd__"):
            self._patch(rf, attr, "exactmath.rf_add")
        for attr in ("__mul__", "__rmul__"):
            self._patch(rf, attr, "exactmath.rf_mul")
        self._patch(rf, "poles", "verify.poles")
        for module in (exactmath, verify):
            self._patch(module, "laurent_expand", "exactmath.laurent_expand")
        self._patch(exactmath, "rational_roots", "exactmath.rational_roots",
                    before=self._classify_roots_input)
        for module in (systems, verify):
            self._patch(module, "residual", "systems.residual")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _classify_roots_input(self, p) -> None:
        self.count("rational_roots.inputs")
        if _small_extremes(p):
            self.count("rational_roots.small_inputs")

    def dump(self, path, metrics: dict) -> None:
        payload = {
            "metrics": metrics,
            "spans": self.spans,
            "counters": {k: {"calls": c.calls, "s": c.s, "self_s": c.self_s}
                         for k, c in self.counters.items()},
            "values": self.values,
        }
        path.write_text(json.dumps(payload, default=str))


def _small_extremes(p) -> bool:
    """Whether the square-free part of p, with its zero roots removed, has
    both extreme integer coefficients within SMALL_COEFF_BOUND.  Computed
    with the unwrapped arithmetic, before the wrapped call starts."""
    coeffs = p.coeffs
    if not coeffs:
        return False
    k = next(i for i, c in enumerate(coeffs) if c != 0)
    q = exactmath.Polynomial(coeffs[k:])
    if q.degree >= 1:
        g = _ORIGINAL_GCD(q, q.derivative())
        if g.degree > 0:
            q = _ORIGINAL_DIV(q, g)
    den = lcm(*(c.denominator for c in q.coeffs))
    ints = [int(c * den) for c in q.coeffs]
    content = gcd(*ints)
    return abs(ints[0]) // content <= SMALL_COEFF_BOUND and abs(ints[-1]) // content <= SMALL_COEFF_BOUND


_ORIGINAL_GCD = exactmath.Polynomial.gcd
_ORIGINAL_DIV = exactmath.Polynomial.__floordiv__


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, sweep_tracer: Tracer, sweep, traced_samples,
                  interpreter_s: float, import_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}.  Metrics of a layer the
    workload does not reach read 0.

    tracer holds the replay of the first cycle; sweep_tracer and sweep
    ((item, seconds) pairs) the ROADMAP-table sweep of construct.  Times
    are wall-clock seconds.
    """
    metrics = {}

    def counter(key):
        return tracer.counters.get(key) or Counter()

    for key in ("gcd", "mul", "exact_div"):
        c = counter(f"exactmath.{key}")
        metrics[f"exactmath.{key}.calls"] = (c.calls, "count")
        metrics[f"exactmath.{key}.s"] = (c.s, "s")
    for key in ("rf_add", "rf_mul"):
        c = counter(f"exactmath.{key}")
        metrics[f"exactmath.{key}.calls"] = (c.calls, "count")
        metrics[f"exactmath.{key}.self_s"] = (c.self_s, "s")
    for key in ("rational_roots", "laurent_expand"):
        c = counter(f"exactmath.{key}")
        metrics[f"exactmath.{key}.calls"] = (c.calls, "count")
        metrics[f"exactmath.{key}.s"] = (c.s, "s")
    inputs = tracer.values.get("rational_roots.inputs", 0)
    small = tracer.values.get("rational_roots.small_inputs", 0)
    metrics["exactmath.rational_roots.small_coeff_share"] = (small / inputs if inputs else 0.0, "ratio")
    metrics["verify.poles.calls"] = (counter("verify.poles").calls, "count")
    for name in ("invariant_report", "pole_free_interval", "numeric_crosscheck"):
        metrics[f"verify.{name}.s"] = (tracer.span_seconds(f"verify.{name}"), "s")
    metrics["verify.skipped"] = (tracer.values.get("verify.skipped", 0), "count")
    metrics["verify.rejects"] = (tracer.values.get("verify.rejects", 0), "count")
    c = counter("systems.residual")
    metrics["systems.residual.calls"] = (c.calls, "count")
    metrics["systems.residual.s"] = (c.s, "s")

    metrics["backlund.act_word.calls"] = (tracer.span_count("backlund.act_word"), "count")
    metrics["backlund.act_word.s"] = (tracer.span_seconds("backlund.act_word"), "s")
    metrics["backlund.tokens"] = (tracer.values.get("backlund.tokens", 0), "count")
    metrics["backlund.peak_den_degree"] = (tracer.values.get("backlund.peak_den_degree", 0), "degree")
    metrics["backlund.peak_coeff_bits"] = (tracer.values.get("backlund.peak_coeff_bits", 0), "bits")
    for n in Construct.SWEEP:
        times = [s for item, s in sweep if item.extra["n"] == n]
        metrics[f"construct.n{n}.p50_s"] = (_median(times), "s")
    for system in [x.name for x in SYSTEMS]:
        for n in Construct.SWEEP:
            times = [s for item, s in sweep if item.kind == f"{system}.n{n}"]
            metrics[f"construct.{system}.n{n}.p50_s"] = (_median(times), "s")
            key = f"backlund.{system}.n{n}.peak_den_degree"
            metrics[key] = (sweep_tracer.values.get(key, 0), "degree")
    metrics["classify.classify.s"] = (tracer.span_seconds("classify.classify"), "s")
    metrics["classify.normalize.s"] = (tracer.span_seconds("classify.normalize"), "s")
    metrics["classify.witness_tokens"] = (tracer.values.get("classify.witness_tokens", 0), "count")

    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    by_kind = {}
    for sample in traced_samples:
        by_kind.setdefault(sample.item.kind, []).append((sample.seconds, sample.item))
    for kind in Cli.SUBCOMMANDS:
        metrics[f"cli.{kind}.p50_s"] = (_median([s for s, _ in by_kind.get(f"cli.{kind}", [])]), "s")
    batch = by_kind.get("cli.batch", [])
    metrics["cli.batch.per_request_s"] = (
        _median([s / len(item.extra["requests"]) for s, item in batch]), "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
