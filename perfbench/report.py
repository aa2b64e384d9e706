"""Metric computation and output: the end-to-end row and the per-layer ledger.

Every metric is a :class:`Metric` with its unit, the direction that is
better, and the number of samples behind it. :data:`END_TO_END` and
:data:`PER_LAYER` are the single list of names and units; the tests check
``BENCHMARK.json`` against them.

End-to-end times are host-normalised: each measured time is rescaled to
the reference host speed by the host-speed probes taken around it
(:class:`runners.HostSpeed`). The table also prints the raw times.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

from ledger import LAYERS

#: The paper's bound on SDP plan quality: never worse than 2x the DP optimum.
PAPER_RATIO_BOUND = 2.0

#: name -> (unit, better) of the end-to-end metrics (tracing off).
END_TO_END = {
    "queries_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "cost_ratio_gmean": ("ratio", "lower"),
    "cost_ratio_max": ("ratio", "lower"),
    "first_rung_share": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: name -> (unit, better) of the per-layer metrics (traced run, per query).
PER_LAYER = {
    "parser.calls_per_query": ("count/query", "lower"),
    "parser.ms_per_query": ("ms/query", "lower"),
    "fingerprint.ms_per_query": ("ms/query", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.evictions": ("count/query", "lower"),
    "cache.invalidations": ("count/query", "lower"),
    "cache.lookup_us": ("us", "lower"),
    "frontdoor.queue_wait_ms": ("ms", "lower"),
    "frontdoor.overhead_ms": ("ms", "lower"),
    "frontdoor.shed": ("count", "lower"),
    "frontdoor.max_brownout_level": ("level", "lower"),
    "service.search_ms_per_miss": ("ms", "lower"),
    "ladder.rungs_per_query": ("count/query", "lower"),
    "ladder.tripped_time_share": ("ratio", "lower"),
    "ladder.tripped_plans_share": ("ratio", "lower"),
    "dpccp.pairs": ("count/query", "lower"),
    "dpccp.s": ("s/query", "lower"),
    "enumeration.pairs": ("count/query", "lower"),
    "enumeration.s": ("s/query", "lower"),
    "planspace.plans_costed": ("count/query", "lower"),
    "planspace.join_s": ("s/query", "lower"),
    "planspace.plans_costed_per_s": ("1/s", "higher"),
    "planspace.retained_ratio": ("ratio", "lower"),
    "planspace.finalize_s": ("s/query", "lower"),
    "skyline.prune_s": ("s/query", "lower"),
    "skyline.pruned_ratio": ("ratio", "higher"),
    "traced_wall_s": ("s/query", "lower"),
    "unattributed_s": ("s/query", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    **{f"self_s.{layer}": ("s/query", "lower") for layer in LAYERS},
}


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    better: str
    samples: int
    note: str = ""


def _metrics(spec: dict, values: dict) -> dict[str, Metric]:
    """Every metric of ``spec`` from ``values``: name -> (value, samples[, note])."""
    out = {}
    for name, (unit, better) in spec.items():
        value, samples, *note = values[name]
        out[name] = Metric(float(value), unit, better, samples, *note)
    return out


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularised incomplete beta function I_x(a, b) (Lentz's continued fraction)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(10_000):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2:
            term = -((a + m) * (a + b + m) * x) / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            return front * (f - 1.0)
    raise ArithmeticError(f"incomplete beta did not converge at x={x}, a={a}, b={b}")


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A mean of all order statistics, weighted by the Beta((n+1)q, (n+1)(1-q))
    mass each covers. The plain order statistic of a pass workload's few
    dozen per-query latencies jumps from one query to its neighbour with
    run noise where the latencies are sparse; the weighted mean moves
    smoothly. Ranks more than 8 standard deviations from ``q n`` carry no
    weight that a float can hold and are skipped.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    reach = 8 * n * math.sqrt(q * (1 - q) / (n + 2))
    lo = max(0, int(q * n - reach))
    hi = min(n, int(q * n + reach) + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(lo, hi + 1)]
    weights = [upper - lower for lower, upper in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, xs[lo:hi])) / sum(weights)


def latencies_ms(phase, normalised: bool = True) -> list[float]:
    """Latency samples in ms, host-normalised or raw.

    ``serve-sql`` gives one sample per request. A pass workload repeats
    each query of its universe once per pass, so it gives one sample per
    query: the median over the run's passes, which keeps a single
    disturbed repeat from moving the percentiles.
    """
    factor_at = phase.speed.factor_at
    samples = [
        seconds * 1e3 * (factor_at(started + seconds / 2) if normalised else 1.0)
        for started, seconds in zip(phase.started, phase.seconds)
    ]
    if not phase.passes:
        return samples
    repeats: dict[str, list[float]] = {}
    for key, sample in zip(phase.keys, samples):
        repeats.setdefault(key, []).append(sample)
    return [statistics.median(values) for values in repeats.values()]


def _wall_s(phase, normalised: bool) -> float:
    """The phase's wall time, host-normalised or raw.

    Each request is rescaled by the probes around it; the program time
    between requests (collections, statistics refreshes) by the phase's
    median probe.
    """
    if not normalised:
        return phase.wall_s
    speed = phase.speed
    served = sum(phase.seconds)
    scaled = sum(
        seconds * speed.factor_at(started + seconds / 2)
        for started, seconds in zip(phase.started, phase.seconds)
    )
    return (phase.wall_s - served) * speed.factor() + scaled


def timing(phase, normalised: bool = True) -> dict[str, tuple]:
    """Throughput and latency percentiles, host-normalised or raw."""
    n = len(phase.seconds)
    wall = _wall_s(phase, normalised)
    latencies = latencies_ms(phase, normalised)
    k = len(latencies)
    tail = "" if k >= 100 else "under 100 samples: the slowest queries of the universe"
    p99_tail = "" if k >= 1000 else "under 1000 samples: the slowest query of the universe"
    return {
        "queries_per_s": (n / wall, n),
        "latency_p50_ms": (_quantile(latencies, 0.5), k),
        "latency_p90_ms": (_quantile(latencies, 0.9), k, tail),
        "latency_p99_ms": (_quantile(latencies, 0.99), k, p99_tail),
    }


def end_to_end(phase, setup_samples: list[float], peak_rss_mb: float) -> dict[str, Metric]:
    n = len(phase.seconds)
    ratios = list(phase.ratios.values())
    gmean = math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 0.0
    return _metrics(END_TO_END, {
        **timing(phase),
        "cost_ratio_gmean": (gmean, len(ratios)),
        "cost_ratio_max": (max(ratios, default=0.0), len(ratios)),
        "first_rung_share": (
            1.0 - phase.degraded / n, n, "1 - degraded_share"
        ),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (peak_rss_mb, 1),
    })


def raw_timing(phase) -> dict[str, Metric]:
    """The timing metrics as measured, before host normalisation."""
    spec = {name: END_TO_END[name] for name in ("queries_per_s", "latency_p50_ms",
                                                 "latency_p90_ms", "latency_p99_ms")}
    return _metrics(spec, timing(phase, normalised=False))


def paper_claim(phase, workload: str, optimum_reference: bool) -> str:
    """The verdict on the paper's "never worse than 2x DP" claim."""
    if not optimum_reference:
        return (
            f"{workload}: reference is the seed commit's SDP cost (DP is "
            "infeasible here); the 2x-DP claim is not tested on this workload"
        )
    ratios = phase.ratios
    if not ratios:
        return f"{workload}: no checked plans, the 2x-DP claim is untested"
    key, worst = max(ratios.items(), key=lambda kv: kv[1])
    verdict = "holds" if worst <= PAPER_RATIO_BOUND else "FAILS"
    return (
        f"{workload}: paper claim cost <= {PAPER_RATIO_BOUND:g} x DP {verdict}: "
        f"cost_ratio_max {worst:.6g} over {len(ratios)} distinct queries"
        + ("" if verdict == "holds" else f" (worst query key {key})")
    )


# -- per-layer ledger ------------------------------------------------------------


def _span_ms(spans) -> float:
    return sum(span.duration_ns for span in spans) / 1e6


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced, traced) -> dict[str, Metric]:
    """Per-layer metrics of the traced phase, normalised per query (raw times)."""
    ledger = traced.ledger
    n = len(traced.seconds)
    per_query = 1.0 / n
    self_s = ledger.self_seconds()
    counters = ledger.counters_by_layer()
    zero = dict.fromkeys(
        ("runs", "pairs", "plans_costed", "retained", "jcrs_created", "jcrs_pruned"), 0
    )
    dp = counters.get("core.dp", zero)
    sdp = counters.get("core.sdp", zero)
    plans = sum(c["plans_costed"] for c in counters.values())
    retained = sum(c["retained"] for c in counters.values())
    extra = traced.extra

    parser = ledger.by_name("parser.parse_sql")
    fingerprint = ledger.by_name("fingerprint.query_fingerprint")
    gets = ledger.by_name("cache.get")
    lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)

    served = [r for r in traced.results if hasattr(r, "queue_wait_seconds")]
    door_spans = {s.query: s for s in ledger.by_name("frontdoor.optimize")}
    service_spans = {s.query: s for s in ledger.by_name("service.optimize")}
    overheads = [
        (door_spans[q].duration_ns - service_spans[q].duration_ns) / 1e6
        for q in door_spans
        if q in service_spans
    ]
    searches = ledger.by_name("search.sdp") if served else []

    ladders = [r for r in traced.results if hasattr(r, "attempts")]
    attempts = [a for r in ladders for a in r.attempts]
    tripped = [a for a in attempts if a.outcome != "ok"]

    join_s = sum(s.self_ns for s in ledger.by_name("planspace.join")) / 1e9
    finalize_s = sum(s.self_ns for s in ledger.by_name("planspace.finalize")) / 1e9
    wall = traced.wall_s
    # The two halves run at different moments on a drifting host: compare
    # their host-normalised times per query.
    overhead = (_wall_s(traced, True) / n) / (
        _wall_s(untraced, True) / len(untraced.seconds)
    ) - 1.0

    values = {
        "parser.calls_per_query": (len(parser) * per_query, n),
        "parser.ms_per_query": (_span_ms(parser) * per_query, n),
        "fingerprint.ms_per_query": (_span_ms(fingerprint) * per_query, n),
        "cache.hit_rate": (_share(extra.get("cache_hits", 0), lookups), lookups),
        "cache.evictions": (extra.get("cache_evictions", 0) * per_query, n),
        "cache.invalidations": (extra.get("cache_invalidations", 0) * per_query, n),
        "cache.lookup_us": (_share(_span_ms(gets) * 1e3, len(gets)), len(gets)),
        "frontdoor.queue_wait_ms": (
            statistics.fmean(r.queue_wait_seconds * 1e3 for r in served) if served else 0.0,
            len(served),
        ),
        "frontdoor.overhead_ms": (
            statistics.fmean(overheads) if overheads else 0.0, len(overheads)
        ),
        "frontdoor.shed": (extra.get("shed", 0), n),
        "frontdoor.max_brownout_level": (
            max((r.brownout_level for r in served), default=0), len(served)
        ),
        "service.search_ms_per_miss": (
            _share(_span_ms(searches), len(searches)), len(searches)
        ),
        "ladder.rungs_per_query": (_share(len(attempts), len(ladders)), len(ladders)),
        "ladder.tripped_time_share": (
            _share(
                sum(a.elapsed_seconds for a in tripped),
                sum(r.elapsed_seconds for r in ladders),
            ),
            len(ladders),
        ),
        "ladder.tripped_plans_share": (
            _share(sum(a.plans_costed for a in tripped), sum(r.plans_costed for r in ladders)),
            len(ladders),
        ),
        "dpccp.pairs": (dp["pairs"] * per_query, dp["runs"]),
        "dpccp.s": (self_s["core.dpccp"] * per_query, n),
        "enumeration.pairs": (sdp["pairs"] * per_query, sdp["runs"]),
        "enumeration.s": (self_s["core.enumeration"] * per_query, n),
        "planspace.plans_costed": (plans * per_query, n),
        "planspace.join_s": (join_s * per_query, n),
        "planspace.plans_costed_per_s": (_share(plans, join_s), n),
        "planspace.retained_ratio": (_share(retained, plans), n),
        "planspace.finalize_s": (finalize_s * per_query, n),
        "skyline.prune_s": (self_s["skyline"] * per_query, n),
        "skyline.pruned_ratio": (_share(sdp["jcrs_pruned"], sdp["jcrs_created"]), sdp["runs"]),
        "traced_wall_s": (wall * per_query, n),
        "unattributed_s": ((wall - sum(self_s.values())) * per_query, n),
        "trace.overhead_share": (overhead, n),
        **{f"self_s.{layer}": (self_s[layer] * per_query, n) for layer in LAYERS},
    }
    return _metrics(PER_LAYER, values)


# -- output ------------------------------------------------------------------------


def render_table(title: str, metrics: dict[str, Metric]) -> str:
    lines = [title, f"  {'metric':<34} {'value':>16} {'unit':<12} {'n':>7}  better"]
    for name, m in metrics.items():
        lines.append(
            f"  {name:<34} {m.value:>16.6g} {m.unit:<12} {m.samples:>7}  {m.better}"
            + (f"  ({m.note})" if m.note else "")
        )
    return "\n".join(lines)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, Metric]) -> str:
    """The single JSON object the benchmark's last output line holds."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()
            },
        }
    )
