"""The three workloads: set-up, the timed phase, and the output check.

``search-sdp`` and ``ladder-dp`` visit their whole query universe in
passes (a seeded order per pass) and stop at the pass boundary nearest to
the requested duration, so every run measures the same query mix.
``serve-sql`` is a closed loop with one client sending SQL text through a
:class:`repro.FrontDoor` for the requested duration.

Import this module after :func:`env.load_program`.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import statistics
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace

import repro
from repro.errors import ReproError
from repro.obs import capture
from repro.plans import validate_plan

import env
import workloads
from ledger import Instrumentation, Ledger, require_pristine

REFERENCE_FILE = env.HERE / "reference_costs.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Host-speed probes taken before each set-up.
SETUP_PROBES = 9

#: Relative slack allowed below a recorded DP optimum (float summation order).
OPTIMUM_TOLERANCE = 1e-9

#: Spans the program may emit during one traced phase.
OBS_CAPACITY = 1 << 21

#: Spacing of host-speed probes during a timed phase.
PROBE_INTERVAL_S = 0.1
#: Most probes taken at once after a long request.
PROBE_BURST = 10
#: Probes within this many seconds of a request set its host-speed factor.
PROBE_WINDOW_S = 2.5

_TENANT = "bench"


def _tracing(ledger: Ledger | None, service=None):
    """The obs capture and the ledger's wrappers of a traced phase (no-ops untraced)."""
    if ledger is None:
        return nullcontext(None), nullcontext()
    return capture(capacity=OBS_CAPACITY), Instrumentation(ledger, service)


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


class HostSpeed:
    """Host-speed probes taken between requests of a timed phase.

    The host's speed drifts by tens of percent over minutes when other
    tenants load the machine. A fixed pure-Python probe
    (:func:`env.probe`), run about once per :data:`PROBE_INTERVAL_S`
    between requests and never inside a timed request, tracks that drift;
    :meth:`factor_at` rescales a time measured at ``t`` to the reference
    host speed (:data:`env.REFERENCE_PROBE_S`).
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        #: Wall time spent probing; excluded from the phase's wall time.
        self.spent = 0.0
        self._next = 0.0

    def tick(self) -> None:
        """Probe once per :data:`PROBE_INTERVAL_S` since the last probes.

        After a request longer than the interval it takes one probe per
        interval the request spanned (at most :data:`PROBE_BURST`), so the
        probes are as dense around a long search as around short requests.
        """
        started = time.perf_counter()
        if started < self._next:
            return
        due = 1
        if self.times:
            due = min(PROBE_BURST, int((started - self.times[-1]) / PROBE_INTERVAL_S))
        for _ in range(due):
            self.seconds.append(env.probe())
            self.times.append(started)
        self._next = started + PROBE_INTERVAL_S
        self.spent += time.perf_counter() - started

    def factor_at(self, t: float) -> float:
        """Reference probe time over the probe time around ``t``."""
        lo = bisect.bisect_left(self.times, t - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t + PROBE_WINDOW_S)
        if lo == hi:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - t))
            lo, hi = nearest, nearest + 1
        return env.REFERENCE_PROBE_S / statistics.median(self.seconds[lo:hi])

    def factor(self) -> float:
        """Reference probe time over the phase's median probe time."""
        return env.REFERENCE_PROBE_S / statistics.median(self.seconds)


@dataclass
class Phase:
    """What one measured phase did.

    The timed requests are kept in columns (key, start, seconds): a record
    object per request took about 150 bytes, which at tens of thousands of
    requests a run made peak RSS track the run's length.
    """

    wall_s: float = 0.0
    speed: HostSpeed | None = None
    passes: int = 0
    keys: list[str] = field(default_factory=list)
    started: array = field(default_factory=lambda: array("d"))
    seconds: array = field(default_factory=lambda: array("d"))
    degraded: int = 0
    #: What the per-layer ledger reads of each timed request (the ladder's
    #: attempts, the front door's provenance); traced phases only.
    results: list = field(default_factory=list)
    #: The worst cost ratio of each distinct query that passed the check.
    ratios: dict[str, float] = field(default_factory=dict)
    #: Checked requests, timed or not (the serve-sql warm pass).
    checked: int = 0
    #: Failed checks and failed non-query operations, as messages.
    failures: list[str] = field(default_factory=list)
    #: Non-query operations (statistics refreshes).
    operations: int = 0
    extra: dict = field(default_factory=dict)
    ledger: Ledger | None = None

    @property
    def attempted(self) -> int:
        return self.checked + self.operations

    def add(self, key: str, ratio=None, reason: str = "", timed: bool = True,
            started: float = 0.0, seconds: float = 0.0, degraded: bool = False,
            result=None) -> None:
        """Record one checked request; ``reason`` is empty when it passed."""
        self.checked += 1
        if reason:
            self.failures.append(reason)
        elif ratio is not None:
            self.ratios[key] = max(ratio, self.ratios.get(key, 0.0))
        if timed:
            self.keys.append(key)
            self.started.append(started)
            self.seconds.append(seconds)
            self.degraded += degraded
            if result is not None:
                self.results.append(result)


class Checker:
    """Validates each plan and relates its cost to the recorded reference.

    With ``optimum=True`` the reference is the DP optimum, and a cost
    below it is a wrong answer.
    """

    def __init__(self, references: dict[str, dict], optimum: bool):
        self.references = references
        self.optimum = optimum

    def check(self, key: str, result, graph) -> tuple[bool, float | None, str]:
        entry = self.references.get(key)
        if entry is None:
            return False, None, "no reference cost recorded"
        try:
            validate_plan(result.plan, graph)
        except ReproError as exc:
            return False, None, f"invalid plan: {exc}"
        cost = result.cost
        if not math.isfinite(cost) or cost <= 0:
            return False, None, f"cost {cost!r} is not a positive finite number"
        reference = entry["cost"]
        ratio = cost / reference
        if self.optimum and cost < reference * (1 - OPTIMUM_TOLERANCE):
            return False, ratio, f"cost {cost!r} is below the DP optimum {reference!r}"
        return True, ratio, ""


class Workload:
    """Shared set-up timing; subclasses build, run and close."""

    name = ""
    optimum_reference = True

    def setup(self, repeats: int = SETUP_REPEATS) -> list[float]:
        """Set up ``repeats`` times; keeps the last state.

        Returns one host-normalised sample per set-up: its seconds times
        the reference probe time over the median of probes taken just
        before it.
        """
        samples = []
        for _ in range(repeats):
            factor = env.REFERENCE_PROBE_S / statistics.median(
                env.probe() for _ in range(SETUP_PROBES)
            )
            import_s = env.time_import()
            self.close()
            started = time.perf_counter()
            self.build()
            samples.append((import_s + time.perf_counter() - started) * factor)
        self.universe = self.make_universe()
        self.checker = Checker(load_references()[self.name], self.optimum_reference)
        return samples

    def build(self) -> None:
        raise NotImplementedError

    def make_universe(self):
        raise NotImplementedError

    def close(self) -> None:
        pass


class PassWorkload(Workload):
    """Runs whole passes over a fixed query universe."""

    request_span = ("", "")

    def optimize(self, query):
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed query, so lazy first-call work is not measured."""
        self.optimize(min(self.universe, key=lambda item: item.query.graph.n).query)

    def run(
        self,
        seed: int,
        seconds: float,
        ledger: Ledger | None = None,
        passes: int | None = None,
    ) -> Phase:
        """Whole passes for about ``seconds``, or exactly ``passes`` when given."""
        if ledger is None:
            require_pristine()
        tracing = _tracing(ledger)
        phase = Phase(speed=HostSpeed(), ledger=ledger)
        speed = phase.speed
        harness = 0.0
        done = 0
        with tracing[0] as exporter, tracing[1]:
            env.reset_peak_rss()
            started = time.perf_counter()
            while True:
                # Fresh Query objects every pass: a join graph memoizes its
                # neighbourhoods, so a repeated object would search warmer
                # than a caller's new query does.
                paused = time.perf_counter()
                universe = self.make_universe()
                harness += time.perf_counter() - paused
                for index in workloads.pass_order(len(universe), seed, done):
                    # Start every search from a collected heap, so no query
                    # pays for the garbage the one before it left behind.
                    # The collection stays in the phase's wall time: it is
                    # where that garbage is paid for.
                    gc.collect()
                    speed.tick()
                    paused = time.perf_counter()
                    self._one(phase, universe[index], len(phase.seconds) + 1, ledger)
                    # The output check and the record are harness time.
                    harness += time.perf_counter() - paused - phase.seconds[-1]
                done += 1
                elapsed = time.perf_counter() - started
                if passes is not None:
                    if done == passes:
                        break
                elif elapsed >= seconds - elapsed / done / 2:
                    break
            speed.tick()
            phase.wall_s = time.perf_counter() - started - speed.spent - harness
        phase.passes = done
        if ledger is not None:
            ledger.import_obs(exporter.spans)
            ledger.finish()
        return phase

    def _one(self, phase: Phase, item, query_id: int, ledger: Ledger | None) -> None:
        """Run one query, check its plan and record it in ``phase``."""
        started = time.perf_counter()
        try:
            if ledger is None:
                result = self.optimize(item.query)
            else:
                with ledger.request(query_id, *self.request_span):
                    result = self.optimize(item.query)
        except ReproError as exc:
            phase.add(
                item.key, reason=f"{item.label}: {type(exc).__name__}: {exc}",
                started=started, seconds=time.perf_counter() - started,
            )
            return
        seconds = time.perf_counter() - started
        _, ratio, reason = self.checker.check(item.key, result, item.query.graph)
        ladder = None
        if ledger is not None and hasattr(result, "attempts"):
            ladder = SimpleNamespace(
                attempts=result.attempts,
                elapsed_seconds=result.elapsed_seconds,
                plans_costed=result.plans_costed,
            )
        phase.add(
            item.key, ratio, f"{item.label}: {reason}" if reason else "",
            started=started, seconds=seconds, degraded=result.degraded, result=ladder,
        )


class SearchSDP(PassWorkload):
    name = "search-sdp"
    optimum_reference = False
    request_span = ("search.sdp", "core.sdp")

    def build(self) -> None:
        self.schema = workloads.wide_schema()
        self.stats = repro.analyze(self.schema)

    def make_universe(self):
        return workloads.search_sdp_universe(self.schema)

    def optimize(self, query):
        return repro.optimize(query, technique="sdp", stats=self.stats)


class LadderDP(PassWorkload):
    name = "ladder-dp"
    request_span = ("ladder.optimize", "robust.ladder")

    def build(self) -> None:
        self.schema = workloads.ladder_schema()
        self.stats = repro.analyze(self.schema)

    def make_universe(self):
        return workloads.ladder_dp_universe(self.schema)

    def optimize(self, query):
        return repro.optimize(
            query, technique="dp", robust=True, stats=self.stats,
            budget=workloads.LADDER_BUDGET,
        )


class ServeSQL(Workload):
    """Closed loop, one client, SQL text through a one-worker front door."""

    name = "serve-sql"
    door = None

    def build(self) -> None:
        self.schema = workloads.serve_schema()
        self.service = repro.OptimizationService(
            technique="SDP", cache_capacity=workloads.SERVE_CACHE_CAPACITY
        )
        self.service.analyze(self.schema)
        # The client must never be shed: an effectively unlimited bucket.
        tenants = repro.TenantRegistry(
            default_policy=repro.TenantPolicy(
                bucket_capacity=1e12, refill_per_second=1e12
            )
        )
        config = repro.FrontDoorConfig(
            workers=1, stats_refresh_interval_seconds=1e-6
        )
        self.door = repro.FrontDoor(self.service, config, tenants=tenants).start()

    def make_universe(self):
        return workloads.serve_sql_universe(self.schema)

    def close(self) -> None:
        if self.door is not None:
            self.door.close()
            self.door = None

    def _refresh(self, phase: Phase, ledger: Ledger | None = None) -> None:
        """Re-ANALYZE and install through the front door; it must apply."""
        phase.operations += 1
        epoch = self.service.stats_epoch
        with ledger.span("statistics.analyze", "catalog.statistics") if ledger else nullcontext():
            stats = repro.analyze(self.schema)
        with ledger.span("frontdoor.install_statistics", "service.frontdoor") if ledger else nullcontext():
            outcome = self.door.install_statistics(stats)
        if outcome != "applied" or self.service.stats_epoch != epoch + 1:
            phase.failures.append(
                f"statistics refresh not applied ({outcome}, epoch "
                f"{epoch} -> {self.service.stats_epoch})"
            )

    def _request(
        self, phase: Phase, item, query_id: int, ledger: Ledger | None, timed: bool = True
    ) -> None:
        """Send one request, check its plan and record it in ``phase``."""
        started = time.perf_counter()
        try:
            if ledger is None:
                served = self.door.optimize(item.sql, tenant=_TENANT)
            else:
                with ledger.request(query_id, "frontdoor.optimize", "service.frontdoor"):
                    served = self.door.optimize(item.sql, tenant=_TENANT)
        except ReproError as exc:
            phase.add(
                item.key, reason=f"{item.label}: {type(exc).__name__}: {exc}", timed=timed,
                started=started, seconds=time.perf_counter() - started,
            )
            return
        seconds = time.perf_counter() - started
        inner = served.result
        _, ratio, reason = self.checker.check(item.key, inner, inner.query.graph)
        provenance = None
        if ledger is not None:
            provenance = SimpleNamespace(
                queue_wait_seconds=served.queue_wait_seconds,
                brownout_level=served.brownout_level,
            )
        phase.add(
            item.key, ratio, f"{item.label}: {reason}" if reason else "", timed,
            started, seconds, served.degraded, provenance,
        )

    def run(
        self,
        seed: int,
        seconds: float,
        ledger: Ledger | None = None,
        count: int | None = None,
    ) -> Phase:
        """Reset, warm the cache with one checked pass, then the timed loop.

        The loop runs for ``seconds``, or for exactly ``count`` requests
        when given (the traced phase replays the untraced phase's length).
        """
        if ledger is None:
            require_pristine(self.service)
        phase = Phase(speed=HostSpeed())
        self._refresh(phase)
        for index in workloads.pass_order(len(self.universe), seed, 0):
            self._request(phase, self.universe[index], 0, None, timed=False)
        stream = workloads.ZipfStream(len(self.universe), seed)
        cache = self.service.cache_stats
        cache_before = (cache.hits, cache.misses, cache.evictions, cache.invalidations)
        door_before = self.door.stats()
        tracing = _tracing(ledger, self.service)
        requests = phase.seconds
        speed = phase.speed
        harness = 0.0
        with tracing[0] as exporter, tracing[1]:
            env.reset_peak_rss()
            started = time.perf_counter()
            while (
                len(requests) < count
                if count is not None
                else time.perf_counter() - started - speed.spent < seconds
            ):
                if requests and len(requests) % workloads.SERVE_REFRESH_EVERY == 0:
                    self._refresh(phase, ledger)
                speed.tick()
                paused = time.perf_counter()
                item = self.universe[stream.next_index()]
                self._request(phase, item, len(requests) + 1, ledger)
                # The draw, the output check and the record are harness time.
                harness += time.perf_counter() - paused - requests[-1]
            speed.tick()
            phase.wall_s = time.perf_counter() - started - speed.spent - harness
        door_after = self.door.stats()
        hits, misses, evictions, invalidations = (
            after - before
            for after, before in zip(
                (cache.hits, cache.misses, cache.evictions, cache.invalidations),
                cache_before,
            )
        )
        shed = door_after.shed - door_before.shed
        if shed:
            phase.failures.append(f"the front door shed {shed} requests")
        phase.extra = {
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_evictions": evictions,
            "cache_invalidations": invalidations,
            "shed": shed,
            "refreshes": phase.operations,
        }
        if ledger is not None:
            ledger.import_obs(exporter.spans)
            ledger.finish()
            phase.ledger = ledger
        return phase


WORKLOADS = {cls.name: cls for cls in (SearchSDP, LadderDP, ServeSQL)}

