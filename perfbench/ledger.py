"""The traced run's per-layer ledger.

Spans are recorded in memory — name, layer, start, end, query id and
thread — and written out when the run ends. They come from two sources:

* wrappers this module installs around the program's layer entry points
  (:class:`Instrumentation`), plus spans the runners open around their
  own calls into the public API;
* spans the program already emits through :mod:`repro.obs`
  (``dp.enumerate``, ``sdp.prune``, ``*.finalize``, ``robust.rung``),
  read through :func:`repro.obs.capture` and merged in by
  :meth:`Ledger.import_obs`.

Parents are derived from interval containment over the merged set, so
both sources form one tree. A span's self time is its duration minus the
time its children cover; the sum of all self times plus
``unattributed_s`` is the traced wall time.

Import this module after :func:`env.load_program`.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import repro.core.base
import repro.core.planspace
import repro.core.sdp
import repro.service.cache

_now = time.perf_counter_ns

#: Every layer the ledger attributes time to, request path first.
LAYERS = (
    "query.parser",
    "service.fingerprint",
    "service.cache",
    "service.frontdoor",
    "service.service",
    "catalog.statistics",
    "robust.ladder",
    "core.dp",
    "core.sdp",
    "core.idp",
    "core.greedy",
    "core.dpccp",
    "core.enumeration",
    "core.planspace",
    "skyline",
)

#: Program span name -> (ledger span name, layer). ``robust.rung`` spans
#: map to the search layer of the rung's technique instead.
OBS_SPANS = {
    "dp.enumerate": ("dpccp.enumerate", "core.dpccp"),
    "sdp.prune": ("skyline.prune", "skyline"),
    "dp.finalize": ("planspace.finalize", "core.planspace"),
    "sdp.finalize": ("planspace.finalize", "core.planspace"),
}

#: Layers of the optimizer searches; each search's counters belong to one.
SEARCH_LAYERS = ("core.dp", "core.sdp", "core.idp", "core.greedy")

_RUNG_LAYERS = {"DP": "core.dp", "SDP": "core.sdp", "GOO": "core.greedy"}


def rung_layer(technique: str) -> str:
    if technique.startswith("IDP"):
        return "core.idp"
    return _RUNG_LAYERS.get(technique, "core.greedy")


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int
    query: int
    thread: str
    parent: int | None = None
    self_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "query": self.query,
            "thread": self.thread,
            "self_ns": self.self_ns,
        }


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class Ledger:
    """In-memory span store plus the search counters seen during a traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = 0
        #: (start, end, query id) of each request span, in start order.
        self._requests: list[tuple[int, int, int]] = []
        #: (creation time, query id, SearchCounters) per optimizer run.
        self.counters: list[tuple[int, int, object]] = []

    def record(
        self,
        name: str,
        layer: str,
        start_ns: int,
        end_ns: int,
        query: int | None = None,
        thread: str | None = None,
    ) -> None:
        self.spans.append(
            Span(
                name, layer, start_ns, end_ns,
                self.query if query is None else query,
                thread or threading.current_thread().name,
            )
        )

    @contextmanager
    def request(self, query_id: int, name: str, layer: str):
        """The span of one whole request; spans recorded inside share its id."""
        self.query = query_id
        started = _now()
        try:
            yield
        finally:
            ended = _now()
            self.record(name, layer, started, ended)
            self._requests.append((started, ended, query_id))

    @contextmanager
    def span(self, name: str, layer: str):
        started = _now()
        try:
            yield
        finally:
            self.record(name, layer, started, _now())

    def _query_at(self, start_ns: int, end_ns: int) -> int:
        position = bisect.bisect_right(self._requests, (start_ns, float("inf"), 0)) - 1
        if position >= 0:
            lo, hi, query = self._requests[position]
            if lo <= start_ns and end_ns <= hi:
                return query
        return 0

    def import_obs(self, obs_spans) -> None:
        """Merge the program's own layer spans (from ``obs.capture()``).

        Each imported span takes the query id of the request span that
        contains it; spans outside every request get query id 0.
        """
        for span in obs_spans:
            if span.end_ns is None:
                continue
            if span.name == "robust.rung":
                technique = span.attributes.get("technique", "")
                name, layer = f"rung.{technique}", rung_layer(technique)
            elif span.name in OBS_SPANS:
                name, layer = OBS_SPANS[span.name]
            else:
                continue
            query = self._query_at(span.start_ns, span.end_ns)
            self.record(name, layer, span.start_ns, span.end_ns, query, "repro.obs")

    # -- analysis ----------------------------------------------------------------

    def finish(self) -> None:
        """Assign containment parents and compute every span's self time."""
        order = sorted(
            range(len(self.spans)),
            key=lambda i: (self.spans[i].start_ns, -self.spans[i].end_ns),
        )
        stack: list[int] = []
        children: dict[int, list[int]] = {}
        for index in order:
            span = self.spans[index]
            # The parent is the innermost open span that contains this one.
            while stack and self.spans[stack[-1]].end_ns < span.end_ns:
                stack.pop()
            span.parent = stack[-1] if stack else None
            if span.parent is not None:
                children.setdefault(span.parent, []).append(index)
            stack.append(index)
        for index, span in enumerate(self.spans):
            kids = children.get(index, ())
            span.self_ns = span.duration_ns - _covered_ns(
                span.start_ns,
                span.end_ns,
                [(self.spans[k].start_ns, self.spans[k].end_ns) for k in kids],
            )

    def roots_ns(self) -> int:
        """Wall time covered by top-level spans (computed independently)."""
        roots = [(s.start_ns, s.end_ns) for s in self.spans if s.parent is None]
        if not roots:
            return 0
        lo = min(start for start, _ in roots)
        hi = max(end for _, end in roots)
        return _covered_ns(lo, hi, roots)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, in seconds (every layer, zeros included)."""
        totals = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0) + span.self_ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def counters_by_layer(self) -> dict[str, dict[str, int]]:
        """Search counters summed per search layer (the run that owned them)."""
        searches: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.layer in SEARCH_LAYERS:
                searches.setdefault(span.query, []).append(span)
        totals: dict[str, dict[str, int]] = {}
        for created, query, counters in self.counters:
            owner = None
            for span in searches.get(query, ()):
                if span.start_ns <= created <= span.end_ns:
                    if owner is None or span.start_ns >= owner.start_ns:
                        owner = span
            layer = owner.layer if owner is not None else "unknown"
            bucket = totals.setdefault(
                layer,
                dict.fromkeys(
                    ("runs", "pairs", "plans_costed", "retained", "jcrs_created", "jcrs_pruned"),
                    0,
                ),
            )
            bucket["runs"] += 1
            bucket["pairs"] += counters.enumerated_pairs
            bucket["plans_costed"] += counters.plans_costed
            bucket["retained"] += counters.retained_slots
            bucket["jcrs_created"] += counters.jcrs_created
            bucket["jcrs_pruned"] += counters.jcrs_pruned
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.to_json(index)) + "\n")


# -- instrumentation seams -----------------------------------------------------

_frontdoor_module = importlib.import_module("repro.service.frontdoor")
_service_module = importlib.import_module("repro.service.service")

#: Seams wrapped in one span per call: (owner, attribute, span name, layer).
#: ``join_level`` is DP's costing call, one per level.
TIMED_SEAMS = (
    (_frontdoor_module, "parse_sql", "parser.parse_sql", "query.parser"),
    (_service_module, "parse_sql", "parser.parse_sql", "query.parser"),
    (_service_module, "query_fingerprint", "fingerprint.query_fingerprint", "service.fingerprint"),
    (repro.service.cache.PlanCache, "get", "cache.get", "service.cache"),
    (repro.service.cache.PlanCache, "put", "cache.put", "service.cache"),
    (repro.core.planspace.PlanSpace, "join_level", "planspace.join", "core.planspace"),
)

#: (owner, attribute) of every seam :class:`Instrumentation` replaces.
SEAMS = (
    *((owner, attr) for owner, attr, _, _ in TIMED_SEAMS),
    (repro.core.sdp, "level_pairs"),
    (repro.core.base.SearchCounters, "__init__"),
)

_ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr in SEAMS}

#: Per-instance seams on the ``serve-sql`` service object.
_INSTANCE_ATTR = "optimize"


def pristine(service=None) -> bool:
    """True when no wrapper is installed (module, class, or instance seams)."""
    if any(vars(owner)[attr] is not _ORIGINALS[owner, attr] for owner, attr in SEAMS):
        return False
    if service is not None:
        if _INSTANCE_ATTR in vars(service) or _INSTANCE_ATTR in vars(service.optimizer):
            return False
    return True


def require_pristine(service=None) -> None:
    if not pristine(service):
        raise RuntimeError("a ledger wrapper is still installed")


def _timed(ledger: Ledger, function, name: str, layer: str):
    def wrapper(*args, **kwargs):
        started = _now()
        try:
            return function(*args, **kwargs)
        finally:
            ledger.record(name, layer, started, _now())

    return wrapper


class Instrumentation:
    """Installs the ledger's wrappers on entry and removes every one on exit.

    ``service`` (optional) is the ``serve-sql`` :class:`OptimizationService`;
    its ``optimize`` and its backing optimizer's ``optimize`` get
    per-instance wrappers.
    """

    def __init__(self, ledger: Ledger, service=None):
        self.ledger = ledger
        self.service = service

    def _wrappers(self) -> dict:
        ledger = self.ledger
        original = _ORIGINALS
        level_pairs = original[repro.core.sdp, "level_pairs"]
        counters_init = original[repro.core.base.SearchCounters, "__init__"]

        def timed_level_pairs(levels, target_level, graph, counters=None):
            # Enumerate the level in one span; the caller's costing loop
            # over the returned pairs is the planspace join span, closed
            # when the pairs run out.
            started = _now()
            pairs = list(level_pairs(levels, target_level, graph, counters))
            enumerated = _now()
            ledger.record("enumeration.level_pairs", "core.enumeration", started, enumerated)

            def close_join():
                ledger.record("planspace.join", "core.planspace", enumerated, _now())
                yield from ()

            return itertools.chain(pairs, close_join())

        def registering_init(counters, *args, **kwargs):
            counters_init(counters, *args, **kwargs)
            ledger.counters.append((_now(), ledger.query, counters))

        return {
            **{
                (owner, attr): _timed(ledger, original[owner, attr], name, layer)
                for owner, attr, name, layer in TIMED_SEAMS
            },
            (repro.core.sdp, "level_pairs"): timed_level_pairs,
            (repro.core.base.SearchCounters, "__init__"): registering_init,
        }

    def __enter__(self) -> Ledger:
        require_pristine(self.service)
        for (owner, attr), wrapper in self._wrappers().items():
            setattr(owner, attr, wrapper)
        if self.service is not None:
            service = self.service
            service.optimize = _timed(
                self.ledger, service.optimize, "service.optimize", "service.service"
            )
            optimizer = service.optimizer
            optimizer.optimize = _timed(
                self.ledger, optimizer.optimize, "search.sdp", "core.sdp"
            )
        return self.ledger

    def __exit__(self, *exc_info) -> None:
        for owner, attr in SEAMS:
            setattr(owner, attr, _ORIGINALS[owner, attr])
        if self.service is not None:
            for target in (self.service, self.service.optimizer):
                if _INSTANCE_ATTR in vars(target):
                    delattr(target, _INSTANCE_ATTR)
        require_pristine(self.service)
