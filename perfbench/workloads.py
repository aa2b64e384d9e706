"""Seeded, deterministic workload generators.

Each workload draws from a fixed *universe* of queries, built from
:data:`UNIVERSE_SEED`, so that every query a run can issue has a
recorded reference cost in ``reference_costs.json``. The run's
``--seed`` picks the order in which the universe is visited
(``search-sdp``, ``ladder-dp``) or the Zipf draws over a fixed popularity
order (``serve-sql``). The program only ever sees the
generated :class:`repro.Query` objects or SQL text.

Import this module after :func:`env.load_program`.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import re
from dataclasses import dataclass
from itertools import accumulate

import repro

#: Fixes the query universes (and so the reference costs). ``--seed`` never
#: changes which queries exist, only their order and draw frequencies.
UNIVERSE_SEED = 0

#: (topology, relations, ordered) for ``search-sdp``: one star or star-chain
#: graph per size from 18 to 25 relations, half of each topology with an
#: ORDER BY on a join column.
SEARCH_SDP_SHAPES = tuple(
    ("star" if n % 2 == 0 else "star-chain", n, n % 4 in (0, 1))
    for n in range(18, 26)
)

#: (topology, relations, ordered) for ``ladder-dp``: 6-20 relations over
#: five graph shapes. Under :data:`LADDER_BUDGET` the largest stars,
#: star-chains and cliques trip DP's modeled-memory ceiling.
LADDER_DP_SHAPES = (
    *(("chain", n, i % 2 == 1) for i, n in enumerate((6, 9, 12, 15, 18, 20))),
    *(("cycle", n, i % 2 == 0) for i, n in enumerate((6, 9, 12, 15, 18, 20))),
    *(
        ("star", n, i % 2 == 1)
        for i, n in enumerate((6, 8, 10, 11, 12, 13, 14, 14, 15, 15))
    ),
    *(
        ("star-chain", n, i % 2 == 0)
        for i, n in enumerate((8, 10, 12, 13, 14, 15, 16, 16, 17, 17))
    ),
    *(("clique", n, i % 2 == 1) for i, n in enumerate((6, 7, 8, 8, 9, 9, 10, 11))),
)

#: The ladder's overall budget: a fixed modeled-memory ceiling. It trips
#: from deterministic counters, never from the clock.
LADDER_BUDGET = repro.SearchBudget(max_memory_bytes=40_000_000)

#: Plan-cache capacity of the ``serve-sql`` service.
SERVE_CACHE_CAPACITY = 128
#: Distinct fingerprints in the ``serve-sql`` universe (> cache capacity).
SERVE_UNIVERSE_SIZE = 256
#: Zipf exponent of the ``serve-sql`` popularity distribution.
SERVE_ZIPF_EXPONENT = 1.0
#: Requests between two statistics refreshes in ``serve-sql``.
SERVE_REFRESH_EVERY = 300

_RANGE_PREDICATE = re.compile(r"(\w+)\.(\w+) (<=|>=|<|>) (\d+)")
_RANGE_OPS = ("<", "<=", ">", ">=")
_BUCKETS = 16


@dataclass(frozen=True)
class Item:
    """One query of a universe.

    Attributes:
        key: Reference-cost key (a digest of the query's SQL text).
        label: Human-readable name.
        query: The query, for workloads that submit :class:`repro.Query`.
        sql: The SQL text, for workloads that submit text.
    """

    key: str
    label: str
    query: object = None
    sql: str | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def query_key(query) -> str:
    """Reference key of a programmatic query: its rendered SQL text."""
    return digest(query.schema.name + "\n" + repro.render_sql(query))


# -- schemas -------------------------------------------------------------------


def wide_schema():
    """The 25-relation, 27-column catalog the star-25 bench arms use."""
    return repro.SchemaBuilder(
        seed=0, relation_count=25, column_count=27, name="bench-wide-25"
    ).build()


def ladder_schema():
    return repro.paper_schema(seed=0)


def serve_schema():
    return repro.tpch_lite_schema()


# -- programmatic query universes ----------------------------------------------


def _make_query(schema, topology: str, n: int, ordered: bool, rng, label: str):
    names = list(schema.relation_names)
    if topology in ("star", "star-chain"):
        hub = schema.largest_relation().name
        relations = [hub] + rng.sample([r for r in names if r != hub], n - 1)
    else:
        relations = rng.sample(names, n)
    if topology == "star":
        joins = repro.star_joins(schema, relations[0], relations[1:])
    elif topology == "star-chain":
        tail = 4
        joins = repro.star_chain_joins(
            schema, relations[0], relations[1 : n - tail], relations[n - tail :]
        )
    elif topology == "chain":
        joins = repro.chain_joins(schema, relations)
    elif topology == "cycle":
        joins = repro.cycle_joins(schema, relations)
    elif topology == "clique":
        joins = repro.clique_joins(schema, relations)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    graph = repro.JoinGraph(relations, joins)
    order_by = None
    if ordered:
        candidates = [
            (relations[index], column)
            for index in range(graph.n)
            for column in graph.join_columns_of(index)
        ]
        order_by = rng.choice(candidates)
    return repro.Query(schema=schema, graph=graph, order_by=order_by, label=label)


def _query_universe(schema, shapes, stream: str) -> tuple[Item, ...]:
    rng = random.Random(f"{stream}:{UNIVERSE_SEED}")
    items = []
    for index, (topology, n, ordered) in enumerate(shapes):
        label = f"{topology}-{n}{'-ordered' if ordered else ''}#{index}"
        query = _make_query(schema, topology, n, ordered, rng, label)
        items.append(Item(query_key(query), label, query=query))
    return tuple(items)


def search_sdp_universe(schema) -> tuple[Item, ...]:
    return _query_universe(schema, SEARCH_SDP_SHAPES, "search-sdp")


def ladder_dp_universe(schema) -> tuple[Item, ...]:
    return _query_universe(schema, LADDER_DP_SHAPES, "ladder-dp")


def pass_order(size: int, seed: int, pass_index: int) -> list[int]:
    """The seeded visiting order of a universe for one pass."""
    order = list(range(size))
    random.Random(f"pass:{seed}:{pass_index}").shuffle(order)
    return order


# -- SQL universe and request stream -------------------------------------------


def _range_variants(schema, label: str, sql: str, rng):
    """One SQL text per (operator, selectivity bucket) of a one-range template,
    with a seeded constant inside each bucket."""
    (match,) = _RANGE_PREDICATE.finditer(sql)
    relation, column = match.group(1), match.group(2)
    domain = schema.relation(relation).column(column).domain_size
    for op in _RANGE_OPS:
        for bucket in range(_BUCKETS):
            value = int((bucket + rng.uniform(0.1, 0.9)) * domain / _BUCKETS)
            text = sql[: match.start()] + f"{relation}.{column} {op} {value}"
            yield f"{label}[{op}{value}]", text + sql[match.end() :]


def serve_sql_universe(schema) -> tuple[Item, ...]:
    """:data:`SERVE_UNIVERSE_SIZE` TPC-H-lite SQL texts, one per fingerprint.

    Range-predicate constants and operators are varied so that every
    member has its own plan-cache fingerprint; a cached plan is therefore
    always the plan of the very text that hits it.
    """
    rng = random.Random(f"serve-sql:{UNIVERSE_SEED}")
    pool: dict[str, tuple[str, str]] = {}
    for label, sql in repro.TPCH_LITE_SQL:
        ranges = len(_RANGE_PREDICATE.findall(sql))
        variants = (
            _range_variants(schema, label, sql, rng) if ranges == 1 else [(label, sql)]
        )
        for variant_label, text in variants:
            fingerprint = repro.query_fingerprint(repro.parse_sql(schema, text))
            pool.setdefault(fingerprint, (variant_label, text))
    if len(pool) < SERVE_UNIVERSE_SIZE:
        raise ValueError(
            f"only {len(pool)} distinct fingerprints, need {SERVE_UNIVERSE_SIZE}"
        )
    chosen = rng.sample(sorted(pool), SERVE_UNIVERSE_SIZE)
    return tuple(
        Item(digest(pool[f][1]), pool[f][0], sql=pool[f][1]) for f in sorted(chosen)
    )


class ZipfStream:
    """Seeded request stream: Zipf draws over a fixed popularity order.

    The popularity order comes from :data:`UNIVERSE_SEED`, so every run has
    the same hot set and the same mix of cache misses; ``seed`` only picks
    the draws.
    """

    def __init__(self, size: int, seed: int):
        ranking = list(range(size))
        random.Random(f"zipf-ranking:{UNIVERSE_SEED}").shuffle(ranking)
        self._ranking = ranking
        self._rng = random.Random(f"zipf:{seed}")
        self._cumulative = list(
            accumulate(1.0 / (rank + 1) ** SERVE_ZIPF_EXPONENT for rank in range(size))
        )

    def next_index(self) -> int:
        total = self._cumulative[-1]
        rank = bisect.bisect_right(self._cumulative, self._rng.random() * total)
        return self._ranking[min(rank, len(self._ranking) - 1)]

    def take(self, count: int) -> list[int]:
        return [self.next_index() for _ in range(count)]
