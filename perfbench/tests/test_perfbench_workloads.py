"""Workload generators: determinism, coverage, and reference completeness."""

import pytest
import repro

import runners
import workloads


@pytest.fixture(scope="module")
def serve_universe():
    return workloads.serve_sql_universe(workloads.serve_schema())


@pytest.fixture(scope="module")
def ladder():
    schema = workloads.ladder_schema()
    return schema, workloads.ladder_dp_universe(schema)


def _pass_lists(size, seed, passes=3):
    return [workloads.pass_order(size, seed, p) for p in range(passes)]


def test_same_seed_gives_identical_request_lists(serve_universe, ladder):
    _, ladder_universe = ladder
    search_universe = workloads.search_sdp_universe(workloads.wide_schema())
    for universe in (search_universe, ladder_universe):
        assert _pass_lists(len(universe), 7) == _pass_lists(len(universe), 7)
    size = len(serve_universe)
    assert workloads.ZipfStream(size, 7).take(3000) == workloads.ZipfStream(size, 7).take(3000)


def test_universes_are_rebuilt_identically(serve_universe, ladder):
    schema, ladder_universe = ladder
    assert [i.key for i in workloads.ladder_dp_universe(schema)] == [
        i.key for i in ladder_universe
    ]
    assert [i.sql for i in workloads.serve_sql_universe(workloads.serve_schema())] == [
        i.sql for i in serve_universe
    ]


def test_different_seed_gives_different_lists(serve_universe):
    assert _pass_lists(16, 1) != _pass_lists(16, 2)
    assert _pass_lists(40, 1) != _pass_lists(40, 2)
    size = len(serve_universe)
    assert workloads.ZipfStream(size, 1).take(3000) != workloads.ZipfStream(size, 2).take(3000)


def test_pass_orders_are_permutations():
    for pass_index in range(3):
        assert sorted(workloads.pass_order(40, 5, pass_index)) == list(range(40))


def test_serve_sql_has_more_fingerprints_than_the_cache(serve_universe):
    schema = workloads.serve_schema()
    fingerprints = {
        repro.query_fingerprint(repro.parse_sql(schema, item.sql)) for item in serve_universe
    }
    assert len(fingerprints) == len(serve_universe)
    assert len(fingerprints) > workloads.SERVE_CACHE_CAPACITY
    drawn = set(workloads.ZipfStream(len(serve_universe), 3).take(5000))
    assert len(drawn) > workloads.SERVE_CACHE_CAPACITY


def test_search_sdp_shapes_match_the_workload():
    schema = workloads.wide_schema()
    universe = workloads.search_sdp_universe(schema)
    sizes = [item.query.graph.n for item in universe]
    assert min(sizes) == 18 and max(sizes) == 25
    ordered = sum(item.query.order_by is not None for item in universe)
    assert ordered == len(universe) // 2


def test_ladder_dp_degrades_some_queries_but_not_all(ladder):
    schema, universe = ladder
    stats = repro.analyze(schema)
    degraded = [
        repro.optimize(
            item.query, technique="dp", robust=True, stats=stats,
            budget=workloads.LADDER_BUDGET,
        ).degraded
        for item in universe
    ]
    assert 0 < sum(degraded) < len(degraded)


def test_every_universe_query_has_a_reference_cost(serve_universe, ladder):
    references = runners.load_references()
    _, ladder_universe = ladder
    search_universe = workloads.search_sdp_universe(workloads.wide_schema())
    for name, universe in (
        ("search-sdp", search_universe),
        ("ladder-dp", ladder_universe),
        ("serve-sql", serve_universe),
    ):
        assert {item.key for item in universe} == set(references[name]), name
        assert all(entry["cost"] > 0 for entry in references[name].values())


def test_zipf_stream_is_skewed(serve_universe):
    draws = workloads.ZipfStream(len(serve_universe), 4).take(5000)
    counts = sorted((draws.count(i) for i in set(draws)), reverse=True)
    assert counts[0] > 10 * counts[len(counts) // 2]
