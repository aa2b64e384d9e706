"""Tests for repro.workloads: the TPC-H-lite schema and SQL templates."""

from __future__ import annotations

import pytest

import repro
from repro.catalog import analyze
from repro.plans.validate import validate_plan
from repro.workloads import TPCH_LITE_SQL, tpch_lite_queries, tpch_lite_schema

EXPECTED_RELATIONS = {
    "region",
    "nation",
    "supplier",
    "customer",
    "part",
    "partsupp",
    "orders",
    "lineitem",
}


@pytest.fixture(scope="module")
def lite_schema():
    return tpch_lite_schema()


@pytest.fixture(scope="module")
def lite_stats(lite_schema):
    return analyze(lite_schema)


@pytest.fixture(scope="module")
def lite_queries(lite_schema):
    return tpch_lite_queries(lite_schema)


class TestSchema:
    def test_deterministic(self):
        def shape(schema):
            return tuple(
                (
                    rel.name,
                    rel.row_count,
                    tuple(
                        (c.name, c.domain_size, c.width, repr(c.distribution))
                        for c in rel.columns
                    ),
                    tuple(i.column_name for i in rel.indexes),
                )
                for rel in (schema.relation(n) for n in schema.relation_names)
            )

        assert shape(tpch_lite_schema()) == shape(tpch_lite_schema())
        assert tpch_lite_schema().name == "tpch-lite"

    def test_eight_tpch_relations(self, lite_schema):
        assert set(lite_schema.relation_names) == EXPECTED_RELATIONS

    def test_foreign_key_domains_match_referenced_cardinality(
        self, lite_schema
    ):
        # A FK column's domain equals the referenced relation's row count,
        # so join selectivities behave like the real benchmark's.
        fks = (
            ("nation", "n_regionkey", "region"),
            ("supplier", "s_nationkey", "nation"),
            ("customer", "c_nationkey", "nation"),
            ("partsupp", "ps_partkey", "part"),
            ("partsupp", "ps_suppkey", "supplier"),
            ("orders", "o_custkey", "customer"),
            ("lineitem", "l_orderkey", "orders"),
            ("lineitem", "l_partkey", "part"),
            ("lineitem", "l_suppkey", "supplier"),
        )
        for rel, column, referenced in fks:
            domain = lite_schema.relation(rel).column(column).domain_size
            assert domain == lite_schema.relation(referenced).row_count, (
                rel,
                column,
            )

    def test_key_columns_are_indexed(self, lite_schema):
        for rel, column in (
            ("region", "r_regionkey"),
            ("orders", "o_orderkey"),
            ("lineitem", "l_orderkey"),
            ("supplier", "s_suppkey"),
        ):
            indexed = {i.column_name for i in lite_schema.relation(rel).indexes}
            assert column in indexed


class TestTemplates:
    def test_all_templates_parse(self, lite_queries):
        assert len(lite_queries) == len(TPCH_LITE_SQL) == 13
        labels = [q.label for q in lite_queries]
        assert labels == [label for label, _ in TPCH_LITE_SQL]

    def test_feature_coverage(self, lite_queries):
        by_label = {q.label: q for q in lite_queries}
        # Selection-free join-order problems exist ...
        assert not by_label["region-nations"].selections
        assert not by_label["order-lineitems-ordered"].selections
        # ... and selection-bearing ones, including multi-predicate.
        assert len(by_label["shipping-priority"].selections) == 2
        # ORDER BY on a join column, a non-join indexed column, and a
        # non-join unindexed column are all represented.
        assert by_label["big-customer-orders"].has_join_column_order
        nso = by_label["nation-suppliers-ordered"]
        assert nso.order_by == ("supplier", "s_suppkey")
        assert not nso.has_join_column_order
        sp = by_label["shipping-priority"]
        assert sp.order_by == ("orders", "o_orderdate")
        assert not sp.has_join_column_order

    def test_sizes_span_two_to_eight_way(self, lite_queries):
        sizes = {q.relation_count for q in lite_queries}
        assert min(sizes) == 2
        assert max(sizes) == 8

    def test_every_template_optimizes_and_validates(
        self, lite_schema, lite_stats, lite_queries
    ):
        for query in lite_queries:
            result = repro.SDPOptimizer().optimize(query, lite_stats)
            validate_plan(result.plan, query.graph)

    def test_sql_text_front_door_matches_parsed(
        self, lite_schema, lite_stats, lite_queries
    ):
        # Every template through both entry forms: SQL text and the
        # parsed Query must run the same search.
        assert len(lite_queries) == len(TPCH_LITE_SQL)
        for (label, sql), query in zip(TPCH_LITE_SQL, lite_queries):
            assert query.label == label
            from_sql = repro.optimize(sql, schema=lite_schema, stats=lite_stats)
            from_query = repro.optimize(query, stats=lite_stats)
            assert from_sql.cost == from_query.cost, label
            assert from_sql.plans_costed == from_query.plans_costed, label
            validate_plan(from_sql.plan, query.graph)
            assert from_sql.tree() is not None, label  # carries the query

    def test_facade_exports(self):
        assert repro.TPCH_LITE_SQL is TPCH_LITE_SQL
        assert repro.tpch_lite_schema is tpch_lite_schema
        assert repro.tpch_lite_queries is tpch_lite_queries
