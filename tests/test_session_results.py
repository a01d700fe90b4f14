"""Tests for QueryResult contents and multi-statement run() behaviour."""

import numpy as np
import pytest

from repro import RankedVertexSet


class TestQueryResultContents:
    def test_multi_statement_run_returns_last(self, loaded_post_db):
        db = loaded_post_db
        r = db.run_gsql(
            'SELECT p FROM (p:Person) WHERE p.firstName = "P1";'
            'SELECT p FROM (p:Person) WHERE p.firstName = "P2";'
        )
        assert len(r.result) == 1
        (vtype, vid) = next(iter(r.result))
        assert db.pk_for(vtype, vid) == 2

    def test_procedure_exposes_sets_and_accums(self, loaded_post_db):
        db = loaded_post_db
        db.gsql.install(
            """
            CREATE QUERY q(INT limit_len) {
              SumAccum<INT> @@n;
              Long = SELECT t FROM (t:Post) WHERE t.length > limit_len
                     ACCUM @@n += 1;
              PRINT @@n;
            }
            """
        )
        r = db.gsql.run_query("q", limit_len=290)
        assert r.accumulators["n"] == 9
        assert len(r.sets["Long"]) == 9
        assert "limit_len" not in r.sets  # params filtered out

    def test_metrics_present_for_vector_queries(self, loaded_post_db):
        db = loaded_post_db
        r = db.run_gsql(
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, qv) LIMIT 3;",
            qv=[0.0] * 16,
        )
        assert "vector_seconds" in r.metrics
        assert "last_plan" in r.metrics
        assert r.metrics["action_stats"].segments_touched == 4

    def test_ranked_result_is_vertex_set_compatible(self, loaded_post_db):
        db = loaded_post_db
        r = db.run_gsql(
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, qv) LIMIT 4;",
            qv=[0.0] * 16,
        )
        ranked = r.result
        assert isinstance(ranked, RankedVertexSet)
        # behaves as a plain VertexSet for composition
        other = ranked.union(ranked)
        assert len(other) == 4
        # and carries its ordering
        dists = [d for _, d in ranked.ranking]
        assert dists == sorted(dists)


class TestDdlAndQueryInOneRun:
    def test_schema_then_data_then_query(self, rng):
        from repro import TigerVectorDB

        db = TigerVectorDB(segment_size=32)
        db.run_gsql(
            "CREATE VERTEX City (id INT PRIMARY KEY, pop INT);"
            "ALTER VERTEX City ADD EMBEDDING ATTRIBUTE e (DIMENSION = 4, METRIC = L2);"
            'INSERT INTO City VALUES (1, 100, [1.0, 0, 0, 0]);'
            'INSERT INTO City VALUES (2, 200, [0.0, 1.0, 0, 0]);'
        )
        db.vacuum()
        r = db.run_gsql(
            "SELECT s FROM (s:City) WHERE s.pop > 150 "
            "ORDER BY VECTOR_DIST(s.e, [1.0, 0, 0, 0]) LIMIT 1;"
        )
        (vtype, vid), _ = r.result.ranking[0]
        assert db.pk_for(vtype, vid) == 2  # pop filter excludes the closer city
        db.close()
