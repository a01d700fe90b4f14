"""GSQL: TigerGraph's declarative graph query language, extended for vectors.

This package implements the GSQL subset the paper exercises:

- DDL: ``CREATE VERTEX`` / ``CREATE ... EDGE`` / ``ALTER VERTEX ... ADD
  EMBEDDING ATTRIBUTE`` / ``CREATE EMBEDDING SPACE`` / loading jobs;
- single query blocks: ``SELECT ... FROM <pattern> [WHERE ...]
  [ORDER BY VECTOR_DIST(...) LIMIT k]`` covering pure, filtered, range,
  graph-pattern, and similarity-join vector search (Sec. 5.1–5.4);
- query procedures (``CREATE QUERY``): accumulators, vertex-set variables,
  ``VectorSearch()``, FOREACH/IF/WHILE, PRINT (Sec. 5.5, queries Q2–Q4).

Pipeline: :mod:`lexer` → :mod:`parser` (AST in :mod:`ast_nodes`) →
:mod:`semantic` (static analysis, incl. embedding compatibility) →
:mod:`planner` (plans in the paper's EmbeddingAction / VertexAction /
EdgeAction notation) → :mod:`executor`, whose vector steps run on
:mod:`repro.core.action` and graph steps on
:func:`repro.graph.pattern.match_frontier`.
:class:`~repro.gsql.session.GSQLSession` is the entry point.
"""

from .session import GSQLSession, QueryResult

__all__ = ["GSQLSession", "QueryResult"]
