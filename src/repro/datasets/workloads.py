"""IC-style hybrid query workloads (paper Sec. 6.5, Tables 3-4).

The paper modifies LDBC SNB interactive-complex (IC) queries that involve
the KNOWS edge, varies the number of KNOWS repetitions (2-4 hops), collects
the matched Message vertices into a global accumulator, and finishes with a
top-k vector search over that candidate set.

Each :class:`ICQuerySpec` builds the GSQL procedure for a given hop count.
The five analogs reproduce the candidate-set profile the paper reports:

- **IC3**  - messages by k-hop friends with *two* selective attribute
  filters (near-empty candidate sets: 0-100 in the paper);
- **IC5**  - all messages by k-hop friends (millions in the paper; the
  largest set here);
- **IC6**  - posts by k-hop friends in one language (moderate, ~1-10k);
- **IC9**  - the 20 most recent messages by k-hop friends (fixed 20);
- **IC11** - posts by k-hop friends with a length cap (moderate-large).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


__all__ = [
    "IC_QUERIES",
    "ICQuerySpec",
    "build_ic_query",
]


@dataclass(frozen=True)
class ICQuerySpec:
    """One IC analog: a name and a GSQL builder parameterized by hops."""

    name: str
    description: str
    builder: Callable[[int], str]

    def gsql(self, hops: int) -> str:
        return self.builder(hops)


def _friends_block(hops: int) -> str:
    """The k-hop KNOWS expansion every IC analog starts with."""
    return (
        "  Friends = SELECT p FROM (s:Person) -[:knows*{hops}]-> (p:Person) "
        "WHERE s.id == pid;\n"
    ).format(hops=hops)


def _ic3(hops: int) -> str:
    return (
        f"CREATE QUERY IC3_h{hops}(INT pid, List<FLOAT> topic_emb, INT k) {{\n"
        + _friends_block(hops)
        + """  Msgs1 = SELECT m FROM (p:Friends) <-[:postHasCreator]- (m:Post)
           WHERE m.length > 2400 AND m.language == "jp";
  Msgs2 = SELECT m FROM (p:Friends) <-[:commentHasCreator]- (m:Comment)
           WHERE m.length > 1150;
  Candidates = Msgs1 UNION Msgs2;
  TopK = VectorSearch({Post.content_emb, Comment.content_emb}, topic_emb, k,
                      {filter: Candidates});
  PRINT TopK;
}
"""
    )


def _ic5(hops: int) -> str:
    return (
        f"CREATE QUERY IC5_h{hops}(INT pid, List<FLOAT> topic_emb, INT k) {{\n"
        + _friends_block(hops)
        + """  Msgs1 = SELECT m FROM (p:Friends) <-[:postHasCreator]- (m:Post);
  Msgs2 = SELECT m FROM (p:Friends) <-[:commentHasCreator]- (m:Comment);
  Candidates = Msgs1 UNION Msgs2;
  TopK = VectorSearch({Post.content_emb, Comment.content_emb}, topic_emb, k,
                      {filter: Candidates});
  PRINT TopK;
}
"""
    )


def _ic6(hops: int) -> str:
    return (
        f"CREATE QUERY IC6_h{hops}(INT pid, List<FLOAT> topic_emb, INT k) {{\n"
        + _friends_block(hops)
        + """  Candidates = SELECT m FROM (p:Friends) <-[:postHasCreator]- (m:Post)
               WHERE m.language == "fr";
  TopK = VectorSearch({Post.content_emb}, topic_emb, k, {filter: Candidates});
  PRINT TopK;
}
"""
    )


def _ic9(hops: int) -> str:
    return (
        f"CREATE QUERY IC9_h{hops}(INT pid, List<FLOAT> topic_emb, INT k) {{\n"
        + _friends_block(hops)
        + """  Candidates = SELECT m FROM (p:Friends) <-[:postHasCreator]- (m:Post)
               ORDER BY m.creationDate DESC LIMIT 20;
  TopK = VectorSearch({Post.content_emb}, topic_emb, k, {filter: Candidates});
  PRINT TopK;
}
"""
    )


def _ic11(hops: int) -> str:
    return (
        f"CREATE QUERY IC11_h{hops}(INT pid, List<FLOAT> topic_emb, INT k) {{\n"
        + _friends_block(hops)
        + """  Candidates = SELECT m FROM (p:Friends) <-[:postHasCreator]- (m:Post)
               WHERE m.length < 1700;
  TopK = VectorSearch({Post.content_emb}, topic_emb, k, {filter: Candidates});
  PRINT TopK;
}
"""
    )


IC_QUERIES: dict[str, ICQuerySpec] = {
    "IC3": ICQuerySpec("IC3", "two selective filters -> near-empty candidates", _ic3),
    "IC5": ICQuerySpec("IC5", "all friend messages -> largest candidate set", _ic5),
    "IC6": ICQuerySpec("IC6", "language filter -> moderate candidates", _ic6),
    "IC9": ICQuerySpec("IC9", "20 most recent -> fixed-size candidates", _ic9),
    "IC11": ICQuerySpec("IC11", "length cap -> moderate-large candidates", _ic11),
}


def build_ic_query(name: str, hops: int) -> tuple[str, str]:
    """(installed_query_name, gsql_text) for one IC analog at a hop count."""
    spec = IC_QUERIES[name]
    return f"{name}_h{hops}", spec.gsql(hops)
