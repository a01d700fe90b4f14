"""LDBC-SNB-like social network generator (paper Sec. 4.1, 6.5).

The paper evaluates hybrid search on LDBC SNB at SF10/SF30 with a content
embedding added to every Message (Post or Comment), sampled from SIFT100M.
This generator produces a seeded, laptop-scale analog with the structural
properties that drive the benchmark's candidate-set sizes:

- Person–knows–Person with a preferential-attachment (power-law) degree
  distribution, so k-hop friend neighbourhoods grow steeply with hops;
- Posts and Comments with hasCreator edges (split per type because edge
  types have fixed endpoints), reply chains, languages, lengths, creation
  dates, and country placement;
- SIFT-like content embeddings on every message.

``scale_factor=1`` is deliberately small; the Table 3 vs Table 4 comparison
only needs the 1:3 ratio between the two runs, which
:func:`generate_ldbc` preserves for any pair of scale factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..types import Metric
from .vectors import make_sift_like

__all__ = ["LDBCConfig", "LDBCDataset", "LDBC_SCHEMA_GSQL", "generate_ldbc", "load_ldbc_into"]

_FIRST_NAMES = [
    "Alice", "Bob", "Carlos", "Dana", "Erik", "Fatima", "Gustav", "Hana",
    "Ivan", "Jun", "Klara", "Liam", "Mina", "Noah", "Olga", "Pedro",
]

_COUNTRIES = [
    "United States", "France", "Germany", "Japan", "Brazil", "India",
    "Kenya", "Norway",
]

_LANGUAGES = ["en", "fr", "de", "jp", "pt"]


@dataclass
class LDBCConfig:
    """Knobs for the generator; defaults give a small test-sized graph."""

    scale_factor: float = 1.0
    persons_per_sf: int = 300
    posts_per_person: float = 4.0
    comments_per_post: float = 2.0
    knows_mean_degree: int = 10
    embedding_dim: int = 32
    seed: int = 1234

    @property
    def num_persons(self) -> int:
        return max(10, int(self.persons_per_sf * self.scale_factor))


@dataclass
class LDBCDataset:
    """Generated rows, ready for :func:`load_ldbc_into`."""

    config: LDBCConfig
    persons: list[dict] = field(default_factory=list)
    posts: list[dict] = field(default_factory=list)
    comments: list[dict] = field(default_factory=list)
    countries: list[dict] = field(default_factory=list)
    knows: list[tuple[int, int]] = field(default_factory=list)
    post_creator: list[tuple[int, int]] = field(default_factory=list)
    comment_creator: list[tuple[int, int]] = field(default_factory=list)
    reply_of: list[tuple[int, int]] = field(default_factory=list)  # comment -> post
    person_country: list[tuple[int, str]] = field(default_factory=list)
    post_embeddings: np.ndarray | None = None
    comment_embeddings: np.ndarray | None = None

    @property
    def num_messages(self) -> int:
        return len(self.posts) + len(self.comments)


def generate_ldbc(config: LDBCConfig | None = None) -> LDBCDataset:
    config = config or LDBCConfig()
    rng = np.random.default_rng(config.seed)
    data = LDBCDataset(config=config)
    n_person = config.num_persons

    for name in _COUNTRIES:
        data.countries.append({"name": name})

    for pid in range(n_person):
        data.persons.append(
            {
                "id": pid,
                "firstName": _FIRST_NAMES[pid % len(_FIRST_NAMES)],
                "birthday": int(rng.integers(0, 10_000)),
            }
        )
        data.person_country.append((pid, _COUNTRIES[int(rng.integers(0, len(_COUNTRIES)))]))

    # knows: preferential attachment for a power-law degree distribution.
    edges: set[tuple[int, int]] = set()
    targets: list[int] = [0]
    for pid in range(1, n_person):
        degree = max(1, int(rng.poisson(config.knows_mean_degree / 2)))
        for _ in range(degree):
            other = int(targets[int(rng.integers(0, len(targets)))])
            if other != pid:
                edge = (min(pid, other), max(pid, other))
                if edge not in edges:
                    edges.add(edge)
                    targets.extend([pid, other])
        targets.append(pid)
    data.knows = sorted(edges)

    # Posts: activity is also skewed (prolific users post more).
    activity = rng.pareto(2.0, n_person) + 0.2
    activity = activity / activity.sum()
    total_posts = int(config.posts_per_person * n_person)
    authors = rng.choice(n_person, size=total_posts, p=activity)
    base_date = 1_300_000_000
    for post_id, author in enumerate(authors):
        data.posts.append(
            {
                "id": post_id,
                "language": _LANGUAGES[int(rng.integers(0, len(_LANGUAGES)))],
                "length": int(rng.integers(10, 2500)),
                "creationDate": base_date + int(rng.integers(0, 100_000_000)),
            }
        )
        data.post_creator.append((post_id, int(author)))

    # Comments: reply to a post; commenter biased toward the author's friends.
    neighbors: dict[int, list[int]] = {}
    for a, b in data.knows:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    total_comments = int(config.comments_per_post * total_posts)
    comment_posts = rng.integers(0, max(total_posts, 1), size=total_comments)
    for comment_id, post_id in enumerate(comment_posts):
        author_of_post = data.post_creator[int(post_id)][1]
        friends = neighbors.get(author_of_post)
        if friends and rng.random() < 0.7:
            commenter = int(friends[int(rng.integers(0, len(friends)))])
        else:
            commenter = int(rng.integers(0, n_person))
        data.comments.append(
            {
                "id": comment_id,
                "length": int(rng.integers(5, 1200)),
                "creationDate": base_date + int(rng.integers(0, 100_000_000)),
            }
        )
        data.comment_creator.append((comment_id, commenter))
        data.reply_of.append((comment_id, int(post_id)))

    # SIFT-like content embeddings for all messages (paper Sec. 6.5 samples
    # Message embeddings from SIFT100M).
    sift = make_sift_like(
        data.num_messages, num_queries=1, seed=config.seed + 1,
    )
    all_vecs = sift.vectors[:, : config.embedding_dim].astype(np.float32)
    data.post_embeddings = all_vecs[: len(data.posts)]
    data.comment_embeddings = all_vecs[len(data.posts):]
    return data


LDBC_SCHEMA_GSQL = """
CREATE VERTEX Person (id INT PRIMARY KEY, firstName STRING, birthday INT);
CREATE VERTEX Post (id INT PRIMARY KEY, language STRING, length INT, creationDate INT);
CREATE VERTEX Comment (id INT PRIMARY KEY, length INT, creationDate INT);
CREATE VERTEX Country (name STRING PRIMARY KEY);
CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);
CREATE DIRECTED EDGE postHasCreator (FROM Post, TO Person);
CREATE DIRECTED EDGE commentHasCreator (FROM Comment, TO Person);
CREATE DIRECTED EDGE replyOf (FROM Comment, TO Post);
CREATE DIRECTED EDGE isLocatedIn (FROM Person, TO Country);
"""


def load_ldbc_into(db, data: LDBCDataset) -> None:
    """Create the SNB schema in ``db`` and load the generated dataset."""
    dim = data.config.embedding_dim
    db.run_gsql(LDBC_SCHEMA_GSQL)
    db.run_gsql(
        f"""
        ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb
          (DIMENSION = {dim}, MODEL = SIFT, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);
        ALTER VERTEX Comment ADD EMBEDDING ATTRIBUTE content_emb
          (DIMENSION = {dim}, MODEL = SIFT, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);
        """
    )
    db.bulk_load_vertices("Country", data.countries)
    db.bulk_load_vertices("Person", data.persons)
    db.bulk_load_vertices("Post", data.posts)
    db.bulk_load_vertices("Comment", data.comments)
    db.bulk_load_edges("knows", data.knows)
    db.bulk_load_edges("postHasCreator", data.post_creator)
    db.bulk_load_edges("commentHasCreator", data.comment_creator)
    db.bulk_load_edges("replyOf", data.reply_of)
    db.bulk_load_edges("isLocatedIn", data.person_country)
    db.bulk_load_embeddings(
        "Post", "content_emb",
        [p["id"] for p in data.posts], data.post_embeddings,
    )
    db.bulk_load_embeddings(
        "Comment", "content_emb",
        [c["id"] for c in data.comments], data.comment_embeddings,
    )
    db.vacuum()
