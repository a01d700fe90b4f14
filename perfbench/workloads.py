"""Seeded inputs and the brute-force oracle (NumPy only; imports nothing of repro).

Everything the program is fed -- rows, edges, query vectors, GSQL text, update
batches -- is generated here from ``--seed`` before any clock starts, so the
program receives only generated inputs and the same seed replays the same run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

K = 10
DIM = 128
BUCKETS = 1000  # Item.bucket is uniform in [0, BUCKETS): `bucket < X` selects X / BUCKETS
FANOUT = 8  # sub-queries per serve_multiquery retrieval
# set_embedding calls per update_mixed commit.  The issue's 8 per commit at its
# ~6 000 rows rewrites 0.13 % of the rows per op; at 1 600 rows that share is 2.
# At 8 the per-segment HNSW (updates tombstone and reinsert) more than doubles
# its node count inside one run, so latency drifts upward the whole time.
UPSERTS = 2
SEARCHES = 4  # searches after each update_mixed commit; the first reads the write
# One op in five ends with a synchronous vacuum.  At the one in forty first
# proposed, a round holds zero or one vacuum, so round throughput is bimodal and
# p95 flips between the two op populations from run to run; at one in five a
# round holds five or six, p50 is a plain op and p95 a vacuum op, every time.
VACUUM_EVERY = 5
REPEAT_SHARE = 0.25  # elastic_closed: share of ops re-issuing one of the last 64 queries
REPEAT_WINDOW = 64

#: The workloads (BENCHMARK.json says why each is in the set) and the ops
#: generated for each; a run that outlasts its stream wraps around.
STREAM_OPS = {
    "topk_direct": 4096,
    "hybrid_gsql": 2048,
    "serve_multiquery": 4096,
    "elastic_closed": 4096,
    "update_mixed": 1024,
}


@dataclass(frozen=True)
class Scale:
    """Data size; ``full`` is what BENCHMARK.json measures, ``smoke`` is ~1/8."""

    rows: int
    segment_size: int
    owners: int
    stream_divisor: int  # shortens the generated op streams along with the run

    @classmethod
    def named(cls, name: str) -> "Scale":
        return {"full": cls(1600, 400, 40, 1), "smoke": cls(320, 80, 16, 4)}[name]


@dataclass(frozen=True)
class Dataset:
    vectors: np.ndarray  # (rows, DIM) float32, SIFT-like: clustered, integer-valued in [0, 218]
    bucket: np.ndarray  # (rows,) int64
    owner: np.ndarray  # (rows,) int64, Item -[ownedBy]-> Owner
    centers: np.ndarray  # mixture centres, kept so queries come from the same distribution
    lo: float
    span: float
    scale: Scale

    @property
    def rows(self) -> int:
        return int(self.vectors.shape[0])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _raw(centers: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    pick = rng.integers(0, centers.shape[0], size=count)
    return centers[pick] + rng.standard_normal((count, DIM)).astype(np.float32)


def make_dataset(seed: int, scale: Scale) -> Dataset:
    rng = _rng(seed, 0)
    # Overlapping clusters (separation 0.4 of the unit noise), so true
    # neighbours are not simply the rest of the query's own cluster.
    centers = rng.standard_normal((32, DIM)).astype(np.float32) * 0.4
    raw = _raw(centers, rng, scale.rows)
    lo, span = float(raw.min()), float(raw.max() - raw.min())
    vectors = np.round((raw - lo) / span * 218.0).astype(np.float32)
    return Dataset(
        vectors=vectors,
        bucket=rng.integers(0, BUCKETS, size=scale.rows),
        owner=rng.integers(0, scale.owners, size=scale.rows),
        centers=centers,
        lo=lo,
        span=span,
        scale=scale,
    )


def _draw(dataset: Dataset, rng: np.random.Generator, count: int) -> np.ndarray:
    """Held-out draws from the data distribution (unrounded, so ties are measure-zero)."""
    return ((_raw(dataset.centers, rng, count) - dataset.lo) / dataset.span * 218.0).astype(np.float32)


def make_ops(workload: str, seed: int, dataset: Dataset) -> dict[str, np.ndarray]:
    """The op stream of one workload as named arrays, one row per op."""
    count = STREAM_OPS[workload] // dataset.scale.stream_divisor
    # topk_direct, elastic_closed and hybrid_gsql share stream 1, so their
    # differences are the layers on top, not the queries.
    queries = _draw(dataset, _rng(seed, 1), count)
    if workload == "topk_direct":
        return {"queries": queries}
    if workload == "elastic_closed":
        rng = _rng(seed, 2)
        repeat = rng.random(count) < REPEAT_SHARE
        back = rng.integers(1, REPEAT_WINDOW + 1, size=count)
        for i in np.flatnonzero(repeat):
            if i:
                queries[i] = queries[i - min(int(back[i]), i)]
        return {"queries": queries}
    if workload == "hybrid_gsql":
        rng = _rng(seed, 3)
        # Blocks of ten ops: two one-hop patterns and eight bucket filters whose
        # selectivities are one jittered draw from each eighth of log(1%)..log(50%),
        # shuffled.  Overall the selectivity is log-uniform, so it crosses the
        # brute-force flip continuously and p50/p95 sit on no class boundary;
        # within any second the mix of cheap and dear ops is the same.
        blocks = count // 10
        strata = (np.arange(8) + rng.random((blocks, 8))) / 8.0
        share = np.exp(np.log(0.01) + strata * (np.log(0.5) - np.log(0.01)))
        bound = np.concatenate([np.round(BUCKETS * share), np.full((blocks, 2), -1.0)], axis=1)
        bound = rng.permuted(bound, axis=1).reshape(-1)
        bound = np.concatenate([bound, np.full(count - bound.size, -1.0)])
        pattern = bound < 0
        owner = rng.integers(0, int(dataset.owner.max()) + 1, size=count)
        return {
            "queries": queries,
            "pattern": pattern,
            "arg": np.where(pattern, owner, bound).astype(np.int64),
        }
    if workload == "serve_multiquery":
        rng = _rng(seed, 4)
        topics = _draw(dataset, rng, count)
        noise = rng.standard_normal((count, FANOUT, DIM)).astype(np.float32) * 4.0
        return {"queries": topics[:, None, :] + noise}
    if workload == "update_mixed":
        rng = _rng(seed, 5)
        pks = np.stack([rng.choice(dataset.rows, UPSERTS, replace=False) for _ in range(count)])
        vectors = _draw(dataset, rng, count * UPSERTS).reshape(count, UPSERTS, DIM)
        searches = _draw(dataset, rng, count * SEARCHES).reshape(count, SEARCHES, DIM)
        searches[:, 0] = vectors[:, 0]  # read-your-writes: ask for the vector just written
        return {"pks": pks, "vectors": vectors, "queries": searches}
    raise KeyError(workload)


def stream_length(ops: dict[str, np.ndarray]) -> int:
    return int(ops["queries"].shape[0])


def stream_bytes(ops: dict[str, np.ndarray]) -> bytes:
    return b"".join(np.ascontiguousarray(ops[name]).tobytes() for name in sorted(ops))


def hybrid_text(pattern: bool, arg: int) -> str:
    """GSQL source of one hybrid_gsql op; the query vector travels as parameter ``qv``."""
    if pattern:
        return (
            "SELECT t FROM (o:Owner) <- [:ownedBy] - (t:Item) "
            f"WHERE o.id == {arg} ORDER BY VECTOR_DIST(t.emb, qv) LIMIT {K};"
        )
    return (
        f"SELECT s FROM (s:Item) WHERE s.bucket < {arg} "
        f"ORDER BY VECTOR_DIST(s.emb, qv) LIMIT {K};"
    )


# ------------------------------------------------------------------ oracle
def _replay(
    workload: str, dataset: Dataset, ops: dict[str, np.ndarray], executed: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Per executed op: exact float64 distances (queries x rows) and the eligible mask.

    ``executed`` is the order ops ran in; update_mixed replays its upserts in
    that order, so each search is judged against the rows visible after its
    own op's commit (single client, so the order is the truth).
    """
    vectors = dataset.vectors.astype(np.float64)
    norms = np.einsum("ij,ij->i", vectors, vectors)
    length = stream_length(ops)
    for index in executed:
        i = index % length
        eligible = None
        if workload == "update_mixed":
            rows = ops["pks"][i]
            vectors[rows] = ops["vectors"][i]
            norms[rows] = np.einsum("ij,ij->i", vectors[rows], vectors[rows])
        elif workload == "hybrid_gsql":
            arg = int(ops["arg"][i])
            eligible = dataset.owner == arg if ops["pattern"][i] else dataset.bucket < arg
        queries = ops["queries"][i].reshape(-1, DIM).astype(np.float64)
        dists = norms[None, :] - 2.0 * queries @ vectors.T + np.einsum("ij,ij->i", queries, queries)[:, None]
        yield dists, eligible


def ground_truth(
    workload: str, dataset: Dataset, ops: dict[str, np.ndarray], executed: Sequence[int]
) -> np.ndarray:
    """Exact top-K ids per (op, query), -1 where fewer than K rows are eligible."""
    out = []
    for dists, eligible in _replay(workload, dataset, ops, executed):
        if eligible is not None:
            dists = np.where(eligible[None, :], dists, np.inf)
        ids = np.argsort(dists, axis=1, kind="stable")[:, :K]
        out.append(np.where(np.isfinite(np.take_along_axis(dists, ids, axis=1)), ids, -1))
    return np.stack(out)


@dataclass
class Score:
    wrong_ops: int = 0  # ops with any malformed, ineligible, stale or (where exact) non-optimal answer
    hits: int = 0
    possible: int = 0

    @property
    def recall(self) -> float:
        return self.hits / self.possible if self.possible else 0.0


# An id counts as a true neighbour when its exact distance is within float32
# rounding of the K-th best, so a near-tie broken the other way is not a miss:
# the program sums 128 float32 products of magnitude ~1e4 per distance ~1e5,
# which is good to about 1e-5 relative (measured: up to 0.9e-5).
_TIE = 1e-4


def score(
    workload: str,
    dataset: Dataset,
    ops: dict[str, np.ndarray],
    executed: Sequence[int],
    answers: Sequence[np.ndarray],
    exact: bool = False,
) -> Score:
    """Judge ``answers[n][q]`` (returned primary keys, -1 padded to K) for the n-th executed op.

    Every answer must be K distinct (or all, if fewer are eligible) live rows
    satisfying the op's predicate; ``exact`` additionally requires the true
    top-K; update_mixed's first search must contain the row it just wrote.
    """
    total = Score()
    length = stream_length(ops)
    for (dists, eligible), index, op_answers in zip(
        _replay(workload, dataset, ops, executed), executed, answers
    ):
        ok = len(op_answers) == dists.shape[0]
        for q, returned in enumerate(op_answers[: dists.shape[0]]):
            row = dists[q] if eligible is None else np.where(eligible, dists[q], np.inf)
            want = min(K, int(np.isfinite(row).sum()))
            ids = np.asarray(returned, dtype=np.int64)
            ids = ids[ids >= 0]
            total.possible += want
            if (
                ids.size != want
                or np.unique(ids).size != ids.size
                or (ids.size and ids.max() >= row.size)
                or not np.all(np.isfinite(row[ids]))
            ):
                ok = False
                continue
            if want == 0:
                continue
            kth = np.partition(row, want - 1)[want - 1]
            hits = int(np.count_nonzero(row[ids] <= kth + abs(kth) * _TIE + 1e-9))
            total.hits += hits
            if exact and hits != want:
                ok = False
            if workload == "update_mixed" and q == 0 and int(ops["pks"][index % length][0]) not in ids:
                ok = False
        total.wrong_ops += not ok
    return total
