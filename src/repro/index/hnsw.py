"""HNSW (Hierarchical Navigable Small World) index, implemented from scratch.

Follows Malkov & Yashunin (TPAMI 2020) — the index the paper uses for every
embedding segment — with the features TigerVector relies on:

- tunable ``M`` / ``ef_construction`` at build time and ``ef`` per query
  (the knob Neo4j/Neptune lack, which drives Figures 7–8),
- a *filter* — a boolean array over external ids, or a callable — applied at
  result-collection time while traversal still routes through filtered nodes
  (the bitmap pre-filter of Sec. 5.1–5.2),
- ``update_items`` for both index builds (Table 2) and incremental vacuum
  merges (Sec. 4.3), two paths chosen per id by whether the index already
  holds it:

  - ids it has never seen are **built** in one pass (``_build_fresh``):
    each new row's candidates are its exact ``ef_construction`` nearest
    among the rows inserted before it, from one blocked, causally masked
    scan, instead of a beam search per row; its list is chosen by the same
    diversity heuristic, and every list that gains in-edges is pruned at
    most once.  ``bulk_load``, the competitor simulators and first-time
    embeddings folded in by a vacuum all take it;
  - an id it holds, live or tombstoned, **rewrites that id's row**: the row
    is unlinked, each in-neighbour gets a substitute edge from the row's
    old out-list (``_unlink``), and the batch's rewritten rows are then
    wired like built ones, at the same row and level, from their exact
    ``ef_construction`` nearest live rows (``_rewrite_held``).  The index
    never holds more rows than distinct ids, so search cost does not grow
    with the number of updates ever applied, and nothing is left for a
    compaction pass,
- soft deletion (deleted nodes keep navigating but never appear in results;
  a later upsert of the id revives its row),
- statistics reporting (distance computations, expansion rounds) per Sec. 4.4,
- one serialized form, ``__getstate__``/``__setstate__``: ``clone()`` (the
  copy an index merge rewrites), pickling and the bench cache all go through
  it.  Durability is the WAL; nothing writes an index file.

Performance notes (this is pure Python + numpy):

- all distance math routes through a metric-specialized
  :class:`~repro.index.kernels.DistanceKernel` bound to the row matrix:
  squared-norm caches make L2 one gather + one matvec (no diff allocation),
  a prenormalized row copy reduces COSINE to IP, and per-search
  :class:`~repro.index.kernels.QueryContext` state computes ``q·q`` / query
  normalization once per search instead of once per hop;
- one layer search (``_search_layer``) serves every query on every layer,
  and it works in *rounds*: up to ``ef // ROUND_SHARE`` nearest
  unexpanded candidates are expanded together — one ``take`` for all their
  adjacency lists, one for the visited test, one row gather and one matvec —
  and "may this row be returned" is one boolean array per search
  (``allowed[ids] & ~deleted``) read with one ``take`` per round, so the
  NumPy dispatch cost is paid per round, not per hop or per neighbour;
- layer-0 adjacency lives in one preallocated ``(capacity, 2M + slack)`` int32
  matrix whose entries at and beyond a row's count are always ``-1``; the
  visited scratch ends in a permanently-visited slot, so that padding drops
  out of the visited test without a per-row count lookup;
- neighbour selection uses the diversity heuristic (Algorithm 4) — it is
  *required* for recall on clustered data (simple distance pruning
  disconnects clusters) — for a block of lists at once (``_select``): in
  each round every list keeps its nearest open candidate and closes the
  candidates that one dominates, so a block costs at most ``bound`` rounds
  of array work instead of a Python step per candidate per list.  The
  candidate-to-candidate distances come from one product over the layer's
  rows, in a mapping of its own, when that fits and costs fewer distances
  than each list's own product (a 400-row segment: 0.16 M against 6 M),
  and from the per-list products otherwise;
- visited marks are ticks of a per-scratch clock, so no per-search clearing,
  and a round's duplicates fall out of the same marks.

Every query traverses alone.  A lockstep multi-query traversal (Q beams
sharing one row gather per round) existed through PR 16 and was deleted: it
returned exactly the solo results and measured 1.07–1.36× slower at every
batch, segment size and ``ef`` tried (DESIGN §10.3).
"""

from __future__ import annotations

import copy
import heapq
import mmap
import threading
import time
from typing import Callable, Sequence

import numpy as np

from ..analysis.hooks import schedule_point
from ..errors import VectorSearchError
from ..telemetry import get_telemetry
from ..types import Metric
from .interface import IndexStats, SearchResult, VectorIndex, admitted
from .kernels import DistanceKernel, QueryContext

__all__ = ["HNSWIndex"]

#: A traversal round (see ``_search_layer``) expands ``ef // ROUND_SHARE``
#: candidates together, at least one.  Earned by a sweep, not a knob (DESIGN
#: §10.5, EXPERIMENTS "PR 22 measurements"): a wider round saves NumPy
#: dispatch but expands candidates a narrower one would have pruned, which
#: quietly turns ``ef`` into a larger ``ef``.  At one eighth of the beam the
#: extra distance evaluations stay near 5 % at ``ef`` 16, 64 and 128 on a
#: 4 000-row index (none on a 400-row segment, which every width visits whole)
#: and a search costs 0.39–0.79× the one-at-a-time loop; a fixed width of 8
#: at ``ef`` 16 would be +40 % evaluations, a fixed 16 at ``ef`` 64 +15 %.
ROUND_SHARE = 8

#: Bytes in one temporary of the build: just under 128 KiB, glibc's default
#: mmap threshold.  A larger block, once freed, raises the threshold and is
#: kept on the heap from then on, where peak RSS counts it (DESIGN §10.6).
TEMP_BYTES = (128 << 10) - 1024
TEMP_FLOATS = TEMP_BYTES // 4
#: The shared distances of one layer (``_shared``) are at most five times the
#: cap (635 KiB): a 400-row segment fits.
SHARED_FLOATS = 5 * TEMP_FLOATS
#: Candidates of one selection block (rows × candidates per row): each of its
#: per-candidate arrays stays at a sixth of the cap.
BLOCK = TEMP_FLOATS // 6


class HNSWIndex(VectorIndex):
    """A single HNSW graph over one embedding segment's vectors."""

    DEFAULT_EF = 64

    def __init__(
        self,
        dim: int,
        metric: Metric = Metric.L2,
        M: int = 16,
        ef_construction: int = 128,
        seed: int = 100,
        prune_heuristic: bool = True,
    ):
        if dim <= 0:
            raise VectorSearchError("dim must be positive")
        if M < 2:
            raise VectorSearchError("M must be at least 2")
        self.dim = dim
        self.metric = metric
        self.M = M
        self.M0 = 2 * M  # layer-0 degree bound, per the original paper
        self.ef_construction = max(ef_construction, M)
        self.prune_heuristic = prune_heuristic
        self._ml = 1.0 / np.log(M)
        self._rng = np.random.default_rng(seed)
        self._capacity = 64
        self._vectors = np.zeros((self._capacity, dim), dtype=np.float32)
        self._ids = np.zeros(self._capacity, dtype=np.int64)
        self._id_to_row: dict[int, int] = {}
        self._count = 0
        self._levels: list[int] = []
        # Layer 0: dense adjacency matrix + per-row degree.  Lists may
        # temporarily exceed M0 by up to PRUNE_SLACK entries; pruning then
        # shrinks them back to M0 in one heuristic call, amortizing the
        # (expensive) diversity selection over several backlink additions.
        self.PRUNE_SLACK = 8
        self._links0_width = self.M0 + self.PRUNE_SLACK
        self._links0 = np.full((self._capacity, self._links0_width), -1, dtype=np.int32)
        self._links0_cnt = np.zeros(self._capacity, dtype=np.int32)
        # Layers 1..max: sparse (few nodes reach them).
        self._links_upper: list[dict[int, list[int]]] = []
        self._deleted = np.zeros(self._capacity, dtype=bool)
        self._entry_point: int | None = None
        self._max_level = -1
        self._stats = IndexStats()
        self._write_lock = threading.RLock()
        # Pooled generation-stamped visited marks: each search checks out an
        # exclusive [array, generation] pair (no per-search allocation once
        # the pool is warm).  A single shared array with a racy generation
        # bump let two colliding concurrent searches skip each other's
        # frontier and return truncated top-k.
        self._scratch_lock = threading.Lock()
        self._visited_pool: list[list] = []
        # Incremental kernel: caches are filled row by row as we insert.
        self._kernel = DistanceKernel(metric, self._vectors, precompute=False)

    # ------------------------------------------------------------ plumbing
    def _grow(self, needed: int) -> None:
        with self._write_lock:  # reentrant: usually already held by update_items
            if needed <= self._capacity:
                return
            new_capacity = max(needed, self._capacity * 2)

            def grown(arr: np.ndarray, fill=0) -> np.ndarray:
                shape = (new_capacity,) + arr.shape[1:]
                out = np.full(shape, fill, dtype=arr.dtype) if fill else np.zeros(shape, arr.dtype)
                out[: self._count] = arr[: self._count]
                return out

            # Kernel rows first, adjacency last: a lock-free reader takes
            # them in the opposite order (_search_layer), so the rows it
            # holds always cover every id its adjacency matrix can name.
            vectors = grown(self._vectors)
            self._kernel.attach(vectors, copy_rows=self._count)
            self._vectors = vectors
            self._ids = grown(self._ids)
            self._deleted = grown(self._deleted)
            self._links0_cnt = grown(self._links0_cnt)
            self._links0 = grown(self._links0, fill=-1)
            self._capacity = new_capacity

    def _checkout_visited(self, rows: int) -> list:
        """Exclusive ``[stamps, clock]`` scratch for one layer search.

        ``stamps[r] >= floor`` (the clock value the search started at) means
        row ``r`` was reached by that search; every reached row gets its own
        clock tick, which is also what de-duplicates a round.  The last slot
        is a permanently-visited sentinel: ``-1`` padding in ``_links0``
        indexes it, so padding drops out of the same ``take`` that drops
        visited rows.  Entries too short for ``rows`` (pooled before a
        ``_grow``) are replaced; a fresh clock starts at 1 so zeros never
        read as visited.
        """
        with self._scratch_lock:
            entry = self._visited_pool.pop() if self._visited_pool else None
        if entry is None or entry[0].shape[0] <= rows:
            stamps = np.zeros(max(rows, self._capacity) + 1, dtype=np.int64)
            stamps[-1] = np.iinfo(np.int64).max
            return [stamps, 1]
        return entry

    def _checkin_visited(self, entry: list) -> None:
        with self._scratch_lock:
            self._visited_pool.append(entry)

    def _blank_link_tails(self) -> None:
        """Restore ``-1`` at and beyond every row's count.

        A pickle written before that became an invariant of ``_links0``
        (an old ``.bench_cache`` entry) keeps pruned ids there.
        """
        count = self._count
        tail = np.arange(self._links0_width) >= self._links0_cnt[:count, None]
        self._links0[:count][tail] = -1

    def _neighbors(self, row: int, level: int) -> np.ndarray:
        if level == 0:
            return self._links0[row, : self._links0_cnt[row]]
        layer = self._links_upper[level - 1]
        return np.asarray(layer.get(row, ()), dtype=np.int32)

    def _set_neighbors(self, row: int, level: int, neighbors: Sequence[int]) -> None:
        with self._write_lock:  # reentrant: always already held by _link_layer
            if level == 0:
                n = len(neighbors)
                self._links0[row, :n] = neighbors
                self._links0[row, n:] = -1  # invariant: -1 at and beyond the count
                self._links0_cnt[row] = n
            else:
                self._links_upper[level - 1][row] = list(neighbors)

    # -------------------------------------------------------------- search
    def _greedy_descend(
        self, ctx: QueryContext, start_row: int, from_level: int, to_level: int
    ) -> int:
        """Single-entry greedy search from ``from_level`` down to ``to_level``
        (exclusive; both above layer 0, which only :meth:`_search_layer` walks).

        Compares *rank* distances (the kernel's order-preserving shifted
        form) — greedy descent only needs ordering, never true values.
        """
        aug_query = ctx.aug_query
        links_upper = self._links_upper
        dot = np.dot
        current = start_row
        current_dist = float(self._kernel._aug[current] @ aug_query)
        num_distances = 1
        for level in range(from_level, to_level, -1):
            layer = links_upper[level - 1]
            improved = True
            while improved:
                improved = False
                neighbors = np.asarray(layer.get(current, ()), dtype=np.int32)
                if neighbors.size == 0:
                    continue
                ctx.num_hops += 1
                num_distances += neighbors.shape[0]
                # Kernel rows are re-read after the list: a concurrent insert
                # grows them before it links the row that needed the room.
                dists = dot(self._kernel._aug.take(neighbors, 0), aug_query)
                best = int(np.argmin(dists))
                if dists[best] < current_dist:
                    current = int(neighbors[best])
                    current_dist = float(dists[best])
                    improved = True
        ctx.num_distances += num_distances
        return current

    def _search_layer(
        self,
        ctx: QueryContext,
        entry_row: int,
        ef: int,
        level: int,
        allowed: np.ndarray | Callable[[int], bool] | None = None,
    ) -> list[tuple[float, int]]:
        """Best-first beam search on one layer, in rounds.

        Returns up to ``ef`` ``(rank_distance, row)`` pairs sorted ascending
        — callers materialize true distances via ``kernel.to_true``.  Rows
        that are tombstoned or fail ``allowed`` (a boolean array over
        external ids, or a callable on one) are traversed but never
        collected — the filtered-search semantics of Sec. 5.1.

        A round pops up to ``width`` nearest unexpanded candidates still
        inside the result bound, gathers all their adjacency lists with one
        ``take``, drops visited ids and padding with a second, de-duplicates,
        and pays one row gather and one matvec for everything that is left.
        Neighbours are admitted through ``dists < worst`` against the bound
        the round started with — correct because ``worst`` only tightens, so
        a neighbour rejected against the round-start bound would also be
        rejected against any later one — and only the admitted ones reach
        the Python heap loop.  A width of 1 is the classic pop-one-expand-one
        order.
        """
        # Taken in this order, without the write lock: rows born after
        # ``count`` is read are walked but never returned (they have no entry
        # in ``ok``, a picture of one moment); the adjacency matrix names no
        # id at or past its own length, and ``_grow`` publishes the kernel
        # rows before it, so ``aug`` covers every id ``links0`` can name.
        count = self._count
        links0 = self._links0
        aug = self._kernel._aug
        ext_ids = self._ids
        ok = np.zeros(links0.shape[0] + 1, dtype=bool)
        np.logical_not(self._deleted[:count], out=ok[:count])
        check = None
        if callable(allowed):
            check = allowed  # evaluated only on rows a round admits
        elif allowed is not None:
            ok[:count] &= admitted(allowed, ext_ids[:count])
        upper = self._links_upper[level - 1] if level else None
        width = max(1, ef // ROUND_SHARE)

        scratch = self._checkout_visited(links0.shape[0])
        visited, clock = scratch
        floor = clock
        visited[entry_row] = clock
        clock += 1
        aug_query = ctx.aug_query
        dot = np.dot
        arange = np.arange
        push = heapq.heappush
        pop = heapq.heappop
        pushpop = heapq.heappushpop
        num_distances = 1
        num_rounds = 0
        entry_dist = float(aug[entry_row] @ aug_query)
        candidates: list[tuple[float, int]] = [(entry_dist, entry_row)]  # min-heap
        results: list[tuple[float, int]] = []  # max-heap via negated distance
        if ok[entry_row] and (check is None or check(int(ext_ids[entry_row]))):
            results.append((-entry_dist, entry_row))
        full = len(results) >= ef
        worst = -results[0][0] if full else np.inf

        while candidates:
            dist, row = pop(candidates)
            if dist > worst:
                break
            parents = [row]
            while candidates and len(parents) < width and candidates[0][0] <= worst:
                parents.append(pop(candidates)[1])
            if upper is None:
                ids = links0.take(parents, 0).ravel()
            else:
                ids = np.asarray(
                    [n for parent in parents for n in upper.get(parent, ())], dtype=np.int32
                )
            # .take/.put beat fancy indexing by ~1µs each at these sizes.
            fresh = ids[visited.take(ids) < floor]
            reached = fresh.shape[0]
            if reached == 0:
                continue
            # One clock tick per reached id; an id listed twice (two parents,
            # or one list caught mid-shift by a concurrent row reuse) keeps
            # only the tick written last, so it survives exactly once.
            ticks = arange(clock, clock + reached)
            clock += reached
            visited.put(fresh, ticks)
            fresh = fresh[visited.take(fresh) == ticks]
            num_rounds += 1
            num_distances += fresh.shape[0]
            dists = dot(aug.take(fresh, 0), aug_query)
            if full:
                admit = dists < worst
                fresh = fresh[admit]
                if fresh.shape[0] == 0:
                    continue
                dists = dists[admit]
            ok_list = ok.take(fresh).tolist()
            if check is not None:
                ok_list = [
                    good and check(ext)
                    for good, ext in zip(ok_list, ext_ids.take(fresh).tolist())
                ]
            for n_dist, n_row, n_ok in zip(dists.tolist(), fresh.tolist(), ok_list):
                if n_dist < worst:
                    push(candidates, (n_dist, n_row))
                    if n_ok:
                        if full:
                            pushpop(results, (-n_dist, n_row))
                            worst = -results[0][0]
                        else:
                            push(results, (-n_dist, n_row))
                            if len(results) >= ef:
                                full = True
                                worst = -results[0][0]
        scratch[1] = clock
        self._checkin_visited(scratch)
        ctx.num_distances += num_distances
        ctx.num_hops += num_rounds
        return sorted((-d, row) for d, row in results)

    def topk_search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        if k <= 0:
            raise VectorSearchError("k must be positive")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise VectorSearchError(f"expected dimension {self.dim}, got {query.shape[0]}")
        self._stats.num_searches += 1
        if self._entry_point is None:
            return SearchResult.empty()
        ef = max(ef or self.DEFAULT_EF, k)
        tel = get_telemetry()
        if tel.enabled:
            search_started = time.perf_counter()
        # The query context carries this search's distance/round counters, so
        # concurrent searches never misattribute each other's work (the old
        # code subtracted before/after values of the shared cumulative
        # IndexStats counters, which raced).
        ctx = self._kernel.query(query)
        entry = self._greedy_descend(ctx, self._entry_point, self._max_level, 0)
        found = self._search_layer(ctx, entry, ef, 0, filter_fn)
        top = found[:k]
        self._stats.num_distance_computations += ctx.num_distances
        self._stats.num_hops += ctx.num_hops
        if tel.enabled:
            tel.inc("hnsw.searches")
            tel.observe("hnsw.search_seconds", time.perf_counter() - search_started)
            tel.observe("hnsw.distance_computations", ctx.num_distances)
            tel.observe("hnsw.hops", ctx.num_hops)
            tel.observe("hnsw.ef_expansions", ef)
        if not top:
            return SearchResult.empty()
        dists, rows = zip(*top)
        return SearchResult(
            self._ids[list(rows)],
            self._kernel.to_true(ctx, np.asarray(dists, dtype=np.float32)),
        )

    def range_search(
        self,
        query: np.ndarray,
        threshold: float,
        ef: int | None = None,
        filter_fn: np.ndarray | Callable[[int], bool] | None = None,
    ) -> SearchResult:
        """Range search via the DiskANN repeated-top-k adaptation (Sec. 4.4)."""
        from .range_search import range_search_via_topk

        return range_search_via_topk(self, query, threshold, ef=ef, filter_fn=filter_fn)

    # -------------------------------------------------------------- insert
    def _shared(self, span: int) -> np.ndarray:
        """The ``(span, span)`` distances among rows ``[0, span)``, in an
        anonymous mapping of their own: unmapped when the layer lets go of
        them, so they neither stay resident nor move malloc's threshold.
        Computed a slab of rows under the cap at a time."""
        self._stats.num_distance_computations += span * span
        out = np.frombuffer(mmap.mmap(-1, span * span * 4), dtype=np.float32).reshape(span, span)
        h = TEMP_FLOATS // span
        for lo in range(0, span, h):
            out[lo : lo + h] = self._kernel.pairwise(slice(lo, min(lo + h, span)), slice(0, span))
        return out

    def _distances(self, rows: np.ndarray, cols: np.ndarray, shared: np.ndarray | None) -> np.ndarray:
        """``(len(rows), n)``: from ``rows[k]`` to each of ``cols[k]``, read
        from the ``shared`` product when there is one, else computed."""
        if shared is None:
            return np.concatenate(list(self._stacked(rows[:, None], cols)))[:, 0]
        return shared.take((rows.astype(np.int64) * shared.shape[1])[:, None] + cols)

    def _stacked(self, rows: np.ndarray, cols: np.ndarray | None = None):
        """Yield ``pairwise(rows[i], cols[i])`` for every ``i`` (square over
        ``rows[i]`` without ``cols``), as ``(s, a, b)`` chunks whose gathered
        vectors stay under the cap."""
        width = rows.shape[1] if cols is None else cols.shape[1]
        step = max(1, TEMP_FLOATS // (width * (self.dim + 1)))
        self._stats.num_distance_computations += rows.size * width
        for lo in range(0, rows.shape[0], step):
            yield self._kernel.pairwise(rows[lo : lo + step], None if cols is None else cols[lo : lo + step])

    def _select(self, dist: np.ndarray, cand: np.ndarray, bound: int, shared: np.ndarray | None = None) -> np.ndarray:
        """Each row's list: ``bound`` of its candidates by the diversity
        heuristic (Algorithm 4 of the HNSW paper), ``(rows, bound)``, ``-1``
        padded.

        ``cand[i]`` are row ids ascending in true distance ``dist[i]``,
        ``inf`` past the last.  A row with at most ``bound`` candidates keeps
        them all; any other keeps, in order, each candidate closer to it
        than to every one kept before, then the nearest of the rest until it
        has ``bound`` (:meth:`_diverse`).  Candidate-to-candidate distances
        are read from the ``shared`` product (:meth:`_shared`) when there is
        one, and otherwise come from each row's own ``n × n`` product
        (:meth:`_own_keeps`), as many rows a pass as its bits fit the cap.
        """
        rows, n = dist.shape
        out = np.full((rows, bound), -1, dtype=np.int32)
        valid = dist < np.inf
        few = min(n, bound)
        np.copyto(out[:, :few], cand[:, :few], where=valid[:, :few])
        over = np.flatnonzero(valid.sum(axis=1) > bound)
        step = max(1, over.size if shared is not None else TEMP_BYTES // (n * ((n + 7) // 8)))
        for lo in range(0, over.size, step):
            pick = over[lo : lo + step]
            d, c = (dist, cand) if pick.size == rows else (dist[pick], cand[pick])
            if shared is not None:

                def keeps(sel: np.ndarray, pos: np.ndarray) -> np.ndarray:
                    out = self._distances(c[sel, pos], c[sel], shared) >= d[sel]
                    out[np.arange(sel.size), pos] = False
                    return out

            else:
                keeps = self._own_keeps(d, c)
            kept = self._diverse(d, bound, keeps)
            out[pick] = c[np.arange(pick.size)[:, None], kept]
            del keeps  # its products go before the next pass's are made
        return out

    def _own_keeps(self, dist: np.ndarray, cand: np.ndarray) -> Callable:
        """``keeps`` for :meth:`_diverse` from each row's own candidate
        product, computed here and kept as bits: candidate ``i`` stays open
        after ``j`` is kept when ``pair[j, i] >= dist[i]`` and ``i != j``."""
        n = cand.shape[1]
        bits = np.empty((cand.shape[0], n, (n + 7) // 8), dtype=np.uint8)
        at = 0
        for pair in self._stacked(cand):
            keep = pair >= dist[at : at + pair.shape[0], None, :]
            keep[:, np.arange(n), np.arange(n)] = False
            bits[at : at + pair.shape[0]] = np.packbits(keep, axis=-1)
            at += pair.shape[0]
        return lambda sel, pos: np.unpackbits(bits[sel, pos], axis=1, count=n).view(bool)

    @staticmethod
    def _diverse(dist: np.ndarray, bound: int, keeps: Callable) -> np.ndarray:
        """Algorithm 4 in rounds over a block of rows, each with more than
        ``bound`` candidates: the ``(rows, bound)`` positions it keeps.

        In a round every row still going keeps its first open candidate
        ``j`` and closes it and each candidate ``i`` that ``j`` dominates
        (``pair[j, i] < dist[i]``): ``keeps(rows, j)`` is what stays open.
        A row with nothing open, or with ``bound`` kept, stops.  That is the
        scalar loop's list, one candidate per round instead of one per
        step.  Rows left short are backfilled with their nearest candidates
        not kept, in order.
        """
        count = dist.shape[0]
        picks = np.full((count, bound), -1, dtype=np.int32)
        live = np.arange(count)
        still = dist < np.inf
        for turn in range(bound):
            first = still.argmax(axis=1)
            has = still.any(axis=1)
            if not has.all():
                live, first, still = live[has], first[has], still[has]
                if live.size == 0:
                    break
            picks[live, turn] = first
            still &= keeps(live, first)
        kept = np.count_nonzero(picks >= 0, axis=1)
        short = np.flatnonzero(kept < bound)
        if short.size:
            # At most ``kept`` of the first ``bound`` are taken, so the
            # backfill comes from them.
            rest = np.ones((short.size, bound), dtype=bool)
            mine = picks[short]
            hit = np.nonzero((mine >= 0) & (mine < bound))
            rest[hit[0], mine[hit]] = False
            rank = np.cumsum(rest, axis=1)
            fill = rest & (rank <= (bound - kept[short])[:, None])
            row, pos = np.nonzero(fill)
            picks[short[row], kept[short[row]] + rank[row, pos] - 1] = pos
        return picks

    def _prune(self, nodes, lists, bound: int, shared: np.ndarray | None) -> list[list[int]]:
        """``bound`` of each ``lists[i]`` for ``nodes[i]``'s list: the
        diversity heuristic (:meth:`_select`) over its nearest
        ``ef_construction`` links in (distance, row) order (the nearest
        ``bound`` without the heuristic).  A list one past the row width is
        never cut before the heuristic."""
        links = np.full((len(lists), max(map(len, lists))), -1, dtype=np.int32)
        for row, linked in zip(links, lists):
            row[: len(linked)] = linked
        dist = self._distances(np.asarray(nodes, dtype=np.int64), links, shared)
        dist[links < 0] = np.inf
        cut = max(self.ef_construction, self._links0_width + 1)
        pick = np.lexsort((links, dist), axis=1)[:, :cut]  # as sorted pairs
        links = np.take_along_axis(links, pick, 1)
        dist = np.take_along_axis(dist, pick, 1)
        del pick
        if self.prune_heuristic:
            links = self._select(dist, links, bound, shared)
        return links[:, :bound].tolist()

    def _substitutes(self, holders: np.ndarray, lists: np.ndarray, out: np.ndarray) -> np.ndarray:
        """For each holder, the member of ``out`` nearest to it that it does
        not link yet (``-1`` when there is none).

        ``lists`` is the ``(len(holders), w)`` matrix of the holders' current
        neighbour lists, ``-1`` padded.  One pairwise-distance call covers
        every holder × candidate pair.
        """
        if holders.size == 0 or out.size == 0:
            return np.full(holders.size, -1, dtype=np.int64)
        self._stats.num_distance_computations += int(holders.size * out.size)
        dist = self._kernel.pairwise(holders, out)
        taken = (lists[:, :, None] == out).any(axis=1) | (holders[:, None] == out)
        dist[taken] = np.inf
        best = dist.argmin(axis=1)
        return np.where(np.isfinite(dist[np.arange(holders.size), best]), out[best], -1)

    def _unlink(self, row: int) -> None:
        """Take ``row`` out of the graph so its slot can be inserted afresh.

        Every in-neighbour swaps its edge to ``row`` for a substitute drawn
        from ``row``'s old out-list (FreshDiskANN's delete repair, without
        its prune: lists keep their length, so nothing can overflow); with
        no substitute left the edge is dropped.  ``row``'s own lists are
        cleared and, if it was the entry point, another node of the highest
        remaining level that is still linked on layer 0 takes over (rows a
        batch unlinked before this one are islands until it wires them).
        """
        with self._write_lock:
            links0, cnt0 = self._links0, self._links0_cnt
            out0 = links0[row, : cnt0[row]].astype(np.int64)
            if self._entry_point == row:
                # Hand over before unlinking, in one assignment each, so a
                # lock-free reader never starts from nothing or from an
                # island.  (None, -1) only when ``row`` is the only row.
                heir, top = None, -1
                for level in range(len(self._links_upper), 0, -1):
                    layer = self._links_upper[level - 1]
                    heir = next((n for n in layer if n != row and cnt0[n]), None)
                    if heir is not None:
                        top = level
                        break
                else:
                    if self._count > 1:
                        heir, top = (int(out0[0]) if out0.size else int(row == 0)), 0
                self._entry_point = heir
                self._max_level = top
            holders = np.flatnonzero((links0[: self._count] == row).any(axis=1))
            lists = links0[holders]
            pos = (lists == row).argmax(axis=1)
            subs = self._substitutes(holders, lists, out0)
            links0[holders, pos] = subs
            # No substitute: close the gap with the list's last link.
            bare = subs < 0
            loose, gap = holders[bare], pos[bare]
            last = cnt0[loose] - 1
            links0[loose, gap] = links0[loose, last]
            links0[loose, last] = -1
            cnt0[loose] = last
            links0[row] = -1
            cnt0[row] = 0
            for level in range(1, self._levels[row] + 1):
                layer = self._links_upper[level - 1]
                out = np.asarray(layer[row], dtype=np.int64)
                holders = np.asarray(
                    [node for node, nbrs in layer.items() if row in nbrs], dtype=np.int64
                )
                lists = np.full((holders.size, self.M + 1), -1, dtype=np.int64)
                for i, node in enumerate(holders.tolist()):
                    lists[i, : len(layer[node])] = layer[node]
                for node, sub in zip(holders.tolist(), self._substitutes(holders, lists, out).tolist()):
                    nbrs = layer[node]
                    if sub < 0:
                        nbrs.remove(row)
                    else:
                        nbrs[nbrs.index(row)] = sub
                layer[row] = []

    # --------------------------------------------------------------- build
    def _build_fresh(self, ids: list[int], vectors: np.ndarray) -> list[int]:
        """Build a row for every id of ``ids`` the index has never seen, all
        at once; return the positions of the records whose id it holds.

        A fresh id listed twice gets one row, holding its last vector.  Levels
        are drawn from ``_rng`` in record order, one draw per row, as the
        row-by-row insert drew them.  Then, layer by layer, each new row's
        list is chosen by :meth:`_select` from its *exact*
        ``ef_construction`` nearest among the layer's rows numbered below it
        (:meth:`_causal_candidates` — the answer a per-row beam search would
        approximate), and every list that gains in-edges is settled once
        (:meth:`_link_layer`).

        Lock-free readers: the rows' vectors, kernel rows and ids are written
        before any list names them, and ``_count`` and the entry point are
        published last (``hnsw.publish``), so a search racing the build may
        walk a new row but returns none of them until the whole batch is in.
        Layers are wired bottom-up, so a new row reached through an upper
        list already has its layer-0 list.
        """
        schedule_point("hnsw.insert")
        with self._write_lock:
            held: list[int] = []
            last: dict[int, int] = {}  # fresh id -> its last record
            for position, ext_id in enumerate(ids):
                if ext_id in self._id_to_row:
                    held.append(position)
                else:
                    last[ext_id] = position
            if not last:
                return held
            base = self._count
            total = base + len(last)
            self._grow(total)
            picks = list(last.values())
            for lo in range(base, total, 128):  # no temporary above 128 rows
                part = slice(lo, min(lo + 128, total))
                np.take(vectors, picks[lo - base : part.stop - base], 0, self._vectors[part])
                self._kernel.set_rows(part, self._vectors[part])
            self._ids[base:total] = list(last)
            self._id_to_row.update(zip(last, range(base, total)))
            levels = [
                int(-np.log(max(draw, 1e-12)) * self._ml)
                for draw in self._rng.random(len(last)).tolist()
            ]
            self._levels.extend(levels)
            top = max(levels)
            while len(self._links_upper) < top:
                self._links_upper.append({})
            for row, level in enumerate(levels, base):
                for layer in self._links_upper[:level]:
                    layer[row] = []
            all_levels = np.asarray(self._levels)
            rows = np.arange(base, total)
            for level in range(top + 1):
                self._link_layer(rows[all_levels[base:] >= level], level, all_levels)
            schedule_point("hnsw.publish")
            self._count = total
            self._stats.num_vectors = total
            self._stats.num_inserts += len(ids) - len(held)
            self._stats.num_updates += len(ids) - len(held) - len(last)
            if top > self._max_level:
                self._max_level = top
                self._entry_point = base + levels.index(top)
            return held

    def _link_layer(self, rows: np.ndarray, level: int, levels: np.ndarray) -> None:
        """Wire ``rows`` (ascending; all fresh, or all rewritten) into one layer.

        Each row's own list comes first, chosen a block at a time
        (:meth:`_select`) from its candidates (:meth:`_causal_candidates`).
        Then its back-edges are grouped by target: a target keeps its list
        plus every new in-edge when they fit the row width
        (``_links0_width`` on layer 0, ``M`` above), and is otherwise pruned
        **once**, over the union, instead of once per overflowing edge —
        except for the latest in-edges the row-by-row build would have
        appended after its last prune, which stay as they are.  The layer's
        prunes are chosen together (:meth:`_prune`).  A list therefore ends
        as long as it would have row by row (layer-0 mean degree 35.5 at
        ``M`` 16, not the 33.2 of pruning everything to ``M0``, which cost
        0.02 recall@10 at ``ef`` 16 on 16 000 SIFT-like rows).
        """
        with self._write_lock:
            bound = self.M0 if level == 0 else self.M
            width = self._links0_width if level == 0 else self.M
            span = levels.shape[0]
            # Each row's own list is written as soon as it is chosen (no
            # list names the row yet), and its back-edges wait as one
            # integer per edge, ``target * span + row`` (int32 when that
            # fits): as Python lists they cost 1.5 kB a row, 150 MB more
            # peak RSS in a 100 000-row build.
            edges = np.empty(rows.size * bound, dtype=np.int32 if span * span < 2**31 else np.int64)
            fan_in = np.zeros(span, dtype=np.int64)
            filled = 0
            # Candidate-to-candidate distances: one product over the rows
            # the layer may name, when it fits its cap and costs fewer
            # distances than each new row's own product.
            own = min(self.ef_construction, int(np.count_nonzero(levels >= level)) - 1)
            shared = None
            if span * span <= SHARED_FLOATS and span * span < rows.size * own * own:
                shared = self._shared(span)
            for block, dist, cand in self._causal_candidates(rows, level, levels):
                chosen = self._select(dist, cand, bound, shared)
                linked = chosen >= 0
                counts = np.count_nonzero(linked, axis=1)
                for row, links, k in zip(block.tolist(), chosen.tolist(), counts.tolist()):
                    self._set_neighbors(row, level, links[:k])
                targets = chosen[linked]
                edges[filled : filled + targets.size] = targets.astype(edges.dtype) * span + np.repeat(block, counts)
                fan_in += np.bincount(targets, minlength=span)
                filled += targets.size
                del dist, cand, chosen  # before the scan makes the next block
            edges = edges[:filled]
            edges.sort()  # by target, then by row: each group in arrival order
            targets = np.flatnonzero(fan_in)
            stops = np.cumsum(fan_in[targets]).tolist()

            def settle(batch: list[tuple[int, np.ndarray, list[int]]]) -> None:
                nodes, heads, tails = zip(*batch)
                for node, head, tail in zip(nodes, self._prune(nodes, heads, bound, shared), tails):
                    self._set_neighbors(node, level, head + tail)

            # The layer's prunes are chosen together, about half a block of
            # links at a time.
            batch: list[tuple[int, np.ndarray, list[int]]] = []
            widest = 0
            for node, lo, hi in zip(targets.tolist(), [0, *stops], stops):
                links = self._neighbors(node, level).tolist()
                links += (edges[lo:hi] - node * span).tolist()
                # Two rewritten rows may have chosen each other: one edge.
                links = list(dict.fromkeys(links))
                if len(links) <= width:
                    self._set_neighbors(node, level, links)
                    continue
                # Row by row, a list was pruned at every overflow and
                # appended to raw in between, so it ended with the links
                # that arrived after its last overflow as they came.
                # Keep that many of the latest raw; prune the rest once.
                keep = len(links) - (len(links) - width - 1) % (width - bound + 1)
                batch.append((node, np.array(links[:keep], dtype=np.int32), links[keep:]))
                widest = max(widest, keep)
                if len(batch) * widest >= BLOCK // 2:
                    settle(batch)
                    batch, widest = [], 0
            if batch:
                settle(batch)

    def _causal_candidates(self, rows: np.ndarray, level: int, levels: np.ndarray):
        """Yield ``(block, dist, cand)`` for consecutive blocks of ``rows``
        (ascending): ``cand[i]`` are row ``block[i]``'s ``ef_construction``
        nearest live rows of ``level`` that it may link, ``dist[i]`` their
        true distances, ascending, ``inf`` past the last.  A row being built
        (at or past ``_count``) may link the rows numbered below it; a
        rewritten row (below ``_count``) every other row, the batch's other
        rewrites at their new vectors included.

        One blocked scan: a step of rows against the prefix of rows the step
        may link, itself, the causal part and tombstones set to ``inf``,
        then one ``argpartition``.  A step holds at least 16 rows and, on a
        small segment, at most 8 192 distances, so no temporary outgrows the
        cap of DESIGN §10.6 (a larger one is freed to, and kept by, the
        allocator: peak RSS); a yielded block is whole steps whose ``int64``
        candidates stay under it too.
        """
        ef = self.ef_construction
        count = self._count
        dead = self._deleted[: levels.shape[0]]
        keys = None if level == 0 else np.flatnonzero((levels >= level) & ~dead)
        step = max(16, 8192 // max(int(rows[-1]), count, 1))
        size = max(1, BLOCK // ef // step) * step
        for start in range(0, rows.size, size):
            block = rows[start : start + size]
            out_dist = np.full((block.size, ef), np.inf, dtype=np.float32)
            out_cand = np.zeros((block.size, ef), dtype=np.int32)
            for lo in range(0, block.size, step):
                part = block[lo : lo + step]
                stop = max(int(part[-1]), count)
                if keys is None:
                    cols = np.arange(stop)
                    dist = self._kernel.pairwise(part, slice(0, stop))
                    dist[:, dead[:stop]] = np.inf
                else:
                    cols = keys[: np.searchsorted(keys, stop)]
                    dist = self._kernel.pairwise(part, cols)
                self._stats.num_distance_computations += dist.size
                tail = int(np.searchsorted(cols, part[0]))  # columns before it pass every row
                late = cols[tail:]
                limit = np.maximum(part, count)[:, None]
                dist[:, tail:][(late >= limit) | (late == part[:, None])] = np.inf
                if cols.size > ef:
                    pick = np.argpartition(dist, ef - 1, axis=1)[:, :ef]
                    dist = np.take_along_axis(dist, pick, 1)
                else:
                    pick = np.broadcast_to(np.arange(cols.size), dist.shape)
                order = np.argsort(dist, axis=1)
                dist = np.take_along_axis(dist, order, 1)
                pick = np.take_along_axis(pick, order, 1)  # frees the full-width partition
                out_dist[lo : lo + part.size, : dist.shape[1]] = dist
                out_cand[lo : lo + part.size, : dist.shape[1]] = cols[pick]
            del dist, pick, order  # not held while the block is chosen from
            yield block, out_dist, out_cand

    def _rewrite_held(self, ids: list[int], vectors: np.ndarray, held: list[int]) -> None:
        """Rewrite, as one batch, the rows of the records at positions
        ``held`` of ``ids``, whose ids the index holds.

        An id listed twice keeps its last vector.  Each row is unlinked
        (:meth:`_unlink`), in row order; then every row gets its new vector
        and loses its tombstone, and layer by layer up to its own level the
        batch is wired by :meth:`_link_layer`, as a build wires fresh rows,
        from each row's exact ``ef_construction`` nearest live rows.  A row
        keeps its slot and level, so the row count and the level draws are
        those of the first write.  If the hand-overs left the top below a
        rewritten row's level, the first such row becomes the entry point.
        """
        with self._write_lock:
            last = {self._id_to_row[ids[position]]: position for position in held}
            rows = np.asarray(sorted(last), dtype=np.int64)
            for row in rows.tolist():
                self._unlink(row)
            self._vectors[rows] = vectors[[last[row] for row in rows.tolist()]]
            self._kernel.set_rows(rows, self._vectors[rows])
            self._deleted[rows] = False
            levels = np.asarray(self._levels)
            mine = levels[rows]
            top = int(mine.max())
            for level in range(top + 1):
                self._link_layer(rows[mine >= level], level, levels)
            if top > self._max_level:
                self._max_level = top
                self._entry_point = int(rows[int(np.argmax(mine))])
            self._stats.num_updates += len(held)
            self._stats.num_inserts += len(held)
            get_telemetry().inc("hnsw.row_reuses", len(held))

    def update_items(self, ids: Sequence[int], vectors: np.ndarray) -> None:
        """Insert-or-replace a batch (UpdateItems, Sec. 4.4).

        Which path a record takes depends only on whether the index already
        holds its id:

        - ids it has never seen are **built**, all in one pass
          (:meth:`_build_fresh`): every fresh build — ``bulk_load``,
          first-time embeddings folded in by a vacuum — goes this way;
        - ids it holds, live or tombstoned, **rewrite their rows**, all in
          one batch after the fresh rows are in (:meth:`_rewrite_held`):
          each row is unlinked and repaired around, then wired by the same
          candidate scan and once-per-target prune as a built row.

        The whole batch is one hold of the write lock, from the build to the
        last rewrite, so ``save`` and other writers see it whole, and the
        graph it leaves is a function of the index and the batch alone.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors.reshape(1, -1)
        if vectors.shape[1] != self.dim:
            raise VectorSearchError(f"expected dimension {self.dim}, got {vectors.shape[1]}")
        if len(ids) != vectors.shape[0]:
            raise VectorSearchError("ids and vectors length mismatch")
        start = time.perf_counter()
        ids = [int(ext_id) for ext_id in ids]
        with self._write_lock:
            held = self._build_fresh(ids, vectors)
            if held:
                self._rewrite_held(ids, vectors, held)
        self._stats.build_seconds += time.perf_counter() - start

    def delete_items(self, ids: Sequence[int]) -> None:
        """Soft-delete: rows stay navigable but never surface in results."""
        with self._write_lock:
            for ext_id in ids:
                row = self._id_to_row.get(int(ext_id))
                if row is not None and not self._deleted[row]:
                    self._deleted[row] = True
                    self._stats.num_deleted += 1

    # --------------------------------------------------------------- reads
    def get_embedding(self, external_id: int) -> np.ndarray:
        row = self._id_to_row.get(int(external_id))
        if row is None or self._deleted[row]:
            raise VectorSearchError(f"id {external_id} not in index")
        return self._vectors[row].copy()

    def __contains__(self, external_id: int) -> bool:
        row = self._id_to_row.get(int(external_id))
        return row is not None and not self._deleted[row]

    def __len__(self) -> int:
        return self._count - int(np.count_nonzero(self._deleted[: self._count]))

    @property
    def stats(self) -> IndexStats:
        self._stats.num_vectors = self._count
        return self._stats

    # ----------------------------------------------------- serialized form
    def __getstate__(self) -> dict:
        # Deep-copy every mutable structure *under the write lock*: pickle
        # serializes the returned state only after this method exits, so
        # handing out live array references would let a concurrent
        # update_items tear the snapshot mid-dump.
        with self._write_lock:
            state = self.__dict__.copy()
            del state["_write_lock"]  # locks are not picklable; recreate on load
            del state["_scratch_lock"]
            del state["_kernel"]  # rebound to the copied matrix in __setstate__
            for name in ("_vectors", "_ids", "_deleted", "_links0", "_links0_cnt"):
                state[name] = state[name].copy()
            state["_levels"] = list(self._levels)
            state["_links_upper"] = [
                {node: list(nbrs) for node, nbrs in layer.items()}
                for layer in self._links_upper
            ]
            state["_id_to_row"] = dict(self._id_to_row)
            state["_stats"] = IndexStats(**self._stats.snapshot())
            state["_rng"] = copy.deepcopy(self._rng)
            # Searches stamp visited marks without the write lock; ship an
            # empty scratch pool instead of potentially checked-out entries.
            state["_visited_pool"] = []
        return state

    def clone(self) -> "HNSWIndex":
        """An independent copy made from one state copy under the write lock
        (:meth:`__getstate__`), with no pickle bytes in between."""
        twin = type(self).__new__(type(self))
        twin.__setstate__(self.__getstate__())
        return twin

    def __setstate__(self, state: dict) -> None:
        # Drop legacy shared-scratch fields from pre-pool pickles.
        state.pop("_visited", None)
        state.pop("_visit_generation", None)
        self.__dict__.update(state)
        self._write_lock = threading.RLock()
        self._scratch_lock = threading.Lock()
        self._visited_pool = []
        self._blank_link_tails()
        kernel = DistanceKernel(self.metric, self._vectors, precompute=False)
        if self._count:
            kernel.set_rows(slice(0, self._count), self._vectors[: self._count])
        self._kernel = kernel
