"""Concurrent cache-correctness test for the serving layer.

Run under the runtime sanitizer to also check lock discipline::

    REPRO_SANITIZE=1 PYTHONPATH=src python -m pytest tests/test_serve_cache_concurrent.py

Protocol: reader threads hammer a caching, batching :class:`QueryServer`
with a fixed probe-query set while a writer commits embedding deltas (new
vertices whose vectors sit exactly on probe queries, plus updates to
existing ones) and a vacuum thread runs delta_merge/index_merge rounds
concurrently.  After every round the system quiesces and each probe query
is answered once more through the server (cache ON, so a stale entry keyed
at the current watermark *would* be served) and compared against a direct
cold ``vector_search`` — any mismatch means the MVCC-watermark keys let a
stale top-k survive a commit or a merge.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.graph.accumulators import MapAccum
from repro.serve import QueryServer, ServeConfig
from repro.telemetry import Telemetry, use_telemetry


ROUNDS = 4
READERS = 3
SEARCHES_PER_READER = 12
PROBES = 6
DIM = 16


def assert_same_topk(served, served_map, direct, direct_map, label):
    """Members must match exactly; distances to 1e-5.

    The tolerance exists because a cached entry may have been produced by
    the fused brute-force kernel, whose BLAS reduction order differs from
    the per-query HNSW distance path in the last ulp (same math, same
    ranking, different rounding).
    """
    got, want = sorted(served), sorted(direct)
    assert got == want, f"stale top-k members for {label}: {got} != {want}"
    got_d, want_d = dict(served_map.items()), dict(direct_map.items())
    for member in got:
        assert abs(got_d[member] - want_d[member]) < 1e-4, (
            f"stale distance for {label} member {member}: "
            f"{got_d[member]} != {want_d[member]}"
        )


def test_midcommit_watermark_race_never_poisons_cache(loaded_post_db, rng):
    """Deterministic reproduction of the hook-before-publish interleaving.

    ``GraphStore._commit`` fires embedding hooks (which bump
    ``delta_store.max_tid``, a watermark component) *before* publishing
    ``_last_tid``.  A hook that stalls mid-commit freezes exactly that
    window: a search served now reads a post-commit watermark but pins a
    pre-commit snapshot.  The server must serve it *uncached* — otherwise,
    once the commit publishes, every identical query computes the same
    watermark, hits the poisoned entry, and misses the new exact-match
    vertex until an unrelated commit moves the key.
    """
    db = loaded_post_db
    config = ServeConfig(workers=2, enable_batching=False, enable_cache=True)
    q = rng.standard_normal(DIM).astype(np.float32)
    entered = threading.Event()
    release = threading.Event()

    def stalling_hook(tid, ops):
        # Registered after the embedding service's hook, so by the time
        # this runs the delta records for `tid` are appended (watermark
        # bumped) while store._last_tid still reads tid-1.
        entered.set()
        release.wait(timeout=30)

    db.store.register_embedding_hook(stalling_hook)
    telemetry = Telemetry()
    with use_telemetry(telemetry), db, QueryServer(db, config) as server:

        def commit():
            with db.begin() as txn:
                txn.upsert_vertex("Post", 900, {"language": "en", "length": 1})
                txn.set_embedding("Post", 900, "content_emb", q)

        committer = threading.Thread(target=commit)
        committer.start()
        assert entered.wait(timeout=10), "commit never reached the hook"
        # Served while the commit is wedged mid-publication: watermark
        # includes the commit, the pinned snapshot does not.
        during = server.search(["Post.content_emb"], q, 3)
        release.set()
        committer.join(timeout=30)
        assert not committer.is_alive()

        served_map, direct_map = MapAccum(), MapAccum()
        after = server.search(["Post.content_emb"], q, 3, distance_map=served_map)
        direct = db.vector_search(["Post.content_emb"], q, 3, distance_map=direct_map)
        vid_900 = db.store.vid_for_pk("Post", 900)
        assert ("Post", vid_900) not in during  # pre-commit view was correct
        assert ("Post", vid_900) in after, "stale cached top-k served post-commit"
        assert_same_topk(after, served_map, direct, direct_map, "post-commit probe")

    counters = telemetry.registry.snapshot()["counters"]
    assert counters.get("serve.cache_bypass_commit_race", 0) >= 1


@pytest.mark.slow
def test_concurrent_cached_searches_never_serve_stale_topk(loaded_post_db, rng):
    db = loaded_post_db
    config = ServeConfig(
        workers=3,
        enable_batching=True,
        enable_cache=True,
        batch_window_seconds=0.001,
    )
    probes = rng.standard_normal((PROBES, DIM)).astype(np.float32)
    errors: list[BaseException] = []
    next_pk = 500

    def reader(server: QueryServer, stop: threading.Event) -> None:
        local = np.random.default_rng(threading.get_ident() % 2**16)
        count = 0
        while count < SEARCHES_PER_READER and not stop.is_set():
            q = probes[int(local.integers(PROBES))]
            try:
                server.search(["Post.content_emb"], q, 5)
            except ReproError as exc:  # typed failures are visible, not fatal
                errors.append(exc)
            count += 1

    with db, QueryServer(db, config) as server:
        for round_no in range(ROUNDS):
            stop = threading.Event()
            threads = [
                threading.Thread(target=reader, args=(server, stop))
                for _ in range(READERS)
            ]

            def writer() -> None:
                nonlocal next_pk
                with db.begin() as txn:
                    for probe_no in range(PROBES):
                        # A vertex sitting exactly on the probe becomes the
                        # definitive nearest neighbor — a stale cached top-k
                        # from before this commit cannot contain it.
                        txn.upsert_vertex(
                            "Post", next_pk, {"language": "en", "length": next_pk}
                        )
                        txn.set_embedding(
                            "Post", next_pk, "content_emb", probes[probe_no]
                        )
                        next_pk += 1
                    victim = int(rng.integers(200))
                    txn.set_embedding(
                        "Post", victim, "content_emb", rng.standard_normal(DIM)
                    )

            def vacuum() -> None:
                try:
                    db.vacuum()
                except ReproError as exc:
                    errors.append(exc)

            writer_thread = threading.Thread(target=writer)
            vacuum_thread = threading.Thread(target=vacuum)
            for t in [*threads, writer_thread, vacuum_thread]:
                t.start()
            writer_thread.join(timeout=60)
            vacuum_thread.join(timeout=60)
            for t in threads:
                t.join(timeout=60)
            stop.set()
            assert not writer_thread.is_alive() and not vacuum_thread.is_alive()
            assert not any(t.is_alive() for t in threads), "reader hung"

            # Quiescent check: the (possibly cached) served answer must match
            # a direct cold search on the same data.
            for probe_no, q in enumerate(probes):
                served_map, direct_map = MapAccum(), MapAccum()
                served = server.search(
                    ["Post.content_emb"], q, 5, distance_map=served_map
                )
                direct = db.vector_search(
                    ["Post.content_emb"], q, 5, distance_map=direct_map
                )
                assert_same_topk(
                    served, served_map, direct, direct_map,
                    f"probe {probe_no} round {round_no}",
                )

        stats = server.cache.stats()

    fatal = [e for e in errors if not isinstance(e, ReproError)]
    assert not fatal
    # The workload must actually exercise the cache: hits happen within a
    # round; commits/vacuum between rounds force misses.
    assert stats["misses"] > 0
