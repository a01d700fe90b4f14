"""The two-stage vector vacuum (paper Sec. 4.3, Figure 4).

Flushing deltas to a file is fast (the paper measures ~1s for 1M vectors)
but folding them into an HNSW index is ~30x slower, so TigerVector splits
the vacuum into two independent processes:

- **delta merge** — cut the in-memory delta store into an immutable delta
  file covering TIDs up to a chosen point;
- **index merge** — fold accumulated delta files into a *new* index snapshot
  per segment (one ``update_items`` pass per segment, in record order),
  switch segments to the new snapshot, and retire the old one until no
  live transaction can see it.

The paper runs the index merge on a pool of index-update threads sized from
CPU utilization.  Here a segment's merge is one pass under its index's one
write lock, so extra threads could only take turns on that lock; the
merged graph is a function of the delta records alone (DESIGN §1).

:class:`VacuumManager` exposes both one-shot (``run_once``) and background
(``start``/``stop``) operation; tests use one-shot for determinism.

Stores can be assigned to tenants (:meth:`VacuumManager.assign_tenant`)
and each tenant given a per-round record quota
(:meth:`VacuumManager.set_tenant_quota`): once a tenant's stores have
consumed their quota of flushed+merged records in a vacuum round, its
remaining stores are deferred to the next round.  A write-flooding tenant
then cannot monopolize merge bandwidth against everyone else's stores —
the vacuum-side half of the serve tier's noisy-neighbor isolation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..graph.storage import GraphStore
from ..telemetry import get_telemetry
from .service import EmbeddingService, EmbeddingStore

__all__ = ["VacuumManager", "VacuumStats"]


@dataclass
class VacuumStats:
    delta_merges: int = 0
    index_merges: int = 0
    records_flushed: int = 0
    records_merged: int = 0
    snapshots_installed: int = 0
    snapshots_gced: int = 0
    #: Store visits skipped because the owning tenant's per-round record
    #: quota was already consumed (the store is retried next round).
    quota_deferrals: int = 0
    delta_merge_seconds: float = 0.0
    index_merge_seconds: float = 0.0


class VacuumManager:
    """Drives the delta-merge and index-merge processes for every store."""

    def __init__(self, graph_store: GraphStore, service: EmbeddingService):
        self.graph_store = graph_store
        self.service = service
        self.stats = VacuumStats()
        #: Optional :class:`repro.tier.TierManager`.  Tier rebalancing runs
        #: at the end of each vacuum round — the natural MVCC boundary: the
        #: merges just installed fresh hot snapshots, so demotions/
        #: promotions publish same-tid twins that pinned readers bypass via
        #: the retired list (DESIGN §12).
        self.tier_manager = None
        #: tenant -> max flushed+merged records per vacuum round.
        self.tenant_quotas: dict[str, int] = {}
        #: (vertex_type, attribute name) -> owning tenant; unassigned
        #: stores belong to the unlimited "default" tenant.
        self._store_tenants: dict[tuple[str, str], str] = {}
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._merge_lock = threading.Lock()
        # Guards the background-thread handoff only; never held while
        # joining (stop() swaps the list out first, then joins unlocked).
        self._lifecycle_lock = threading.Lock()

    # --------------------------------------------------------- tenant quotas
    def assign_tenant(self, vertex_type: str, attribute: str, tenant: str) -> None:
        """Declare that one embedding store belongs to ``tenant``.

        Takes the merge lock so a reassignment never interleaves with a
        round that is mid-way through attributing consumed quota.
        """
        if not tenant:
            raise ValueError("tenant name must be non-empty")
        with self._merge_lock:
            self._store_tenants[(vertex_type, attribute)] = tenant

    def set_tenant_quota(self, tenant: str, records_per_round: int | None) -> None:
        """Cap a tenant's vacuum work per round; None removes the cap."""
        if records_per_round is not None and records_per_round < 1:
            raise ValueError("records_per_round must be at least 1")
        with self._merge_lock:
            if records_per_round is None:
                self.tenant_quotas.pop(tenant, None)
            else:
                self.tenant_quotas[tenant] = int(records_per_round)

    def _store_tenant(self, store: EmbeddingStore) -> str:
        return self._store_tenants.get(
            (store.vertex_type, store.embedding.name), "default"
        )

    def _quota_exhausted(self, tenant: str, consumed: dict[str, int]) -> bool:
        """True when the tenant's per-round quota is spent (defers the store)."""
        quota = self.tenant_quotas.get(tenant)
        if quota is None or consumed.get(tenant, 0) < quota:
            return False
        self.stats.quota_deferrals += 1
        get_telemetry().inc("vacuum.quota_deferrals")
        return True

    # ------------------------------------------------------------ one-shot
    def delta_merge(self, store: EmbeddingStore, up_to_tid: int | None = None) -> int:
        """Flush the in-memory delta store into a new delta file.

        Returns the number of records flushed.
        """
        target = self.graph_store.last_tid if up_to_tid is None else up_to_tid
        tel = get_telemetry()
        start = time.perf_counter()
        # The merge lock serializes this against index_merge, which reads
        # AND reassigns store.delta_files — an unlocked append between its
        # copy and reassignment would silently drop this delta file when the
        # two background vacuum loops interleave.  Telemetry is recorded
        # after release so its leaf locks never nest under the merge lock.
        with self._merge_lock:
            # Two-phase cut: publish the file before retiring the in-memory
            # prefix, so a concurrent overlay read never lands in a window
            # where the records are in neither place (repro.analysis.explore,
            # vacuum-vs-search scenario).
            dfile = store.delta_store.prepare_cut(target)
            if dfile is None:
                flushed = 0
            else:
                store.delta_files.append(dfile)
                store.delta_store.commit_cut(dfile)
                self.stats.delta_merges += 1
                self.stats.records_flushed += len(dfile)
                self.stats.delta_merge_seconds += time.perf_counter() - start
                flushed = len(dfile)
        if flushed and tel.enabled:
            tel.observe("vacuum.delta_merge_seconds", time.perf_counter() - start)
            tel.observe("vacuum.delta_size", flushed)
        return flushed

    def index_merge(self, store: EmbeddingStore) -> int:
        """Fold all flushed delta files into new per-segment index snapshots.

        Returns the number of records merged.  Old snapshots and consumed
        delta files are released only once no running transaction can still
        read them.
        """
        tel = get_telemetry()
        merge_started = time.perf_counter()
        with self._merge_lock:
            files = list(store.delta_files)
            if not files:
                # Nothing to merge, but previously retired files/snapshots
                # may have become unreachable since the last merge.
                self._gc_store(store)
                return 0
            start = time.perf_counter()
            new_tid = max(f.to_tid for f in files)
            merged = 0
            seg_records: dict[int, list] = {}
            for dfile in files:
                for record in dfile.records:
                    seg_records.setdefault(record.vid // store.segment_size, []).append(record)
            for seg_no, records in sorted(seg_records.items()):
                segment = store.segment(seg_no)
                snapshot = segment.build_next_snapshot(records, new_tid, store.segment_size)
                segment.install_snapshot(snapshot)
                self.stats.snapshots_installed += 1
                merged += len(records)
            # Consume the delta files: they move to the retired list so
            # readers older than this merge can still overlay them; both
            # they and old index snapshots are reclaimed only once no live
            # snapshot predates the merge (paper Sec. 4.3).  Retire *before*
            # removing so a concurrent overlay read (retired list is read
            # first) never finds a file in neither list; brief
            # double-visibility is benign under last-write-wins overlays.
            store.retired_delta_files.extend((new_tid, f) for f in files)
            store.delta_files = [f for f in store.delta_files if f not in files]
            self._gc_store(store)
            self.stats.index_merges += 1
            self.stats.records_merged += merged
            self.stats.index_merge_seconds += time.perf_counter() - start
        if tel.enabled:
            tel.observe(
                "vacuum.index_merge_seconds", time.perf_counter() - merge_started
            )
            tel.inc("vacuum.records_merged", merged)
        return merged

    def _gc_store(self, store: EmbeddingStore) -> None:
        """Reclaim retired delta files and index snapshots no reader needs."""
        min_tid = self.graph_store.min_active_snapshot_tid()
        store.retired_delta_files = [
            (release_tid, dfile)
            for release_tid, dfile in store.retired_delta_files
            if min_tid < release_tid
        ]
        reclaimed = 0
        for segment in store.segments():
            reclaimed += segment.gc_snapshots(min_tid)
        self.stats.snapshots_gced += reclaimed
        if reclaimed:
            get_telemetry().inc("vacuum.versions_reclaimed", reclaimed)

    def run_once(self) -> dict:
        """One full vacuum round across every embedding store (+ graph vacuum).

        Stores whose tenant has already consumed its per-round quota are
        deferred (counted in ``quota_deferred``) and picked up next round.
        """
        flushed = merged = deferred = 0
        consumed: dict[str, int] = {}
        for store in self.service.stores():
            tenant = self._store_tenant(store)
            if self._quota_exhausted(tenant, consumed):
                deferred += 1
                continue
            store_flushed = self.delta_merge(store)
            store_merged = self.index_merge(store)
            consumed[tenant] = consumed.get(tenant, 0) + store_flushed + store_merged
            flushed += store_flushed
            merged += store_merged
        graph_rebuilt = self.graph_store.vacuum()
        tier = self.tier_manager
        rebalanced = tier.rebalance() if tier is not None else {}
        return {
            "flushed": flushed,
            "merged": merged,
            "quota_deferred": deferred,
            "graph_segments_rebuilt": graph_rebuilt,
            "tier": rebalanced,
        }

    # ----------------------------------------------------------- background
    def start(self, delta_interval: float = 0.05, index_interval: float = 0.2) -> None:
        """Run the two vacuum processes as background threads."""

        def delta_loop() -> None:
            while not self._stop.wait(delta_interval):
                consumed: dict[str, int] = {}
                for store in self.service.stores():
                    tenant = self._store_tenant(store)
                    if self._quota_exhausted(tenant, consumed):
                        continue
                    consumed[tenant] = consumed.get(tenant, 0) + self.delta_merge(store)

        def index_loop() -> None:
            while not self._stop.wait(index_interval):
                consumed: dict[str, int] = {}
                for store in self.service.stores():
                    tenant = self._store_tenant(store)
                    if self._quota_exhausted(tenant, consumed):
                        continue
                    consumed[tenant] = consumed.get(tenant, 0) + self.index_merge(store)
                self.graph_store.vacuum()
                tier = self.tier_manager
                if tier is not None:
                    tier.rebalance()

        with self._lifecycle_lock:
            if self._threads:
                return
            self._stop.clear()
            self._threads = [
                threading.Thread(target=delta_loop, name="vacuum-delta-merge", daemon=True),
                threading.Thread(target=index_loop, name="vacuum-index-merge", daemon=True),
            ]
            threads = list(self._threads)
        for thread in threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        with self._lifecycle_lock:
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=5)
