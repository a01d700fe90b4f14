"""The memory-budgeted tier manager (DESIGN §12).

``TierManager`` watches per-segment access heat (EWMA over counters fed by
the serve layer through ``EmbeddingStore.access_hook``) and, at each
vacuum boundary, re-partitions segments into hot and cold so the resident
raw bytes stay under a budget:

- **demote** — train a seeded PQ codebook on the segment's present rows,
  encode everything, optionally spill the raw matrix to an ``.npy`` file
  and re-open it memmapped, then :meth:`install_snapshot` a *cold twin* at
  the same TID.  The hot snapshot moves to the retired list, so any reader
  pinned before the transition keeps full-precision results until snapshot
  GC proves it unreachable — the MVCC-safety half of the design.
- **promote** — materialize the raw rows, rebuild the segment's index from
  present rows, and install a hot twin the same way.

Transitions are built entirely off to the side and published with a single
``install_snapshot`` (two-phase publish, same pattern as the delta cut):
a ``schedule_point("tier.publish")`` marks the publish edge for the
schedule explorer, and the ``TierDemoteVsSearch`` scenario proves that a
demotion racing a pinned-snapshot search stays clean — and that the
shortcut of mutating the live snapshot in place is findable as a bug.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..analysis.hooks import schedule_point
from ..core.segment import EmbeddingSegment, SegmentSnapshot
from ..core.service import EmbeddingService, EmbeddingStore
from ..errors import ReproError
from ..index.pq import PQCodebook, PQCodes, PQSearchConfig
from ..telemetry import get_telemetry

__all__ = ["TierManager", "TierStats", "demote_segment", "promote_segment"]


@dataclass
class TierStats:
    accesses: int = 0
    demotions: int = 0
    promotions: int = 0
    rebalances: int = 0
    #: Transitions abandoned because a concurrent merge installed a newer
    #: snapshot mid-build; retried at the next rebalance.
    transitions_lost: int = 0
    hot_segments: int = 0
    cold_segments: int = 0
    resident_bytes: int = 0
    spilled_bytes: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


def _build_cold_snapshot(
    store: EmbeddingStore,
    snap: SegmentSnapshot,
    config: PQSearchConfig,
    spill_path: Path | None,
) -> SegmentSnapshot | None:
    """The cold twin of ``snap``: same tid, PQ codes, no index.

    Returns None when the segment has no present rows (nothing to train
    on — an empty segment costs nothing resident anyway).
    """
    tel = get_telemetry()
    vectors = np.asarray(snap.vectors)
    present = snap.present.copy()
    rows = vectors[present]
    if rows.shape[0] == 0:
        return None
    if rows.shape[0] > config.train_sample:
        picker = np.random.default_rng(config.seed)
        rows = rows[picker.choice(rows.shape[0], config.train_sample, replace=False)]
    started = time.perf_counter()
    codebook = PQCodebook.train(
        rows,
        min(config.m, store.embedding.dimension),
        metric=store.embedding.metric,
        iterations=config.train_iterations,
        seed=config.seed,
    )
    tel.inc("pq.trainings")
    tel.observe("pq.train_seconds", time.perf_counter() - started)
    # Encode the whole capacity so codes stay offset-aligned with the raw
    # matrix; absent rows encode garbage that the present mask hides.
    pq = PQCodes.from_vectors(codebook, vectors, store.embedding.metric)
    raw: np.ndarray = vectors
    if spill_path is not None:
        np.save(spill_path, vectors)  # path already carries the .npy suffix
        raw = np.load(spill_path, mmap_mode="r")
    return SegmentSnapshot(
        tid=snap.tid,
        index=None,
        vectors=raw,
        present=present,
        tier="cold",
        pq=pq,
    )


def demote_segment(
    store: EmbeddingStore,
    segment: EmbeddingSegment,
    config: PQSearchConfig | None = None,
    spill_dir: Path | None = None,
) -> bool:
    """Demote one segment hot → cold via a same-tid snapshot install.

    Returns True if a cold snapshot was published.  Safe against
    concurrent merges: if a newer snapshot lands first, the stale-tid
    install raises and the demotion is simply abandoned.
    """
    config = config or store.pq_config or PQSearchConfig()
    snap = segment.current_snapshot()
    if snap.tier != "hot":
        return False
    spill_path = None
    if spill_dir is not None:
        spill_dir = Path(spill_dir)
        spill_dir.mkdir(parents=True, exist_ok=True)
        spill_path = spill_dir / (
            f"{store.vertex_type}.{store.embedding.name}."
            f"seg{segment.seg_no}.tid{snap.tid}.npy"
        )
    cold = _build_cold_snapshot(store, snap, config, spill_path)
    if cold is None:
        return False
    schedule_point("tier.publish")
    try:
        segment.install_snapshot(cold)
    except ReproError:
        # A merge moved the segment forward while we built the twin; the
        # build is discarded and the next rebalance re-decides.
        if spill_path is not None and spill_path.exists():
            spill_path.unlink()
        return False
    get_telemetry().inc("tier.demotions")
    return True


def promote_segment(store: EmbeddingStore, segment: EmbeddingSegment) -> bool:
    """Promote one segment cold → hot via a same-tid snapshot install."""
    snap = segment.current_snapshot()
    if snap.tier != "cold":
        return False
    hot = segment.hot_copy(snap)
    schedule_point("tier.publish")
    try:
        segment.install_snapshot(hot)
    except ReproError:
        return False
    get_telemetry().inc("tier.promotions")
    return True


class TierManager:
    """Classifies segments hot/cold under a byte budget, driven by heat.

    Hooks into every store of an :class:`EmbeddingService`: each search
    bumps a per-segment access counter (``access_hook``), and
    :meth:`rebalance` — called by the vacuum at round end — folds the
    counters into per-segment EWMAs, ranks segments by heat, keeps the
    hottest resident until the raw-byte budget is spent, and demotes the
    rest.  Accounting covers raw rows (the dominant, deterministic term):
    a hot segment costs its ``vectors.nbytes``; a cold one costs its PQ
    codes plus, when not spilled to disk, the raw matrix it still holds.
    """

    def __init__(
        self,
        service: EmbeddingService,
        budget_bytes: int,
        spill_dir: str | Path | None = None,
        pq: PQSearchConfig | None = None,
        ewma_alpha: float = 0.3,
    ):
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.service = service
        self.budget_bytes = int(budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.pq = pq or PQSearchConfig()
        self.ewma_alpha = ewma_alpha
        self.stats = TierStats()
        self._lock = threading.Lock()
        #: (store key, seg_no) -> accesses since the last rebalance.
        self._recent: dict[tuple[tuple[str, str], int], int] = {}
        #: (store key, seg_no) -> smoothed heat.
        self._heat: dict[tuple[tuple[str, str], int], float] = {}
        self._attached: set[int] = set()
        for store in service.stores():
            self.attach(store)

    # ------------------------------------------------------------- wiring
    def attach(self, store: EmbeddingStore) -> None:
        """Install the access hook + two-phase search policy on a store."""
        with self._lock:
            if id(store) in self._attached:
                return
            self._attached.add(id(store))
        key = (store.vertex_type, store.embedding.name)

        def hook(seg_no: int, _key=key) -> None:
            self.record_access(_key, seg_no)

        store.access_hook = hook
        store.pq_config = self.pq

    def record_access(self, key: tuple[str, str], seg_no: int) -> None:
        with self._lock:
            self._recent[(key, seg_no)] = self._recent.get((key, seg_no), 0) + 1
            self.stats.accesses += 1
        get_telemetry().inc("tier.accesses")

    # ----------------------------------------------------------- rebalance
    def _fold_heat(self, keys: list[tuple[tuple[str, str], int]]) -> dict:
        """EWMA update: alpha·recent + (1-alpha)·old, counters reset."""
        with self._lock:
            recent, self._recent = self._recent, {}
        alpha = self.ewma_alpha
        for key in keys:
            old = self._heat.get(key, 0.0)
            self._heat[key] = alpha * recent.get(key, 0) + (1.0 - alpha) * old
        # Drop heat entries for segments that no longer exist.
        self._heat = {k: v for k, v in self._heat.items() if k in set(keys)}
        return dict(self._heat)

    def rebalance(self) -> dict:
        """One classification pass; returns a summary dict.

        Called at the vacuum boundary (see ``VacuumManager``), but safe to
        call directly — transitions that lose a race against a concurrent
        merge are abandoned and retried next round.
        """
        tel = get_telemetry()
        started = time.perf_counter()
        entries: list[tuple[tuple[tuple[str, str], int], EmbeddingStore, EmbeddingSegment]] = []
        for store in self.service.stores():
            self.attach(store)
            key = (store.vertex_type, store.embedding.name)
            for segment in store.segments():
                entries.append(((key, segment.seg_no), store, segment))
        heat = self._fold_heat([e[0] for e in entries])

        # Hottest first; ties (e.g. an all-cold start) break toward lower
        # segment numbers for determinism.
        entries.sort(key=lambda e: (-heat.get(e[0], 0.0), e[0]))
        spent = 0
        demoted = promoted = 0
        hot = cold = 0
        resident = 0
        spilled = 0
        for _, store, segment in entries:
            snap = segment.current_snapshot()
            raw_bytes = int(snap.present.size) * int(store.embedding.dimension) * 4
            if spent + raw_bytes <= self.budget_bytes:
                spent += raw_bytes
                if snap.tier == "cold" and promote_segment(store, segment):
                    promoted += 1
                    self.stats.promotions += 1
            else:
                if snap.tier == "hot" and demote_segment(
                    store, segment, self.pq, self.spill_dir
                ):
                    demoted += 1
                    self.stats.demotions += 1
                elif snap.tier == "hot":
                    # Empty or race-lost: stays hot this round.
                    pass
            final = segment.current_snapshot()
            if final.tier == "hot":
                hot += 1
                resident += int(final.vectors.nbytes)
            else:
                cold += 1
                resident += final.pq.memory_bytes
                if isinstance(final.vectors, np.memmap):
                    spilled += int(final.vectors.nbytes)
                else:
                    resident += int(final.vectors.nbytes)

        self.stats.rebalances += 1
        self.stats.hot_segments = hot
        self.stats.cold_segments = cold
        self.stats.resident_bytes = resident
        self.stats.spilled_bytes = spilled
        tel.inc("tier.rebalances")
        tel.observe("tier.rebalance_seconds", time.perf_counter() - started)
        tel.set_gauge("tier.hot_segments", hot)
        tel.set_gauge("tier.cold_segments", cold)
        tel.set_gauge("tier.resident_bytes", resident)
        return {
            "hot": hot,
            "cold": cold,
            "demoted": demoted,
            "promoted": promoted,
            "resident_bytes": resident,
            "spilled_bytes": spilled,
        }

    # --------------------------------------------------------------- stats
    def residency(self) -> dict[str, list[dict]]:
        """Per-segment residency table for the CLI / shell surfaces."""
        out: dict[str, list[dict]] = {}
        for store in self.service.stores():
            key = (store.vertex_type, store.embedding.name)
            rows = []
            for segment in store.segments():
                snap = segment.current_snapshot()
                rows.append(
                    {
                        "seg_no": segment.seg_no,
                        "tier": snap.tier,
                        "heat": round(self._heat.get((key, segment.seg_no), 0.0), 3),
                        "spilled": isinstance(snap.vectors, np.memmap),
                    }
                )
            out[f"{key[0]}.{key[1]}"] = rows
        return out

    def stats_snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap["budget_bytes"] = self.budget_bytes
        return snap
