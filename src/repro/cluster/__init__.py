"""Simulated MPP cluster (substitute for the paper's GCP deployment).

The paper runs TigerVector on 1–8 ``n2d-standard-32`` machines and drives it
with wrk2.  Offline we substitute a discrete-event cluster simulator: real
per-segment search times are measured on the local HNSW indexes
(:func:`measure_samples`), then a coordinator/worker model (Figure 5 of the
paper: send queue -> workers -> response pool -> global merge) replays
those service times across simulated machines with a network cost model.
Node- and data-scalability *shapes* (Figures 9–10) emerge from the
compute/communication ratio, which is the same mechanism at play on real
hardware.
"""

from .coordinator import ClusterSimulator, QueryTrace
from .costs import HardwareCost, NEPTUNE_1024_MNCU, TIGERVECTOR_N2D
from .loadgen import ClosedLoopLoadGenerator, LoadResult
from .machine import Machine, make_cluster, segment_holders
from .network import NetworkModel
from .samples import measure_samples

__all__ = [
    "ClosedLoopLoadGenerator",
    "ClusterSimulator",
    "HardwareCost",
    "LoadResult",
    "Machine",
    "NEPTUNE_1024_MNCU",
    "NetworkModel",
    "QueryTrace",
    "TIGERVECTOR_N2D",
    "make_cluster",
    "measure_samples",
    "segment_holders",
]
