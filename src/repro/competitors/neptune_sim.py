"""Amazon Neptune behavioral simulator.

Encodes the paper's characterization of Neptune Analytics (Sec. 2.3, 6.2):
one vector index for the entire graph that is not distributed, no parameter
tuning (a single high-recall operating point - the paper measures 99.9%),
explicitly non-atomic vector index updates, and 22.42x more expensive
hardware (1024 m-NCUs at $30.72/hr vs the n2d's $1.37/hr).
"""

from __future__ import annotations

from .base import PROFILES, VectorSystemSim

__all__ = ["NeptuneSim"]


class NeptuneSim(VectorSystemSim):
    """Single non-distributed index at one fixed high-recall point."""

    def __init__(self, M: int = 16, ef_construction: int = 128):
        super().__init__(PROFILES["Neptune"], M=M, ef_construction=ef_construction)
