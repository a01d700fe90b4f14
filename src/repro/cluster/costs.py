"""Hardware cost model (paper Sec. 6.2).

The paper's cost comparison: TigerVector runs on a GCP ``n2d-standard-32``
at $1.37/hour, while Amazon Neptune uses 1024 m-NCUs at $30.72/hour —
22.42x more expensive for less throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HardwareCost", "NEPTUNE_1024_MNCU", "TIGERVECTOR_N2D"]


@dataclass(frozen=True)
class HardwareCost:
    name: str
    dollars_per_hour: float
    description: str = ""

    def cost_ratio(self, other: "HardwareCost") -> float:
        """How many times more expensive this hardware is than ``other``."""
        return self.dollars_per_hour / other.dollars_per_hour


TIGERVECTOR_N2D = HardwareCost(
    "GCP n2d-standard-32", 1.37, "AMD EPYC 7B13, 32 vCPUs, 128GB (paper Sec. 6.1)"
)

NEPTUNE_1024_MNCU = HardwareCost(
    "Neptune 1024 m-NCU", 30.72, "largest Neptune Analytics instance (paper Sec. 6.2)"
)
