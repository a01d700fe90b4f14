"""perfbench: the repo's benchmark (see README.md and ../BENCHMARK.json).

Five closed-loop workloads over the real code paths, round-median end-to-end
metrics, and outside-in per-layer probes.  It claims no gain; it is the ruler
later changes are measured with.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds every run is checked against."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
