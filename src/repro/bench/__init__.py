"""Benchmark harness: recall computation, dataset caching, table rendering.

Every table and figure from the paper's evaluation section has a bench in
``benchmarks/`` that uses this package to generate workloads, run the
systems, and print rows in the paper's format.  Scale is controlled by the
``REPRO_BENCH_SCALE`` environment variable (default "small" keeps a full
bench run in CI-sized time; "paper" raises dataset sizes toward the paper's
shape-stability point).
"""

from .harness import BenchScale, bench_scale, cached_system, dataset_for
from .recall import recall_at_k
from .tables import format_table

__all__ = [
    "BenchScale",
    "bench_scale",
    "cached_system",
    "dataset_for",
    "format_table",
    "recall_at_k",
]
