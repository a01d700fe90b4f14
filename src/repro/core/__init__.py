"""TigerVector core: the paper's primary contribution.

Submodules are imported lazily (PEP 562) because :mod:`repro.graph.schema`
imports :mod:`repro.core.embedding` while other core modules import the graph
package; eager imports here would create a cycle.
"""

from __future__ import annotations

import importlib
from typing import Any

_SUBMODULES = {
    "embedding",
    "segment",
    "service",
    "delta",
    "vacuum",
    "action",
    "search",
    "database",
    "auth",
}

_EXPORTS = {
    # name -> (submodule, attribute)
    "EmbeddingType": ("embedding", "EmbeddingType"),
    "EmbeddingSpace": ("embedding", "EmbeddingSpace"),
    "check_compatible": ("embedding", "check_compatible"),
    "EmbeddingSegment": ("segment", "EmbeddingSegment"),
    "EmbeddingService": ("service", "EmbeddingService"),
    "DeltaStore": ("delta", "DeltaStore"),
    "DeltaRecord": ("delta", "DeltaRecord"),
    "VacuumManager": ("vacuum", "VacuumManager"),
    "SearchSpec": ("search", "SearchSpec"),
    "vector_search": ("search", "vector_search"),
    "TigerVectorDB": ("database", "TigerVectorDB"),
    "AccessController": ("auth", "AccessController"),
    "Role": ("auth", "Role"),
}

__all__ = sorted(_EXPORTS) + sorted(_SUBMODULES)


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module_name, attr = _EXPORTS[name]
        module = importlib.import_module(f".{module_name}", __name__)
        return getattr(module, attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
