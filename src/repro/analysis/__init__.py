"""Concurrency-invariant analysis for the TigerVector reproduction.

Two halves (see DESIGN.md for the rule catalog and paper mapping):

- a pluggable AST lint framework — ``python -m repro.analysis lint src/`` or
  the ``repro-lint`` console script — with project-specific rules R001–R007
  guarding the paper's MVCC/vacuum/HNSW invariants;
- a runtime lock-order :mod:`~repro.analysis.sanitizer` that instruments
  ``threading`` locks at test time (``REPRO_SANITIZE=1``) and reports
  lock-order inversions and held-across-commit violations.
"""

from importlib import import_module

#: Public name -> submodule.  Resolved on first use: the storage engine
#: imports :mod:`~repro.analysis.hooks` from its hot modules, and that must
#: not load the linter (rule catalog, CLI) into every database process.
_EXPORTS = {
    "Finding": "findings",
    "LintResult": "cli",
    "LockOrderGraph": "lockgraph",
    "REGISTRY": "rules",
    "Rule": "rules",
    "SuppressionIndex": "findings",
    "lint_paths": "cli",
    "lint_source": "rules",
    "main": "cli",
    "make_rules": "rules",
    "register": "rules",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
