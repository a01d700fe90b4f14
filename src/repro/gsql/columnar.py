"""Column programs: one alias's pushdown conjuncts as NumPy column kernels.

The pre-filter of a hybrid query (paper Sec. 5.2) hands the vector index one
bitmap per segment, so the predicate is worth evaluating a segment at a time.
:func:`compile_pushdown` turns the conjuncts of one alias into a
:class:`ColumnProgram` when all of them fit the grammar ::

    pred := alias.attr <cmp> const | const <cmp> alias.attr
          | pred AND pred | pred OR pred | NOT pred
    cmp  := == != < <= > >=
    const := literal | parameter | -const | const (+ - *) const

and returns ``None`` otherwise (accumulators, function calls, ``/`` ``%``,
``IN``, arithmetic on the attribute side, ...).  A compiled program can still
decline one segment at run time — :meth:`ColumnProgram.mask` returns ``None``
when a column has no exact typed array or its type does not pair with the
constant's — and the caller (:class:`repro.graph.pattern.NodeMasks`) then
evaluates the alias row by row.  The rule for declining is always the same:
NumPy's elementwise answer must equal Python's per-row answer bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..graph.segment import SegmentState
from . import ast_nodes as ast

__all__ = ["COMPARE_OPS", "ColumnProgram", "compile_pushdown"]

#: The comparison operators, shared by the row-wise evaluator
#: (``executor._eval_binary``) and the column kernels: ``operator.lt`` answers
#: for two Python values and for an array against a scalar alike.
COMPARE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_INT64 = (-(2**63), 2**63 - 1)
_FLOAT_EXACT = (-(2**53), 2**53)  # ints a float64 holds exactly
#: dtype kind -> constant types it compares with exactly.  No float against
#: an int column: int64 -> float64 rounds above 2**53, Python compares exactly.
_CONST_TYPES: dict[str, tuple[type, ...]] = {
    "b": (bool, int),
    "i": (bool, int),
    "f": (bool, int, float),
    "U": (str,),
}


@dataclass(frozen=True)
class _Compare:
    op: str
    attr: str
    const: Any
    const_first: bool  # the source wrote ``const <op> alias.attr``

    def fits(self, array: np.ndarray) -> bool:
        kind = array.dtype.kind
        if type(self.const) not in _CONST_TYPES[kind]:
            return False
        if type(self.const) is not int:
            return True
        low, high = _FLOAT_EXACT if kind == "f" else _INT64
        return low <= self.const <= high

    def run(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        compare = COMPARE_OPS[self.op]
        array = arrays[self.attr]
        return compare(self.const, array) if self.const_first else compare(array, self.const)


@dataclass(frozen=True)
class _Logical:
    op: str  # AND | OR | NOT
    args: tuple

    def run(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        first = self.args[0].run(arrays)
        if self.op == "NOT":
            return ~first
        second = self.args[1].run(arrays)
        return first & second if self.op == "AND" else first | second


class ColumnProgram:
    """The compiled conjuncts of one alias."""

    def __init__(self, root: _Compare | _Logical, compares: list[_Compare]):
        self._root = root
        self._compares = compares

    def mask(self, state: SegmentState) -> np.ndarray | None:
        """Predicate over the state's first ``size`` rows, or ``None`` to decline."""
        if state.size == 0:
            return np.zeros(0, dtype=bool)  # nothing to type-check, nothing qualifies
        arrays: dict[str, np.ndarray] = {}
        for compare in self._compares:
            array = arrays.get(compare.attr)
            if array is None:
                array = state.column_array(compare.attr)
                if array is None:
                    return None
                arrays[compare.attr] = array
            if not compare.fits(array):
                return None
        return self._root.run(arrays)


def _is_const(expr: ast.Expr, alias: str) -> bool:
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.VarRef):
        return expr.name != alias
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "-" and _is_const(expr.operand, alias)
    if isinstance(expr, ast.BinaryOp):
        return (
            expr.op in ("+", "-", "*")
            and _is_const(expr.left, alias)
            and _is_const(expr.right, alias)
        )
    return False


def _is_column(expr: ast.Expr, alias: str) -> bool:
    return isinstance(expr, ast.AttrRef) and expr.alias == alias


def _build(
    expr: ast.Expr,
    alias: str,
    eval_const: Callable[[ast.Expr], Any],
    compares: list[_Compare],
) -> _Compare | _Logical | None:
    """One predicate node, its comparisons appended to ``compares``; None off-grammar."""
    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        operand = _build(expr.operand, alias, eval_const, compares)
        return None if operand is None else _Logical("NOT", (operand,))
    if not isinstance(expr, ast.BinaryOp):
        return None
    if expr.op in ("AND", "OR"):
        left = _build(expr.left, alias, eval_const, compares)
        right = _build(expr.right, alias, eval_const, compares)
        if left is None or right is None:
            return None
        return _Logical(expr.op, (left, right))
    if expr.op not in COMPARE_OPS:
        return None
    if _is_column(expr.left, alias) and _is_const(expr.right, alias):
        column, const_expr, const_first = expr.left, expr.right, False
    elif _is_const(expr.left, alias) and _is_column(expr.right, alias):
        column, const_expr, const_first = expr.right, expr.left, True
    else:
        return None
    try:
        const = eval_const(const_expr)
    except Exception:
        # Whatever this is, per row it fails too, but only for a row that is
        # visited: let the row-wise path say whether and how.
        return None
    if type(const) not in (bool, int, float, str) or (type(const) is str and "\0" in const):
        return None
    compare = _Compare(expr.op, column.attr, const, const_first)
    compares.append(compare)
    return compare


def compile_pushdown(
    alias: str, conjuncts: list[ast.Expr], eval_const: Callable[[ast.Expr], Any]
) -> ColumnProgram | None:
    """Compile ``conjuncts`` (all referencing only ``alias``), or ``None``.

    ``eval_const`` evaluates an alias-free expression once, with the query's
    parameters in scope.
    """
    # Module-level helpers, not nested closures: a self-recursive closure is
    # a reference cycle, and this one would keep the query's context and
    # snapshot alive until the next garbage collection.
    compares: list[_Compare] = []
    root: _Compare | _Logical | None = None
    for conjunct in conjuncts:
        node = _build(conjunct, alias, eval_const, compares)
        if node is None:
            return None
        root = node if root is None else _Logical("AND", (root, node))
    return None if root is None else ColumnProgram(root, compares)
