"""GSQL parser: recursive descent for statements, precedence climbing for expressions.

Parses the GSQL subset shown in the paper into the AST of
:mod:`repro.gsql.ast_nodes`.  Entry point: :func:`parse`, which returns a
list of top-level nodes (DDL statements, bare SELECT blocks, ``CREATE
QUERY`` procedures, loading jobs).
"""

from __future__ import annotations

from typing import Any

from ..errors import GSQLLexError, GSQLParseError
from . import ast_nodes as ast
from .lexer import Token, tokenize

__all__ = ["parse", "parse_expression"]

#: Accumulator type names recognized in declarations.
ACCUM_KINDS = {
    "SumAccum", "MinAccum", "MaxAccum", "AvgAccum", "OrAccum", "AndAccum",
    "BitwiseOrAccum", "BitwiseAndAccum", "ListAccum", "SetAccum", "MapAccum",
    "HeapAccum", "Map",
}

#: Binary precedence levels, loosest first; ``NOT`` is a prefix at ``_NOT``.
_SET, _OR, _AND, _NOT, _CMP, _ADD, _MUL = range(1, 8)

#: Binary operators by the value of an OP or KEYWORD token: (level, the
#: node's operator, node class).  ``=`` reads as ``==`` and ``<>`` as ``!=``.
_BINARY = {
    "UNION": (_SET, "UNION", ast.SetOpExpr),
    "INTERSECT": (_SET, "INTERSECT", ast.SetOpExpr),
    "MINUS": (_SET, "MINUS", ast.SetOpExpr),
    "OR": (_OR, "OR", ast.BinaryOp),
    "AND": (_AND, "AND", ast.BinaryOp),
    "==": (_CMP, "==", ast.BinaryOp),
    "=": (_CMP, "==", ast.BinaryOp),
    "!=": (_CMP, "!=", ast.BinaryOp),
    "<>": (_CMP, "!=", ast.BinaryOp),
    "<=": (_CMP, "<=", ast.BinaryOp),
    ">=": (_CMP, ">=", ast.BinaryOp),
    "<": (_CMP, "<", ast.BinaryOp),
    ">": (_CMP, ">", ast.BinaryOp),
    "IN": (_CMP, "IN", ast.BinaryOp),
    "+": (_ADD, "+", ast.BinaryOp),
    "-": (_ADD, "-", ast.BinaryOp),
    "*": (_MUL, "*", ast.BinaryOp),
    "/": (_MUL, "/", ast.BinaryOp),
    "%": (_MUL, "%", ast.BinaryOp),
}


#: How deep an expression may nest (parentheses, brackets, call arguments,
#: a ``NOT`` or ``-`` prefix each add a level).  The parser and the
#: evaluator recurse once or a few times per level, so this keeps a deep
#: expression a typed parse error, well inside Python's recursion limit.
MAX_NESTING = 128


def _int(tok: Token) -> int:
    try:
        return int(tok.value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise GSQLLexError("integer literal too long", tok.line, tok.column) from None


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.current = tokens[0]
        self.depth = 0  # expression nesting, bounded by MAX_NESTING

    # ------------------------------------------------------------- plumbing
    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.pos += 1
            self.current = self.tokens[self.pos]
        return token

    def nest(self) -> None:
        """Enter one more expression level; the caller leaves it (``depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} levels")

    def error(self, message: str) -> GSQLParseError:
        tok = self.current
        shown = tok.value or "<eof>"
        return GSQLParseError(f"{message} (found {shown!r})", tok.line, tok.column)

    def expect_kw(self, word: str) -> Token:
        if not self.current.is_kw(word):
            raise self.error(f"expected {word}")
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            raise self.error(f"expected '{op}'")
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.kind == "IDENT":
            return self.advance().value
        # Unreserved-ish keywords usable as names (e.g. a vertex called Graph)
        raise self.error("expected an identifier")

    def accept_op(self, op: str) -> bool:
        if self.current.is_op(op):
            self.advance()
            return True
        return False

    def accept_kw(self, word: str) -> bool:
        if self.current.is_kw(word):
            self.advance()
            return True
        return False

    # ------------------------------------------------------------ top level
    def parse_program(self) -> list:
        nodes = []
        while self.current.kind != "EOF":
            nodes.append(self.parse_top_level())
            while self.accept_op(";"):
                pass
        return nodes

    def parse_top_level(self):
        tok = self.current
        if tok.is_kw("CREATE"):
            nxt = self.peek()
            if nxt.is_kw("VERTEX"):
                return self.parse_create_vertex()
            if nxt.is_kw("DIRECTED") or nxt.is_kw("UNDIRECTED") or nxt.is_kw("EDGE"):
                return self.parse_create_edge()
            if nxt.is_kw("EMBEDDING"):
                return self.parse_create_embedding_space()
            if nxt.is_kw("QUERY"):
                return self.parse_create_query()
            if nxt.is_kw("LOADING") or (nxt.kind == "IDENT" and nxt.value.lower() == "loading"):
                return self.parse_create_loading_job()
            raise self.error("unsupported CREATE statement")
        if tok.is_kw("ALTER"):
            return self.parse_alter_vertex()
        if tok.is_kw("RUN"):
            return self.parse_run_loading_job()
        if tok.is_kw("SELECT"):
            return self.parse_select_block()
        if tok.is_kw("INSERT"):
            return self.parse_insert()
        if tok.is_kw("DELETE"):
            return self.parse_delete()
        raise self.error("expected a DDL statement, SELECT block, or CREATE QUERY")

    # ------------------------------------------------------------------ DML
    def parse_insert(self):
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        is_edge = self.accept_kw("EDGE")
        if not is_edge:
            self.accept_kw("VERTEX")
        name = self.expect_ident()
        self.expect_kw("VALUES")
        self.expect_op("(")
        values: list[ast.Expr] = []
        while not self.current.is_op(")"):
            values.append(self.parse_expr())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        if is_edge:
            return ast.InsertEdge(name, values)
        return ast.InsertVertex(name, values)

    def parse_delete(self):
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        name = self.expect_ident()
        alias = "v"
        if self.accept_kw("AS") or (
            self.current.kind == "IDENT" and not self.current.is_kw("WHERE")
        ):
            if self.current.kind == "IDENT":
                alias = self.advance().value
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        return ast.DeleteVertex(name, alias, where)

    # ------------------------------------------------------------------ DDL
    def _type_word(self) -> str:
        """A type name may be an identifier or a keyword (VERTEX, EDGE, ...)."""
        tok = self.current
        if tok.kind in ("IDENT", "KEYWORD"):
            self.advance()
            return tok.value
        raise self.error("expected a type name")

    def _parse_type_name(self) -> str:
        """Attribute/parameter type, e.g. ``INT`` or ``List<FLOAT>``."""
        base = self._type_word()
        if self.accept_op("<"):
            args = [self._parse_type_name()]
            while self.accept_op(","):
                args.append(self._parse_type_name())
            self.expect_op(">")
            return f"{base}<{','.join(args)}>"
        return base

    def parse_create_vertex(self) -> ast.CreateVertex:
        self.expect_kw("CREATE")
        self.expect_kw("VERTEX")
        name = self.expect_ident()
        self.expect_op("(")
        attrs: list[ast.AttrDef] = []
        while not self.current.is_op(")"):
            attr_name = self.expect_ident()
            type_name = self._parse_type_name()
            primary = False
            if self.accept_kw("PRIMARY"):
                self.expect_kw("KEY")
                primary = True
            attrs.append(ast.AttrDef(attr_name, type_name, primary))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.CreateVertex(name, attrs)

    def parse_create_edge(self) -> ast.CreateEdge:
        self.expect_kw("CREATE")
        directed = True
        if self.accept_kw("UNDIRECTED"):
            directed = False
        else:
            self.accept_kw("DIRECTED")
        self.expect_kw("EDGE")
        name = self.expect_ident()
        self.expect_op("(")
        self.expect_kw("FROM")
        from_type = self.expect_ident()
        self.expect_op(",")
        self.expect_kw("TO")
        to_type = self.expect_ident()
        attrs: list[ast.AttrDef] = []
        while self.accept_op(","):
            attr_name = self.expect_ident()
            type_name = self._parse_type_name()
            attrs.append(ast.AttrDef(attr_name, type_name))
        self.expect_op(")")
        return ast.CreateEdge(name, from_type, to_type, directed, attrs)

    def _parse_option_block(self) -> dict[str, Any]:
        """``(DIMENSION = 1024, MODEL = GPT4, ...)`` for embedding DDL."""
        self.expect_op("(")
        options: dict[str, Any] = {}
        while not self.current.is_op(")"):
            key = self.expect_ident().upper()
            self.expect_op("=")
            tok = self.advance()
            if tok.kind == "INT":
                options[key] = _int(tok)
            elif tok.kind == "FLOAT":
                options[key] = float(tok.value)
            elif tok.kind in ("IDENT", "STRING", "KEYWORD"):
                options[key] = tok.value
            else:
                raise self.error(f"invalid option value for {key}")
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return options

    def parse_alter_vertex(self) -> ast.AddEmbeddingAttr:
        self.expect_kw("ALTER")
        self.expect_kw("VERTEX")
        vertex_type = self.expect_ident()
        self.expect_kw("ADD")
        self.expect_kw("EMBEDDING")
        self.expect_kw("ATTRIBUTE")
        attr_name = self.expect_ident()
        if self.accept_kw("IN"):
            self.expect_kw("EMBEDDING")
            self.expect_kw("SPACE")
            space = self.expect_ident()
            return ast.AddEmbeddingAttr(vertex_type, attr_name, {}, space)
        options = self._parse_option_block()
        return ast.AddEmbeddingAttr(vertex_type, attr_name, options)

    def parse_create_embedding_space(self) -> ast.CreateEmbeddingSpace:
        self.expect_kw("CREATE")
        self.expect_kw("EMBEDDING")
        self.expect_kw("SPACE")
        name = self.expect_ident()
        options = self._parse_option_block()
        return ast.CreateEmbeddingSpace(name, options)

    # ------------------------------------------------------------- loading
    def parse_create_loading_job(self) -> ast.CreateLoadingJob:
        self.expect_kw("CREATE")
        if not (self.accept_kw("LOADING") or (
            self.current.kind == "IDENT" and self.current.value.lower() == "loading"
            and self.advance()
        )):
            raise self.error("expected LOADING")
        if self.current.is_kw("JOB") or (
            self.current.kind == "IDENT" and self.current.value.lower() == "job"
        ):
            self.advance()
        else:
            raise self.error("expected JOB")
        name = self.expect_ident()
        self.expect_kw("FOR")
        if self.current.is_kw("GRAPH"):
            self.advance()
        graph = self.expect_ident()
        self.expect_op("{")
        loads: list[ast.LoadClause] = []
        while not self.current.is_op("}"):
            loads.append(self.parse_load_clause())
            while self.accept_op(";"):
                pass
        self.expect_op("}")
        return ast.CreateLoadingJob(name, graph, loads)

    def parse_load_clause(self) -> ast.LoadClause:
        self.expect_kw("LOAD")
        source = self.expect_ident()
        self.expect_kw("TO")
        if self.accept_kw("VERTEX"):
            target_kind = "vertex"
            target = self.expect_ident()
            vertex_type = None
        elif self.accept_kw("EDGE"):
            target_kind = "edge"
            target = self.expect_ident()
            vertex_type = None
        elif self.accept_kw("EMBEDDING"):
            self.expect_kw("ATTRIBUTE")
            target_kind = "embedding"
            target = self.expect_ident()
            self.expect_kw("ON")
            self.expect_kw("VERTEX")
            vertex_type = self.expect_ident()
        else:
            raise self.error("expected VERTEX, EDGE, or EMBEDDING ATTRIBUTE")
        self.expect_kw("VALUES")
        self.expect_op("(")
        values: list[ast.Expr] = []
        while not self.current.is_op(")"):
            values.append(self.parse_expr())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.LoadClause(source, target_kind, target, vertex_type, values)

    def parse_run_loading_job(self) -> ast.RunLoadingJob:
        self.expect_kw("RUN")
        if self.current.is_kw("LOADING") or (
            self.current.kind == "IDENT" and self.current.value.lower() == "loading"
        ):
            self.advance()
        if self.current.is_kw("JOB") or (
            self.current.kind == "IDENT" and self.current.value.lower() == "job"
        ):
            self.advance()
        name = self.expect_ident()
        files: dict[str, str] = {}
        if self.accept_kw("USING"):
            while True:
                var = self.expect_ident()
                self.expect_op("=")
                tok = self.advance()
                if tok.kind != "STRING":
                    raise self.error("file path must be a string literal")
                files[var] = tok.value
                if not self.accept_op(","):
                    break
        return ast.RunLoadingJob(name, files)

    # -------------------------------------------------------------- pattern
    def parse_path_pattern(self) -> ast.PathPatternAST:
        nodes = [self.parse_node_pattern()]
        edges: list[ast.EdgePatternAST] = []
        while self.current.is_op("-") or self.current.is_op("<-"):
            edges.append(self.parse_edge_pattern())
            nodes.append(self.parse_node_pattern())
        return ast.PathPatternAST(nodes, edges)

    def parse_node_pattern(self) -> ast.NodePatternAST:
        self.expect_op("(")
        alias = None
        label = None
        if self.current.kind == "IDENT":
            first = self.advance().value
            if self.accept_op(":"):
                alias = first
                label = self.expect_ident()
            else:
                # `(Person)` — a bare label with no alias.
                label = first
        elif self.accept_op(":"):
            label = self.expect_ident()
        self.expect_op(")")
        return ast.NodePatternAST(alias, label)

    def parse_edge_pattern(self) -> ast.EdgePatternAST:
        if self.accept_op("<-"):
            incoming = True
        else:
            self.expect_op("-")
            incoming = False
        edge_type = None
        repeat = 1
        if self.accept_op("["):
            if self.current.kind == "IDENT" and self.peek().is_op(":"):
                self.advance()  # edge alias: parsed, not yet used downstream
            if self.accept_op(":"):
                edge_type = self.expect_ident()
                if self.accept_op("*"):
                    tok = self.advance()
                    if tok.kind != "INT":
                        raise self.error("repeat count must be an integer")
                    repeat = _int(tok)
            self.expect_op("]")
        if incoming:
            self.expect_op("-")
            return ast.EdgePatternAST(edge_type, "in", repeat)
        if self.accept_op("->"):
            return ast.EdgePatternAST(edge_type, "out", repeat)
        self.expect_op("-")
        return ast.EdgePatternAST(edge_type, "any", repeat)

    # --------------------------------------------------------- select block
    def parse_select_block(self) -> ast.SelectBlock:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        select = [self.expect_ident()]
        while self.accept_op(","):
            select.append(self.expect_ident())
        self.expect_kw("FROM")
        pattern = self.parse_path_pattern()
        where = None
        accum: list[ast.AccumStmt] = []
        post_accum: list[ast.AccumStmt] = []
        order_by = None
        limit = None
        while True:
            if self.accept_kw("WHERE"):
                where = self.parse_expr()
            elif self.accept_kw("ACCUM"):
                accum = self.parse_accum_list()
            elif (
                self.current.kind == "IDENT"
                and self.current.value.upper() == "POST"
                and self.peek().is_op("-")
                and self.peek(2).is_kw("ACCUM")
            ):
                self.advance()
                self.advance()
                self.advance()
                post_accum = self.parse_accum_list()
            elif self.accept_kw("ORDER"):
                self.expect_kw("BY")
                expr = self.parse_expr()
                ascending = True
                if self.accept_kw("DESC"):
                    ascending = False
                else:
                    self.accept_kw("ASC")
                order_by = ast.OrderBy(expr, ascending)
            elif self.accept_kw("LIMIT"):
                limit = self.parse_expr()
            else:
                break
        return ast.SelectBlock(
            select, pattern, where, accum, post_accum, order_by, limit, distinct
        )

    def parse_accum_list(self) -> list[ast.AccumStmt]:
        stmts = [self.parse_accum_stmt()]
        while self.accept_op(","):
            stmts.append(self.parse_accum_stmt())
        return stmts

    def parse_accum_stmt(self) -> ast.AccumStmt:
        target = self.parse_primary()
        if not isinstance(target, ast.AccumRef):
            raise self.error("ACCUM target must be an accumulator reference")
        self.expect_op("+=")
        value = self.parse_expr()
        return ast.AccumStmt(target, value)

    # ------------------------------------------------------------ procedure
    def parse_create_query(self) -> ast.CreateQuery:
        self.expect_kw("CREATE")
        self.expect_kw("QUERY")
        name = self.expect_ident()
        self.expect_op("(")
        params: list[ast.ParamDecl] = []
        while not self.current.is_op(")"):
            type_name = self._parse_type_name()
            param_name = self.expect_ident()
            params.append(ast.ParamDecl(param_name, type_name))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        self.expect_op("{")
        accum_decls: list[ast.AccumDecl] = []
        body: list[ast.Statement] = []
        while not self.current.is_op("}"):
            decl = self.try_parse_accum_decl()
            if decl is not None:
                if body:
                    raise self.error("accumulator declarations must precede statements")
                accum_decls.append(decl)
                continue
            body.append(self.parse_statement())
        self.expect_op("}")
        return ast.CreateQuery(name, params, accum_decls, body)

    def try_parse_accum_decl(self) -> ast.AccumDecl | None:
        tok = self.current
        if tok.kind != "IDENT" or tok.value not in ACCUM_KINDS:
            return None
        start = self.pos
        kind = self.advance().value
        type_args: list[str] = []
        if self.accept_op("<"):
            type_args.append(self._parse_type_name())
            while self.accept_op(","):
                type_args.append(self._parse_type_name())
            self.expect_op(">")
        ctor_args: list[ast.Expr] = []
        if self.accept_op("("):
            while not self.current.is_op(")"):
                ctor_args.append(self.parse_expr())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        if self.current.is_op("@@"):
            self.advance()
            is_global = True
        elif self.current.is_op("@"):
            self.advance()
            is_global = False
        else:
            self.pos = start  # it was an expression after all
            self.current = self.tokens[start]
            return None
        name = self.expect_ident()
        self.expect_op(";")
        return ast.AccumDecl(kind, name, is_global, type_args, ctor_args)

    def parse_statement(self) -> ast.Statement:
        tok = self.current
        if tok.is_kw("PRINT"):
            self.advance()
            exprs = [self.parse_expr()]
            while self.accept_op(","):
                exprs.append(self.parse_expr())
            self.expect_op(";")
            return ast.PrintStmt(exprs)
        if tok.is_kw("FOREACH"):
            return self.parse_foreach()
        if tok.is_kw("IF"):
            return self.parse_if()
        if tok.is_kw("WHILE"):
            return self.parse_while()
        if tok.is_op("@@") or tok.is_op("@"):
            target = self.parse_primary()
            if self.accept_op("+="):
                value = self.parse_expr()
                self.expect_op(";")
                return ast.AccumulateStmt(target, value)
            raise self.error("expected '+=' after accumulator reference")
        if tok.kind == "IDENT" and self.peek().is_op("="):
            name = self.advance().value
            self.advance()  # '='
            value = self.parse_expr()
            self.expect_op(";")
            return ast.AssignStmt(name, value)
        expr = self.parse_expr()
        self.expect_op(";")
        return ast.ExprStmt(expr)

    def parse_foreach(self) -> ast.ForeachStmt:
        self.expect_kw("FOREACH")
        var = self.expect_ident()
        self.expect_kw("IN")
        if self.current.is_kw("RANGE"):
            self.advance()
            self.expect_op("[")
            range_from = self.parse_expr()
            self.expect_op(",")
            range_to = self.parse_expr()
            self.expect_op("]")
            iterable = None
        else:
            iterable = self.parse_expr()
            range_from = range_to = None
        self.expect_kw("DO")
        body = self.parse_statement_block()
        self.expect_kw("END")
        self.accept_op(";")
        return ast.ForeachStmt(var, range_from, range_to, body, iterable)

    def parse_if(self) -> ast.IfStmt:
        self.expect_kw("IF")
        condition = self.parse_expr()
        if self.current.is_kw("THEN") or (
            self.current.kind == "IDENT" and self.current.value.upper() == "THEN"
        ):
            self.advance()
        body = self.parse_statement_block(stop_kws=("END", "ELSE"))
        else_body: list[ast.Statement] = []
        if self.accept_kw("ELSE"):
            else_body = self.parse_statement_block(stop_kws=("END",))
        self.expect_kw("END")
        self.accept_op(";")
        return ast.IfStmt(condition, body, else_body)

    def parse_while(self) -> ast.WhileStmt:
        self.expect_kw("WHILE")
        condition = self.parse_expr()
        limit = None
        if self.accept_kw("LIMIT"):
            tok = self.advance()
            if tok.kind != "INT":
                raise self.error("WHILE LIMIT must be an integer")
            limit = _int(tok)
        self.expect_kw("DO")
        body = self.parse_statement_block()
        self.expect_kw("END")
        self.accept_op(";")
        return ast.WhileStmt(condition, body, limit)

    def parse_statement_block(self, stop_kws: tuple[str, ...] = ("END",)) -> list[ast.Statement]:
        body: list[ast.Statement] = []
        while not any(self.current.is_kw(kw) for kw in stop_kws):
            if self.current.kind == "EOF":
                raise self.error(f"expected {' or '.join(stop_kws)}")
            body.append(self.parse_statement())
        return body

    # ---------------------------------------------------------- expressions
    def parse_expr(self, floor: int = _SET) -> ast.Expr:
        """An expression of operators binding at least as tight as ``floor``.

        Left-associative, except that a comparison or ``IN`` does not chain.
        ``ceiling`` bounds the next operator: after a comparison, or after
        ``NOT x``, only a looser one may follow.
        """
        self.nest()
        if floor <= _NOT and self.current.is_kw("NOT"):
            self.advance()
            left = ast.UnaryOp("NOT", self.parse_expr(_NOT))
            ceiling = _NOT
        else:
            left = self.parse_unary()
            ceiling = _MUL + 1
        while True:
            tok = self.current
            entry = _BINARY.get(tok.value)
            if entry is None or tok.kind not in ("OP", "KEYWORD"):
                break
            level, op, node = entry
            if not floor <= level < ceiling:
                break
            self.advance()
            left = node(op, left, self.parse_expr(level + 1))
            ceiling = level if level == _CMP else level + 1
        self.depth -= 1
        return left

    def parse_unary(self) -> ast.Expr:
        if not self.current.is_op("-"):
            return self.parse_primary()
        self.nest()
        self.advance()
        expr = ast.UnaryOp("-", self.parse_unary())
        self.depth -= 1
        return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.current
        if tok.is_kw("SELECT"):
            return self.parse_select_block()
        if tok.kind == "INT":
            self.advance()
            return ast.Literal(_int(tok))
        if tok.kind == "FLOAT":
            self.advance()
            return ast.Literal(float(tok.value))
        if tok.kind == "STRING":
            self.advance()
            return ast.Literal(tok.value)
        if tok.is_kw("TRUE"):
            self.advance()
            return ast.Literal(True)
        if tok.is_kw("FALSE"):
            self.advance()
            return ast.Literal(False)
        if tok.is_op("@@"):
            self.advance()
            name = self.expect_ident()
            return ast.AccumRef(name, is_global=True)
        if tok.is_op("("):
            self.advance()
            expr = self.parse_expr()
            if self.current.is_op(","):
                items = [expr]
                while self.accept_op(","):
                    items.append(self.parse_expr())
                self.expect_op(")")
                return ast.TupleLiteral(items)
            self.expect_op(")")
            return expr
        if tok.is_op("["):
            self.advance()
            items: list[ast.Expr] = []
            while not self.current.is_op("]"):
                items.append(self.parse_expr())
                if not self.accept_op(","):
                    break
            self.expect_op("]")
            return ast.ListLiteral(items)
        if tok.is_op("{"):
            return self.parse_brace_construct()
        if tok.kind == "IDENT":
            name = self.advance().value
            if self.current.is_op("("):
                self.advance()
                args: list[ast.Expr] = []
                while not self.current.is_op(")"):
                    args.append(self.parse_expr())
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
                return ast.FuncCall(name, args)
            if self.current.is_op("."):
                self.advance()
                if self.accept_op("@"):
                    attr = self.expect_ident()
                    return ast.AccumRef(attr, is_global=False, alias=name)
                attr = self.expect_ident()
                return ast.AttrRef(name, attr)
            return ast.VarRef(name)
        raise self.error("expected an expression")

    def parse_brace_construct(self) -> ast.Expr:
        """``{Post.emb, Comment.emb}`` (attr set) or ``{filter: V, ef: 200}``."""
        self.expect_op("{")
        if self.current.is_op("}"):
            self.advance()
            return ast.MapLiteral([])
        # Lookahead decides: IDENT '.' -> attr set; IDENT ':' -> option map.
        if self.current.kind == "IDENT" and self.peek().is_op("."):
            attrs: list[ast.QualifiedName] = []
            while True:
                type_name = self.expect_ident()
                self.expect_op(".")
                attr = self.expect_ident()
                attrs.append(ast.QualifiedName(type_name, attr))
                if not self.accept_op(","):
                    break
            self.expect_op("}")
            return ast.VectorAttrSet(attrs)
        entries: list[ast.OptionEntry] = []
        while True:
            key = self.expect_ident()
            self.expect_op(":")
            value = self.parse_expr()
            entries.append(ast.OptionEntry(key, value))
            if not self.accept_op(","):
                break
        self.expect_op("}")
        return ast.MapLiteral(entries)


def parse(source: str) -> list:
    """Parse GSQL source into a list of top-level AST nodes."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and the loading executor)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    if parser.current.kind != "EOF":
        raise parser.error("unexpected trailing input")
    return expr
