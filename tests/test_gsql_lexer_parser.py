"""Tests for the GSQL lexer and parser."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TigerVectorDB
from repro.errors import GSQLError, GSQLLexError, GSQLParseError
from repro.gsql import ast_nodes as ast
from repro.gsql.lexer import KEYWORDS, tokenize
from repro.gsql.parser import MAX_NESTING, parse, parse_expression


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(t.is_kw("SELECT") for t in tokens[:3])

    def test_identifiers_keep_case(self):
        tokens = tokenize("TopKPosts")
        assert tokens[0].kind == "IDENT"
        assert tokens[0].value == "TopKPosts"

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e3 2.5e-2")
        assert [t.kind for t in tokens[:4]] == ["INT", "FLOAT", "FLOAT", "FLOAT"]

    def test_strings_with_escapes(self):
        tokens = tokenize(r'"a\"b" ' + r"'c\nd'")
        assert tokens[0].value == 'a"b'
        assert tokens[1].value == "c\nd"

    def test_unterminated_string(self):
        with pytest.raises(GSQLLexError):
            tokenize('"oops')

    def test_comments_stripped(self):
        tokens = tokenize("a -- comment\n b /* block\n comment */ c")
        assert [t.value for t in tokens[:3]] == ["a", "b", "c"]

    def test_arrows_and_accum_ops(self):
        tokens = tokenize("-> <- @@x @y +=")
        assert tokens[0].is_op("->")
        assert tokens[1].is_op("<-")
        assert tokens[2].is_op("@@")
        assert tokens[4].is_op("@")
        assert tokens[6].is_op("+=")

    def test_line_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(GSQLLexError):
            tokenize("a § b")


class TestDDLParsing:
    def test_create_vertex(self):
        (node,) = parse("CREATE VERTEX Post (id INT PRIMARY KEY, body STRING);")
        assert isinstance(node, ast.CreateVertex)
        assert node.attributes[0].primary_key
        assert node.attributes[1].type_name == "STRING"

    def test_create_edges(self):
        nodes = parse(
            "CREATE DIRECTED EDGE a (FROM X, TO Y);"
            "CREATE UNDIRECTED EDGE b (FROM X, TO X);"
        )
        assert nodes[0].directed and not nodes[1].directed

    def test_embedding_attribute_options(self):
        (node,) = parse(
            "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE e "
            "(DIMENSION = 1024, MODEL = GPT4, INDEX = HNSW, "
            "DATATYPE = FLOAT, METRIC = COSINE);"
        )
        assert node.options["DIMENSION"] == 1024
        assert node.options["MODEL"] == "GPT4"

    def test_embedding_space(self):
        nodes = parse(
            "CREATE EMBEDDING SPACE s (DIMENSION = 64, MODEL = m);"
            "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE e IN EMBEDDING SPACE s;"
        )
        assert isinstance(nodes[0], ast.CreateEmbeddingSpace)
        assert nodes[1].space == "s"

    def test_loading_job(self):
        (node,) = parse(
            "CREATE LOADING JOB j FOR GRAPH g {"
            " LOAD f1 TO VERTEX Post VALUES (id, body);"
            " LOAD f2 TO EMBEDDING ATTRIBUTE e ON VERTEX Post"
            "   VALUES (id, split(emb, \":\"));"
            "}"
        )
        assert isinstance(node, ast.CreateLoadingJob)
        assert node.loads[0].target_kind == "vertex"
        assert node.loads[1].target_kind == "embedding"
        assert node.loads[1].vertex_type == "Post"


class TestPatternParsing:
    def get_pattern(self, text):
        (block,) = parse(text)
        return block.pattern

    def test_single_node(self):
        p = self.get_pattern("SELECT s FROM (s:Post);")
        assert p.nodes[0].alias == "s"
        assert p.nodes[0].label == "Post"
        assert p.edges == []

    def test_multi_hop_mixed_directions(self):
        p = self.get_pattern(
            "SELECT t FROM (s:Person) - [:knows] -> (:Person) "
            "<- [:hasCreator] - (t:Post);"
        )
        assert [e.direction for e in p.edges] == ["out", "in"]
        assert p.nodes[1].alias is None
        assert p.nodes[2].alias == "t"

    def test_repeat_hops(self):
        p = self.get_pattern("SELECT t FROM (s:Person) -[:knows*3]-> (t:Person);")
        assert p.edges[0].repeat == 3

    def test_edge_alias_ignored(self):
        p = self.get_pattern("SELECT t FROM (s:Person) <-[e:hasCreator]- (t:Post);")
        assert p.edges[0].edge_type == "hasCreator"

    def test_undirected_edge(self):
        p = self.get_pattern("SELECT t FROM (s:Person) -[:knows]- (t:Person);")
        assert p.edges[0].direction == "any"


class TestSelectParsing:
    def test_where_order_limit(self):
        (block,) = parse(
            'SELECT s FROM (s:Post) WHERE s.lang = "en" '
            "ORDER BY VECTOR_DIST(s.emb, q) LIMIT k;"
        )
        assert isinstance(block.where, ast.BinaryOp)
        assert block.where.op == "=="
        assert isinstance(block.order_by.expr, ast.FuncCall)
        assert isinstance(block.limit, ast.VarRef)

    def test_order_desc(self):
        (block,) = parse("SELECT s FROM (s:Post) ORDER BY s.date DESC LIMIT 5;")
        assert not block.order_by.ascending

    def test_accum_clause(self):
        (block,) = parse("SELECT t FROM (t:Post) ACCUM @@n += 1, @@s += t.len;")
        assert len(block.accum) == 2
        assert block.accum[0].target.name == "n"

    def test_post_accum_clause(self):
        (block,) = parse("SELECT t FROM (t:Post) POST-ACCUM @@n += 1;")
        assert len(block.post_accum) == 1

    def test_multi_select(self):
        (block,) = parse(
            "SELECT s, t FROM (s:A) -[:e]-> (t:B) "
            "ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 3;"
        )
        assert block.select == ["s", "t"]


class TestProcedureParsing:
    def test_params_and_accums(self):
        (proc,) = parse(
            "CREATE QUERY q(List<FLOAT> v, INT k) {"
            " SumAccum<INT> @@n;"
            " Map<VERTEX, FLOAT> @@m;"
            " HeapAccum<FLOAT>(5) @@h;"
            " PRINT @@n;"
            "}"
        )
        assert [p.name for p in proc.params] == ["v", "k"]
        assert [d.kind for d in proc.accum_decls] == ["SumAccum", "Map", "HeapAccum"]
        assert proc.accum_decls[2].ctor_args[0].value == 5

    def test_control_flow(self):
        (proc,) = parse(
            "CREATE QUERY q() {"
            " SumAccum<INT> @@n;"
            " FOREACH i IN RANGE[0, 3] DO @@n += i; END;"
            " WHILE @@n < 100 LIMIT 5 DO @@n += 10; END;"
            " IF @@n >= 50 THEN PRINT \"big\"; ELSE PRINT \"small\"; END;"
            "}"
        )
        kinds = [type(s).__name__ for s in proc.body]
        assert kinds == ["ForeachStmt", "WhileStmt", "IfStmt"]

    def test_vector_search_call(self):
        (proc,) = parse(
            "CREATE QUERY q(List<FLOAT> v, INT k) {"
            " Map<VERTEX, FLOAT> @@d;"
            " Top = VectorSearch({Post.emb, Comment.emb}, v, k,"
            "   {filter: Cands, ef: 200, distanceMap: @@d});"
            " PRINT Top;"
            "}"
        )
        assign = proc.body[0]
        call = assign.value
        assert isinstance(call, ast.FuncCall)
        assert isinstance(call.args[0], ast.VectorAttrSet)
        assert [a.qualified for a in call.args[0].attrs] == ["Post.emb", "Comment.emb"]
        opts = {e.key: e.value for e in call.args[3].entries}
        assert isinstance(opts["distanceMap"], ast.AccumRef)

    def test_set_operators(self):
        (proc,) = parse("CREATE QUERY q() { C = A UNION B; D = A INTERSECT B; E = A MINUS B; }")
        assert [s.value.op for s in proc.body] == ["UNION", "INTERSECT", "MINUS"]

    def test_accum_decls_must_precede_statements(self):
        with pytest.raises(GSQLParseError):
            parse("CREATE QUERY q() { PRINT 1; SumAccum<INT> @@n; }")


class TestExpressions:
    def test_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, ast.BinaryOp) and e.op == "+"
        assert e.right.op == "*"

    def test_and_or_not(self):
        e = parse_expression("NOT a AND b OR c")
        assert e.op == "OR"
        assert e.left.op == "AND"
        assert isinstance(e.left.left, ast.UnaryOp)

    def test_comparison_normalization(self):
        assert parse_expression("a = b").op == "=="
        assert parse_expression("a <> b").op == "!="

    def test_list_literal(self):
        e = parse_expression("[1, 2.5, \"x\"]")
        assert [i.value for i in e.items] == [1, 2.5, "x"]

    def test_unary_minus(self):
        e = parse_expression("-5")
        assert isinstance(e, ast.UnaryOp)

    def test_vertex_accum_ref(self):
        e = parse_expression("s.@cnt")
        assert isinstance(e, ast.AccumRef)
        assert e.alias == "s" and not e.is_global

    def test_trailing_garbage(self):
        with pytest.raises(GSQLParseError):
            parse_expression("1 2")

    def test_parse_error_has_location(self):
        with pytest.raises(GSQLParseError) as err:
            parse("SELECT FROM;")
        assert err.value.line == 1


class TestMalformedNumbers:
    """A literal that int() / float() cannot read is a typed lexer error."""

    @pytest.mark.parametrize("text, column", [("1e+", 1), ("x = 2.5E-", 5), ("²", 1), ("1²", 2)])
    def test_parse_expression(self, text, column):
        with pytest.raises(GSQLLexError) as err:
            parse_expression(text)
        assert (err.value.line, err.value.column) == (1, column)

    def test_parse(self):
        with pytest.raises(GSQLLexError) as err:
            parse("SELECT s FROM (s:Post)\n  LIMIT 1e-;")
        assert (err.value.line, err.value.column) == (2, 9)

    def test_run_gsql(self):
        with TigerVectorDB() as db:
            with pytest.raises(GSQLLexError, match="malformed number"):
                db.run_gsql("SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.emb, q) LIMIT 1e+;")

    def test_exponent_needs_a_digit(self):
        assert [(t.kind, t.value) for t in tokenize("1e5 1E+5 .5e-3 1ex")[:5]] == [
            ("FLOAT", "1e5"), ("FLOAT", "1E+5"), ("FLOAT", ".5e-3"), ("INT", "1"), ("IDENT", "ex"),
        ]

    def test_integer_over_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        with pytest.raises(GSQLLexError, match="too long"):
            parse_expression("x + " + "9" * (limit + 1))


class TestLineTracking:
    def test_backslash_newline_in_string_counts_the_line(self):
        tokens = tokenize('"a\\\nb" c')
        assert tokens[0].value == "a\nb"
        assert (tokens[1].value, tokens[1].line, tokens[1].column) == ("c", 2, 4)

    def test_block_comment_newlines(self):
        tokens = tokenize("a /* x\n y\n */ b\n c")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("b", 3, 5), ("c", 4, 2), ("", 4, 3),
        ]


class TestGrammarPins:
    def test_where_a_lt_b_lt_c(self):
        with pytest.raises(GSQLParseError) as err:
            parse("SELECT s FROM (s:A) WHERE a < b < c;")
        assert str(err.value) == (
            "expected a DDL statement, SELECT block, or CREATE QUERY (found '<') at line 1, column 33"
        )
        assert (err.value.line, err.value.column) == (1, 33)

    @pytest.mark.parametrize("text", ["a < b < c", "a = b IN c", "NOT a < b < c", "a AND b < c < d"])
    def test_second_comparison_is_trailing_input(self, text):
        with pytest.raises(GSQLParseError, match="unexpected trailing input"):
            parse_expression(text)

    def test_not_is_a_prefix_only_above_comparisons(self):
        a_eq_b = ast.BinaryOp("==", ast.VarRef("a"), ast.VarRef("b"))
        assert parse_expression("NOT a = b") == ast.UnaryOp("NOT", a_eq_b)
        with pytest.raises(GSQLParseError, match="expected an expression"):
            parse_expression("a = NOT b")

    def test_a_string_is_never_an_operator(self):
        with pytest.raises(GSQLParseError, match="unexpected trailing input"):
            parse_expression("a '+' b")

    @pytest.mark.parametrize(
        "expr, token",
        [("(" * 332 + "1" + ")" * 332, "("), ("NOT " * 2000 + "1", "NOT"), ("- " * 2000 + "1", "-")],
        ids=["parentheses", "not-chain", "minus-chain"],
    )
    def test_deep_nesting_is_a_parse_error_at_every_entry_point(self, expr, token):
        text = "SELECT s FROM (s:Post) WHERE " + expr
        with TigerVectorDB() as db:
            for entry, source in ((parse_expression, expr), (parse, text), (db.run_gsql, text)):
                with pytest.raises(GSQLParseError, match=f"deeper than {MAX_NESTING} levels") as err:
                    entry(source)
                assert err.value.line == 1
                assert source[err.value.column - 1 :].startswith(token)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_NESTING - 1  # the outermost expression is a level too
        assert parse_expression("(" * depth + "1" + ")" * depth) == ast.Literal(1)
        node = parse_expression("- " * depth + "1")
        for _ in range(depth):
            assert node.op == "-"
            node = node.operand
        assert node == ast.Literal(1)


# -------------------------------------------------------------- properties
#: The grammar's binary operators: spelling -> (level, node op, node class).
#: Higher levels bind tighter; NOT is a prefix at level 4, unary minus at 8.
_SPELLINGS = {
    **{op: (1, op, ast.SetOpExpr) for op in ("UNION", "INTERSECT", "MINUS")},
    "OR": (2, "OR", ast.BinaryOp),
    "AND": (3, "AND", ast.BinaryOp),
    **{op: (5, op, ast.BinaryOp) for op in ("==", "!=", "<=", ">=", "<", ">", "IN")},
    "=": (5, "==", ast.BinaryOp),
    "<>": (5, "!=", ast.BinaryOp),
    **{op: (6, op, ast.BinaryOp) for op in ("+", "-")},
    **{op: (7, op, ast.BinaryOp) for op in ("*", "/", "%")},
}
_NOT, _CMP, _NEG, _ATOM = 4, 5, 8, 9


def _quote(text):
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _wrap(child, parens):
    return f"({child[1]})" if parens else child[1]


def _binary(args):
    spelling, left, right = args
    level, op, node = _SPELLINGS[spelling]
    # Left-associative: a left child as loose as the operator needs no
    # parentheses, except under a comparison, which does not chain.
    left_text = _wrap(left, left[2] < level or (level == _CMP and left[2] == _CMP))
    return node(op, left[0], right[0]), f"{left_text} {spelling} {_wrap(right, right[2] <= level)}", level


def _prefix(args):
    op, operand = args
    level = _NOT if op == "NOT" else _NEG
    return ast.UnaryOp(op, operand[0]), f"{op} {_wrap(operand, operand[2] < level)}", level


_ATOMS = st.one_of(
    st.integers(0, 10**12).map(lambda v: (ast.Literal(v), str(v), _ATOM)),
    st.floats(0, 1e300).map(lambda v: (ast.Literal(v), repr(v), _ATOM)),
    st.text(max_size=4).map(lambda v: (ast.Literal(v), _quote(v), _ATOM)),
    st.booleans().map(lambda v: (ast.Literal(v), str(v).upper(), _ATOM)),
    st.sampled_from(["a", "_b", "Item2", "x"]).map(lambda v: (ast.VarRef(v), v, _ATOM)),
    st.sampled_from(["s.emb", "t.id"]).map(lambda v: (ast.AttrRef(*v.split(".")), v, _ATOM)),
)
_TREES = st.recursive(
    _ATOMS,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(sorted(_SPELLINGS)), children, children).map(_binary),
        st.tuples(st.sampled_from(["NOT", "-"]), children).map(_prefix),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_expression_round_trip(tree):
    """Rendered with only the parentheses precedence needs, a tree parses back to itself."""
    node, text, _ = tree
    assert parse_expression(text) == node, text


_SOUP_WORDS = sorted(KEYWORDS) + [
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "->", "<-", "<", ">", "=", "==", "!=", "<>",
    "<=", ">=", "+", "-", "+=", "*", "/", "%", "@", "@@", "s", "Item", "VECTOR_DIST", "SumAccum",
    "0", "42", "2.5", ".5", "1e3", "1e", "1e+", "2E-", "1e²", "²", "½", "'a'", '"b\\"', '"', "'",
    "--c\n", "/*c*/", "/*", "\\", "§",
]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(st.sampled_from(_SOUP_WORDS), st.sampled_from(["", " ", "\n"])), max_size=30).map(
            lambda parts: "".join(word + sep for word, sep in parts)
        ),
        st.text(max_size=40),
    )
)
def test_token_soup_raises_only_gsql_errors(text):
    for entry in (parse, parse_expression):
        try:
            entry(text)
        except GSQLError:
            pass
