"""GSQL tokenizer.

Keywords are case-insensitive (``SELECT`` == ``select``); identifiers keep
their case.  Comments: ``--`` to end of line and ``/* ... */`` blocks.
Multi-character operators include the pattern arrows ``->`` and ``<-``, so
the lexer longest-matches those before ``<`` / ``-``.

One compiled pattern reads a token per match: blanks are eaten as its
prefix, and a named group says what follows.  Once its opener is seen, a
string is finished by its own small pattern and a block comment by a
search for ``*/``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import GSQLLexError

__all__ = ["KEYWORDS", "Token", "tokenize"]

KEYWORDS = frozenset(
    """
    ACCUM ADD ALTER AND AS ASC ATTRIBUTE BY CREATE DELETE DESC DIRECTED
    DISTINCT DO EDGE ELSE EMBEDDING END FALSE FOR FOREACH FROM GRAPH IF IN
    INSERT INTERSECT INTO JOB KEY LIMIT LOAD LOADING MINUS NOT ON OR ORDER
    PRIMARY PRINT QUERY RANGE RETURNS RUN SELECT SPACE THEN TO TRUE
    UNDIRECTED UNION UPDATE USING VALUES VERTEX WHERE WHILE
    """.split()
)

#: Multi-char operators first so longest-match wins.
_OPERATORS = [
    "->", "<-", "<=", ">=", "==", "!=", "<>", "+=",
    "(", ")", "{", "}", "[", "]", ",", ";", ".", ":",
    "=", "<", ">", "+", "-", "*", "/", "%", "@@", "@",
]

# A digit is a Unicode decimal digit (``\d``): exactly what int() and float()
# read.  An exponent sign with no digit after it is matched so that it can be
# refused as a malformed number rather than split into other tokens.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<NL>\n)"
    r"|(?P<COMMENT>--[^\n]*)"
    r"|(?P<BLOCK>/\*)"
    r"|(?P<NUM>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE](?:\d+|[+-]\d*))?)"
    r"|(?P<WORD>[^\W\d]\w*)"
    r"|(?P<OP>" + "|".join(map(re.escape, _OPERATORS)) + r")"
    r"|(?P<QUOTE>[\"'])"
    r"|(?P<BAD>.)"
    r")?"
)
_BODY = {q: re.compile(rf"((?:[^{q}\\\n]|\\.)*){q}", re.DOTALL) for q in "\"'"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t"}


class Token(NamedTuple):
    """One lexical token: kind is KEYWORD, IDENT, INT, FLOAT, STRING, OP, EOF."""

    kind: str
    value: str
    line: int
    column: int

    def is_kw(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word

    def is_op(self, op: str) -> bool:
        return self.kind == "OP" and self.value == op


def _unescape(match: re.Match) -> str:
    return _ESCAPED.get(match[1], match[1])


def tokenize(source: str) -> list[Token]:
    """Turn GSQL source into a token list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the NamedTuple __new__ wrapper
    match = _TOKEN.match
    line = 1
    line_start = 0
    i = 0
    while True:
        m = match(source, i)
        kind = m.lastgroup
        i = m.end()
        if kind is None:  # only blanks were left
            break
        start = m.start(kind)
        column = start - line_start + 1
        if kind == "WORD":
            text = m[kind]
            upper = text.upper()
            if upper in KEYWORDS:
                append(new(Token, ("KEYWORD", upper, line, column)))
            elif text[0].isalpha() or text[0] == "_":
                append(new(Token, ("IDENT", text, line, column)))
            else:  # a numeric symbol such as '²' or '½': neither a digit nor a letter
                raise GSQLLexError(f"unexpected character {text[0]!r}", line, column)
        elif kind == "OP":
            append(new(Token, ("OP", m[kind], line, column)))
        elif kind == "NUM":
            text = m[kind]
            if text[-1] in "+-":
                raise GSQLLexError(f"malformed number {text!r}", line, column)
            append(new(Token, ("INT" if text.isdecimal() else "FLOAT", text, line, column)))
        elif kind == "NL":
            line += 1
            line_start = i
        elif kind == "QUOTE":
            body = _BODY[source[start]].match(source, i)
            if body is None:
                raise GSQLLexError("unterminated string literal", line, column)
            text = body[1]
            value = _ESCAPE.sub(_unescape, text) if "\\" in text else text
            append(new(Token, ("STRING", value, line, column)))
            i = body.end()
            if "\n" in text:  # escaped newlines: the string ends on a later line
                line += text.count("\n")
                line_start = source.rindex("\n", start, i) + 1
        elif kind == "BLOCK":
            end = source.find("*/", i)
            if end < 0:
                raise GSQLLexError("unterminated block comment", line, column)
            newlines = source.count("\n", i, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", i, end) + 1
            i = end + 2
        elif kind == "BAD":
            raise GSQLLexError(f"unexpected character {source[start]!r}", line, column)
        # COMMENT: nothing to emit; the newline after it is the next match.
    append(new(Token, ("EOF", "", line, i - line_start + 1)))
    return tokens
