"""Tokenizer for the model language.

The language is line-oriented: a directive is one physical line of tokens,
blocks open with a trailing "{" and close with a lone "}". "#" starts a
comment running to end of line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

IDENT = "ident"
INT = "int"
STRING = "string"
SYMBOL = "symbol"
NEWLINE = "newline"
EOF = "eof"

_STRING_BODY = r'(?:[^"\\\n]|\\["\\n])*'
# Spaces and a comment, then one token: the alternatives are tried in order.
# `word` is checked below; the last three catch the end of the text, a string
# that does not close and any character nothing else takes.
_SCANNER = re.compile(rf"""[ \t\r]*(?:\#[^\n]*)?(?:
    (?P<word>[^\W\d]\w*)
  | (?P<symbol>[{{}}(),=.]) | (?P<newline>\n) | (?P<int>-?\d+)
  | (?P<string>"{_STRING_BODY}") | (?P<end>\Z) | (?P<open_string>"{_STRING_BODY})
  | (?P<other>.))""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    @property
    def value(self) -> int:
        """The integer of an INT token; the parser reads no other's."""
        return int(self.text)


def tokenize(source: str) -> list[Token]:
    """Produce the token list, collapsing blank lines to single newlines."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(source):
        kind = m.lastgroup
        text = m.group(kind)
        column = m.start(kind) - line_start + 1
        if kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, column)
            if text != text.lower():
                raise ParseError(f"identifiers are lowercase: {text!r}", line, column)
            tokens.append(Token(IDENT, text, line, column))
        elif kind == "symbol":
            tokens.append(Token(SYMBOL, text, line, column))
        elif kind == "newline":
            if tokens and tokens[-1].kind != NEWLINE:
                tokens.append(Token(NEWLINE, text, line, column))
            line, line_start = line + 1, m.end()
        elif kind == "int":
            tokens.append(Token(INT, text, line, column))
        elif kind == "string":
            value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], text[1:-1])
            tokens.append(Token(STRING, value, line, column))
        elif kind == "end":
            break
        elif kind == "open_string":
            # the string stops at a line end or at a backslash it cannot read
            stop = source[m.end():m.end() + 2]
            if not stop or stop[0] == "\n":
                raise ParseError("unterminated string literal", line, column)
            message = f"unknown escape {stop}" if len(stop) == 2 else "dangling escape"
            raise ParseError(message, line, m.end() - line_start + 1)
        else:
            raise ParseError(f"unexpected character {text!r}", line, column)
    column = len(source) - line_start + 1
    if tokens and tokens[-1].kind != NEWLINE:
        tokens.append(Token(NEWLINE, "\n", line, column))
    tokens.append(Token(EOF, "", line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.column)
        return self.next()

    def end_line(self):
        """Consume the NEWLINE that ends a line. `tokenize` puts one before
        EOF and never emits one first or two in a row, so none is left to
        skip before the next line's first token."""
        tok = self.peek()
        if tok.kind != NEWLINE:
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.column)
        self.next()
