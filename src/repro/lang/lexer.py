"""The lexer for mini-C.

Supports ``//`` line comments and ``/* ... */`` block comments, decimal
integer literals, identifiers/keywords and the punctuation listed in
:mod:`repro.lang.tokens`.

ASCII sources -- every corpus program -- are lexed with one compiled
master regex.  Other sources take a character loop: ``str.isdigit`` and
``str.isalpha`` accept more than ``[0-9A-Za-z]`` there, and the loop
keeps their historical meaning.  Both produce the same tokens and the
same :class:`LexError` messages and positions on ASCII text.
"""

from __future__ import annotations

import re
from typing import List

from repro.lang.tokens import (
    KEYWORDS,
    PUNCT1,
    PUNCT2,
    Token,
    TokenKind,
    make_token,
)

#: Skips whitespace and comments, then matches one token: an integer
#: (group 1), a word (group 2) or punctuation (group 3, two-character
#: forms first).  Matches no token at the end of the input and at a
#: character no token starts with; at an unterminated block comment the
#: token is its ``/``.
_MASTER = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|("
    + "|".join(re.escape(p) for p in (*PUNCT2, *PUNCT1))
    + r"))?",
    re.DOTALL,
)
_WORD_CHAR = re.compile(r"[A-Za-z_]")


class LexError(Exception):
    """Raised on malformed input, with position information."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source``, appending a terminal EOF token."""
    if source.isascii():
        return _tokenize_ascii(source)
    return _tokenize_chars(source)


def _tokenize_ascii(source: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    count = source.count
    rfind = source.rfind
    keyword, ident = TokenKind.KEYWORD, TokenKind.IDENT
    int_lit, punct = TokenKind.INT_LIT, TokenKind.PUNCT
    pos = 0
    line = 1
    line_start = 0  # index of the current line's first character
    while True:
        m = match(source, pos)
        group = m.lastindex
        start = m.start(group) if group else m.end()
        newlines = count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = rfind("\n", pos, start) + 1
        col = start - line_start + 1
        if group is None:
            if start == len(source):
                append(make_token(TokenKind.EOF, "", line, col))
                return tokens
            raise LexError(f"unexpected character {source[start]!r}", line, col)
        pos = m.end()
        text = m.group(group)
        if group == 1:
            if _WORD_CHAR.match(source, pos):
                raise LexError(
                    f"malformed number {source[start:pos + 1]!r}",
                    line,
                    col + pos - start,
                )
            append(make_token(int_lit, text, line, col))
        elif group == 2:
            kind = keyword if text in KEYWORDS else ident
            append(make_token(kind, text, line, col))
        elif text == "/" and source.startswith("*", pos):
            # ``/*`` the skip could not close.
            raise LexError("unterminated block comment", line, col)
        else:
            append(make_token(punct, text, line, col))


def _tokenize_chars(source: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        # Whitespace.
        if ch in " \t\r\n":
            advance()
            continue
        # Comments.
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance()
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance()
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        # Integer literals.
        if ch.isdigit():
            start = i
            start_line, start_col = line, col
            while i < n and source[i].isdigit():
                advance()
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise LexError(
                    f"malformed number {source[start:i + 1]!r}", line, col
                )
            tokens.append(
                Token(TokenKind.INT_LIT, source[start:i], start_line, start_col)
            )
            continue
        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance()
            text = source[start:i]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        # Two-character punctuation (longest match first).
        two = source[i : i + 2]
        if two in PUNCT2:
            tokens.append(Token(TokenKind.PUNCT, two, line, col))
            advance(2)
            continue
        # Single-character punctuation.
        if ch in PUNCT1:
            tokens.append(Token(TokenKind.PUNCT, ch, line, col))
            advance()
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
