"""The character-loop lexer, kept as the reference.

``repro.lang.lexer`` lexes ASCII sources with one compiled regex.  This
is the loop it replaced (it still lexes non-ASCII sources there), one
``advance`` per character.  ``test_lexer_reference.py`` checks that both
produce the same tokens and the same ``LexError`` message, line and
column.
"""

from __future__ import annotations

from typing import List

from repro.lang.lexer import LexError
from repro.lang.tokens import KEYWORDS, PUNCT1, PUNCT2, Token, TokenKind


def reference_tokenize(source: str) -> List[Token]:
    """Tokenise ``source``, appending a terminal EOF token."""
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
