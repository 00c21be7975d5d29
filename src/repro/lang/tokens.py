"""Token definitions for the mini-C lexer."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class TokenKind(Enum):
    """All token categories of mini-C."""

    INT_LIT = auto()
    IDENT = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


#: Reserved words.
KEYWORDS = frozenset(
    {
        "int",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "assert",
        "break",
        "continue",
    }
)

#: Multi-character punctuation, longest-match first.
PUNCT2 = ("<=", ">=", "==", "!=", "&&", "||")
PUNCT1 = "+-*/%<>=!(){}[];,"


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position (1-based)."""

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_keyword(self, word: str) -> bool:
        return self.text == word and self.kind is TokenKind.KEYWORD

    def is_punct(self, text: str) -> bool:
        return self.text == text and self.kind is TokenKind.PUNCT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.col}"


_new_token = object.__new__
_set_kind = Token.kind.__set__
_set_text = Token.text.__set__
_set_line = Token.line.__set__
_set_col = Token.col.__set__


def make_token(kind: TokenKind, text: str, line: int, col: int) -> Token:
    """``Token(kind, text, line, col)``, built through the slot setters.

    The frozen dataclass ``__init__`` sets each field through
    ``object.__setattr__``, about three times the cost; the lexer builds
    every token here.
    """
    token = _new_token(Token)
    _set_kind(token, kind)
    _set_text(token, text)
    _set_line(token, line)
    _set_col(token, col)
    return token
