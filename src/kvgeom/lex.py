"""Tokenizer of the surface syntax: scenarios and the expressions inside them.

The one parser of that syntax, which reads these tokens, is ``dsl._Parser``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParseError


class Token(NamedTuple):
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


_TWO_CHAR = ("->",)
_ONE_CHAR = set("+-*/^(){}[],;:=")
_DIGITS = set("0123456789")  # str.isdigit also accepts digits such as "²" that int() rejects


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens; comments run from '#' to end of line."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if text.startswith(_TWO_CHAR[0], i):
            tokens.append(Token("punct", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"unexpected character {c!r}", c)
    tokens.append(Token("eof", "", line, col))
    return tokens
