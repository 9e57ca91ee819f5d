"""Tokenizer of the surface syntax: scenarios and the expressions inside them.

A token is its text alone, and its kind shows in its first character
(``kind``): an ASCII digit starts an integer literal, a character of ``PUNCT``
a punctuation token, any other character a name, and the empty text is the
end of input.  The texts and their start offsets come from one compiled-regex
``split`` of the source and one ``accumulate`` over the lengths of its parts,
so no Python code runs per character or per token.  A token's line and
column are counted only when an error, a declaration or a check needs them
(``Tokens.token``).

The one parser of that syntax, which reads these tokens, is ``dsl._Parser``.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .errors import ParseError

PUNCT = "-+*/^(){}[],;:="  # the first characters of punctuation tokens; "->" is the one of two characters
DIGITS = "0123456789"  # str.isdigit also accepts digits such as "²" that int() rejects

# One match per token: the whitespace and whole comments before it, then the token.  Every comment
# the split sees ends at a newline, since the trailing whitespace and comments are cut off first
# (``_body_end``), so the skip matches in one way only.  A character that starts no token matches
# alone ("[^\n]"), so the split never fails and backtracks; it is refused after the split.  "\w" is
# str.isalnum() or "_", what continues a name.  What may start one is tested on the tokens' first
# characters: those of punctuation and integers, and "_", are mapped to a letter, and then every first
# character of a well-formed text is a letter.
_SPLIT = re.compile(r"([ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*)(->|[-+*/^(){}\[\],;:=]|[0-9]+|\w+|[^\n])")
_SPACE = " \t\r\n"
_STARTS = str.maketrans(dict.fromkeys(PUNCT + DIGITS + "_", "a"))
_first = itemgetter(0)


class Token(NamedTuple):
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


def kind(text: str) -> str:
    """The kind of a token, read from its first character."""
    if not text:
        return "eof"
    if text[0] in DIGITS:
        return "int"
    return "punct" if text[0] in PUNCT else "name"


class Tokens:
    """The tokens of a source text: their ``texts``, the empty text of the end of input last, and the
    offsets where they start, ``starts``."""

    __slots__ = ("source", "texts", "starts", "_mark")

    def __init__(self, source: str, texts: list[str], starts: list[int]):
        self.source = source
        self.texts = texts
        self.starts = starts
        self._mark = (0, 1)  # an offset and its line: positions asked for in order count each newline once

    def token(self, i: int) -> Token:
        """Token ``i`` with its position: the line counts the newlines before it, and the column every
        character since the last one, a tab or a carriage return one each."""
        o = self.starts[i]
        mark, line = self._mark
        if o < mark:
            mark, line = 0, 1
        line += self.source.count("\n", mark, o)
        self._mark = (o, line)
        text = self.texts[i]
        return Token(kind(text), text, line, o - self.source.rfind("\n", 0, o))


def _body_end(text: str) -> int:
    """Where the whitespace and comments at the end of ``text`` start."""
    body = text.rstrip(_SPACE)
    while (h := body.find("#", body.rfind("\n") + 1)) >= 0:
        body = body[:h].rstrip(_SPACE)
    return len(body)


def tokenize(text: str) -> Tokens:
    """Split source text into tokens; comments run from '#' to end of line.

    The end of input sits at the end of the text, or at the '#' of a comment
    that no newline ends.  A character that starts no token is a ParseError
    at it.
    """
    parts = _SPLIT.split(text[: _body_end(text)])
    texts = parts[2::3]
    tokens = Tokens(text, texts, list(accumulate(map(len, parts)))[1::3])
    firsts = "".join(map(_first, texts)).translate(_STARTS)
    if firsts and not firsts.isalpha():
        t = tokens.token(next(k for k, c in enumerate(firsts) if not c.isalpha()))
        c = t.text[0]
        raise ParseError(t.line, t.col, f"unexpected character {c!r}", c)
    last = text.find("#", text.rfind("\n") + 1)
    texts.append("")
    tokens.starts.append(len(text) if last < 0 else last)
    return tokens
