"""The tokenizer against the character loop it replaced.

``lex.tokenize`` takes the token texts and their start offsets from one
regex split, and counts a token's line and column only when asked.
``reference_tokenize`` keeps the tokenizer it replaced, as a test-only
reference: a loop over the characters that builds one positioned ``Token``
per token.  On every text both must give the same tokens at the same
positions, or the same error; and the parser, reading either's tokens, the
same scenario with its checks at the same positions, or the same error.
"""

import random
from pathlib import Path

import pytest

from kvgeom.corpus import BUILTIN_SCENARIOS
from kvgeom.dsl import _Parser, parse_expr, parse_scenario, serialize
from kvgeom.errors import ParseError, SemanticError
from kvgeom.lex import Token, Tokens, tokenize

_TWO_CHAR = ("->",)
_ONE_CHAR = set("+-*/^(){}[],;:=")
_DIGITS = set("0123456789")


def reference_tokenize(text: str) -> list[Token]:
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


def reference_tokens(text: str) -> Tokens:
    """The reference's tokens as the parser reads them: their texts and start offsets."""
    tokens = reference_tokenize(text)
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    return Tokens(text, [t.text for t in tokens], [line_starts[t.line - 1] + t.col - 1 for t in tokens])


def _error(exc: ParseError | SemanticError) -> tuple:
    return type(exc).__name__, exc.line, exc.column, exc.message, exc.token


def _tokens(text: str) -> tuple:
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        return _error(exc)
    return [tokens.token(i) for i in range(len(tokens.texts))]


def _reference(text: str) -> tuple:
    try:
        return reference_tokenize(text)
    except ParseError as exc:
        return _error(exc)


def _scenario(tokens: Tokens) -> tuple:
    try:
        s = _Parser(tokens).scenario()
    except (ParseError, SemanticError) as exc:
        return _error(exc)
    return serialize(s), [(c.kind, c.line, c.col) for c in s.checks]


def assert_same_reading(text: str) -> str:
    """Both tokenizers give the same tokens at the same positions, and the parser the same outcome."""
    want = _reference(text)
    assert _tokens(text) == want, repr(text)
    if type(want) is tuple:
        return "error"
    read = _scenario(tokenize(text))
    assert read == _scenario(reference_tokens(text)), repr(text)
    return "scenario" if type(read[0]) is str else "error"


ROOT = Path(__file__).resolve().parent.parent
TEXTS = [e.text for e in BUILTIN_SCENARIOS.values()] + [
    p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests" / "data").glob("*.kvs"))
]

LISTED = [
    "",
    "\n",
    "x",
    "# only a comment",
    "# only a comment\n",
    "x + # c",  # the end of input sits at the '#': 1:5
    "x + # c\n",
    "x +\t# c\r\n",
    "x\r\n+\r\n",
    "x\ry",
    "x # a\n# b\n\n# c",
    "x # ->\n->",
    "a->b - > c",
    "2x x2 1_2 _1 __",
    "é ß xé x² x½ xⅫ",
    "²",
    "x ½",
    "Ⅻ",
    "x\xa0y",
    "x   y",
    "x\fy",
    "x\vy",
    "٣",
    "x٣",
    "9" * 4301 + " x",
    "x # " + "9" * 5000,
    "x ! # !",
    "x # ! \n !",
    "manifold M { dim 1 coords [é] } # end",
    "manifold M { dim 2 coords [é ß] }\r\nbivector h on M { [1/2*é, 0; 0, ß] }\r\ncheck codazzi h # c",
]


@pytest.mark.parametrize("text", LISTED)
def test_listed_texts_tokenize_as_the_reference_tokenizes_them(text):
    assert_same_reading(text)


def test_the_corpus_and_data_texts_tokenize_as_the_reference_tokenizes_them():
    for text in TEXTS:
        assert assert_same_reading(text) == "scenario"


def test_the_end_of_input_after_a_trailing_comment_sits_at_its_hash():
    with pytest.raises(ParseError) as exc:
        parse_expr("x + # c")
    assert _error(exc.value) == ("ParseError", 1, 5, "expected expression", "")
    with pytest.raises(ParseError) as exc:
        parse_expr("x +\n\t# c")
    assert _error(exc.value) == ("ParseError", 2, 2, "expected expression", "")


@pytest.mark.parametrize("start", range(0, 0x3000, 0x400))
def test_every_character_starts_a_token_or_is_refused_as_the_reference_does(start):
    """Each character alone, after a name and after an integer: '²' is a word character to a regex,
    but starts no name."""
    for code in range(start, start + 0x400):
        c = chr(code)
        for text in (f"{c} ", f"x{c}", f"1{c}"):
            assert _tokens(text) == _reference(text), repr(text)


_INSERTS = (
    "\t", "\r", "\r\n", "\n", " ", "\xa0", "# c", "# é ² ->\n", "é", "ß", "xé", "²", "½", "Ⅻ", "x²", "->", ">",
    "1/2*", "/3", "9" * 4301, "[", "}", ";", "!",
)


def _variant(rng: random.Random, text: str) -> str:
    """``text`` with its line ends, spacing and comments varied, a coordinate renamed, and some edits."""
    if rng.random() < 0.3:
        text = text.replace("\n", "\r\n")
    if rng.random() < 0.3:
        text = text.replace(" ", rng.choice(("\t", " \t", "  ")))
    if rng.random() < 0.3:
        name = rng.choice(("é", "ß", "xé", "x²", "_é1"))
        text = text.replace(" x ", f" {name} ").replace("[x ", f"[{name} ").replace("*x", f"*{name}")
    lines = text.split("\n")
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(lines))
        lines[k] += rng.choice((" # mid-line comment", "# x + 1 -> y", "\t#", "#é²"))
    text = "\n".join(lines)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_INSERTS) + text[i:]
    r = rng.random()
    if r < 0.25:
        text = text.rstrip("\n")
    elif r < 0.5:
        text = text.rstrip("\n") + rng.choice((" # trailing", "\n# trailing", "# trailing ² !", "\t"))
    elif r < 0.6:
        text = text[: rng.randrange(len(text) + 1)]
    return text


@pytest.mark.parametrize("seed", range(4))
def test_random_variants_of_scenario_texts_tokenize_as_the_reference_tokenizes_them(seed):
    rng = random.Random(7300 + seed)
    kinds = []
    for _ in range(150):
        kinds.append(assert_same_reading(_variant(rng, rng.choice(TEXTS))))
    assert kinds.count("scenario") >= 10 and kinds.count("error") >= 10


def test_parse_scenario_reads_a_crlf_text_with_comments_as_its_plain_form():
    text = TEXTS[0]
    variant = text.replace("\n", "  # note\r\n").replace(" ", "\t")
    assert parse_scenario(variant) == parse_scenario(text)
