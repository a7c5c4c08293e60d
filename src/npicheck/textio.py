"""Text formats for presentations and labelled oriented graphs.

Presentation grammar (whitespace separated, ``#`` starts a comment):

    gens: <name> <name> ...
    rel: <letter> <letter> ...

where letter is ``name``, ``name^-1`` or ``name^<k>`` for nonzero k
(expanding to |k| letters, at most ``MAX_TOKEN_LETTERS``).  LOG files use
``vertices:`` and ``edge: <initial> <label> <terminal>`` lines.  Numbers
are written in ASCII digits.

Lines are split with ``str.split()``, and a token's column is computed
only when a ``ParseError`` is raised at it.
"""

from __future__ import annotations

import re

from .logs import Log
from .words import GENERATOR_NAME, Presentation, Word

_LETTER = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?\Z")

# A letter token ``name^k`` expands to |k| letters; a larger |k| is a parse
# error, so a short hostile line cannot demand an arbitrarily long relator.
MAX_TOKEN_LETTERS = 10_000


class ParseError(ValueError):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, column {col}: expected {expected}")


class UnknownVertex(ParseError):
    def __init__(self, line: int, col: int, name: str):
        self.name = name
        ParseError.__init__(self, line, col, f"a declared vertex, got {name!r}")


def _logical_lines(text: str):
    """(line number, comment-free body, its tokens) for each line with a token."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            yield lineno, body, tokens


def _column(body: str, index: int) -> int:
    """1-based column of token ``index`` of ``body``: ``str.split()`` and
    ``\\S+`` split on the same whitespace."""
    return [m.start() for m in re.finditer(r"\S+", body)][index] + 1


def _parse_file(text: str, header: str, noun: str, body: str, items: str, parse_body):
    """The names on the single ``header`` line (valid, pairwise distinct, at
    least one), and ``parse_body(lineno, line, tokens, index)`` for each
    ``body`` line, which must come after it; ``index`` maps each name to
    its position."""
    index: dict[str, int] | None = None
    parsed = []
    for lineno, line, tokens in _logical_lines(text):
        head = tokens[0]
        if head == header:
            if index is not None:
                raise ParseError(lineno, _column(line, 0), f"a single {header} line")
            index = {}
            for i, tok in enumerate(tokens[1:], start=1):
                if not GENERATOR_NAME.match(tok):
                    raise ParseError(lineno, _column(line, i), f"{noun} name")
                if tok in index:
                    raise ParseError(lineno, _column(line, i), f"fresh name, {tok!r} repeats")
                index[tok] = len(index)
            if not index:
                raise ParseError(lineno, _column(line, 0), f"at least one {noun}")
        elif head == body:
            if index is None:
                raise ParseError(lineno, _column(line, 0), f"{header} line before {items}")
            parsed.append(parse_body(lineno, line, tokens, index))
        else:
            raise ParseError(lineno, _column(line, 0), f"{header} or {body}")
    if index is None:
        raise ParseError(1, 1, f"{header} line")
    return tuple(index), tuple(parsed)


def _bounded_int(digits: str) -> int | None:
    """A signed run of ASCII digits as an int, or None when its magnitude
    exceeds MAX_TOKEN_LETTERS.  Leading zeros are dropped and the digits
    counted before int() runs, since int() refuses thousands of them."""
    magnitude = digits.lstrip("-").lstrip("0") or "0"
    if len(magnitude) > len(str(MAX_TOKEN_LETTERS)) or int(magnitude) > MAX_TOKEN_LETTERS:
        return None
    return -int(magnitude) if digits.startswith("-") else int(magnitude)


def _parse_relator(lineno: int, line: str, tokens, generators) -> Word:
    word: list[int] = []
    for i, tok in enumerate(tokens[1:], start=1):
        base = generators.get(tok)
        if base is not None:  # a bare generator name, the common token
            word.append(base + 1)
            continue
        m = _LETTER.match(tok)
        if not m:
            raise ParseError(lineno, _column(line, i), "letter name[^k]")
        name, k = m.group(1), _bounded_int(m.group(2) or "1")
        if name not in generators:
            raise ParseError(lineno, _column(line, i), f"known generator, got {name!r}")
        if k is None:
            raise ParseError(
                lineno, _column(line, i), f"at most {MAX_TOKEN_LETTERS} letters per token"
            )
        if k == 0:
            raise ParseError(lineno, _column(line, i), "nonzero exponent")
        base = generators[name] + 1
        word.extend([base if k > 0 else -base] * abs(k))
    return tuple(word)


def parse_presentation(text: str) -> Presentation:
    return Presentation(
        *_parse_file(text, "gens:", "generator", "rel:", "relators", _parse_relator)
    )


def _parse_log_edge(lineno: int, line: str, tokens, vertices) -> tuple[int, int, int]:
    if len(tokens) != 4:
        raise ParseError(lineno, _column(line, 0), "edge: <initial> <label> <terminal>")
    triple = []
    for i, tok in enumerate(tokens[1:], start=1):
        if tok not in vertices:
            raise UnknownVertex(lineno, _column(line, i), tok)
        triple.append(vertices[tok])
    return tuple(triple)


def parse_log(text: str) -> Log:
    return Log(*_parse_file(text, "vertices:", "vertex", "edge:", "edges", _parse_log_edge))


def sniff_kind(text: str) -> str:
    """``presentation`` for gens:/rel: files, ``log`` for vertices:/edge: files."""
    for _, _, tokens in _logical_lines(text):
        head = tokens[0]
        if head == "gens:":
            return "presentation"
        if head == "vertices:":
            return "log"
        break
    return "presentation"
