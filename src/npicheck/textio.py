"""Text formats for presentations and labelled oriented graphs.

Presentation grammar (whitespace separated, ``#`` starts a comment):

    gens: <name> <name> ...
    rel: <letter> <letter> ...

where letter is ``name``, ``name^-1`` or ``name^<k>`` for nonzero k
(expanding to |k| letters, at most ``MAX_TOKEN_LETTERS``).  LOG files use
``vertices:`` and ``edge: <initial> <label> <terminal>`` lines.  Numbers
are written in ASCII digits.
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def _tokens_with_columns(body: str):
    for match in re.finditer(r"\S+", body):
        yield match.start() + 1, match.group()


def _parse_file(text: str, header: str, noun: str, body: str, items: str, parse_body):
    """The names on the single ``header`` line (valid, pairwise distinct, at
    least one), and ``parse_body(lineno, col0, tokens, names)`` for each
    ``body`` line, which must come after it."""
    names: list[str] | None = None
    parsed = []
    for lineno, line in _logical_lines(text):
        tokens = list(_tokens_with_columns(line))
        col0, head = tokens[0]
        if head == header:
            if names is not None:
                raise ParseError(lineno, col0, f"a single {header} line")
            names = []
            for col, tok in tokens[1:]:
                if not GENERATOR_NAME.match(tok):
                    raise ParseError(lineno, col, f"{noun} name")
                if tok in names:
                    raise ParseError(lineno, col, f"fresh name, {tok!r} repeats")
                names.append(tok)
            if not names:
                raise ParseError(lineno, col0, f"at least one {noun}")
        elif head == body:
            if names is None:
                raise ParseError(lineno, col0, f"{header} line before {items}")
            parsed.append(parse_body(lineno, col0, tokens, names))
        else:
            raise ParseError(lineno, col0, f"{header} or {body}")
    if names is None:
        raise ParseError(1, 1, f"{header} line")
    return tuple(names), tuple(parsed)


def _bounded_int(digits: str) -> int | None:
    """A signed run of ASCII digits as an int, or None when its magnitude
    exceeds MAX_TOKEN_LETTERS.  Leading zeros are dropped and the digits
    counted before int() runs, since int() refuses thousands of them."""
    magnitude = digits.lstrip("-").lstrip("0") or "0"
    if len(magnitude) > len(str(MAX_TOKEN_LETTERS)) or int(magnitude) > MAX_TOKEN_LETTERS:
        return None
    return -int(magnitude) if digits.startswith("-") else int(magnitude)


def _parse_relator(lineno: int, col0: int, tokens, generators) -> Word:
    word: list[int] = []
    for col, tok in tokens[1:]:
        m = _LETTER.match(tok)
        if not m:
            raise ParseError(lineno, col, "letter name[^k]")
        name, k = m.group(1), _bounded_int(m.group(2) or "1")
        if name not in generators:
            raise ParseError(lineno, col, f"known generator, got {name!r}")
        if k is None:
            raise ParseError(lineno, col, f"at most {MAX_TOKEN_LETTERS} letters per token")
        if k == 0:
            raise ParseError(lineno, col, "nonzero exponent")
        base = generators.index(name) + 1
        word.extend([base if k > 0 else -base] * abs(k))
    return tuple(word)


def parse_presentation(text: str) -> Presentation:
    return Presentation(
        *_parse_file(text, "gens:", "generator", "rel:", "relators", _parse_relator)
    )


def format_presentation(pres: Presentation) -> str:
    lines = ["gens: " + " ".join(pres.generators)]
    for rel in pres.relators:
        parts = []
        i = 0
        while i < len(rel):
            j = i
            while j < len(rel) and rel[j] == rel[i]:
                j += 1
            name = pres.generators[abs(rel[i]) - 1]
            count = (j - i) * (1 if rel[i] > 0 else -1)
            parts.append(name if count == 1 else f"{name}^{count}")
            i = j
        lines.append("rel: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_log_edge(lineno: int, col0: int, tokens, vertices) -> tuple[int, int, int]:
    if len(tokens) != 4:
        raise ParseError(lineno, col0, "edge: <initial> <label> <terminal>")
    triple = []
    for col, tok in tokens[1:]:
        if tok not in vertices:
            raise UnknownVertex(lineno, col, tok)
        triple.append(vertices.index(tok))
    return tuple(triple)


def parse_log(text: str) -> Log:
    return Log(*_parse_file(text, "vertices:", "vertex", "edge:", "edges", _parse_log_edge))


def format_log(log: Log) -> str:
    lines = ["vertices: " + " ".join(log.vertices)]
    for i, lam, t in log.edges:
        lines.append(f"edge: {log.vertices[i]} {log.vertices[lam]} {log.vertices[t]}")
    return "\n".join(lines) + "\n"


def sniff_kind(text: str) -> str:
    """``presentation`` for gens:/rel: files, ``log`` for vertices:/edge: files."""
    for _, body in _logical_lines(text):
        head = body.split()[0]
        if head == "gens:":
            return "presentation"
        if head == "vertices:":
            return "log"
        break
    return "presentation"
