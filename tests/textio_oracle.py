"""The former token-and-column parser, kept verbatim as a differential
oracle for :mod:`npicheck.textio`.

It finds every token with a ``\\S+`` regex together with its column, looks
names up in lists, and runs the letter regex on every relator token.  The
current parser splits each line with ``str.split()``, looks names up in a
dict, skips the regex for a bare generator name, and computes a column only
when it raises a ``ParseError``.
"""

from __future__ import annotations

import re

from npicheck.logs import Log
from npicheck.textio import _LETTER, MAX_TOKEN_LETTERS, ParseError, UnknownVertex, _bounded_int
from npicheck.words import GENERATOR_NAME, Presentation, Word


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
