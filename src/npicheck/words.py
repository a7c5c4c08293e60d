"""Words, relators and group presentations.

A word is a tuple of nonzero ints: letter ``k > 0`` is generator number
``k`` (1-based), letter ``-k`` is its inverse.  Generators themselves are
referred to by 0-based index everywhere in the public API; the 1-based
letter encoding keeps sign arithmetic trivial (inverse = negation).
"""

from __future__ import annotations

import re
from typing import NamedTuple

Word = tuple[int, ...]

GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def letter_gen(x: int) -> int:
    """0-based generator index of a letter."""
    return abs(x) - 1


def inverse_word(word) -> Word:
    return tuple(-x for x in reversed(word))


def freely_reduce(word) -> Word:
    """Unique freely reduced word equal to ``word`` in the free group."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_freely_reduced(word) -> bool:
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def exponent_sum(word, gen: int) -> int:
    """Signed number of occurrences of 0-based generator ``gen``."""
    target = gen + 1
    return sum(1 if x == target else -1 if x == -target else 0 for x in word)


def rotate_word(word, k: int) -> Word:
    if not word:
        return tuple(word)
    k %= len(word)
    return tuple(word[k:] + word[:k])


def _wrap_length(word) -> int:
    """The number c of letters that cancel across the end of ``word``:
    word[i] is the inverse of word[-1 - i] for every i < c, with the two
    ends kept apart.  On a freely reduced word, word[c:len - c] is its
    cyclic reduction."""
    n = len(word)
    c = 0
    while c < n - 1 - c and word[c] == -word[n - 1 - c]:
        c += 1
    return c


def is_proper_power(word) -> bool:
    """True iff the cyclic reduction of the word is s^m for some m >= 2."""
    c = _wrap_length(word)
    word = word[c : len(word) - c]
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and all(word[t] == word[(t + d) % n] for t in range(n)):
            return True
    return False


class Presentation(NamedTuple):
    """A finite presentation: named generators and relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def letter_name(self, x: int) -> str:
        name = self.generators[letter_gen(x)]
        return name if x > 0 else name + "^-1"

    def word_str(self, word) -> str:
        return " ".join(self.letter_name(x) for x in word) if word else "1"

    def __str__(self) -> str:
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return f"<{' '.join(self.generators)} | {rels}>"


class Diagnostic(NamedTuple):
    """One violated presentation invariant (data, not a failure)."""

    code: str
    relator: int | None
    detail: str

    def __str__(self) -> str:
        where = f" (relator {self.relator})" if self.relator is not None else ""
        return f"{self.code}{where}: {self.detail}"


def validate(pres: Presentation) -> list[Diagnostic]:
    """All invariant violations of ``pres``; empty iff the presentation is valid."""
    out: list[Diagnostic] = []
    if not pres.generators:
        out.append(Diagnostic("no-generators", None, "a presentation needs n >= 1 generators"))
    seen: dict[str, int] = {}
    for i, name in enumerate(pres.generators):
        if not GENERATOR_NAME.match(name):
            out.append(Diagnostic("bad-generator-name", None, f"generator {i}: {name!r}"))
        if name in seen:
            out.append(
                Diagnostic("duplicate-generator-name", None, f"{name!r} at {seen[name]} and {i}")
            )
        seen.setdefault(name, i)
    n = len(pres.generators)
    for i, rel in enumerate(pres.relators):
        if len(rel) == 0:
            out.append(Diagnostic("empty-relator", i, "relators must be nonempty"))
            continue
        if any(x == 0 or abs(x) > n for x in rel):
            out.append(Diagnostic("unknown-generator", i, "letter outside the generator list"))
            continue
        # Adjacent cancellation is fatal; a cancelling wrap pair is accepted,
        # since it only ever adds balanced copies to the extremal multisets.
        if not is_freely_reduced(rel):
            out.append(Diagnostic("not-cyclically-reduced", i, pres.word_str(rel)))
    return out
