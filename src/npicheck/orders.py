"""Left-ordered target groups: the integers, and braid groups under the
Dehornoy order or its opposite.

Braid elements are carried as freely reduced words in the Artin generators
(signed ints, sigma_i = i).  Comparison is by sigma-positivity: a word is
greater than the identity iff it is sigma_i-positive for some i, that is,
its lowest-index generator sigma_i occurs only with positive exponent.
By Property A (Dehornoy, *A fast method for comparing braids*, Adv. Math.
125, 1997) a sigma_i-positive word is never trivial, and the sign is a
braid invariant, so a freely reduced word whose lowest generator occurs
with one sign only has that sign as it stands.  Only a word whose lowest
generator occurs with both signs goes through handle reduction, which
ends in a word of the first kind or the empty word.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import Presentation, Word, freely_reduce, inverse_word

LT, EQ, GT = -1, 0, 1

POSITIVE = "positive"
NEGATIVE = "negative"
TRIVIAL = "trivial"

HANDLE_REDUCTION_MAX_STEPS = 10**6  # see handle_reduce


class UnassignedGenerator(KeyError):
    """A word letter has no image under the target assignment."""


class HandleReductionBudget(RuntimeError):
    """Handle reduction exceeded HANDLE_REDUCTION_MAX_STEPS."""


class BadTargetSpec(ValueError):
    """Malformed target spec string."""


def _find_handle(word: tuple[int, ...]) -> tuple[int, int] | None:
    """Leftmost-ending handle (s, t): opener word[s], closer word[t].

    A sigma_i-handle is sigma_i^e u sigma_i^-e with u free of sigma_i and
    sigma_{i-1}.  The leftmost-ending one contains no nested handle, so it
    is always safe to reduce.
    """
    last: dict[int, int] = {}
    for t, x in enumerate(word):
        i = abs(x)
        s = last.get(i)
        if s is not None and word[s] == -x:
            if all(abs(word[p]) != i - 1 for p in range(s + 1, t)):
                return s, t
        last[i] = t
    return None


def _reduced_in_range(word, n_strands: int) -> Word:
    """The freely reduced word, whose letters must be sigma_1..sigma_{n-1}."""
    w = freely_reduce(word)
    for x in w:
        if not 1 <= abs(x) <= n_strands - 1:
            raise ValueError(f"letter {x} outside sigma_1..sigma_{n_strands - 1}")
    return w


def handle_reduce(word, n_strands: int) -> Word:
    """Handle-free word representing the same braid in B_{n_strands}.

    Each step deletes the flanking pair of a handle and conjugates the
    sigma_{i+1} letters in between: sigma_{i+1}^d -> sigma_{i+1}^-e
    sigma_i^d sigma_{i+1}^e.  Termination is guaranteed for reduction of
    innermost handles; the cap turns a would-be loop into a loud error.
    """
    w = _reduced_in_range(word, n_strands)
    for _ in range(HANDLE_REDUCTION_MAX_STEPS):
        found = _find_handle(w)
        if found is None:
            return w
        s, t = found
        i = abs(w[s])
        e = 1 if w[s] > 0 else -1
        mid: list[int] = []
        for x in w[s + 1 : t]:
            if abs(x) == i + 1:
                d = 1 if x > 0 else -1
                mid.extend([-e * (i + 1), d * i, e * (i + 1)])
            else:
                mid.append(x)
        w = freely_reduce(w[:s] + tuple(mid) + w[t + 1 :])
    raise HandleReductionBudget(f"no handle-free form within {HANDLE_REDUCTION_MAX_STEPS} steps")


def _main_signs(w: Word) -> set[bool]:
    """The signs with which the lowest generator of a nonempty word occurs."""
    main = min(abs(x) for x in w)
    return {x > 0 for x in w if abs(x) == main}


def braid_sign(word, n_strands: int) -> str:
    """Dehornoy trichotomy class of a braid word.

    The word is handle reduced only when its lowest generator occurs with
    both signs (Property A, see the module docstring), so
    HandleReductionBudget is reached only by such words."""
    w = _reduced_in_range(word, n_strands)
    if not w:
        return TRIVIAL
    signs = _main_signs(w)
    if len(signs) != 1:
        w = handle_reduce(w, n_strands)
        if not w:
            return TRIVIAL
        signs = _main_signs(w)
        if len(signs) != 1:
            raise AssertionError("handle-free word with mixed main-generator signs")
    return POSITIVE if signs.pop() else NEGATIVE


class OrderedTarget:
    """A group with a left-invariant total order.

    Subclasses fix the element representation and implement the four group
    operations plus ``compare``; all operations are pure.
    """

    name = "abstract"

    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def compare(self, g, h) -> int:
        raise NotImplementedError

    def equals(self, g, h) -> bool:
        return self.compare(g, h) == EQ

    def describe(self, g) -> str:
        return str(g)


class IntTarget(OrderedTarget):
    """The integers with the usual order."""

    name = "z"

    def identity(self) -> int:
        return 0

    def multiply(self, g: int, h: int) -> int:
        return g + h

    def inverse(self, g: int) -> int:
        return -g

    def compare(self, g: int, h: int) -> int:
        return LT if g < h else GT if g > h else EQ


class BraidTarget(OrderedTarget):
    """B_n under the Dehornoy order, optionally reversed.

    Elements are freely reduced sigma-words; equality and comparison read
    the sign of g^-1 h (``braid_sign``), so they depend only on the braid
    element.
    """

    def __init__(self, n_strands: int, opposite: bool = False):
        if n_strands < 2:
            raise ValueError("need at least 2 strands")
        self.n_strands = n_strands
        self.opposite = opposite
        self.name = f"braid:{n_strands}" + (":opp" if opposite else "")

    def generator(self, index: int, sign: int = 1) -> Word:
        if not 1 <= index <= self.n_strands - 1:
            raise ValueError(f"sigma index {index} out of range")
        return (sign * index,)

    def identity(self) -> Word:
        return ()

    def multiply(self, g, h) -> Word:
        return freely_reduce(tuple(g) + tuple(h))

    def inverse(self, g) -> Word:
        return inverse_word(g)

    def compare(self, g, h) -> int:
        sign = braid_sign(self.multiply(self.inverse(g), h), self.n_strands)
        if sign == TRIVIAL:
            return EQ
        base = LT if sign == POSITIVE else GT
        return -base if self.opposite else base

    def describe(self, g) -> str:
        if not g:
            return "1"
        return " ".join(f"s{abs(x)}" + ("" if x > 0 else "^-1") for x in g)


class TargetAssignment(NamedTuple):
    """Images of the presentation generators in an ordered target."""

    target: OrderedTarget
    images: dict  # 0-based gen index -> element

    def image(self, gen: int):
        try:
            return self.images[gen]
        except KeyError as exc:
            raise UnassignedGenerator(f"generator index {gen} has no image") from exc

    @staticmethod
    def all_ones(pres: Presentation) -> "TargetAssignment":
        return TargetAssignment(IntTarget(), {j: 1 for j in range(len(pres.generators))})

    @staticmethod
    def from_weights(pres: Presentation, weights) -> "TargetAssignment":
        return TargetAssignment(IntTarget(), {j: int(w) for j, w in enumerate(weights)})

    @staticmethod
    def named_braid(pres: Presentation, target: BraidTarget) -> "TargetAssignment":
        """Generator j maps to sigma_{j+1}."""
        if len(pres.generators) > target.n_strands - 1:
            raise ValueError("more generators than Artin generators")
        return TargetAssignment(
            target, {j: target.generator(j + 1) for j in range(len(pres.generators))}
        )


def parse_target_spec(spec: str) -> OrderedTarget:
    """Target spec strings: ``z``, ``braid:<n>[:opp]``."""
    parts = spec.split(":")
    if parts == ["z"]:
        return IntTarget()
    if parts[0] == "braid" and len(parts) in (2, 3):
        if len(parts) == 3 and parts[2] != "opp":
            raise BadTargetSpec(spec)
        try:
            return BraidTarget(int(parts[1]), opposite=len(parts) == 3)
        except ValueError as exc:
            raise BadTargetSpec(spec) from exc
    raise BadTargetSpec(spec)
