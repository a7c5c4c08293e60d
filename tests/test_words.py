import random

from hypothesis import given, strategies as st

from npicheck.words import Diagnostic, exponent_sum, freely_reduce, is_proper_power, validate
from helpers import cyclically_reduce, flip_generator, is_cyclically_reduced, make_presentation
from samples import sample_a


def scan_reduce(word):
    """Quadratic oracle: repeatedly delete the first adjacent cancelling pair."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def random_word(rng, max_len=64, gens=3):
    return tuple(
        rng.choice([1, -1]) * rng.randrange(1, gens + 1)
        for _ in range(rng.randrange(0, max_len + 1))
    )


def test_freely_reduce_examples():
    assert freely_reduce((1, -1)) == ()
    assert freely_reduce((1, 2, 3)) == (1, 2, 3)
    # a b b^-1 a -> a a, cross-checked by the scan oracle
    assert freely_reduce((1, 2, -2, 1)) == scan_reduce((1, 2, -2, 1)) == (1, 1)


def test_freely_reduce_matches_scan_oracle_and_is_idempotent():
    rng = random.Random(1)
    for _ in range(10_000):
        w = random_word(rng)
        r = freely_reduce(w)
        assert r == scan_reduce(w)
        assert freely_reduce(r) == r
        assert len(r) <= len(w)


def test_cyclically_reduce_examples():
    # a b a^-1 -> (b, a)
    assert cyclically_reduce((1, 2, -1)) == ((2,), (1,))
    # a^-1 b is already cyclically reduced
    assert cyclically_reduce((-1, 2)) == ((-1, 2), ())
    # b a a^-1 b^-1 -> (empty, b): strip the b-pair, then the middle cancels
    assert cyclically_reduce((2, 1, -1, -2)) == ((), (2,))


def test_cyclically_reduce_reconstruction_property():
    rng = random.Random(2)
    for _ in range(10_000):
        w = random_word(rng)
        core, conj = cyclically_reduce(w)
        assert is_cyclically_reduced(core)
        rebuilt = freely_reduce(conj + core + tuple(-x for x in reversed(conj)))
        assert rebuilt == freely_reduce(w)


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40))
def test_cyclic_core_has_no_wraparound(letters):
    core, _ = cyclically_reduce(tuple(letters))
    assert is_cyclically_reduced(core)


def test_exponent_sum():
    assert exponent_sum((1, 2, -1), 0) == 0
    r2 = sample_a().relators[1]
    assert exponent_sum(r2, 2) == 1
    assert exponent_sum((), 0) == 0


def test_exponent_sum_additive():
    rng = random.Random(3)
    for _ in range(500):
        u, v = random_word(rng, 20), random_word(rng, 20)
        for g in range(3):
            assert exponent_sum(u + v, g) == exponent_sum(u, g) + exponent_sum(v, g)


def test_flip_generator():
    p = make_presentation(["a", "b"], [(-1, 2)])
    flipped = flip_generator(p, 0)
    assert flipped.relators == ((1, 2),)
    assert flip_generator(flipped, 0) == p
    pa = make_presentation(["a"], [(1, 1)])
    assert flip_generator(pa, 0).relators == ((-1, -1),)


def test_flip_preserves_exponent_magnitude():
    rng = random.Random(4)
    for _ in range(300):
        rel = freely_reduce(random_word(rng, 16))
        if not rel:
            continue
        p = make_presentation(["a", "b", "c"], [rel])
        g = rng.randrange(3)
        q = flip_generator(p, g)
        assert abs(exponent_sum(q.relators[0], g)) == abs(exponent_sum(rel, g))


def test_validate():
    assert validate(sample_a()) == []
    assert [d.code for d in validate(make_presentation(["a"], [(1, -1)]))] == [
        "not-cyclically-reduced"
    ]
    assert [d.code for d in validate(make_presentation(["a"], [()]))] == ["empty-relator"]
    assert "duplicate-generator-name" in [
        d.code for d in validate(make_presentation(["a", "a"], []))
    ]
    assert "unknown-generator" in [
        d.code for d in validate(make_presentation(["a"], [(2,)]))
    ]
    assert "no-generators" in [d.code for d in validate(make_presentation([], []))]
    assert "bad-generator-name" in [
        d.code for d in validate(make_presentation(["1a"], []))
    ]


def test_diagnostics_are_data():
    d = Diagnostic("empty-relator", 0, "relators must be nonempty")
    assert "relator 0" in str(d)


def literal_power(word):
    """Whether the literal word is s^m for some m >= 2, by every period."""
    n = len(word)
    return any(n % d == 0 and word == word[d:] + word[:d] for d in range(1, n))


def test_is_proper_power():
    assert is_proper_power((1, 1))
    assert is_proper_power((1, 2, 1, 2))
    assert not is_proper_power((1, 2))
    assert not is_proper_power(())
    # The cyclic reduction is read: b a^-2 b^-1 is cyclically a^-2, and
    # c^-1 b^-1 (a b)^2 b c, whose two letters cancel across the end,
    # cyclically (a b)^2; b a b^-1 is cyclically a.
    assert is_proper_power((2, -1, -1, -2))
    assert is_proper_power((-3, -2, 1, 2, 1, 2, 2, 3))
    assert not is_proper_power((2, 1, -2))
    assert not is_proper_power((-3, -2, 1, 1, 2, 1, 2, 3))
    # Seeded: a freely reduced word is a proper power iff its cyclic
    # reduction literally is one, and a conjugate of s^m always is.
    rng = random.Random(11)
    powers = 0
    for _ in range(2000):
        word = freely_reduce(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 12)))
        s = cyclically_reduce(word)[0]
        assert is_proper_power(word) == literal_power(s), word
        if s:
            u = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 3)))
            conj = freely_reduce(u + s * rng.randint(2, 3) + tuple(-x for x in reversed(u)))
            assert is_proper_power(conj), conj
            powers += conj[0] == -conj[-1]
    assert powers > 100


def test_presentation_str():
    p = sample_a()
    assert "a^-1 b" in str(p)
