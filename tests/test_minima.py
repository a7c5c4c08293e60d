import itertools
import random

import pytest

from npicheck.minima import (
    MAX,
    MIN,
    ConcatCertificate,
    ConcatFailure,
    MinimaMultiset,
    NonVanishingRelatorWeight,
    NegativeWeight,
    WitnessStep,
    check_presentation,
    maxima_multiset,
    minima_multiset,
    prefix_profile,
    replay_certificate,
    replay_stuck_core,
    weak_concatenability,
)
from npicheck.orders import BraidTarget, IntTarget, TargetAssignment
from npicheck.words import exponent_sum, freely_reduce, make_presentation, rotate_word
from concat_dp_oracle import dp_weak_concatenability
from samples import sample_a, sample_b, sample_braid, torsion_presentation

Z = IntTarget()


def ones(pres):
    return TargetAssignment.all_ones(pres)


def test_prefix_profiles():
    pa = sample_a()
    assert prefix_profile(pa, 1, Z, ones(pa)) == [-1, -2, -1, 0, 1, 0, -1, -2, -1, 0]
    assert prefix_profile(pa, 0, Z, ones(pa)) == [-1, 0]
    pb = sample_braid()
    assert prefix_profile(pb, 1, Z, ones(pb)) == [-1, -2, -3, -4, -3, -2, -1, 0, 1, 0]


def test_profile_errors():
    pa = sample_a()
    with pytest.raises(NegativeWeight):
        prefix_profile(pa, 0, Z, TargetAssignment.from_weights(pa, (-1, 1, 1)))
    bad = make_presentation(["a", "b"], [(1, 1, -2)])
    with pytest.raises(NonVanishingRelatorWeight):
        prefix_profile(bad, 0, Z, ones(bad))


def test_minima_multisets_first_sample():
    pa = sample_a()
    m0 = minima_multiset(pa, 0, Z, ones(pa))
    assert m0.counts == {0: (0, 1), 1: (1, 0)}
    m1 = minima_multiset(pa, 1, Z, ones(pa))
    assert m1.counts == {1: (0, 2), 2: (2, 0)}
    assert m1.extremum == -2


def test_minima_multisets_second_sample():
    pb = sample_b()
    m0 = minima_multiset(pb, 0, Z, ones(pb))
    assert m0.counts == {2: (0, 2), 0: (2, 0)}
    m1 = minima_multiset(pb, 1, Z, ones(pb))
    assert m1.counts == {1: (0, 2), 2: (2, 0)}


def test_braid_multisets():
    pb = sample_braid()
    target = BraidTarget(4, opposite=True)
    named = TargetAssignment.named_braid(pb, target)
    m0 = minima_multiset(pb, 0, target, named)
    m1 = minima_multiset(pb, 1, target, named)
    assert sorted(m0.support()) == [1, 2]  # {y, z}
    assert sorted(m1.support()) == [0, 2]  # {x, z}
    assert m0.counts == {2: (1, 0), 1: (0, 1)}
    assert m1.counts == {0: (1, 0), 2: (0, 1)}


def test_maxima_examples():
    # LOG relator t^-1 lambda^-1 i lambda with i=a(1), lambda=b(2), t=c(3)
    log_pres = make_presentation(["a", "b", "c"], [(-3, -2, 1, 2)])
    m = maxima_multiset(log_pres, 0, Z, ones(log_pres))
    assert m.counts == {1: (1, 0), 2: (0, 1)}  # {lambda:+1, t:-1}
    pa = sample_a()
    m0 = maxima_multiset(pa, 0, Z, ones(pa))
    assert m0.counts == {1: (1, 0), 0: (0, 1)}
    bad = make_presentation(["a", "b"], [(1, 1, -2)])
    with pytest.raises(NonVanishingRelatorWeight):
        maxima_multiset(bad, 0, Z, ones(bad))


def test_multiset_support_nonempty():
    rng = random.Random(30)
    for _ in range(300):
        rel = zero_weight_relator(rng)
        pres = make_presentation(["a", "b", "c"], [rel])
        for fn in (minima_multiset, maxima_multiset):
            m = fn(pres, 0, Z, ones(pres))
            assert m.total() >= 1 and m.support()


def zero_weight_relator(rng, max_half=10):
    """Random cyclically reduced word with zero exponent sum per generator."""
    while True:
        half = [
            rng.choice([1, -1]) * rng.randrange(1, 4)
            for _ in range(rng.randrange(1, max_half + 1))
        ]
        word = freely_reduce(tuple(half))
        balance = []
        for g in range(3):
            e = exponent_sum(word, g)
            balance.extend([-(g + 1) if e > 0 else (g + 1)] * abs(e))
        rng.shuffle(balance)
        full = freely_reduce(word + tuple(balance))
        # keep only honestly cyclically reduced samples
        if full and (len(full) < 2 or full[0] != -full[-1]):
            if all(exponent_sum(full, g) == 0 for g in range(3)):
                return full


def test_rotation_covariance():
    rng = random.Random(31)
    for _ in range(300):
        rel = zero_weight_relator(rng)
        pres = make_presentation(["a", "b", "c"], [rel])
        base = minima_multiset(pres, 0, Z, ones(pres)).counts
        k = rng.randrange(len(rel))
        rotated = make_presentation(["a", "b", "c"], [rotate_word(rel, k)])
        assert minima_multiset(rotated, 0, Z, ones(rotated)).counts == base


def swap_counts(counts):
    return {g: (n, p) for g, (p, n) in counts.items()}


def test_inverse_duality():
    # minima of the inverse word swaps positive and negative copies, and so
    # does maxima of the sign-flipped word.
    rng = random.Random(32)
    for _ in range(1000):
        rel = zero_weight_relator(rng)
        pres = make_presentation(["a", "b", "c"], [rel])
        base = minima_multiset(pres, 0, Z, ones(pres)).counts
        inv = make_presentation(["a", "b", "c"], [tuple(-x for x in reversed(rel))])
        assert minima_multiset(inv, 0, Z, ones(inv)).counts == swap_counts(base)
        flipped = make_presentation(["a", "b", "c"], [tuple(-x for x in rel)])
        assert maxima_multiset(flipped, 0, Z, ones(flipped)).counts == swap_counts(base)


def make_multiset(relator, counts):
    return MinimaMultiset(relator=relator, mode=MIN, extremum=0, counts=counts)


def brute_force_concatenable(multisets):
    """All-permutations oracle for the placement condition."""
    k = len(multisets)
    supports = [m.support() for m in multisets]
    for perm in itertools.permutations(range(k)):
        used = set()
        ok = True
        for i in perm:
            if not any(
                g not in used and p != n
                for g, (p, n) in multisets[i].counts.items()
                if p + n > 0
            ):
                ok = False
                break
            used |= supports[i]
        if ok:
            return True
    return False


def test_weak_concatenability_examples():
    pa = sample_a()
    ms = [minima_multiset(pa, i, Z, ones(pa)) for i in range(2)]
    cert = weak_concatenability(ms)
    assert isinstance(cert, ConcatCertificate)
    assert cert.ordering == (0, 1)
    assert [w.gen for w in cert.witnesses] == [0, 2]  # a then c
    ok, _ = replay_certificate(cert, ms)
    assert ok

    pb = sample_b()
    msb = [minima_multiset(pb, i, Z, ones(pb)) for i in range(2)]
    auto = weak_concatenability(msb)
    assert isinstance(auto, ConcatCertificate)
    # the published ordering (r2, r1) with witnesses (b, a) replays too
    stated = ConcatCertificate(
        (1, 0), (WitnessStep(1, 0, 2), WitnessStep(0, 2, 0))
    )
    ok, why = replay_certificate(stated, msb)
    assert ok, why

    pz = sample_braid()
    msz = [minima_multiset(pz, i, Z, ones(pz)) for i in range(2)]
    failure = weak_concatenability(msz)
    assert isinstance(failure, ConcatFailure)
    assert failure.stuck_core == (0, 1)


def test_weak_concatenability_matches_brute_force():
    rng = random.Random(33)
    for _ in range(1000):
        k = rng.randrange(1, 7)
        multisets = []
        for i in range(k):
            counts = {}
            for g in rng.sample(range(6), rng.randrange(1, 4)):
                counts[g] = (rng.randrange(0, 3), rng.randrange(0, 3))
            if not any(p + n for p, n in counts.values()):
                counts[rng.randrange(6)] = (1, 0)
            multisets.append(make_multiset(i, counts))
        got = weak_concatenability(multisets)
        expected = brute_force_concatenable(multisets)
        assert isinstance(got, ConcatCertificate) == expected
        if expected:
            ok, why = replay_certificate(got, multisets)
            assert ok, why


def random_family(rng, k, pool):
    multisets = []
    for i in range(k):
        counts = {}
        for g in rng.sample(range(pool), rng.randrange(1, min(pool, 4) + 1)):
            counts[g] = (rng.randrange(0, 3), rng.randrange(0, 3))
        if not any(p + n for p, n in counts.values()):
            counts[rng.randrange(pool)] = (1, 0)
        multisets.append(make_multiset(i, counts))
    return multisets


def test_peeling_matches_subset_dp():
    rng = random.Random(35)
    outcomes = {True: 0, False: 0}
    for _ in range(5000):
        k = rng.randrange(1, 9)
        multisets = random_family(rng, k, rng.randrange(2, 2 * k + 3))
        got = weak_concatenability(multisets)
        expected = dp_weak_concatenability(multisets)
        outcomes[isinstance(expected, ConcatCertificate)] += 1
        if isinstance(expected, ConcatCertificate):
            assert got == expected
            continue
        assert isinstance(got, ConcatFailure)
        core = got.stuck_core
        ok, why = replay_stuck_core(core, multisets)
        assert ok, why
        for drop in core:
            smaller = tuple(r for r in core if r != drop)
            assert not replay_stuck_core(smaller, multisets)[0]
    assert min(outcomes.values()) > 1000


def test_stuck_core_replay_rejects_bad_cores():
    pz = sample_braid()
    msz = [minima_multiset(pz, i, Z, ones(pz)) for i in range(2)]
    assert replay_stuck_core((0, 1), msz)[0]
    assert not replay_stuck_core((), msz)[0]
    assert not replay_stuck_core((0, 0, 1), msz)[0]
    assert not replay_stuck_core((0, 1, 2), msz)[0]
    pa = sample_a()
    msa = [minima_multiset(pa, i, Z, ones(pa)) for i in range(2)]
    assert not replay_stuck_core((0, 1), msa)[0]


def ring(k):
    """Relator i has usable witness i; relator i-1 carries i in its support."""
    return [make_multiset(i, {i: (1, 0), (i + 1) % k: (1, 1)}) for i in range(k)]


def chain(k):
    """Multisets of minima of the chain g_i^-1 g_(i+1) under all-ones weights."""
    return [make_multiset(i, {i: (0, 1), i + 1: (1, 0)}) for i in range(k)]


def test_no_size_cap():
    failure = weak_concatenability(ring(16))
    assert failure == ConcatFailure(tuple(range(16)))
    cert = weak_concatenability(chain(40))
    assert isinstance(cert, ConcatCertificate)
    assert cert.ordering == tuple(range(40))
    assert replay_certificate(cert, chain(40))[0]


def test_certificate_prefix_monotonicity():
    rng = random.Random(34)
    checked = 0
    while checked < 100:
        k = rng.randrange(2, 6)
        multisets = []
        for i in range(k):
            counts = {g: (rng.randrange(0, 3), rng.randrange(0, 3)) for g in rng.sample(range(5), 2)}
            counts[rng.randrange(5)] = (1, 0)
            multisets.append(make_multiset(i, counts))
        got = weak_concatenability(multisets)
        if not isinstance(got, ConcatCertificate):
            continue
        checked += 1
        for cut in range(1, k + 1):
            prefix_rels = set(got.ordering[:cut])
            sub = [m for m in multisets if m.relator in prefix_rels]
            assert isinstance(weak_concatenability(sub), ConcatCertificate)


def test_check_presentation_verdicts():
    pa = sample_a()
    verdict = check_presentation(pa, Z, ones(pa), MIN)
    assert verdict.status == "concatenable"
    assert verdict.certificate is not None and verdict.flips == frozenset()

    pb = sample_braid()
    braid = BraidTarget(4, opposite=True)
    bverdict = check_presentation(pb, braid, TargetAssignment.named_braid(pb, braid), MIN)
    assert bverdict.status == "concatenable"
    assumed = [h.key for h in bverdict.hypotheses if h.status == "assumed"]
    assert "target-locally-indicable" in assumed

    tors = torsion_presentation()
    tverdict = check_presentation(tors, Z, ones(tors), MIN)
    assert tverdict.status == "hypothesis-failure"
    assert any(
        h.key == "h1-free-abelian-rank-n-k" and h.status == "fail"
        for h in tverdict.hypotheses
    )


def test_check_presentation_flips_negative_weights():
    # <a, b | a b>: the only primitive weight vectors are +-(1, -1), so the
    # pipeline must flip one generator before computing profiles.
    p = make_presentation(["a", "b"], [(1, 2)])
    mixed = TargetAssignment.from_weights(p, (1, -1))
    verdict = check_presentation(p, Z, mixed, MIN)
    assert verdict.status == "concatenable"
    assert verdict.flips == frozenset({1})
    assert verdict.presentation.relators == ((1, -2),)

    # Negating all weights swaps minima for maxima; for the first sample
    # both maxima supports coincide, so the negated map fails while the
    # positive one succeeds.
    pa = sample_a()
    neg = TargetAssignment.from_weights(pa, (-1, -1, -1))
    verdict = check_presentation(pa, Z, neg, MIN)
    assert verdict.status == "not-concatenable"
    assert verdict.flips == frozenset({0, 1, 2})


def test_modes_must_match():
    a = make_multiset(0, {0: (1, 0)})
    b = MinimaMultiset(relator=1, mode=MAX, extremum=0, counts={1: (1, 0)})
    with pytest.raises(ValueError):
        weak_concatenability([a, b])
