import itertools
from collections import Counter
import math
import random
import time

import pytest

from npicheck.minima import (
    MAX,
    MIN,
    ConcatCertificate,
    ConcatFailure,
    MinimaMultiset,
    WitnessStep,
    _extremal_counts,
    _extremal_multiset,
    _integer_multisets,
    _integer_profile,
    _ordered_multisets,
    check_assignment,
    check_presentation,
    presentation_hypotheses,
    replay_certificate,
    replay_stuck_core,
    weak_concatenability,
)
from npicheck.homology import NoSurjection, exponent_matrix
from npicheck.logs import log_to_presentation
from npicheck import minima
from npicheck.orders import BraidTarget, IntTarget, TargetAssignment
from npicheck.textio import parse_presentation
from npicheck.words import exponent_sum, freely_reduce, rotate_word
import braid_order_oracle
from check_oracle import check_assignment_oracle
from concat_dp_oracle import dp_weak_concatenability
from flip_frame_oracle import flip_all, in_flipped_frame
from forward_certificate_oracle import forward_weak_concatenability
from lex_target_oracle import LexTarget, lexicographic_weights
from stuck_core_replay_oracle import replay_stuck_core_oracle
from helpers import (
    NonVanishingRelatorWeight,
    find_weight_homomorphisms,
    integer_kernel_basis,
    lof_random,
    make_presentation,
    maxima_multiset,
    minima_multiset,
    prefix_profile,
)
from samples import (
    BOX_FOREST_A_TEXT,
    BOX_FOREST_C_TEXT,
    FOREST7R3_2_TEXT,
    FOREST7R3_8_TEXT,
    sample_a,
    sample_b,
    sample_braid,
    torsion_presentation,
)
from test_cover import _lofs_and_wlots

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
    # Signed weights are read as they are: negating every weight negates
    # the profile.  Only a relator with a nonzero image is an error.
    pa = sample_a()
    neg = TargetAssignment.from_weights(pa, (-1, -1, -1))
    assert prefix_profile(pa, 1, Z, neg) == [1, 2, 1, 0, -1, 0, 1, 2, 1, 0]
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
            assert isinstance(got, ConcatCertificate)
            ok, why = replay_certificate(got, multisets)
            assert ok, why
            continue
        assert isinstance(got, ConcatFailure)
        core = got.stuck_core
        ok, why = replay_stuck_core(core, multisets)
        assert ok, why
        for drop in core:
            smaller = tuple(r for r in core if r != drop)
            assert not replay_stuck_core(smaller, multisets)[0]
    assert min(outcomes.values()) > 1000


def planted_family(rng, k):
    """k multisets with a certificate by construction: the relator at
    step s of a shuffled order gets witness ``pool + s``, which no relator
    before it holds.  Half of the time a few relators then take a balanced
    copy of each other's usable generators, so that they are stuck."""
    pool = rng.randrange(1, k + 1)
    steps = list(range(k))
    rng.shuffle(steps)
    multisets = []
    for i, step in enumerate(steps):
        counts = {pool + step: rng.choice([(1, 0), (0, 1), (2, 1), (0, 2)])}
        for g in rng.sample(range(pool + step), min(pool + step, rng.randrange(0, 4))):
            counts[g] = (rng.randrange(0, 3), rng.randrange(0, 3))
        multisets.append(make_multiset(i, counts))
    if rng.random() < 0.5:
        stuck = rng.sample(range(k), rng.randrange(2, 5))
        usable = {g for i in stuck for g, (p, n) in multisets[i].counts.items() if p != n}
        for i in stuck:
            counts = dict(multisets[i].counts)
            for g in usable - set(counts):
                counts[g] = (1, 1)
            multisets[i] = make_multiset(i, counts)
    return multisets


@pytest.mark.parametrize("sizes", ["small", "large"])
def test_certificate_read_off_the_peeling_matches_the_forward_search(sizes):
    """Against the forward placement search: the same outcome, the same
    stuck core, and a certificate that replays.  Small families come from
    ``random_family`` with k <= 8; large ones are planted, 9 <= k <= 60."""
    rng = random.Random(36)
    outcomes = {True: 0, False: 0}
    for _ in range(3000 if sizes == "small" else 300):
        if sizes == "small":
            k = rng.randrange(1, 9)
            multisets = random_family(rng, k, rng.randrange(2, 2 * k + 3))
        else:
            multisets = planted_family(rng, rng.randrange(9, 61))
        got = weak_concatenability(multisets)
        expected = forward_weak_concatenability(multisets)
        assert type(got) is type(expected)
        certified = isinstance(got, ConcatCertificate)
        outcomes[certified] += 1
        if certified:
            assert replay_certificate(got, multisets)[0]
            assert replay_certificate(expected, multisets)[0]
        else:
            assert got.stuck_core == expected.stuck_core
    assert min(outcomes.values()) > 100


@pytest.mark.parametrize(
    "counts",
    [
        lambda i: {i: (1, 0), i + 1: (0, 1)},
        lambda i: {i: (1, 1), i + 1: (1, 0)},
    ],
    ids=["chain", "reversed-chain"],
)
def test_certificate_in_one_pass_on_a_long_chain(counts):
    """One peeling pass per decision: 20,000 chained relators certify in
    well under 5 s, where a peeling per placement (the forward search)
    grows as k^2 and takes minutes."""
    multisets = [make_multiset(i, counts(i)) for i in range(20000)]
    start = time.perf_counter()
    cert = weak_concatenability(multisets)
    assert time.perf_counter() - start < 5
    assert isinstance(cert, ConcatCertificate)
    assert replay_certificate(cert, multisets)[0]


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


def test_stuck_core_replay_matches_the_union_rebuilding_oracle():
    """Against the replay that rebuilt the union of the other supports for
    every candidate: the same (ok, message) on the stuck cores of seeded
    families, and on cores corrupted by dropping, adding or repeating a
    member, naming a relator that does not exist, or drawing a random
    subset in random order.  Every branch of the replay is reached."""
    rng = random.Random(37)
    kinds = Counter()
    for _ in range(2000):
        if rng.random() < 0.5:
            k = rng.randrange(1, 9)
            multisets = random_family(rng, k, rng.randrange(2, 2 * k + 3))
        else:
            multisets = planted_family(rng, rng.randrange(9, 41))
        k = len(multisets)
        outcome = weak_concatenability(multisets)
        core = list(outcome.stuck_core) if isinstance(outcome, ConcatFailure) else []
        rng.shuffle(core)
        outside = sorted(set(range(k)) - set(core))
        cores = [core, core + [k], core + core[:1], rng.sample(range(k), rng.randrange(k + 1))]
        if core:
            cores.append([j for j in core if j != rng.choice(core)])
        if outside:
            cores.append(core + [rng.choice(outside)])
        for candidate in cores:
            got = replay_stuck_core(candidate, multisets)
            assert got == replay_stuck_core_oracle(candidate, multisets), (candidate, multisets)
            kinds[got[1].split()[0] if not got[0] else "replays"] += 1
    assert set(kinds) == {"an", "core", "relator", "relators", "replays"}
    assert min(kinds.values()) > 100, kinds


def test_stuck_core_replay_on_a_long_reversed_chain():
    """2,000 chained relators that peel one at a time, highest first,
    behind a stuck pair: the decision replays its stuck core well within
    1 s (about 0.015 s on a 2-vCPU host), since the replay's worklist
    makes it linear.  Plain rounds of peeling took 0.9 s here, and
    rebuilding the union of supports per candidate 1.5 s at 400
    relators."""
    k = 2000
    multisets = [make_multiset(i, {i: (1, 1), i + 1: (1, 0)}) for i in range(k)]
    multisets += [make_multiset(k, {k + 1: (1, 0)}), make_multiset(k + 1, {k + 1: (0, 1)})]
    start = time.perf_counter()
    outcome = weak_concatenability(multisets)
    assert time.perf_counter() - start < 1
    assert outcome == ConcatFailure((k, k + 1))


def _certified_families():
    """Seeded families of two to five multisets that have a certificate."""
    rng = random.Random(41)
    while True:
        multisets = []
        for i in range(rng.randrange(2, 6)):
            counts = {}
            for g in rng.sample(range(6), rng.randrange(1, 4)):
                counts[g] = (rng.randrange(0, 3), rng.randrange(0, 3))
            counts[rng.randrange(6)] = (1, 0)
            multisets.append(make_multiset(i, counts))
        cert = weak_concatenability(multisets)
        if isinstance(cert, ConcatCertificate):
            yield multisets, cert


def _with_witness(cert, step, witness):
    witnesses = cert.witnesses[:step] + (witness,) + cert.witnesses[step + 1:]
    return cert._replace(witnesses=witnesses)


def _duplicate_relator(by_rel, cert):
    return cert._replace(ordering=cert.ordering[:-1] + cert.ordering[:1])


def _drop_witness(by_rel, cert):
    return cert._replace(witnesses=cert.witnesses[:-1])


def _absent_witness(by_rel, cert):
    support = by_rel[cert.ordering[0]].support()
    g = min(set(range(7)) - support)
    return _with_witness(cert, 0, WitnessStep(g, 1, 0))


def _miscounted_witness(by_rel, cert):
    w = cert.witnesses[0]
    return _with_witness(cert, 0, WitnessStep(w.gen, w.positive + 1, w.negative))


def _balanced_witness(by_rel, cert):
    for step, rel in enumerate(cert.ordering):
        for g, (p, n) in sorted(by_rel[rel].counts.items()):
            if p == n > 0:
                return _with_witness(cert, step, WitnessStep(g, p, n))
    return None


def _fresh_witness(by_rel, cert, step, used):
    """The step's witness replaced by an unbalanced generator of its relator
    from ``used``, if there is one."""
    for g in sorted(used):
        p, n = by_rel[cert.ordering[step]].counts.get(g, (0, 0))
        if p != n:
            return _with_witness(cert, step, WitnessStep(g, p, n))
    return None


def _reused_witness(by_rel, cert):
    for step in range(1, len(cert.ordering)):
        tampered = _fresh_witness(by_rel, cert, step, {w.gen for w in cert.witnesses[:step]})
        if tampered:
            return tampered
    return None


def _witness_from_earlier_support(by_rel, cert):
    # A generator an earlier relator carries but did not witness: a replay
    # that marks only witnesses as used accepts it.
    for step in range(1, len(cert.ordering)):
        support = set().union(*(by_rel[rel].support() for rel in cert.ordering[:step]))
        unwitnessed = support - {w.gen for w in cert.witnesses[:step]}
        tampered = _fresh_witness(by_rel, cert, step, unwitnessed)
        if tampered:
            return tampered
    return None


@pytest.mark.parametrize("tamper, why", [
    (_duplicate_relator, "ordering is not a permutation"),
    (_drop_witness, "one witness required per step"),
    (_absent_witness, "witness not in the multiset"),
    (_miscounted_witness, "witness counts do not match"),
    (_balanced_witness, "positive and negative copies are equal"),
    (_reused_witness, "witness generator already used earlier"),
    (_witness_from_earlier_support, "witness generator already used earlier"),
])
def test_replay_rejects_a_certificate_changed_in_one_step(tamper, why):
    for multisets, cert in itertools.islice(_certified_families(), 200):
        tampered = tamper({m.relator: m for m in multisets}, cert)
        if tampered is not None:
            break
    assert tampered is not None
    assert replay_certificate(cert, multisets) == (True, "certificate replays")
    ok, got = replay_certificate(tampered, multisets)
    assert not ok and why in got, got


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
    # <a, b | a b>: the only primitive weight vectors are +-(1, -1).  The
    # profiles are read in the frame of the input with the signed weights
    # and the generator of negative weight is recorded as a flip; inverting
    # it gives the counts of <a, b | a b^-1> under the weights (1, 1).
    p = make_presentation(["a", "b"], [(1, 2)])
    mixed = TargetAssignment.from_weights(p, (1, -1))
    verdict = check_presentation(p, Z, mixed, MIN)
    assert verdict.status == "concatenable"
    assert verdict.flips == frozenset({1})
    assert [m.counts for m in verdict.multisets] == [{0: (1, 0), 1: (1, 0)}]
    flipped = make_presentation(["a", "b"], [(1, -2)])
    want = check_presentation(flipped, Z, TargetAssignment.from_weights(flipped, (1, 1)), MIN)
    old = in_flipped_frame(p, verdict)
    assert flip_all(p, verdict.flips) == flipped
    assert (old.multisets, old.certificate) == (want.multisets, want.certificate)

    # Negating all weights swaps minima for maxima; for the first sample
    # both maxima supports coincide, so the negated map fails while the
    # positive one succeeds.
    pa = sample_a()
    neg = TargetAssignment.from_weights(pa, (-1, -1, -1))
    verdict = check_presentation(pa, Z, neg, MIN)
    assert verdict.status == "not-concatenable"
    assert verdict.flips == frozenset({0, 1, 2})


def test_profile_and_minima_multiset_take_signed_weights():
    # prefix_profile and minima_multiset read a map of either sign as the
    # report does.  On <a, b | a b> under a=1, b=-1 they raised before the
    # pipeline took signed weights.  On every map of the box and its
    # negation, the profile is the one check_presentation reads (its
    # minimum is the multiset's extremum), and the multisets are its
    # min-mode ones.
    p = make_presentation(["a", "b"], [(1, 2)])
    mixed = TargetAssignment.from_weights(p, (1, -1))
    assert prefix_profile(p, 0, Z, mixed) == [1, 0]
    assert minima_multiset(p, 0, Z, mixed) == MinimaMultiset(0, MIN, 0, {0: (1, 0), 1: (1, 0)})

    rng = random.Random(64)
    seen = {"negative": 0, "nonnegative": 0}
    for pres in _lofs_and_wlots(rng):
        try:
            maps = [h.weights for h in find_weight_homomorphisms(pres, 1)]
        except NoSurjection:
            continue
        for weights in maps + [tuple(-w for w in vec) for vec in maps]:
            assignment = TargetAssignment.from_weights(pres, weights)
            verdict = check_presentation(pres, Z, assignment, MIN)
            if verdict.multisets is None:
                continue
            for i, word in enumerate(pres.relators):
                profile = prefix_profile(pres, i, Z, assignment)
                assert profile == _integer_profile(word, weights)
                assert min(profile) == verdict.multisets[i].extremum
                got = minima_multiset(pres, i, Z, assignment)
                assert got == verdict.multisets[i]
                assert _counts_in_order([got]) == _counts_in_order(verdict.multisets[i:i + 1])
            seen["negative" if min(weights) < 0 else "nonnegative"] += 1
    assert min(seen.values()) >= 20, seen


def test_modes_must_match():
    a = make_multiset(0, {0: (1, 0)})
    b = MinimaMultiset(relator=1, mode=MAX, extremum=0, counts={1: (1, 0)})
    with pytest.raises(ValueError):
        weak_concatenability([a, b])


# -- the integer path against the generic one -----------------------------


def _counts_in_order(multisets):
    return None if multisets is None else [list(m.counts.items()) for m in multisets]


def _assert_same_verdict(got, want):
    """Field by field: a target compares by identity, and a dict of counts
    compares without its order, which the report's JSON would show."""
    assert got._replace(assignment=None) == want._replace(assignment=None)
    assert (got.assignment is None) == (want.assignment is None)
    if want.assignment is not None:
        assert list(got.assignment.images.items()) == list(want.assignment.images.items())
    assert _counts_in_order(got.multisets) == _counts_in_order(want.multisets)


def _weight_cases(pres, rng):
    """Kernel maps as the search lists them, their negatives and multiples
    (gcd 2 or 3), and random vectors, which are mostly not well defined."""
    n = len(pres.generators)
    try:
        maps = [h.weights for h in find_weight_homomorphisms(pres, 1)]
    except NoSurjection:
        maps = []
    out = list(maps)
    out += [tuple(-w for w in vec) for vec in maps[:3]]
    out += [tuple(rng.choice([2, 3]) * w for w in vec) for vec in maps[:3]]
    out += [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(4)]
    return out


def _oracle_presentations(rng):
    yield sample_a()
    yield sample_b()
    for _ in range(40):
        n = rng.randrange(3, 8)
        yield log_to_presentation(lof_random(n, rng.randrange(1, n), rng))
    for _ in range(20):
        n = rng.randrange(2, 5)
        count = rng.randrange(1, n)
        rels = []
        while len(rels) < count:
            word = freely_reduce([rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(6)])
            if word:
                rels.append(word)
        yield make_presentation([f"g{i}" for i in range(n)], rels)


def test_integer_multisets_match_the_target_operations():
    # Any integer weights: negative ones, gcd != 1, and maps under which
    # a relator has a nonzero image (None from both).
    rng = random.Random(18)
    seen = {"none": 0, "negative": 0, "gcd": 0}
    for pres in _oracle_presentations(rng):
        for weights in _weight_cases(pres, rng):
            assignment = TargetAssignment.from_weights(pres, weights)
            for mode in (MIN, MAX):
                got = _integer_multisets(pres.relators, weights, mode)
                want = _ordered_multisets(pres.relators, Z, assignment, mode)
                assert got == want and _counts_in_order(got) == _counts_in_order(want)
            seen["none"] += got is None
            seen["negative"] += got is not None and min(weights) < 0
            seen["gcd"] += got is not None and math.gcd(*weights) > 1
    assert min(seen.values()) >= 20, seen


def test_check_assignment_matches_the_generic_oracle():
    # The one-pass multisets in the frame of the input against
    # flip_generator once per flipped generator and the target's
    # operations, in both modes, after mapping through the flips.
    rng = random.Random(19)
    statuses = set()
    for pres in _oracle_presentations(rng):
        hyps, _ = presentation_hypotheses(pres)
        for weights in _weight_cases(pres, rng):
            assignment = TargetAssignment.from_weights(pres, weights)
            for mode in (MIN, MAX):
                got = check_assignment(pres, hyps, Z, assignment, mode)
                want = check_assignment_oracle(pres, hyps, Z, assignment, mode)
                _assert_same_verdict(in_flipped_frame(pres, got), want)
                statuses.add((got.status, got.hypotheses[-1].key))
    assert statuses >= {
        ("concatenable", "assignment-well-defined"),
        ("not-concatenable", "assignment-well-defined"),
        ("hypothesis-failure", "assignment-well-defined"),
        ("hypothesis-failure", "weights-surjective"),
        ("hypothesis-failure", "h1-free-abelian-rank-n-k"),
    }, statuses


@pytest.mark.parametrize(
    "text, maps",
    [(FOREST7R3_2_TEXT, 1), (FOREST7R3_8_TEXT, 16), (BOX_FOREST_A_TEXT, 145), (BOX_FOREST_C_TEXT, 145)],
    ids=["2", "8", "box-a", "box-c"],
)
def test_check_assignment_matches_the_oracle_on_the_145_attempt_forests(text, maps):
    # forest7r3-2 and -8 leave generators unused, so they walk a smaller
    # box; the box forests use every generator.
    pres = parse_presentation(text)
    hyps, _ = presentation_hypotheses(pres)
    homs = find_weight_homomorphisms(pres)
    assert len(homs) == maps
    outcomes: dict = {}
    for hom in homs:
        assignment = TargetAssignment.from_weights(pres, hom.weights)
        for mode in (MIN, MAX):
            got = check_assignment(pres, hyps, Z, assignment, mode, outcomes)
            want = check_assignment_oracle(pres, hyps, Z, assignment, mode)
            _assert_same_verdict(in_flipped_frame(pres, got), want)


def test_extremal_multiset_matches_the_two_pass_oracle(monkeypatch):
    # Each prefix value is compared once, and its flag read from that
    # comparison.  Seeded profiles on braid:3, braid:4 and braid:5, each with
    # and without :opp, and on zlex:2, in both modes: the same extremum and
    # the same flags as the former two passes.  Values repeat as different
    # words of one braid, so ties are compared, not matched by identity.
    flags = {}
    for module in (minima, braid_order_oracle):
        def capture(word, at, module=module):
            flags[module] = list(at)
            return _extremal_counts(word, at)

        monkeypatch.setattr(module, "_extremal_counts", capture)
    rng = random.Random(2029)
    targets = [BraidTarget(n, opp) for n in (3, 4, 5) for opp in (False, True)]
    targets.append(LexTarget(2))
    ties = late = 0
    for target in targets:
        for _ in range(300):
            if isinstance(target, LexTarget):
                values = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
            else:
                n = target.n_strands
                pool = [
                    tuple(rng.choice([1, -1]) * rng.randrange(1, n) for _ in range(length))
                    for length in (rng.randint(0, 3) for _ in range(4))
                ]
                # (s1 s2 s1)(s2 s1 s2)^-1 is trivial: a second word for pool[0].
                values = pool + [pool[0] + (1, 2, 1, -2, -1, -2)]
            profile = [rng.choice(values) for _ in range(rng.randint(1, 9))]
            word = tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in profile)
            for mode in (MIN, MAX):
                got = _extremal_multiset(0, word, profile, target, mode)
                want = braid_order_oracle.extremal_multiset(0, word, profile, target, mode)
                assert got == want, (target.name, mode, profile)
                assert flags[minima] == flags[braid_order_oracle], (target.name, mode, profile)
                ties += sum(flags[minima]) > 1
                late += not flags[minima][0]
    assert ties > 1000 and late > 1000


def test_lexicographic_maps_are_their_integer_maps():
    # The zlex:<d> target is gone: on the prefix vectors of a presentation,
    # the lexicographic order is the order of psi(x) = sum N^(d-i) x_i, and
    # psi/gcd keeps it.  Seeded LOFs of H1 rank 2 and 3, maps to Z^2 and Z^3
    # whose coordinates are kernel combinations, both modes: the oracle
    # target and the integer map give the same status, the same multiset
    # counts and the same certificate or stuck core.  Maps whose psi has a
    # gcd above 1 are not onto Z^d, and are lowered all the same.
    rng = random.Random(5)
    pairs, statuses, not_onto = 0, Counter(), 0
    while pairs < 3000:
        n = rng.randint(4, 8)
        pres = log_to_presentation(lof_random(n, n - rng.choice((2, 3)), rng))
        hyps = presentation_hypotheses(pres)[0]
        if hyps[-1].status == "fail":
            continue
        basis = integer_kernel_basis(exponent_matrix(pres), n)
        for dim in (2, 3):
            coeffs = [[rng.randint(-2, 2) for _ in basis] for _ in range(dim)]
            images = [
                tuple(sum(c * b[j] for c, b in zip(row, basis)) for row in coeffs)
                for j in range(n)
            ]
            psi = lexicographic_weights(pres.relators, images)
            gcd = math.gcd(*psi)
            if not gcd:
                continue
            not_onto += gcd > 1
            lex = LexTarget(dim)
            lex_map = TargetAssignment(lex, dict(enumerate(images)))
            int_map = TargetAssignment.from_weights(pres, [w // gcd for w in psi])
            for mode in (MIN, MAX):
                got = check_assignment(pres, hyps, Z, int_map, mode)
                want = check_assignment(pres, hyps, lex, lex_map, mode)
                assert got.status == want.status, (pres, images, mode)
                assert [m.counts for m in got.multisets] == [m.counts for m in want.multisets]
                assert (got.certificate, got.failure) == (want.certificate, want.failure)
                statuses[got.status] += 1
                pairs += 1
    assert statuses["concatenable"] > 1000 and statuses["not-concatenable"] > 100
    assert not_onto >= 100
