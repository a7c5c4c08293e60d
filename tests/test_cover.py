import random
import re
from collections import Counter

import pytest

from npicheck import cover as cover_mod
from npicheck.cover import (
    CertificateMismatch,
    CoverCell,
    CoverEdge,
    build_cover_window,
    build_slim_certificate,
    edge_key,
    lifted_boundary,
    relator_span,
    verify_weak_slim_certificate,
)
from npicheck.logs import log_to_presentation
from npicheck.homology import NoSurjection
from npicheck.minima import (
    MAX,
    MIN,
    ConcatCertificate,
    WitnessStep,
    check_assignment,
    check_presentation,
    presentation_hypotheses,
)
from npicheck.orders import IntTarget, TargetAssignment
from npicheck.report import _verdict_to_entry, cover_section
from npicheck.words import letter_gen
from helpers import (
    find_weight_homomorphisms,
    flip_generator,
    lof_random,
    make_presentation,
    min_edge,
    minima_multiset,
)
from check_oracle import check_assignment_oracle
from flip_frame_oracle import cover_section_oracle, flip_all, mirror, verdict_to_entry_oracle
from samples import sample_a, sample_b
from slim_verify_oracle import oracle_verify_weak_slim_certificate
from test_homology import _wlot

Z = IntTarget()
ONES = (1, 1, 1)


def certified(pres):
    verdict = check_presentation(pres, Z, TargetAssignment.all_ones(pres), MIN)
    assert verdict.status == "concatenable"
    return verdict


def test_window_contents():
    pa = sample_a()
    assert relator_span(pa, ONES, 0) == 1
    assert relator_span(pa, ONES, 1) == 3
    window = build_cover_window(pa, ONES, -3, 3)
    # span-3 cells fit at levels lo .. hi - span
    assert [c.level for c in window.cells if c.relator == 1] == [-3, -2, -1, 0]
    assert [c.level for c in window.cells if c.relator == 0] == list(range(-3, 3))
    with pytest.raises(ValueError):
        build_cover_window(pa, ONES, 3, -3)


def test_negative_weights_lift_as_the_flipped_presentation():
    # A negative weight builds the window of the presentation with that
    # generator inverted under |w|: the same cells, the same edges keyed by
    # their lower endpoints, and the inverted generator walked backwards.
    rng = random.Random(62)
    pa = sample_a()
    cases = [(pa, (1, -1, 1)), (pa, (-1, -1, -1)), (pa, (0, -2, 1))]
    for _ in range(30):
        pres = log_to_presentation(lof_random(5, rng.randrange(1, 5), rng))
        cases.append((pres, tuple(rng.randrange(-3, 4) for _ in range(5))))
    for pres, weights in cases:
        flips = [g for g, w in enumerate(weights) if w < 0]
        flipped = pres
        for g in flips:
            flipped = flip_generator(flipped, g)
        window = build_cover_window(pres, weights, -8, 8)
        want = build_cover_window(flipped, tuple(map(abs, weights)), -8, 8)
        assert window.cells == want.cells
        for cell in window.cells:
            assert lifted_boundary(window, cell) == tuple(
                (e, -d if e.gen in flips else d) for e, d in lifted_boundary(want, cell)
            )


def test_window_without_relators_is_a_graph():
    free = make_presentation(["a", "b"], [])
    window = build_cover_window(free, (1, 1), 0, 2)
    assert window.cells == ()


def test_lifted_boundary_two_letter_relator():
    pa = sample_a()
    window = build_cover_window(pa, ONES, -4, 4)
    cell = CoverCell(0, 0)
    path = lifted_boundary(window, cell)
    # walk starts at level 1, visits 1 -> 0 -> 1: a backwards then b forwards
    assert path == ((CoverEdge(0, 0), -1), (CoverEdge(0, 1), 1))
    # projection reproduces the relator word
    projected = tuple(
        (e.gen + 1) * d for e, d in path
    )
    assert projected == tuple(
        (letter_gen(x) + 1) * (1 if x > 0 else -1) for x in pa.relators[0]
    )


def test_deck_translation_shifts_boundaries():
    pa = sample_a()
    window = build_cover_window(pa, ONES, -4, 4)
    for rel in (0, 1):
        base = lifted_boundary(window, CoverCell(0, rel))
        shifted = lifted_boundary(window, CoverCell(1, rel))
        assert shifted == tuple((CoverEdge(e.level + 1, e.gen), d) for e, d in base)


def test_min_edges_are_witness_lifts():
    pa = sample_a()
    verdict = certified(pa)
    slim = build_slim_certificate(pa, verdict.multisets, verdict.certificate)
    window = build_cover_window(pa, ONES, -4, 4)
    mins = set()
    for cell in window.cells:
        got = min_edge(window, cell, slim.gen_priority)
        assert got == CoverEdge(cell.level, slim.witness_by_relator[cell.relator])
        assert got not in mins  # distinct cells have distinct minima
        mins.add(got)


def test_verify_first_sample():
    pa = sample_a()
    verdict = certified(pa)
    slim = build_slim_certificate(pa, verdict.multisets, verdict.certificate)
    window = build_cover_window(pa, ONES, -4, 4)
    report = verify_weak_slim_certificate(pa, ONES, verdict.multisets, slim, window)
    assert report.ok
    names = [c.check for c in report.checks]
    for required in (
        "min-edge-is-witness-lift",
        "witness-signed-traversal",
        "cross-boundary-minimality",
        "deck-translation-equivariance",
    ):
        assert required in names
    # signed counts of the witnesses: a gives -1 on r0 cells, c gives +2 on r1
    for cell in window.cells:
        wit = slim.witness_by_relator[cell.relator]
        signed = sum(
            d
            for e, d in lifted_boundary(window, cell)
            if e == CoverEdge(cell.level, wit)
        )
        assert signed == (-1 if cell.relator == 0 else 2)


def test_verify_second_sample_published_ordering():
    pb = sample_b()
    multisets = tuple(minima_multiset(pb, i, Z, TargetAssignment.all_ones(pb)) for i in range(2))
    stated = ConcatCertificate((1, 0), (WitnessStep(1, 0, 2), WitnessStep(0, 2, 0)))
    slim = build_slim_certificate(pb, multisets, stated)
    window = build_cover_window(pb, ONES, -4, 4)
    report = verify_weak_slim_certificate(pb, ONES, multisets, slim, window)
    assert report.ok
    for cell in window.cells:
        wit = slim.witness_by_relator[cell.relator]
        signed = sum(
            d
            for e, d in lifted_boundary(window, cell)
            if e == CoverEdge(cell.level, wit)
        )
        assert signed == (-2 if cell.relator == 1 else 2)


def test_tampered_certificates_rejected():
    pa = sample_a()
    verdict = certified(pa)
    good = verdict.certificate
    swapped = ConcatCertificate(good.ordering, (good.witnesses[1], good.witnesses[0]))
    with pytest.raises(CertificateMismatch):
        build_slim_certificate(pa, verdict.multisets, swapped)
    window = build_cover_window(pa, ONES, -4, 4)
    with pytest.raises(CertificateMismatch):
        slim = build_slim_certificate(pa, verdict.multisets, good)
        tampered = type(slim)(
            concat=swapped,
            witness_by_relator=slim.witness_by_relator,
            gen_priority=slim.gen_priority,
        )
        verify_weak_slim_certificate(pa, ONES, verdict.multisets, tampered, window)


def test_weights_other_than_the_windows_rejected():
    # Demo 04's presentation and window, with weights (5, 0, 7) passed to
    # the verifier: the lifts are the window's, so the call must refuse.
    pa = sample_a()
    verdict = certified(pa)
    slim = build_slim_certificate(pa, verdict.multisets, verdict.certificate)
    window = build_cover_window(pa, ONES, -4, 4)
    assert verify_weak_slim_certificate(pa, ONES, verdict.multisets, slim, window).ok
    with pytest.raises(CertificateMismatch, match=r"weights \(5, 0, 7\)"):
        verify_weak_slim_certificate(pa, (5, 0, 7), verdict.multisets, slim, window)


def test_key_order_reverses_generator_priority():
    prio = (2, 1, 3)
    assert edge_key(CoverEdge(0, 2), prio) < edge_key(CoverEdge(0, 0), prio)
    assert edge_key(CoverEdge(-1, 1), prio) < edge_key(CoverEdge(0, 2), prio)


def test_certificates_verify_for_random_concatenable_presentations():
    rng = random.Random(60)
    done = 0
    while done < 100:
        n = rng.randrange(3, 8)
        k = rng.randrange(1, n)
        log = lof_random(n, k, rng)
        pres = log_to_presentation(log)
        verdict = check_presentation(pres, Z, TargetAssignment.all_ones(pres), MIN)
        if verdict.status != "concatenable":
            continue
        done += 1
        weights = tuple([1] * n)
        slim = build_slim_certificate(pres, verdict.multisets, verdict.certificate)
        window = build_cover_window(pres, weights, -3, 3)
        report = verify_weak_slim_certificate(
            pres, weights, verdict.multisets, slim, window
        )
        assert report.ok, report.failures()


CELL = re.compile(r"CoverCell\(level=(-?\d+), relator=(\d+)\)")


def named_relators(detail: str) -> set[int]:
    return {int(rel) for _, rel in CELL.findall(detail)}


def named_pairs(detail: str) -> set[tuple[int, int]]:
    """(owner relator, cell relator) of each cross-boundary failure."""
    pairs = set()
    for item in detail.split("; "):
        (_, owner), (_, cell) = CELL.findall(item)
        pairs.add((int(owner), int(cell)))
    return pairs


def test_verifier_matches_oracle_on_sound_and_tampered_certificates():
    # Seeded certified forests, each also with a shuffled generator priority
    # and with two relators' witnesses swapped, on a window of height 6, on
    # the report's window and on the tightest one.  The verifier decides
    # each check on the level-0 cell of each relator, the oracle on every
    # cell of the window: every check must pass or fail alike.  A failure
    # names level-0 cells only, so (a) and (b) must name the relators of
    # the oracle's cells, and (c) its (owner, cell) relator pairs: all of
    # them when (a) passes, and a superset of them otherwise, since the
    # oracle keeps one owner per edge.  On sound certificates the details
    # agree too.  Checks (a), (b) and (c) must each fail somewhere; (d)
    # compares a boundary with its own translate, so it cannot fail.
    rng = random.Random(61)
    failing = Counter()
    compared = 0
    while compared < 720:
        n = rng.randrange(3, 8)
        pres = log_to_presentation(lof_random(n, rng.randrange(1, n), rng))
        verdict = check_presentation(pres, Z, TargetAssignment.all_ones(pres), MIN)
        if verdict.status != "concatenable":
            continue
        weights = tuple([1] * n)
        slim = build_slim_certificate(pres, verdict.multisets, verdict.certificate)
        span = max(relator_span(pres, weights, i) for i in range(len(pres.relators)))
        priority = list(slim.gen_priority)
        rng.shuffle(priority)
        witnesses = dict(slim.witness_by_relator)
        if len(witnesses) >= 2:
            i, j = rng.sample(sorted(witnesses), 2)
            witnesses[i], witnesses[j] = witnesses[j], witnesses[i]
        for lo, hi in ((-3, 3), (-span - 1, span + 1), (0, span)):
            window = build_cover_window(pres, weights, lo, hi)
            for variant in (
                slim,
                slim._replace(gen_priority=tuple(priority)),
                slim._replace(witness_by_relator=witnesses),
            ):
                args = (pres, weights, verdict.multisets, variant, window)
                got = verify_weak_slim_certificate(*args).checks
                want = oracle_verify_weak_slim_certificate(*args).checks
                assert [(c.check, c.ok) for c in got] == [(c.check, c.ok) for c in want]
                if variant is slim:
                    assert got == want
                a, b, c = got[1:4]
                for g, w in ((a, want[1]), (b, want[2])):
                    assert named_relators(g.detail) == named_relators(w.detail)
                if not c.ok:
                    pairs, oracle_pairs = named_pairs(c.detail), named_pairs(want[3].detail)
                    assert pairs == oracle_pairs if a.ok else pairs >= oracle_pairs
                failing.update(entry.check for entry in got if not entry.ok)
                compared += 1
    assert failing["min-edge-is-witness-lift"] > 0
    assert failing["witness-signed-traversal"] > 0
    assert failing["cross-boundary-minimality"] > 0
    assert failing["deck-translation-equivariance"] == 0


# -- the input frame against the flipped frame ----------------------------


def _lofs_and_wlots(rng: random.Random):
    yield sample_a()
    yield sample_b()
    for _ in range(15):
        n = rng.randrange(3, 7)
        yield log_to_presentation(lof_random(n, rng.randrange(1, n), rng))
        yield _wlot(n, rng.randrange(1, 4), rng)


def _cover_checks(pres, weights, multisets, cert, tamper):
    """(check, ok) of each cover check on the report's window, with the
    slim certificate changed by ``tamper``."""
    spans = [relator_span(pres, weights, i) for i in range(len(pres.relators))]
    window = build_cover_window(pres, weights, -max(spans) - 1, max(spans) + 1)
    slim = tamper(build_slim_certificate(pres, multisets, cert))
    report = verify_weak_slim_certificate(pres, weights, multisets, slim, window)
    return [(c.check, c.ok) for c in report.checks]


def test_cover_section_matches_the_flipped_frame_route():
    # Every map of the box (coefficients in [-1, 1]) and its negation, in
    # both modes, on seeded LOFs and WLOTs.  The input frame verifies a
    # max-mode verdict on -phi with its own multisets and certificate; the
    # flipped frame inverts the generators of negative weight and verifies
    # a max-mode verdict on its mirror.  The attempt entries and the cover
    # sections must be equal, and so must the (check, ok) results of the
    # certificates with a shuffled generator priority and with two
    # relators' witnesses swapped.
    rng = random.Random(63)
    seen = Counter()
    for pres in _lofs_and_wlots(rng):
        hyps, _ = presentation_hypotheses(pres)
        try:
            maps = [h.weights for h in find_weight_homomorphisms(pres, 1)]
        except NoSurjection:
            continue
        for weights in maps + [tuple(-w for w in vec) for vec in maps]:
            assignment = TargetAssignment.from_weights(pres, weights)
            for mode in (MIN, MAX):
                got = check_assignment(pres, hyps, Z, assignment, mode)
                want = check_assignment_oracle(pres, hyps, Z, assignment, mode)
                assert _verdict_to_entry(pres, got) == verdict_to_entry_oracle(pres, want)
                if got.status != "concatenable":
                    continue
                flipped = flip_all(pres, want.flips)
                assert cover_section(pres, got) == cover_section_oracle(flipped, want)
                old_pres, old = mirror(flipped, want) if mode == MAX else (flipped, want)
                old_weights = tuple(old.assignment.image(j) for j in range(len(pres.generators)))
                sign = -1 if mode == MAX else 1
                priority = list(range(1, len(weights) + 1))
                rng.shuffle(priority)
                tampers = [lambda s: s, lambda s: s._replace(gen_priority=tuple(priority))]
                if len(got.certificate.ordering) >= 2:
                    i, j = rng.sample(got.certificate.ordering, 2)

                    def swap(s, i=i, j=j):
                        witnesses = dict(s.witness_by_relator)
                        witnesses[i], witnesses[j] = witnesses[j], witnesses[i]
                        return s._replace(witness_by_relator=witnesses)

                    tampers.append(swap)
                for tamper in tampers:
                    checks = _cover_checks(
                        pres, tuple(sign * w for w in weights), got.multisets,
                        got.certificate, tamper,
                    )
                    assert checks == _cover_checks(
                        old_pres, old_weights, old.multisets, old.certificate, tamper
                    )
                    seen["tampered-failing"] += tamper is not tampers[0] and not all(
                        ok for _, ok in checks
                    )
                seen[mode] += 1
                seen["flips"] += bool(got.flips)
                seen["max-flips"] += mode == MAX and bool(got.flips)
    assert min(seen.values()) >= 20, seen


def test_cover_section_computes_each_span_once(monkeypatch):
    # The margin and the window read the same spans: one walk per relator.
    calls = []

    def counting(pres, weights, rel):
        calls.append(rel)
        return relator_span(pres, weights, rel)

    monkeypatch.setattr(cover_mod, "relator_span", counting)
    for pres in (sample_a(), sample_b()):
        calls.clear()
        section = cover_section(pres, certified(pres))
        assert section["ok"]
        assert sorted(calls) == list(range(len(pres.relators)))
