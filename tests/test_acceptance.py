"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

import random
import time
from pathlib import Path

import pytest

from helpers import (
    adian_npi_check,
    find_weight_homomorphisms,
    lof_random,
    make_presentation,
    minima_multiset,
    prefix_profile,
    presentation_complex,
)
from npicheck.complexes import canonical_complex, collapsible, npi_scan
from npicheck.cover import (
    CertificateMismatch,
    CoverEdge,
    build_cover_window,
    build_slim_certificate,
    lifted_boundary,
    verify_weak_slim_certificate,
)
from npicheck.homology import h1_structure, is_generalized_wirtinger, smith_normal_form
from npicheck.logs import graph_I, graph_T, is_forest, log_to_presentation
from npicheck.minima import (
    MAX,
    MIN,
    ConcatCertificate,
    ConcatFailure,
    WitnessStep,
    check_presentation,
    replay_certificate,
    weak_concatenability,
)
from npicheck.orders import BraidTarget, IntTarget, TargetAssignment, parse_target_spec
from npicheck.report import ReportOptions, full_report, report_json
from samples import (
    SAMPLE_A_TEXT,
    SAMPLE_B_TEXT,
    SAMPLE_BRAID_TEXT,
    sample_a,
    sample_b,
    sample_braid,
    torsion_presentation,
)
from test_homology import minor_gcds

Z = IntTarget()
GOLDEN = Path(__file__).parent / "golden"


class budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        else:
            print(f"FAIL {self.name}")
        return False


def test_criterion_1_first_worked_example():
    with budget("criterion 1: first worked example reproduction", 1.0):
        pres = sample_a()
        ones = TargetAssignment.all_ones(pres)
        assert prefix_profile(pres, 1, Z, ones) == [-1, -2, -1, 0, 1, 0, -1, -2, -1, 0]
        m0 = minima_multiset(pres, 0, Z, ones)
        m1 = minima_multiset(pres, 1, Z, ones)
        assert m0.counts == {0: (0, 1), 1: (1, 0)}
        assert m1.counts == {1: (0, 2), 2: (2, 0)}
        cert = weak_concatenability([m0, m1])
        assert isinstance(cert, ConcatCertificate)
        assert cert.ordering == (0, 1)
        ok, why = replay_certificate(cert, [m0, m1])
        assert ok, why


def test_criterion_2_second_worked_example():
    with budget("criterion 2: second worked example reproduction", 1.0):
        pres = sample_b()
        ones = TargetAssignment.all_ones(pres)
        m0 = minima_multiset(pres, 0, Z, ones)
        m1 = minima_multiset(pres, 1, Z, ones)
        assert m0.counts == {2: (0, 2), 0: (2, 0)}
        assert m1.counts == {1: (0, 2), 2: (2, 0)}
        assert isinstance(weak_concatenability([m0, m1]), ConcatCertificate)
        stated = ConcatCertificate(
            (1, 0), (WitnessStep(1, 0, 2), WitnessStep(0, 2, 0))
        )
        ok, why = replay_certificate(stated, [m0, m1])
        assert ok, why


def test_criterion_3_braid_example_integer_side():
    with budget("criterion 3: braid example over the integers", 1.0):
        pres = sample_braid()
        homs = find_weight_homomorphisms(pres)
        assert [h.weights for h in homs] == [(1, 1, 1)]
        for hom in homs:
            assignment = TargetAssignment.from_weights(pres, hom.weights)
            m0 = minima_multiset(pres, 0, Z, assignment)
            m1 = minima_multiset(pres, 1, Z, assignment)
            assert sorted(m0.support()) == [0, 2]  # {x, z}
            assert sorted(m1.support()) == [0, 2]
            outcome = weak_concatenability([m0, m1])
            assert isinstance(outcome, ConcatFailure)


def test_criterion_4_braid_example_braid_side():
    with budget("criterion 4: braid example over B4 opposite order", 10.0):
        pres = sample_braid()
        target = BraidTarget(4, opposite=True)
        named = TargetAssignment.named_braid(pres, target)
        m0 = minima_multiset(pres, 0, target, named)
        m1 = minima_multiset(pres, 1, target, named)
        assert sorted(m0.support()) == [1, 2]  # {y, z}
        assert sorted(m1.support()) == [0, 2]  # {x, z}
        cert = weak_concatenability([m0, m1])
        assert isinstance(cert, ConcatCertificate)
        doc = full_report(
            pres,
            ReportOptions(target=parse_target_spec("braid:4:opp"), phi_spec="named"),
            input_text=SAMPLE_BRAID_TEXT,
        )
        assert doc["verdict"]["status"] == "npi-certified"
        assert doc["verdict"]["citation"] == "Thm 3.6"


def test_criterion_5_homology_checks():
    with budget("criterion 5: homology and Smith form property suite", 30.0):
        h1 = h1_structure(sample_a())
        assert h1.free_rank == 1 and h1.torsion == ()
        tors = torsion_presentation()
        assert h1_structure(tors).torsion == (2,)
        assert not is_generalized_wirtinger(tors).ok
        verdict = check_presentation(tors, Z, TargetAssignment.all_ones(tors), MIN)
        assert verdict.status == "hypothesis-failure"

        rng = random.Random(500)
        for _ in range(1000):
            k = rng.randrange(1, 7)
            n = rng.randrange(1, 7)
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(k)]
            snf = smith_normal_form(rows)
            snf.check()
            diag = snf.diagonal()
            prod = 1
            for i, gcd_i in enumerate(minor_gcds(rows)):
                prod *= diag[i]
                assert prod == gcd_i


def test_criterion_6_lof_cross_check():
    with budget("criterion 6: 500 random reduced LOFs, forest => concatenable", 60.0):
        rng = random.Random(600)
        ones_cache = {}
        t_hits = i_hits = 0
        for _ in range(500):
            n = rng.randrange(3, 9)
            k = rng.randrange(1, n)
            log = lof_random(n, k, rng)
            pres = log_to_presentation(log)
            ones = TargetAssignment.all_ones(pres)
            if is_forest(graph_T(log)).ok:
                t_hits += 1
                assert check_presentation(pres, Z, ones, MIN).status == "concatenable"
            if is_forest(graph_I(log)).ok:
                i_hits += 1
                assert check_presentation(pres, Z, ones, MAX).status == "concatenable"
            # adian_npi_check re-runs both branches with hard internal asserts
            assert adian_npi_check(pres).status in ("npi", "not-decided")
        assert t_hits > 0 and i_hits > 0


def test_criterion_7_cover_certificate():
    with budget("criterion 7: cover window verification", 1.0):
        pres = sample_a()
        weights = (1, 1, 1)
        verdict = check_presentation(pres, Z, TargetAssignment.all_ones(pres), MIN)
        slim = build_slim_certificate(pres, verdict.multisets, verdict.certificate)
        window = build_cover_window(pres, weights, -4, 4)
        report = verify_weak_slim_certificate(
            pres, weights, verdict.multisets, slim, window
        )
        assert report.ok and len(report.checks) >= 4
        signed = {}
        for cell in window.cells:
            wit = slim.witness_by_relator[cell.relator]
            signed[cell.relator] = sum(
                d
                for e, d in lifted_boundary(window, cell)
                if e == CoverEdge(cell.level, wit)
            )
        assert signed == {0: -1, 1: 2}
        swapped = ConcatCertificate(
            verdict.certificate.ordering,
            tuple(reversed(verdict.certificate.witnesses)),
        )
        with pytest.raises(CertificateMismatch):
            build_slim_certificate(pres, verdict.multisets, swapped)


def test_criterion_8_oracle_controls():
    with budget("criterion 8: immersion oracle controls", 300.0):
        tors = torsion_presentation()
        reports = npi_scan(tors, 1, 1)
        assert len(reports) == 1
        only = reports[0]
        assert only.chi == 1 and not collapsible(only.complex)
        assert canonical_complex(only.complex) == canonical_complex(
            presentation_complex(tors)
        )

        assert npi_scan(sample_a(), 6, 2) == []

        from scan_oracle import enumerate_immersions
        from test_complexes import naive_enumerate

        for pres in (
            make_presentation(["a", "b"], [(1, 2, -1, -2)]),
            make_presentation(["a", "b"], [(1, 1, 2)]),
        ):
            for bounds in ((2, 1), (3, 1)):
                got = len(list(enumerate_immersions(pres, *bounds)))
                assert got == len(naive_enumerate(pres, *bounds))


def test_criterion_9_report_determinism():
    with budget("criterion 9: byte-identical reports across runs", 30.0):
        cases = [
            ("sample_a", SAMPLE_A_TEXT, "z", "auto"),
            ("sample_b", SAMPLE_B_TEXT, "z", "auto"),
            ("sample_braid", SAMPLE_BRAID_TEXT, "braid:4:opp", "named"),
        ]
        for name, text, target_spec, phi in cases:
            from npicheck.textio import parse_presentation

            runs = []
            for _ in range(2):
                pres = parse_presentation(text)
                options = ReportOptions(
                    target=parse_target_spec(target_spec), phi_spec=phi
                )
                runs.append(report_json(full_report(pres, options, input_text=text)))
            assert runs[0] == runs[1]
            assert runs[0] == (GOLDEN / f"{name}.json").read_text()
