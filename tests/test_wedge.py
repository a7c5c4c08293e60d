"""Generators that no relator uses.  Each one adds a circle by a wedge,
X = X' v S^1, and the weight search walks the coefficient box of the
generators the relators use, giving it weight 1 (see the ``homology``
module docstring).  So a report is invariant under the wedge, the
all-ones map certifies a forest with an isolated vertex as its LOG does,
the former search over the whole box differs only where its certificate
rested on the zero projection or on the sign of a map, and an input
padded to a high H1 rank reports after one attempt."""

import math
import random
from collections import Counter

from helpers import (
    find_weight_homomorphisms,
    insert_free_generators,
    lof_random,
    make_presentation,
    relator_part,
)
from npicheck import report
from npicheck.logs import log_to_presentation
from npicheck.orders import IntTarget
from npicheck.report import ReportOptions, full_report
from npicheck.textio import parse_presentation
from npicheck.words import freely_reduce, validate
from test_homology import _wlot
from weight_search_oracle import full_box_weight_homomorphisms

# The three relators of a rank-3 forest on v0 ... v5 whose relator part
# has H1 rank 1; padded with free generators to v0 ... v10, H1 rank 8.
# The whole box of rank 8 holds about 2.9 million maps.
WEDGE_RANK8_TEXT = (
    "gens: " + " ".join(f"v{i}" for i in range(11)) + "\n"
    "rel: v4^-1 v5^-1 v1 v5\n"
    "rel: v1^-1 v0^-1 v5 v0\n"
    "rel: v4^-1 v5^-1 v0 v5\n"
)


def _report(pres, mode: str = "min") -> dict:
    return full_report(pres, ReportOptions(IntTarget(), mode=mode))


def _used(pres) -> list[int]:
    """0-based indices of the generators some relator mentions."""
    return sorted({abs(x) - 1 for rel in pres.relators for x in rel})


def _random_presentation(rng: random.Random):
    """A valid presentation on two to five generators with at least one
    relator, drawn again until ``validate`` accepts it."""
    while True:
        n = rng.randrange(2, 6)
        rels = []
        while len(rels) < rng.randrange(1, n):
            word = freely_reduce(
                [rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(rng.randrange(2, 9))]
            )
            if word:
                rels.append(word)
        pres = make_presentation([f"g{i}" for i in range(n)], rels)
        if rels and not validate(pres):
            return pres


def _invariant_view(doc: dict, names) -> tuple:
    """What a wedge must not change: the status, the citation, and per
    attempt its status, mode, flips, hypothesis rows (name and status),
    multisets, certificate, stuck core and the weights of ``names``."""
    attempts = [
        {
            "status": a["status"],
            "mode": a["mode"],
            "flips": a["flips"],
            "rows": [(h["name"], h["status"]) for h in a["hypotheses"]],
            "weights": {g: a["weights"][g] for g in names},
            **{k: a[k] for k in ("multisets", "certificate", "failure_witness") if k in a},
        }
        for a in doc["attempts"]
    ]
    phi = doc["phi"] and {g: doc["phi"]["weights"][g] for g in names}
    return doc["verdict"]["status"], doc["verdict"]["citation"], phi, attempts


def test_a_report_is_invariant_under_a_wedge_with_circles():
    # Seeded LOFs of H1 rank at most 3, WLOTs and random valid
    # presentations, each with one or two free generators inserted at
    # random positions, in both modes.  The inputs may have free
    # generators of their own.
    rng = random.Random(1934)
    inputs = [log_to_presentation(lof_random(n, n - rng.randrange(1, 4), rng))
              for n in (rng.randrange(4, 8) for _ in range(100))]
    inputs += [_wlot(rng.randrange(2, 6), rng.randrange(1, 4), rng) for _ in range(40)]
    inputs += [_random_presentation(rng) for _ in range(40)]
    seen = Counter()
    for pres in inputs:
        padded = insert_free_generators(pres, rng.choice((1, 2)), rng)
        free = set(padded.generators) - set(pres.generators)
        for mode in ("min", "max"):
            doc, wedge = _report(pres, mode), _report(padded, mode)
            assert _invariant_view(wedge, pres.generators) == _invariant_view(doc, pres.generators), (
                pres, mode
            )
            for attempt in wedge["attempts"]:
                assert all(attempt["weights"][g] == 1 for g in free)
            if wedge["phi"]:
                assert all(wedge["phi"]["weights"][g] == 1 for g in free)
            verdict = doc["verdict"]
            seen[verdict["citation"] or verdict["status"]] += 1
            seen["several attempts"] += len(doc["attempts"]) > 1
    assert seen["Thm 3.4"] >= 40 and seen["Thm 4.1"] >= 10, seen
    assert seen["not-decided"] >= 20 and seen["hypothesis-failure"] >= 20, seen
    assert seen["several attempts"] >= 30, seen


def test_all_ones_certifies_a_forest_with_an_isolated_vertex_as_its_log_does():
    # A reduced LOF with a vertex on no edge, as a LOG and as a presentation.
    # Where graph T is a forest, the presentation's min-mode report
    # certifies at its first map, all-ones, with the LOG's attempt, phi and
    # cover; where only graph I is, the max-mode report does, with the
    # LOG's attempt and phi.  The isolated vertex takes weight 1 too.
    rng = random.Random(4031)
    seen = Counter()
    while min(seen["min"], seen["max"]) < 10:
        n = rng.randrange(4, 9)
        log = lof_random(n, rng.randrange(1, n - 2), rng)
        pres = log_to_presentation(log)
        if len(_used(pres)) == n:
            continue
        log_doc = full_report(log, ReportOptions(IntTarget()))
        if log_doc["verdict"]["status"] != "npi-certified":
            continue
        mode = "min" if log_doc["lot"]["graph_t_forest"] else "max"
        doc = _report(pres, mode)
        assert doc["verdict"]["citation"] == "Thm 3.4"
        (attempt,) = doc["attempts"]
        assert attempt.pop("weights") == {g: 1 for g in pres.generators}
        assert attempt == log_doc["attempts"][0]
        assert doc["phi"] == log_doc["phi"]
        if mode == "min":
            assert doc["cover"] == log_doc["cover"]
        seen[mode] += 1
    assert seen["min"] >= 10


def _whole_box_report(pres, mode: str, monkeypatch) -> dict:
    """The report as the former search over the whole box made it."""
    with monkeypatch.context() as patch:
        patch.setattr(
            report, "_weight_stream", lambda h1: iter(full_box_weight_homomorphisms(pres))
        )
        return _report(pres, mode)


def test_statuses_differ_from_the_whole_box_search_only_by_the_zero_projection_or_a_sign(
    monkeypatch,
):
    # Seeded inputs with free generators: LOFs with an isolated vertex,
    # and LOFs and WLOTs with one or two free generators inserted, in both
    # modes, against the former search over the whole box
    # (tests/weight_search_oracle.py).  Where the verdicts differ, the
    # former one certified, either on a map that is zero on every relator
    # letter, and then the new status is that of the relator part alone,
    # or on a map whose projection is minus a map of the new box, which
    # certifies in the other mode (so the new verdict still certifies).
    rng = random.Random(11)
    changes = Counter()
    inputs = 0
    while inputs < 150:
        kind = rng.choice(["lof", "wlot", "padded lof"])
        if kind == "lof":
            n = rng.randint(3, 8)
            pres = log_to_presentation(lof_random(n, rng.randrange(1, n - 1), rng))
        elif kind == "padded lof":
            n = rng.randint(3, 6)
            pres = log_to_presentation(lof_random(n, rng.randrange(1, n), rng))
            pres = insert_free_generators(pres, rng.choice((1, 2)), rng)
        else:
            pres = _wlot(rng.randint(2, 5), rng.randint(1, 3), rng)
            pres = insert_free_generators(pres, rng.choice((1, 2)), rng)
        used = _used(pres)
        if len(used) == len(pres.generators) or len(pres.generators) - len(pres.relators) > 4:
            continue
        inputs += 1
        new_maps = {tuple(h.weights[j] for j in used) for h in find_weight_homomorphisms(pres)}
        for mode in ("min", "max"):
            new = _report(pres, mode)["verdict"]
            old_doc = _whole_box_report(pres, mode, monkeypatch)
            old = old_doc["verdict"]
            if (new["status"], new["citation"]) == (old["status"], old["citation"]):
                continue
            assert old["citation"] == "Thm 3.4"
            weights = old_doc["phi"]["weights"]
            projection = [weights[pres.generators[j]] for j in used]
            g = math.gcd(*projection)
            if g == 0:
                part = _report(relator_part(pres), mode)["verdict"]
                assert (new["status"], new["citation"]) == (part["status"], part["citation"])
                cause = "zero projection"
            else:
                assert tuple(-x // g for x in projection) in new_maps
                assert new["status"] == "npi-certified"
                cause = "sign"
            changes[(mode, f"{new['status']} {new['citation']}".strip(), cause)] += 1
    assert changes == {
        ("min", "npi-certified Thm 4.1", "sign"): 3,
        ("max", "npi-certified Thm 4.1", "sign"): 2,
        ("max", "npi-certified Thm 4.1", "zero projection"): 2,
        ("max", "not-decided", "zero projection"): 3,
        ("min", "not-decided", "zero projection"): 1,
    }, changes


def test_a_wedge_of_high_rank_reports_after_one_attempt():
    # The relator part has H1 rank 1 and one map, all-ones, which is not
    # weakly concatenable; the Adian route does not apply either.
    pres = parse_presentation(WEDGE_RANK8_TEXT)
    doc = _report(pres)
    assert doc["verdict"]["status"] == "not-decided"
    (attempt,) = doc["attempts"]
    assert attempt["hypotheses"][1]["detail"] == "H1 free abelian of rank 8"
    assert attempt["weights"] == {g: 1 for g in pres.generators}
    assert attempt["failure_witness"] == {"stuck_core": [1, 2]}
