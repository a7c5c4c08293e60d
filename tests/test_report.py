"""The report writer against ``json.dumps``, the weight route's one
decision per distinct multiset tuple against a fresh decision per map, its
shared attempt bodies against a fresh entry per map, and the work each
report does once."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from attempt_entry_oracle import fresh_attempts
from conftest import oracle_json
from flip_frame_oracle import swap_flipped
from helpers import lof_random, verify_assignment
from letter_graph_oracle import forest_check, log_graph_I, log_graph_T
from npicheck import homology, logs, minima, report
from npicheck.logs import Log, adian_normalize, is_forest, log_is_reduced, log_to_presentation
from npicheck.minima import (
    MAX,
    MIN,
    ConcatCertificate,
    HypothesisResult,
    MinimaMultiset,
    check_presentation,
    replay_stuck_core,
    weak_concatenability,
)
from npicheck.orders import IntTarget, TargetAssignment
from npicheck.report import ReportOptions, full_report, report_json
from npicheck.textio import parse_log, parse_presentation
from npicheck.words import Diagnostic
from samples import (
    BOX_FOREST_A_TEXT,
    BOX_FOREST_B_TEXT,
    BOX_FOREST_C_TEXT,
    FOREST7R3_2_TEXT,
    FOREST7R3_3_TEXT,
    FOREST7R3_8_TEXT,
    LOT_SINGLE_EDGE_TEXT,
    SAMPLE_A_TEXT,
    TORSION_TEXT,
    sample_a,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(text: str, **options) -> dict:
    pres = parse_presentation(text)
    return full_report(pres, ReportOptions(target=IntTarget(), **options), input_text=text)


# -- the writer ---------------------------------------------------------

@pytest.mark.parametrize("name", ["sample_a", "sample_b", "sample_braid"])
def test_writer_matches_the_goldens(name):
    golden = (GOLDEN / f"{name}.json").read_text()
    doc = json.loads(golden)
    assert report_json(doc) == oracle_json(doc) == golden


@pytest.mark.parametrize(
    "text, attempts",
    [(FOREST7R3_2_TEXT, 1), (FOREST7R3_8_TEXT, 16), (BOX_FOREST_A_TEXT, 145), (BOX_FOREST_B_TEXT, 145)],
    ids=["2", "8", "box-a", "box-b"],
)
def test_writer_matches_on_the_145_attempt_forests(text, attempts):
    # forest7r3-2 and -8 leave generators unused, so they walk a smaller
    # box; the box forests walk all 145 maps.
    doc = _report(text)
    assert len(doc["attempts"]) == attempts
    assert report_json(doc) == oracle_json(doc)


STRINGS = [
    "", "a", "é", "中文", "\U0001f600", "\x00", "\x1f", "\x7f", "\n\t\r\b\f",
    '"', "\\", "/", "\ud800", "\udfff", "x\ud83d", "  ", "﻿",
]
INTS = [0, 1, -1, 2**63, 2**64, 2**64 + 1, -(2**70), 10**30]


def _scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice(INTS + [rng.randrange(-1000, 1000)])
    if kind == 2:
        return 1  # next to True: the writer must not confuse them
    return "".join(rng.choice(STRINGS) for _ in range(rng.randrange(4)))


def _document(rng: random.Random, depth: int):
    """A dict whose every level holds an empty dict, list and tuple, a
    nested list and tuple, and random entries under random keys."""
    doc = {"{}": {}, "[]": [], "()": (), _scalar_key(rng): _scalar(rng)}
    if depth:
        doc["dict"] = _document(rng, depth - 1)
        doc["list"] = [_document(rng, depth - 1), [], {}, _scalar(rng), [[], ()]]
        doc["tuple"] = (_scalar(rng), (), {}, [_document(rng, depth - 1)])
    for _ in range(rng.randrange(4)):
        doc[_scalar_key(rng)] = _scalar(rng) if rng.random() < 0.7 else [
            _scalar(rng) for _ in range(rng.randrange(3))
        ]
    return doc


def _scalar_key(rng: random.Random) -> str:
    return "".join(rng.choice(STRINGS) for _ in range(1 + rng.randrange(3)))


class _Str(str):
    """A str subclass: the writer quotes it as json.dumps does."""

    def __str__(self):
        return "not this"


class _Int(int):
    """An int subclass: both writers print int.__repr__ of it."""

    def __repr__(self):
        return "not this"

    __str__ = __repr__


class _List(list):
    pass


def test_writer_matches_on_seeded_documents():
    rng = random.Random(14)
    for _ in range(200):
        doc = _document(rng, rng.randrange(4))
        assert report_json(doc) == oracle_json(doc)
    for value in [True, 1, None, False, 0, "", "\ud800", 2**64 + 1, [], {}, ()]:
        assert report_json({"k": value}) == oracle_json({"k": value})
    assert report_json({}) == oracle_json({}) == "{}\n"


@pytest.mark.parametrize(
    "value",
    [
        _Str("é\n"),
        _Int(7),
        _Int(-2**70),
        True,
        False,
        [_Str("a"), _Int(3), True, False, None, 1, "b"],
        [("a", 1), (), [(True, [()]), (_Int(0), _Str(""))]],
        {"k": (_Int(1), [_Str("x")]), "t": [(), ("a",)]},
    ],
    ids=["str-subclass", "int-subclass", "big-int-subclass", "true", "false",
         "mixed-leaves", "tuples-in-lists", "nested-dict"],
)
def test_writer_matches_on_subclasses_bools_and_tuples(value):
    # Scalar leaves are written in place only for exact str and int; the
    # rest must come out as json.dumps writes them, in a dict and in a list.
    for doc in ({"k": value}, {"k": [value]}, {_Str("key"): value}):
        assert report_json(doc) == oracle_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1.5},
        {"a": [1, 2.0]},
        {"a": {"b": float("nan")}},
        {"a": {1, 2}},
        {"a": b"bytes"},
        {"a": object()},
        {1: "a"},
        {"a": {None: 1}},
        {"a": [{"b": ("c", frozenset())}]},
        # Result records are tuples; the writer refuses them all the same.
        {"x": HypothesisResult("k", "pass", "")},
        {"x": Diagnostic("c", None, "d")},
        # json.dumps writes these; a report holds none of them.
        {True: "a"},
        {_Int(1): "a"},
        {"a": _List([1])},
        {"a": [_List()]},
        {"a": [("b", 1.0)]},
        {"a": [[True, Diagnostic("c", None, "d")]]},
    ],
    ids=["float", "nested-float", "nan", "set", "bytes", "object", "int-key",
         "none-key", "frozenset", "hypothesis-record", "diagnostic-record",
         "bool-key", "int-subclass-key", "list-subclass", "nested-list-subclass",
         "float-in-tuple-in-list", "record-in-list"],
)
def test_writer_rejects_what_a_report_does_not_hold(doc):
    with pytest.raises(TypeError):
        report_json(doc)


# -- a list of rows met again -------------------------------------------

ROWS = [{"name": "a", "n": 1}, {"name": "\u00e9", "rows": [{"k": [], "t": ()}]}, "x"]


@pytest.mark.parametrize(
    "doc",
    [
        {"a": ROWS, "b": ROWS, "c": ROWS},
        {"a": ROWS, "b": {"c": ROWS}, "d": [ROWS, {"e": ROWS}], "f": ROWS},
        {"t": (ROWS, ROWS), "u": [(ROWS,), ROWS], "v": ROWS},
    ],
    ids=["one-depth", "two-depths", "in-a-tuple"],
)
def test_writer_matches_on_repeated_row_lists(doc):
    # The second and later meetings at one depth repeat the text of the
    # first, closing bracket included; a meeting at another depth is
    # written anew.
    assert report_json(doc) == oracle_json(doc)


def test_writer_writes_a_repeated_row_list_once(monkeypatch):
    quoted = []
    original = report.encode_basestring_ascii

    def counting(s):
        quoted.append(s)
        return original(s)

    rows = [{"key": "value"}]
    doc = {f"k{i}": rows for i in range(10)}
    monkeypatch.setattr(report, "encode_basestring_ascii", counting)
    assert report_json(doc) == oracle_json(doc)
    assert quoted.count("key") == quoted.count("value") == 1


def test_writer_refuses_a_float_in_a_repeated_row_list():
    # The float fails on the first write, at the first meeting.
    for rows in ([{"b": 1}, 1.5], [{"b": 1.5}], [{"b": [{"c": 0.5}]}]):
        for doc in ({"a": rows, "b": rows}, {"a": (rows, rows)}, {"a": [rows], "b": rows}):
            with pytest.raises(TypeError):
                report_json(doc)


# -- one decision per distinct multiset tuple ---------------------------

def _multisets(attempt: dict, names: list[str]) -> tuple[MinimaMultiset, ...]:
    return tuple(
        MinimaMultiset(
            m["relator"], m["mode"], None,
            {names.index(g): tuple(pn) for g, pn in m["counts"].items()},
        )
        for m in attempt["multisets"]
    )


def _key(multisets) -> tuple:
    return tuple((m.relator, m.mode, tuple(sorted(m.counts.items()))) for m in multisets)


def _outcome_entry(outcome, names: list[str]) -> dict:
    if isinstance(outcome, ConcatCertificate):
        return {"certificate": {
            "ordering": list(outcome.ordering),
            "witnesses": [
                {"generator": names[w.gen], "positive": w.positive, "negative": w.negative}
                for w in outcome.witnesses
            ],
        }}
    return {"failure_witness": {"stuck_core": list(outcome.stuck_core)}}


def _seeded_forests(plan, seed: int) -> list:
    """Presentation texts of seeded reduced forests, ``count`` of each
    (vertices ``n``, H1 rank ``rank``) in ``plan``, as test parameters."""
    rng = random.Random(seed)
    params = []
    for n, rank, count in plan:
        for j in range(count):
            pres = log_to_presentation(lof_random(n, n - rank, rng))
            text = "gens: " + " ".join(pres.generators) + "\n"
            text += "".join(f"rel: {pres.word_str(r)}\n" for r in pres.relators)
            params.append(pytest.param(text, id=f"n{n}-rank{rank}-{j}"))
    return params


def _family() -> list:
    """Seeded LOTs and forests of H1 rank 2 to 4 as presentation text,
    forest7r3-2 and -8 (1 and 16 attempts), and the two box forests that
    walk all 145 maps in min mode."""
    plan = ((4, 1, 4), (6, 1, 4), (5, 2, 6), (6, 3, 12), (7, 3, 12), (6, 4, 12), (8, 4, 8))
    return _seeded_forests(plan, 2026) + [
        pytest.param(FOREST7R3_2_TEXT, id="forest7r3-2"),
        pytest.param(FOREST7R3_8_TEXT, id="forest7r3-8"),
        pytest.param(BOX_FOREST_A_TEXT, id="box-a"),
        pytest.param(BOX_FOREST_B_TEXT, id="box-b"),
    ]


@pytest.mark.parametrize("text", _family())
def test_each_multiset_tuple_is_decided_once(text, monkeypatch):
    decided = []
    original = minima.weak_concatenability

    def counting(multisets):
        decided.append(_key(multisets))
        return original(multisets)

    monkeypatch.setattr(minima, "weak_concatenability", counting)
    doc = _report(text)
    monkeypatch.undo()
    names = doc["input"]["generators"]
    pres = parse_presentation(text)
    assert doc["attempts"]
    # One call per distinct tuple, the Adian route's all-ones checks included.
    assert max(Counter(decided).values()) == 1
    for attempt in doc["attempts"]:
        # The report writes the counts of a flipped generator inverted; the
        # route decides the multisets of the input, with them swapped back.
        multisets = _multisets(attempt, names)
        flips = {names.index(g) for g in attempt["flips"]}
        assert _key(swap_flipped(multisets, flips)) in decided
        got = {k: attempt[k] for k in ("certificate", "failure_witness") if k in attempt}
        assert got == _outcome_entry(weak_concatenability(multisets), names)
        # The same map checked alone, with no shared decisions.
        weights = [attempt["weights"][g] for g in names]
        alone = check_presentation(pres, IntTarget(), TargetAssignment.from_weights(pres, weights))
        assert alone.status == attempt["status"] and alone.flips == flips
        assert _key(alone.multisets) == _key(swap_flipped(multisets, flips))


def test_the_145_attempt_forests_decide_few_tuples(monkeypatch):
    calls = []
    original = minima.weak_concatenability

    def counting(multisets):
        calls.append(multisets)
        return original(multisets)

    monkeypatch.setattr(minima, "weak_concatenability", counting)
    for text in (BOX_FOREST_A_TEXT, BOX_FOREST_B_TEXT):
        del calls[:]
        doc = _report(text)
        distinct = {_key(_multisets(a, doc["input"]["generators"])) for a in doc["attempts"]}
        assert len(doc["attempts"]) == 145
        assert len(distinct) == 13
        assert len(calls) <= len(distinct) + 2  # + the Adian min and max checks


# -- one entry body per distinct outcome --------------------------------

@pytest.mark.parametrize(
    "text, mode, count, bodies, status",
    [
        # The forest7r3 inputs leave generators unused, so they walk a
        # smaller box; the box forests walk all 145 maps.
        (FOREST7R3_8_TEXT, "min", 16, 4, "npi-certified"),
        (FOREST7R3_2_TEXT, "min", 1, 1, "npi-certified"),
        (FOREST7R3_3_TEXT, "min", 16, 4, "not-decided"),
        (FOREST7R3_3_TEXT, "max", 16, 4, "not-decided"),
        (BOX_FOREST_A_TEXT, "min", 145, 13, "npi-certified"),
        (BOX_FOREST_B_TEXT, "min", 145, 13, "npi-certified"),
        (BOX_FOREST_C_TEXT, "min", 145, 13, "not-decided"),
        (BOX_FOREST_C_TEXT, "max", 145, 13, "not-decided"),
    ],
    ids=[
        "forest7r3-8", "forest7r3-2", "forest7r3-3-min", "forest7r3-3-max",
        "box-a", "box-b", "box-c-min", "box-c-max",
    ],
)
def test_the_145_attempt_forests_build_few_bodies(text, mode, count, bodies, status, monkeypatch):
    built = []
    original = report._verdict_to_entry

    def counting(pres, verdict):
        built.append(verdict)
        return original(pres, verdict)

    monkeypatch.setattr(report, "_verdict_to_entry", counting)
    doc = _report(text, mode=mode)
    attempts = doc["attempts"]
    assert doc["verdict"]["status"] == status
    assert len(attempts) == count
    assert len(built) == bodies
    # The attempts of one body share its lists, which the writer writes once.
    for field in ("hypotheses", "multisets"):
        assert len({id(a[field]) for a in attempts}) == bodies
    assert len({id(a["weights"]) for a in attempts}) == count


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize(
    "text",
    [
        pytest.param(FOREST7R3_2_TEXT, id="forest7r3-2"),
        pytest.param(FOREST7R3_8_TEXT, id="forest7r3-8"),
        pytest.param(FOREST7R3_3_TEXT, id="forest7r3-3"),
        pytest.param(BOX_FOREST_A_TEXT, id="box-a"),
        pytest.param(BOX_FOREST_C_TEXT, id="box-c"),
    ] + _seeded_forests(((7, 3, 6), (6, 4, 4), (8, 4, 4)), 24),
)
def test_shared_bodies_match_fresh_entries(text, mode):
    doc = _report(text, mode=mode)
    fresh = fresh_attempts(parse_presentation(text), mode)
    assert doc["attempts"] == fresh
    # Compared as a bool: n8-rank4-2 keeps 1,120 attempts in either mode,
    # and pytest's diff of two such texts would run for minutes.
    same = report_json(doc) == oracle_json({**doc, "attempts": fresh})
    assert same


def test_ill_defined_map_fails_well_definedness():
    doc = _report(SAMPLE_A_TEXT, phi_spec="a=1,b=2,c=1")
    (attempt,) = doc["attempts"]
    last = attempt["hypotheses"][-1]
    assert (last["name"], last["status"], last["detail"]) == (
        "assignment-well-defined", "fail", "a relator has a nontrivial image"
    )
    assert "multisets" not in attempt
    assert doc["verdict"] == {
        "status": "hypothesis-failure", "citation": "",
        "detail": "a relator has a nontrivial image",
    }
    pa = sample_a()
    assert not verify_assignment(IntTarget(), TargetAssignment.from_weights(pa, (1, 2, 1)), pa)


@pytest.mark.parametrize(
    "text, detail",
    [
        (FOREST7R3_8_TEXT, "equal-length Adian presentation with I-forest (max mode)"),
        (TORSION_TEXT, "no surjection to the integers (H1 rank 0, torsion [2])"),
        # H1 is Z + Z/2, but every map to Z is zero on the relator letter a.
        ("gens: a b\nrel: a^2\n", "every surjection to the integers is zero on every "
         "relator letter (unused generators: b; torsion [2])"),
    ],
    ids=["box-walk", "no-surjection", "no-surjection-wedge"],
)
def test_one_smith_form_per_report(text, detail, monkeypatch):
    calls = []
    original = homology.smith_normal_form

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    doc = _report(text)
    assert doc["verdict"]["detail"] == detail
    assert len(calls) == 1  # H1, the kernel basis and the NoSurjection detail share it


ZERO_KERNEL = "the exponent matrix of the relator part has zero kernel"


@pytest.mark.parametrize(
    "text, h1_row",
    [
        (TORSION_TEXT, ["fail", "torsion [2] in H1"]),
        ("gens: a b\nrel: a^2\n", ["fail", "torsion [2] in H1"]),
        # X' = <a | a> has H1 = 0, yet X has rank 1 = n - k: the H1 row passes.
        ("gens: a b\nrel: a\n", ["pass", "H1 free abelian of rank 1"]),
    ],
    ids=["torsion", "torsion-wedge", "wedge"],
)
def test_a_zero_kernel_report_lists_the_h1_row(text, h1_row):
    # No weight map reaches the hypothesis checks, yet the report lists
    # the H1 row before the weights-surjective failure.
    rows = [[h["name"], h["status"], h["citation"], h["detail"]] for h in _report(text)["hypotheses"]]
    assert rows == [
        ["presentation-valid", "pass", "", ""],
        ["h1-free-abelian-rank-n-k", h1_row[0], "Thm 3.4", h1_row[1]],
        ["weights-surjective", "fail", "Thm 3.4", ZERO_KERNEL],
    ]


@pytest.mark.parametrize(
    "text, forest_tests, status",
    [
        (LOT_SINGLE_EDGE_TEXT, 2, "npi-certified"),
        # The underlying graph has a cycle, so the H1 hypothesis stops the
        # Adian route, after its forest tests.
        ("vertices: a b c\nedge: a b c\nedge: c b a\n", 2, "hypothesis-failure"),
        ("vertices: a b\nedge: a a b\n", 0, "hypothesis-failure"),
    ],
    ids=["certified", "cyclic", "not-reduced"],
)
def test_log_report_normalizes_once(text, forest_tests, status, monkeypatch):
    # A reduced LOG's report normalizes its presentation once, in the Adian
    # route, and tests each letter graph for a forest once, there too.
    normalized, tested = [], []

    def normalizing(pres):
        normalized.append(pres)
        return adian_normalize(pres)

    def testing(graph):
        tested.append(graph)
        return is_forest(graph)

    monkeypatch.setattr(logs, "adian_normalize", normalizing)
    monkeypatch.setattr(logs, "is_forest", testing)
    doc = full_report(parse_log(text), ReportOptions(target=IntTarget()), input_text=text)
    assert doc["verdict"]["status"] == status
    assert len(normalized) == (forest_tests > 0)
    assert len(tested) == 1 + forest_tests  # the underlying graph, then the letter graphs
    lot = doc["lot"]
    if forest_tests:
        log = parse_log(text)
        assert lot["graph_i_forest"] == forest_check(log_graph_I(log)).ok
        assert lot["graph_t_forest"] == forest_check(log_graph_T(log)).ok
    else:
        assert lot["graph_i_forest"] is lot["graph_t_forest"] is None


def test_log_flags_are_decided_once_from_the_adian_form():
    # Seeded LOGs, half drawn as any edge triples (loops, parallel edges,
    # underlying cycles, unreduced edges) and half as reduced forests.  The
    # lot flags of a reduced LOG are the oracle's forest tests on the
    # letter graphs read off its edges; the adian section shows them
    # exactly when its hypotheses hold; and a false flag under those
    # hypotheses is witnessed by the all-ones attempt in its mode: not
    # concatenable, with a stuck core that replays and holds the oracle's
    # cycle.
    rng = random.Random(29)
    z = IntTarget()
    seen = Counter()
    for draw in range(1200):
        n = rng.randint(3, 7)
        if draw % 2:
            log = lof_random(n, rng.randrange(1, n), rng)
        else:
            triples = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 6))]
            log = Log(tuple("abcdefg"[:n]), tuple(triples))
        doc = full_report(log, ReportOptions(target=z))
        lot, adian = doc["lot"], doc["adian"]
        if not log_is_reduced(log)[0]:
            assert lot["graph_t_forest"] is lot["graph_i_forest"] is adian is None
            seen["not reduced"] += 1
            continue
        failed = any(h["status"] == "fail" for h in adian["hypotheses"])
        seen["hypothesis fails" if failed else "hypotheses hold"] += 1
        pres = log_to_presentation(log)
        ones = TargetAssignment.all_ones(pres)
        for key, graph, mode in (
            ("graph_t_forest", log_graph_T(log), MIN),
            ("graph_i_forest", log_graph_I(log), MAX),
        ):
            want = forest_check(graph)
            assert lot[key] is want.ok, log
            assert adian[key] is (None if failed else want.ok), log
            if failed or want.ok:
                continue
            seen[f"{mode} cycle"] += 1
            verdict = check_presentation(pres, z, ones, mode)
            assert verdict.status == "not-concatenable", log
            core = verdict.failure.stuck_core
            assert replay_stuck_core(core, verdict.multisets)[0], log
            assert Counter(want.cycle) <= Counter(graph.edges[i] for i in core), log
    assert len(seen) == 5 and min(seen.values()) >= 50, seen
