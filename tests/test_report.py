"""The report writer against ``json.dumps``, the weight route's one
decision per distinct multiset tuple against a fresh decision per map, and
the work each report does once."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import oracle_json
from flip_frame_oracle import swap_flipped
from helpers import lof_random, verify_assignment
from npicheck import homology, logs, minima, report
from npicheck.logs import adian_normalize, graph_I, graph_T, is_forest, log_to_presentation
from npicheck.minima import (
    ConcatCertificate,
    HypothesisResult,
    MinimaMultiset,
    check_presentation,
    weak_concatenability,
)
from npicheck.orders import IntTarget, TargetAssignment
from npicheck.report import ReportOptions, full_report, report_json
from npicheck.textio import parse_log, parse_presentation
from npicheck.words import Diagnostic
from samples import (
    FOREST7R3_2_TEXT,
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


@pytest.mark.parametrize("text", [FOREST7R3_2_TEXT, FOREST7R3_8_TEXT], ids=["2", "8"])
def test_writer_matches_on_the_145_attempt_forests(text):
    doc = _report(text)
    assert len(doc["attempts"]) == 145
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


def _family() -> list:
    """Seeded LOTs and forests of H1 rank 2 to 4 as presentation text (14
    of the 58 try more than one map, one of them 145), and the two
    145-attempt forests."""
    rng = random.Random(2026)
    params = []
    plan = ((4, 1, 4), (6, 1, 4), (5, 2, 6), (6, 3, 12), (7, 3, 12), (6, 4, 12), (8, 4, 8))
    for n, rank, count in plan:
        for j in range(count):
            pres = log_to_presentation(lof_random(n, n - rank, rng))
            text = "gens: " + " ".join(pres.generators) + "\n"
            text += "".join(f"rel: {pres.word_str(r)}\n" for r in pres.relators)
            params.append(pytest.param(text, id=f"n{n}-rank{rank}-{j}"))
    return params + [
        pytest.param(FOREST7R3_2_TEXT, id="forest7r3-2"),
        pytest.param(FOREST7R3_8_TEXT, id="forest7r3-8"),
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
    for text in (FOREST7R3_2_TEXT, FOREST7R3_8_TEXT):
        del calls[:]
        doc = _report(text)
        distinct = {_key(_multisets(a, doc["input"]["generators"])) for a in doc["attempts"]}
        assert len(doc["attempts"]) == 145
        assert len(distinct) < 10
        assert len(calls) <= len(distinct) + 2  # + the Adian min and max checks


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
    ],
    ids=["box-walk", "no-surjection"],
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


@pytest.mark.parametrize(
    "text, forest_tests, status",
    [
        (LOT_SINGLE_EDGE_TEXT, 2, "npi-certified"),
        # The underlying graph has a cycle, so the H1 hypothesis stops the
        # Adian route before its forest tests.
        ("vertices: a b c\nedge: a b c\nedge: c b a\n", 2, "hypothesis-failure"),
        ("vertices: a b\nedge: a a b\n", 0, "hypothesis-failure"),
    ],
    ids=["certified", "cyclic", "not-reduced"],
)
def test_log_report_normalizes_once(text, forest_tests, status, monkeypatch):
    # A reduced LOG's report normalizes its presentation once, in the Adian
    # route, and tests each letter graph for a forest once.
    normalized, tested = [], []

    def normalizing(pres):
        normalized.append(pres)
        return adian_normalize(pres)

    def testing(graph):
        tested.append(graph)
        return is_forest(graph)

    monkeypatch.setattr(logs, "adian_normalize", normalizing)
    for module in (logs, report):
        monkeypatch.setattr(module, "is_forest", testing)
    doc = full_report(parse_log(text), ReportOptions(target=IntTarget()), input_text=text)
    assert doc["verdict"]["status"] == status
    assert len(normalized) == (forest_tests > 0)
    assert len(tested) == 1 + forest_tests  # the underlying graph, then the letter graphs
    lot = doc["lot"]
    if forest_tests:
        log = parse_log(text)
        assert lot["graph_i_forest"] == is_forest(graph_I(log)).ok
        assert lot["graph_t_forest"] == is_forest(graph_T(log)).ok
    else:
        assert lot["graph_i_forest"] is lot["graph_t_forest"] is None
