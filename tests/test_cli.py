import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from npicheck import logs as logs_mod
from npicheck import minima, orders, words
from npicheck import report as report_mod
from npicheck.cli import run
from npicheck.complexes import npi_scan
from npicheck.logs import Log, log_to_presentation
from npicheck.minima import check_presentation
from npicheck.orders import IntTarget, TargetAssignment, parse_target_spec
from npicheck.report import ReportOptions, full_report, render_text, report_json
from npicheck.textio import (
    ParseError,
    UnknownVertex,
    parse_log,
    parse_presentation,
    sniff_kind,
)
import textio_oracle
from helpers import find_weight_homomorphisms, format_log, format_presentation, lof_random
from samples import (
    FOREST7R3_8_TEXT,
    LOT_SINGLE_EDGE_TEXT,
    SAMPLE_A_TEXT,
    SAMPLE_B_TEXT,
    SAMPLE_BRAID_TEXT,
    TORSION_TEXT,
    sample_a,
)
from test_acceptance import budget

GOLDEN = Path(__file__).parent / "golden"


def test_parse_presentation_examples():
    p = parse_presentation(SAMPLE_A_TEXT)
    assert p.generators == ("a", "b", "c")
    assert p.relators[0] == (-1, 2)
    assert p.relators[1] == (-3, -2, 3, 1, 2, -1, -3, -2, 3, 3)
    simple = parse_presentation("gens: a\nrel: a^2\n")
    assert simple.relators == ((1, 1),)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: a\nrel: a^0\n")
    assert err.value.line == 2 and "nonzero exponent" in err.value.expected
    with pytest.raises(ParseError):
        parse_presentation("rel: a\n")
    with pytest.raises(ParseError):
        parse_presentation("gens: a\nrel: b\n")
    with pytest.raises(ParseError):
        parse_presentation("")
    # comments and blank lines are fine
    ok = parse_presentation("# header\n\ngens: a b # trailing\nrel: a b\n")
    assert ok.generators == ("a", "b")


def test_parse_log():
    log = parse_log(LOT_SINGLE_EDGE_TEXT)
    assert log == Log(("a", "b", "c"), ((0, 1, 2),))
    with pytest.raises(UnknownVertex):
        parse_log("vertices: a b\nedge: a b q\n")
    assert parse_log("vertices: a b\n").edges == ()
    # A header line with a repeated name, or with none, fails at its column.
    with pytest.raises(ParseError) as err:
        parse_log("vertices: a a\nedge: a a a\n")
    assert (err.value.line, err.value.col) == (1, 13) and "repeats" in err.value.expected
    with pytest.raises(ParseError) as err:
        parse_log("vertices:\n")
    assert (err.value.line, err.value.col) == (1, 1) and "at least one" in err.value.expected


def test_exponent_expansion_bounded():
    pres = parse_presentation("gens: a b\nrel: b a^10000\n")
    assert pres.relators == ((2,) + (1,) * 10_000,)
    with pytest.raises(ParseError) as err:
        parse_presentation("gens: a b\nrel: b a^10001\n")
    assert (err.value.line, err.value.col) == (2, 8) and "10000" in err.value.expected
    # Leading zeros do not count: int() refuses more than 4300 digits.
    zeros = "0" * 5000
    assert parse_presentation(f"gens: a\nrel: a^-{zeros}3\n").relators == ((-1, -1, -1),)
    # More digits than int() accepts is over the cap, not a crash.
    with pytest.raises(ParseError) as err:
        parse_presentation(f"gens: a\nrel: a^{'9' * 5000}\n")
    assert (err.value.line, err.value.col) == (2, 6) and "10000" in err.value.expected


def test_roundtrip():
    for text in (SAMPLE_A_TEXT, SAMPLE_B_TEXT, SAMPLE_BRAID_TEXT, TORSION_TEXT):
        pres = parse_presentation(text)
        assert parse_presentation(format_presentation(pres)) == pres
    log = parse_log(LOT_SINGLE_EDGE_TEXT)
    assert parse_log(format_log(log)) == log


def test_sniff_kind():
    assert sniff_kind(SAMPLE_A_TEXT) == "presentation"
    assert sniff_kind(LOT_SINGLE_EDGE_TEXT) == "log"


# Whitespace that str.split() and \S+ both split on, including U+001F (a
# space) and U+001C and U+000B (line breaks for splitlines).
_FUZZ_SPACES = ["  ", "\t", "\x1f", "\u3000", "\xa0", "\t "]


def _fuzz_space(rng):
    r = rng.random()
    if r < 0.01:
        return rng.choice(["\x1c", "\x0b"])
    return rng.choice(_FUZZ_SPACES) if r < 0.2 else " "


_GOOD_EXPONENTS = ["", "", "", "^1", "^-1", "^2", "^-3", "^007", "^-0012", "^10000"]
_BAD_EXPONENTS = [
    "^", "^0", "^-0", "^10001", "^-99999", "^" + "0" * 30 + "5", "^" + "9" * 30, "^x", "^^2",
]


def _fuzz_line(rng, head, names, n_tokens, damage):
    """``head`` and ``n_tokens`` tokens; each is damaged with probability
    ``damage``: an unknown or invalid name, or a bad exponent."""
    tokens = [head] if rng.random() >= damage / 4 else []
    for _ in range(n_tokens):
        tok = rng.choice(names)
        if rng.random() < damage:
            tok += rng.choice(_BAD_EXPONENTS)
            if rng.random() < 0.4:
                tok = rng.choice(["q", "1a", "a-b", "%"])
        elif head == "rel:":
            tok += rng.choice(_GOOD_EXPONENTS)
        tokens.append(tok)
    line = rng.choice(["", " ", "\t"])
    for tok in tokens:
        line += tok + _fuzz_space(rng)
    if rng.random() < 0.2:
        line += "# " + rng.choice(names) + "^0 " + head
    return line


def _fuzz_text(rng, header, body, names):
    damage = rng.choice([0, 0, 0.03, 0.1, 0.3])
    edge = body == "edge:"
    lines = [
        _fuzz_line(rng, body, names, 3 if edge and rng.random() >= damage else rng.randint(1, 5),
                   damage)
        for _ in range(rng.randint(0, 4))
    ]
    heads = 1 if rng.random() >= damage else rng.choice([0, 2])
    for _ in range(heads):
        decl = list(names)
        if rng.random() < damage:
            decl.append(rng.choice(names))  # a repeated name
        if rng.random() < damage / 2:
            decl = []
        line = "".join(tok + _fuzz_space(rng) for tok in [header] + decl)
        lines.insert(1 if lines and rng.random() < damage else 0, line)
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "# only a comment"]))
    if rng.random() < damage:
        lines.insert(rng.randint(0, len(lines)), "other: a")
    return "\n".join(lines) + rng.choice(["", "\n"])


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc).__name__, exc.line, exc.col, str(exc), exc.expected


def test_parser_matches_the_token_and_column_oracle():
    # Lines are split with str.split(), and a column is computed only when a
    # ParseError is raised.  Seeded presentation and LOG texts, fuzzed with
    # tabs, comments, U+001C-style whitespace, zero, capped and zero-padded
    # exponents, unknown and repeated names and missing header lines, give
    # the former parser's value or its error type, line, column and text.
    rng = random.Random(2030)
    outcomes = Counter()
    for _ in range(4000):
        names = rng.sample(["a", "b", "c", "x1", "y_2", "Zz"], rng.randint(1, 4))
        if rng.random() < 0.5:
            text = _fuzz_text(rng, "gens:", "rel:", names)
            parse, oracle = parse_presentation, textio_oracle.parse_presentation
        else:
            text = _fuzz_text(rng, "vertices:", "edge:", names)
            parse, oracle = parse_log, textio_oracle.parse_log
        got = _parsed_or_error(parse, text)
        assert got == _parsed_or_error(oracle, text), text
        assert sniff_kind(text) == textio_oracle.sniff_kind(text), text
        if isinstance(got[0], str):
            outcomes[got[0]] += 1
            outcomes[got[4].split()[0].rstrip(",")] += 1  # the first word expected
        else:
            outcomes[parse.__name__] += 1
    assert outcomes["parse_presentation"] > 500 and outcomes["parse_log"] > 500
    assert outcomes["ParseError"] > 1000 and outcomes["UnknownVertex"] > 100
    for expected in ("nonzero", "at", "letter", "known", "fresh", "a", "gens:", "vertices:"):
        assert outcomes[expected] > 10, (expected, outcomes)


# Equal block lengths, graph I a forest: NPI by Thm 4.1.
ADIAN_TEXT = "gens: v0 v1 v2\nrel: v1^-1 v2^-1 v0 v2\nrel: v1^-1 v0^-1 v2 v0\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [
        ("a.pres", SAMPLE_A_TEXT),
        ("braid.pres", SAMPLE_BRAID_TEXT),
        ("b.pres", SAMPLE_B_TEXT),
        ("torsion.pres", TORSION_TEXT),
        ("lot.log", LOT_SINGLE_EDGE_TEXT),
        # Two parallel edges: the underlying graph is not a forest.
        ("cycle.log", "vertices: a b c\nedge: a c b\nedge: b c a\n"),
        ("broken.pres", "gens: a\nrel: a^0\n"),
        ("adian.pres", ADIAN_TEXT),
        ("invalid.pres", "gens: a b\nrel: a a^-1 b\n"),
        ("ab.pres", "gens: a b\nrel: a b^-1\n"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_cli_report_verdicts(files, capsys):
    assert run(["report", files["a.pres"]]) == 0
    out = capsys.readouterr().out
    assert "NPI-certified(Thm 3.4)" in out

    assert run(["report", files["braid.pres"], "--target", "braid:4:opp", "--phi", "named"]) == 0
    out = capsys.readouterr().out
    assert "NPI-certified(Thm 3.6)" in out
    assert "assumed" in out

    assert run(["lot", files["lot.log"]]) == 0
    out = capsys.readouterr().out
    assert "NPI-certified(Cor 4.3)" in out

    # A reduced LOG whose underlying graph has a cycle fails the H1
    # hypothesis, so the forest criteria do not apply.
    assert run(["lot", files["cycle.log"]]) == 0
    out = capsys.readouterr().out
    assert "verdict: HypothesisFailure -- H1 rank 2 != n - k = 1" in out


def test_cli_concat_auto_braid_z(files, capsys):
    assert run(["concat", files["braid.pres"], "--target", "z", "--phi", "auto"]) == 0
    out = capsys.readouterr().out
    assert "NotConcatenable" in out and "Concatenable:" not in out
    assert "NotConcatenable -- stuck core (r0, r1)" in out


def test_cli_h1_torsion(files, capsys):
    assert run(["h1", files["torsion.pres"]]) == 0
    out = capsys.readouterr().out
    assert "torsion [2]" in out and "   fail  h1-free-abelian-rank-n-k: " in out


def test_cli_validate_and_phi(files, capsys):
    assert run(["validate", files["a.pres"]]) == 0
    assert "   pass  presentation-valid" in capsys.readouterr().out
    assert run(["phi", files["a.pres"]]) == 0
    assert "a=1, b=1, c=1" in capsys.readouterr().out
    assert run(["phi", files["torsion.pres"]]) == 0
    assert "no surjection" in capsys.readouterr().out


def test_cli_minima_and_cover(files, capsys):
    assert run(["minima", files["a.pres"]]) == 0
    out = capsys.readouterr().out
    assert "b:(+0,-2)" in out and "c:(+2,-0)" in out
    assert run(["cover", files["a.pres"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("window [-4, 4]: 14 cells\n") and "certificate verified" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["adian", "adian.pres"], [
            "   pass  adian-form: all relators are u v^-1",
            "   pass  equal-block-lengths: len(u) = len(v) throughout",
            "   pass  h1-free-abelian-rank-n-k: H1 free abelian of rank 1",
            "graph T forest: False",
            "graph I forest: True",
            "verdict: NPI",
        ]),
        (["adian", "a.pres"], [
            "   fail  adian-form: relator 1 is not cyclically (positive block)(negative block)",
            "verdict: HypothesisFailure",
        ]),
        # The letter graphs are decided, but a failed hypothesis hides them.
        (["adian", "cycle.log"], [
            "   pass  adian-form: all relators are u v^-1",
            "   pass  equal-block-lengths: len(u) = len(v) throughout",
            "   fail  h1-free-abelian-rank-n-k: H1 rank 2 != n - k = 1",
            "verdict: HypothesisFailure",
        ]),
        (["concat", "a.pres"], [
            "phi: a=1, b=1, c=1",
            "  Concatenable: ordering (r0, r1); witnesses (a, c)",
        ]),
        (["cover", "braid.pres"], ["no cover: not-decided"]),
        (["h1", "a.pres"], [
            "H1: free rank 1, torsion []",
            "   pass  presentation-valid: relators cyclically reduced",
            "   pass  h1-free-abelian-rank-n-k: H1 free abelian of rank 1",
        ]),
    ],
    ids=["adian-npi", "adian-not-adian", "adian-h1-fails", "concat", "cover-no-certificate", "h1"],
)
def test_cli_views_print(files, capsys, argv, expected):
    assert run([files.get(arg, arg) for arg in argv]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_report_negative_weight_in_both_modes(tmp_path, capsys, mode):
    # <a, b | a b> under a=1, b=-1: the multiset is read with the signed
    # weights and written with b's counts inverted, and the max-mode
    # certificate is verified on the weights a=-1, b=1.
    path = tmp_path / "ab.pres"
    path.write_text("gens: a b\nrel: a b\n")
    assert run(["report", str(path), "--phi", "a=1,b=-1", "--mode", mode]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in [
        "input: presentation",
        "  generators: a, b",
        "  relators: a b",
        "hypotheses:",
        "     pass  presentation-valid",
        "     pass  h1-free-abelian-rank-n-k [Thm 3.4] -- H1 free abelian of rank 1",
        "     pass  weights-surjective [Thm 3.4] -- gcd of weights is 1",
        "     pass  weights-nonnegative [Thm 3.4] -- flipped: b",
        "     pass  assignment-well-defined -- all relators map to identity",
        "phi: target z; a=1, b=-1",
        "  flipped generators: b",
        f"  multiset r0 ({mode}): a:(+1,-0), b:(+0,-1)",
        "  certificate: ordering (r0); witnesses (a)",
        "cover window [-2, 2]: 4 cells, checks ok",
        "verdict: NPI-certified(Thm 3.4) -- weakly concatenable over the integers; "
        "certificate replayed and cover checks passed",
    ])


@pytest.mark.parametrize("name", ["lot.log", "cycle.log"])
@pytest.mark.parametrize(
    "command", ["validate", "h1", "adian", "immerse", "phi", "minima", "concat", "cover", "report"]
)
def test_every_view_but_lot_reads_a_log_file(files, tmp_path, capsys, command, name):
    # Every subcommand reads the input kind its file names, as report does.
    # The first-stage views print the rows of the LOG's presentation; the
    # report views print parts of the LOG's report.
    text = Path(files[name]).read_text()
    assert run([command, files[name]]) == 0
    out = capsys.readouterr().out
    if command in ("validate", "h1", "adian", "immerse"):
        pres = tmp_path / "log.pres"
        pres.write_text(format_presentation(log_to_presentation(parse_log(text))))
        assert run([command, str(pres)]) == 0
        assert out == capsys.readouterr().out
    else:
        doc = full_report(parse_log(text), ReportOptions(IntTarget()), input_text=text)
        verdict = doc["verdict"]["status"]
        assert verdict == ("npi-certified" if name == "lot.log" else "hypothesis-failure")
        if command == "report":
            assert run(["lot", files[name]]) == 0
            assert out == capsys.readouterr().out == render_text(doc)
        elif command == "cover":
            cover = doc["cover"]
            assert out.startswith(f"window {cover['window']}: " if cover else "no cover: ")
        elif not doc["attempts"]:
            assert out == f"HypothesisFailure: {doc['verdict']['detail']}\n"
        elif command == "phi":
            assert out == "weights: a=1, b=1, c=1  (flips: none)\n"


def test_lot_reads_a_log_only(files, capsys):
    assert run(["lot", files["a.pres"]]) == 2
    assert "expected vertices:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["concat", "--mode", "max"],
        ["minima", "--target", "zlex:2"],
        ["cover", "--phi", "a=1,b=1,c=1"],
        ["report", "--phi", "named", "--target", "braid:4"],
    ],
)
def test_log_input_refuses_options_its_route_ignores(files, capsys, argv):
    # The LOG route tries the all-ones map over Z in min mode only.
    assert run([argv[0], files["lot.log"], *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: LOG input takes no --phi, --target or --mode\n"
    # The defaults, spelled out, are what the route runs.
    assert run([argv[0], files["lot.log"], "--phi", "auto"]) == 0


def test_cli_immerse(files, capsys):
    assert run(["immerse", files["torsion.pres"], "--bounds", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "candidates within bounds (1, 1): 1" in out


def test_cli_exit_codes(files, capsys):
    assert run(["report", files["broken.pres"]]) == 2
    assert run(["report", files["a.pres"], "--target", "nonsense"]) == 2
    assert run(["nonsense-command"]) == 2
    assert run(["report", str(Path(files["a.pres"]).parent / "missing.pres")]) == 2


def test_cli_internal_assertions_exit_3(files, monkeypatch, capsys):
    import npicheck.cli as cli_mod

    def boom(*args, **kwargs):
        raise AssertionError("synthetic internal failure")

    monkeypatch.setattr(cli_mod, "full_report", boom)
    assert run(["report", files["a.pres"]]) == 3


@pytest.mark.parametrize(
    "error", [ValueError("synthetic"), KeyError("synthetic"), RecursionError("synthetic")],
    ids=lambda e: type(e).__name__,
)
def test_internal_failures_exit_3(files, monkeypatch, capsys, error):
    # Only the usage errors exit 2; any other exception is the program's own.
    import npicheck.cli as cli_mod

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "full_report", boom)
    assert run(["report", files["a.pres"]]) == 3
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"internal check failed: {type(error).__name__}: {error}"


def test_report_json_deterministic_and_golden():
    cases = [
        ("sample_a", SAMPLE_A_TEXT, "z", "auto"),
        ("sample_b", SAMPLE_B_TEXT, "z", "auto"),
        ("sample_braid", SAMPLE_BRAID_TEXT, "braid:4:opp", "named"),
    ]
    for name, text, target_spec, phi in cases:
        pres = parse_presentation(text)

        def build():
            options = ReportOptions(
                target=parse_target_spec(target_spec), phi_spec=phi
            )
            return report_json(full_report(pres, options, input_text=text))

        first, second = build(), build()
        assert first == second
        assert first == (GOLDEN / f"{name}.json").read_text()


def test_report_json_fields_stable():
    doc = json.loads((GOLDEN / "sample_a.json").read_text())
    for field in (
        "format",
        "input",
        "hypotheses",
        "phi",
        "attempts",
        "cover",
        "oracle_scan",
        "lot",
        "adian",
        "verdict",
    ):
        assert field in doc
    assert doc["format"] == "npicheck-report-v2"
    assert doc["verdict"]["citation"] == "Thm 3.4"
    assert doc["cover"]["ok"] is True


def test_report_lex_target(files, capsys):
    assert (
        run(
            [
                "report",
                files["a.pres"],
                "--target",
                "zlex:2",
                "--phi",
                "a=1:0,b=1:0,c=1:0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "NPI-certified(Thm 3.6)" in out


def test_report_free_presentation(tmp_path, capsys):
    path = tmp_path / "free.pres"
    path.write_text("gens: a b\n")
    assert run(["report", str(path)]) == 0
    assert "NPI-certified(Thm 3.4)" in capsys.readouterr().out


def test_report_scan_option(files, tmp_path, capsys):
    assert run(["report", files["torsion.pres"], "--scan", "1,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["status"] == "hypothesis-failure"
    assert doc["oracle_scan"]["count"] == 1

    # Every verdict route scans a valid input: Thm 4.1, and a LOG input.
    for path, citation in [(files["adian.pres"], "Thm 4.1"), (files["lot.log"], "Cor 4.3")]:
        assert run(["report", path, "--scan", "3,2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"]["citation"] == citation
        assert doc["oracle_scan"] is not None and doc["oracle_scan"]["bounds"] == [3, 2]

    # An invalid presentation is not scanned.
    invalid = tmp_path / "invalid.pres"
    invalid.write_text("gens: a b\nrel: a a^-1 b\n")
    assert run(["report", str(invalid), "--scan", "3,2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["status"] == "hypothesis-failure"
    assert doc["oracle_scan"] is None


def test_log_cover_failure_exits_3(files, monkeypatch, capsys):
    import npicheck.report as report_mod
    from npicheck.cover import SlimReport

    monkeypatch.setattr(
        report_mod.cover_mod,
        "verify_weak_slim_certificate",
        lambda *args: SlimReport(False, ()),
    )
    assert run(["report", files["lot.log"]]) == 3
    assert "cover verification failed" in capsys.readouterr().err


def _random_words(rng: random.Random) -> str:
    gens = "abc"[: rng.randint(1, 3)]
    rels = [
        " ".join(rng.choice(gens) + rng.choice(["", "^-1"]) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 2))
    ]
    return f"gens: {' '.join(gens)}\n" + "".join(f"rel: {r}\n" for r in rels)


def test_report_never_exits_3(tmp_path, capsys):
    # Both modes, on seeded forests and random words, with integer weights
    # and with an explicit lexicographic map.  A max-mode certificate is
    # verified on the cover of its mirror.
    rng = random.Random(2024)
    texts = [
        format_presentation(log_to_presentation(lof_random(n, n - rank, rng)))
        for n in range(4, 9)
        for rank in (2, 3)
        for _ in range(2)
    ]
    texts += [_random_words(rng) for _ in range(20)]
    failures, certified = [], Counter()
    for i, text in enumerate(texts):
        path = tmp_path / f"p{i}.pres"
        path.write_text(text)
        pres = parse_presentation(text)
        lex = ",".join(f"{g}={rng.randint(-1, 1)}:{rng.randint(-1, 1)}" for g in pres.generators)
        for mode in ("min", "max"):
            for extra in ([], ["--target", "zlex:2", "--phi", lex]):
                code = run(["report", "--json", str(path), "--mode", mode, *extra])
                out = capsys.readouterr().out
                if code:
                    failures.append((text, mode, extra, code))
                else:
                    certified[mode, json.loads(out)["verdict"]["citation"]] += 1
    assert failures == []
    for mode in ("min", "max"):
        assert certified[mode, "Thm 3.4"] and certified[mode, "Thm 3.6"]


@pytest.mark.parametrize("n", [300, 900, 2000])
def test_scan_long_relator_exits_0(tmp_path, capsys, n):
    # A face trace follows runs of existing edges without recursing, so its
    # depth does not grow with the relator: every n gives the count of n = 300.
    path = tmp_path / "long.pres"
    path.write_text(f"gens: a b\nrel: a^{n} b a^-{n} b^-1\n")
    assert run(["immerse", str(path)]) == 0
    assert capsys.readouterr().out == "candidates within bounds (4, 2): 0\n"
    assert run(["report", str(path), "--scan", "2,1"]) == 0
    assert "oracle scan bounds [2, 1]: 0 candidate(s)\n" in capsys.readouterr().out


def test_report_scan_wrap_pair_relator(tmp_path, capsys):
    # The faces of a b^2 a^-1 cross the a-edge out and back.
    path = tmp_path / "wrap.pres"
    path.write_text("gens: a b\nrel: a b^2 a^-1\n")
    assert run(["report", str(path), "--scan", "2,2"]) == 0
    assert "oracle scan bounds [2, 2]: 1 candidate(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, option, value",
    [("immerse", "--bounds", "-1,2"), ("report", "--scan", "3,-1")],
)
def test_negative_scan_bounds_exit_2(files, capsys, command, option, value):
    assert run([command, files["torsion.pres"], f"{option}={value}"]) == 2
    captured = capsys.readouterr()
    assert f"bounds ({value.replace(',', ', ')}) must be non-negative" in captured.err
    assert "candidate" not in captured.out


def test_report_chain_beyond_twenty_relators(tmp_path, capsys):
    path = tmp_path / "chain21.pres"
    path.write_text(
        "gens: " + " ".join(f"g{i}" for i in range(22)) + "\n"
        + "".join(f"rel: g{i}^-1 g{i + 1}\n" for i in range(21))
    )
    assert run(["report", "--json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["status"] == "npi-certified"
    assert doc["verdict"]["citation"] == "Thm 3.4"


# H1 rank 3; none of its 145 weight maps is weakly concatenable.
NOT_DECIDED_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5\n"
    "rel: v1^-1 v0^-1 v4 v0\n"
    "rel: v0^-1 v3^-1 v1 v3\n"
    "rel: v0^-1 v1^-1 v3 v1\n"
)


def test_weight_route_stops_at_first_certificate():
    pres = log_to_presentation(lof_random(6, 3, random.Random(5)))
    doc = full_report(pres, ReportOptions(target=IntTarget()))
    assert doc["verdict"]["citation"] == "Thm 3.4"
    *earlier, last = doc["attempts"]
    assert last["status"] == "concatenable"
    assert all(a["status"] != "concatenable" for a in earlier)
    assert doc["phi"]["weights"] == last["weights"]


def test_h1_failure_reports_one_attempt():
    # H1 has rank 6 for one relator on six generators; the box holds
    # 58,096 maps, and each would fail on the same hypothesis.
    pres = parse_presentation("gens: a b c d e f\nrel: a b a^-1 b^-1\n")
    doc = full_report(pres, ReportOptions(target=IntTarget()))
    assert doc["verdict"] == {
        "status": "hypothesis-failure", "citation": "", "detail": "H1 rank 6 != n - k = 5",
    }
    assert [a["status"] for a in doc["attempts"]] == ["hypothesis-failure"]


# A reduced forest of H1 rank 7: the coefficient box holds 7^7 / 2 vectors,
# but the all-ones map comes first and certifies.
RANK7_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6 v7 v8\n"
    "rel: v4^-1 v7^-1 v2 v7\n"
    "rel: v7^-1 v0^-1 v4 v0\n"
)


def test_rank7_forest_certifies_without_the_box(tmp_path, capsys):
    with budget("rank-7 forest report", 1.0):
        doc = full_report(parse_presentation(RANK7_TEXT), ReportOptions(target=IntTarget()))
    assert doc["verdict"]["citation"] == "Thm 3.4"
    assert len(doc["attempts"]) == 1
    assert set(doc["phi"]["weights"].values()) == {1}
    path = tmp_path / "rank7.pres"
    path.write_text(RANK7_TEXT)
    with budget("rank-7 forest cover", 1.0):
        assert run(["cover", str(path)]) == 0
    assert "certificate verified\n" in capsys.readouterr().out


def test_rank7_forest_views_print_one_map(tmp_path, capsys):
    # minima and concat print the report's attempts, so they stop at the
    # certifying all-ones map instead of walking the 7^7 box.
    path = tmp_path / "rank7.pres"
    path.write_text(RANK7_TEXT)
    for command in ("concat", "minima"):
        with budget(f"rank-7 forest {command}", 1.0):
            assert run([command, str(path)]) == 0
        phi_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("phi:")]
        assert phi_lines == ["phi: " + ", ".join(f"v{i}=1" for i in range(9))]


# A rank-3 forest whose all-ones map is not weakly concatenable; the
# report certifies it on its second map, v5=1.
SECOND_MAP_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5\n"
    "rel: v2^-1 v5^-1 v4 v5\n"
    "rel: v0^-1 v3^-1 v4 v3\n"
    "rel: v1^-1 v4^-1 v3 v4\n"
)


def test_views_agree_with_the_report(tmp_path, capsys):
    # cover verifies exactly when the report has a passing cover, and
    # concat names exactly the report's maps, in its order.
    rng = random.Random(13)
    texts = [SECOND_MAP_TEXT] + [
        format_presentation(log_to_presentation(lof_random(n, n - rank, rng)))
        for rank, sizes in ((3, range(4, 9)), (4, range(5, 9)))
        for n in sizes
        for _ in range(3)
    ]
    verified = 0
    for i, text in enumerate(texts):
        path = str(tmp_path / f"f{i}.pres")
        Path(path).write_text(text)
        assert run(["report", "--json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert run(["cover", path]) == 0
        cover_ok = doc["cover"] is not None and doc["cover"]["ok"]
        assert ("certificate verified\n" in capsys.readouterr().out) == cover_ok, text
        verified += cover_ok
        assert run(["concat", path]) == 0
        phi_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("phi:")]
        assert phi_lines == [
            "phi: " + ", ".join(f"{g}={w}" for g, w in a["weights"].items())
            for a in doc["attempts"]
        ], text
        if i == 0:
            assert doc["phi"]["weights"] == {**{f"v{j}": 0 for j in range(5)}, "v5": 1}
            assert len(doc["attempts"]) == 2 and cover_ok
    assert 0 < verified < len(texts)


def test_rank7_forest_phi_prints_one_map(tmp_path, capsys):
    # phi lists the report's maps, so it stops at the certifying all-ones
    # map; the whole coefficient box holds 409,585 of them.
    path = tmp_path / "rank7.pres"
    path.write_text(RANK7_TEXT)
    with budget("rank-7 forest phi", 1.0):
        assert run(["phi", str(path)]) == 0
        out = capsys.readouterr().out
    assert out == "weights: " + ", ".join(f"v{i}=1" for i in range(9)) + "  (flips: none)\n"


def _phi_line(pres, hom) -> str:
    """A weight map as ``phi`` printed it when it walked the whole box."""
    weights = ", ".join(f"{name}={w}" for name, w in zip(pres.generators, hom.weights))
    flips = ", ".join(sorted(g for g, w in zip(pres.generators, hom.weights) if w < 0)) or "none"
    return f"weights: {weights}  (flips: {flips})"


def test_phi_lists_the_reports_maps(tmp_path, capsys):
    # phi prints one line per attempt of the report: the first maps of
    # find_weight_homomorphisms, up to where the report stops, and all of
    # them when no map certifies.  The last input fails H1 on a map with a
    # negative weight, which phi still names as a flip.
    rng = random.Random(17)
    texts = [SECOND_MAP_TEXT, NOT_DECIDED_TEXT, SAMPLE_A_TEXT, SAMPLE_B_TEXT] + [
        format_presentation(log_to_presentation(lof_random(n, n - rank, rng)))
        for rank, sizes in ((2, range(3, 9)), (3, range(4, 9)), (4, range(5, 8)))
        for n in sizes
        for _ in range(3)
    ] + ["gens: a b\nrel: a b\nrel: a b\n"]
    not_decided = 0
    for i, text in enumerate(texts):
        path = tmp_path / f"f{i}.pres"
        path.write_text(text)
        pres = parse_presentation(text)
        doc = full_report(pres, ReportOptions(target=IntTarget()))
        assert run(["phi", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        homs = find_weight_homomorphisms(pres)
        assert [list(h.weights) for h in homs[: len(lines)]] == [
            list(a["weights"].values()) for a in doc["attempts"]
        ], text
        assert lines == [_phi_line(pres, h) for h in homs[: len(lines)]], text
        if doc["verdict"]["status"] == "not-decided":
            assert len(lines) == len(homs), text
            not_decided += 1
    assert doc["verdict"]["status"] == "hypothesis-failure" and lines[0].endswith("(flips: b)")
    assert not_decided >= 3


@pytest.mark.parametrize("bounds", [(1, 1), (4, 2), (5, 2)], ids=str)
def test_immerse_prints_the_reports_scan(files, capsys, bounds):
    # immerse prints the report's oracle scan as it printed npi_scan's, and
    # rejects an invalid presentation through the report's validity check.
    arg = f"{bounds[0]},{bounds[1]}"
    for name in ("a.pres", "b.pres", "braid.pres", "torsion.pres", "invalid.pres"):
        pres = parse_presentation(Path(files[name]).read_text())
        diags = words.validate(pres)
        if diags:
            expected = ("", "error: invalid presentation: " + "; ".join(map(str, diags)) + "\n", 2)
        else:
            reports = npi_scan(pres, *bounds)
            lines = [f"candidates within bounds ({bounds[0]}, {bounds[1]}): {len(reports)}"]
            lines += [f"  chi={r.chi} {r.complex.to_dict(pres)}" for r in reports]
            expected = ("".join(line + "\n" for line in lines), "", 0)
        code = run(["immerse", files[name], "--bounds", arg])
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected, name


# What immerse printed when it was a view of the whole report, at (1, 1).
IMMERSE_11 = {
    "a.pres": ("candidates within bounds (1, 1): 0\n", "", 0),
    "torsion.pres": (
        "candidates within bounds (1, 1): 1\n"
        "  chi=1 {'vertices': 1, 'edges': [[0, 0, 'a']], "
        "'faces': [{'relator': 0, 'path': [[0, 1], [0, 1]]}]}\n",
        "",
        0,
    ),
    "forest.pres": ("candidates within bounds (1, 1): 0\n", "", 0),
    "invalid.pres": (
        "", "error: invalid presentation: not-cyclically-reduced (relator 0): a a^-1 b\n", 2
    ),
}


def test_immerse_runs_no_weight_attempt(files, tmp_path, capsys, monkeypatch):
    # immerse reads the report's first stage and its scan section: no
    # route runs, although the forest's report tries 145 weight maps.
    forest = tmp_path / "forest.pres"
    forest.write_text(FOREST7R3_8_TEXT)
    files = dict(files, **{"forest.pres": str(forest)})
    calls = Counter()
    for module in (report_mod, logs_mod):
        def counted(*args, _check=module.check_assignment, **kwargs):
            calls["check_assignment"] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(module, "check_assignment", counted)
    for name, expected in IMMERSE_11.items():
        code = run(["immerse", files[name], "--bounds", "1,1"])
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected, name
    assert calls == Counter()
    # The counter sees the report's 145 attempts and the Adian route's
    # cross-check, so the zero above is real.
    assert run(["report", files["forest.pres"], "--scan", "1,1"]) == 0
    assert "oracle scan bounds [1, 1]: 0 candidate(s)" in capsys.readouterr().out
    assert calls["check_assignment"] == 145 + 1


@pytest.mark.parametrize("n", [2000, 10_000])
def test_long_relator_cover_costs_linear_time(tmp_path, capsys, n):
    # The cover checks run on one lift per relator, so a relator of 2n + 2
    # letters costs O(n) although the report's window holds n + 4 cells.
    path = tmp_path / "long.pres"
    path.write_text(f"gens: a b c\nrel: a^-{n} b a^{n} c^-1\n")
    window = f"window [{-n - 2}, {n + 2}]: {n + 4} cells"
    for command, expected in (
        ("report", f"cover {window}, checks ok\nverdict: NPI-certified(Thm 3.4)"),
        ("minima", "phi: a=1, b=1, c=1\n  r0: {a:(+0,-1), b:(+1,-0)}\n"),
        ("cover", f"{window}\n"),
    ):
        with budget(f"{command} at n = {n}", 2.0):
            assert run([command, str(path)]) == 0
            out = capsys.readouterr().out
        assert expected in out


def test_long_run_relator_reports_in_linear_time(tmp_path, capsys):
    # A relator of 16,005 letters that is not cyclically u v^-1: the Adian
    # route finds its runs in one pass, not one scan per rotation.
    path = tmp_path / "runs.pres"
    path.write_text(
        "gens: a b c d e z\n"
        "rel: z^-1 a^8000 b^-8000 a b a^-1 b^-1\n"
        "rel: b^-1 e^-1 d e\nrel: d^-1 b^-1 c b\nrel: e^-1 b^-1 a b\nrel: c^-1 d^-1 e d\n"
    )
    for command, expected in (
        ("report", "\nverdict: NotDecided -- "),
        ("adian", "adian-form: relator 0 is not cyclically (positive block)(negative block)\n"),
    ):
        with budget(f"{command} on a relator of 16,005 letters", 2.0):
            assert run([command, str(path)]) == 0
            out = capsys.readouterr().out
        assert expected in out


def test_handle_reduction_budget_is_not_decided(files, monkeypatch, capsys):
    monkeypatch.setattr(orders, "HANDLE_REDUCTION_MAX_STEPS", 1)
    argv = ["report", "--json", files["braid.pres"], "--target", "braid:4:opp", "--phi", "named"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["status"] == "not-decided"
    assert "handle reduction" in doc["verdict"]["detail"]
    assert doc["attempts"] == []
    for command in ("minima", "concat"):
        assert run([command] + argv[2:]) == 0
        assert capsys.readouterr().out.startswith("NotDecided: handle reduction")


@pytest.mark.parametrize("value", ["1", "a,b", "1,2,3"])
@pytest.mark.parametrize(
    "command, option",
    [("report", "--scan"), ("immerse", "--bounds")],
)
def test_malformed_int_pair_option(files, capsys, command, option, value):
    assert run([command, files["a.pres"], option, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}" in err and "E,F" in err and repr(value) in err


def test_presentation_hypotheses_checked_once(monkeypatch):
    pres = parse_presentation(NOT_DECIDED_TEXT)
    calls = []
    original = minima.is_generalized_wirtinger

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(minima, "is_generalized_wirtinger", counting)
    doc = full_report(pres, ReportOptions(target=IntTarget()))
    # Without a certificate the report keeps every attempt as its witness.
    assert doc["verdict"]["status"] == "not-decided"
    assert len(doc["attempts"]) == 145
    assert len(calls) == 1  # shared by the weight route and the Adian route
    for attempt in doc["attempts"]:
        weights = [attempt["weights"][name] for name in pres.generators]
        alone = check_presentation(
            pres, IntTarget(), TargetAssignment.from_weights(pres, weights)
        )
        got = [(h["name"], h["status"], h["detail"]) for h in attempt["hypotheses"]]
        assert got == [(h.key, h.status, h.detail) for h in alone.hypotheses]


def test_log_report_with_scan_validates_once(files, monkeypatch, capsys):
    # The report validates its input once; npi_scan, a public entry point,
    # checks its own input once more.
    calls = []
    original = words.validate

    def counting_in(module_name):
        def counting(pres):
            calls.append(module_name)
            return original(pres)

        return counting

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("npicheck."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting_in(module_name))
    assert run(["report", files["lot.log"], "--scan", "2,1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_scan"] is not None
    assert Counter(calls) == {"npicheck.minima": 1, "npicheck.complexes": 1}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "a.pres", "--phi", "a=1,b=1,c=x"], "--phi: generator c: 'x'"),
        (["report", "a.pres", "--target", "zlex:2", "--phi", "a=1,b=1:0,c=1:0"],
         "--phi: generator a: '1'"),
        (["concat", "braid.pres", "--target", "braid:4", "--phi", "x=0,y=1,z=2"],
         "--phi: generator x: '0'"),
        (["report", "a.pres", "--phi", "a=1,b=1"], "--phi: missing images for generators c"),
        (["report", "ab.pres", "--phi", "a=1,a=2,b=1"], "--phi: generator a is named twice"),
        (["report", "a.pres", "--target", "braid:1"], "argument --target: expected z |"),
        (["minima", "a.pres", "--target", "q"], "argument --target: expected z |"),
        (["phi", "a.pres", "--bound", "0"], "unrecognized arguments: --bound 0"),
        (["report", "a.pres", "--scan", "11,1"], "argument --scan: bounds capped at 10 edges"),
        (["immerse", "a.pres", "--bounds", "3,6"], "argument --bounds: bounds capped at 10 edges"),
        (["report", "a.pres", "--scan=-1,2"], "argument --scan: bounds (-1, 2) must be non-negative"),
        (["report", "a.pres", "--target", "braid:3", "--phi", "named"],
         "--phi named: 3 generators need a braid target on at least 4 strands, got 3"),
        (["immerse", "invalid.pres"], "error: invalid presentation: "),
        (["report", "a.pres", "--window=-4,4"], "unrecognized arguments: --window=-4,4"),
        (["cover", "a.pres", "--window", "-4,4"], "unrecognized arguments: --window -4,4"),
    ],
    ids=[
        "phi-z", "phi-zlex", "phi-braid", "phi-missing", "phi-twice", "target-braid", "target-q", "bound-gone",
        "scan-cap", "bounds-cap", "scan-negative", "phi-named", "immerse-invalid",
        "report-window-gone", "cover-window-gone",
    ],
)
def test_usage_errors_name_the_option(files, capsys, argv, message):
    assert run([files.get(arg, arg) for arg in argv]) == 2
    assert message in capsys.readouterr().err


def test_traced_benchmark_finds_the_names_it_reads():
    # perfbench/run.py reads some call counts by function name, and the
    # ring-k16 probe of perfbench/probes.py imports names from npicheck.minima;
    # deleting or renaming one of them breaks the benchmark.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import npicheck.cli, probes, run, tracer\n"
        "ring_imports = [line for line in probes.RING_CODE.splitlines() if 'npicheck' in line]\n"
        "assert ring_imports\n"
        "exec('\\n'.join(ring_imports))\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "run.layer_metrics(t.totals(), 1, 1.0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "perfbench"), str(root / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_exits_1(tmp_path):
    # ``npicheck immerse w.pres --bounds 10,4 | head -1``: the reader closes
    # the pipe after the first line.  The ~113 kB of candidates do not fit
    # in the pipe, so a write fails: that is exit 1 with nothing on stderr,
    # not an internal check failure.
    pres = tmp_path / "w.pres"
    pres.write_text("gens: a b\nrel: a b^2 a^-1\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "npicheck.cli", "immerse", str(pres), "--bounds", "10,4"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert first == b"candidates within bounds (10, 4): 294\n"
    assert (proc.returncode, err) == (1, b"")


def test_cli_start_up_imports():
    # What every CLI process pays at start-up: no dataclass code generation,
    # no pathlib (the CLI reads its file with open) and no random (the
    # package draws no random numbers), and every
    # layer loaded at import, since the traced benchmark reads them from
    # sys.modules once npicheck.cli is imported.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import json, sys\n"
        "import npicheck.cli\n"
        "loaded = set(sys.modules)\n"
        f"sys.path.append({str(root / 'perfbench')!r})\n"
        "import tracer\n"
        "print(json.dumps({'unwanted': sorted({'dataclasses', 'pathlib', 'random'} & loaded), "
        "'missing': [layer for layer in tracer.LAYERS if 'npicheck.' + layer not in loaded]}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"unwanted": [], "missing": []}
