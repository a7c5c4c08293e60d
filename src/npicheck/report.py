"""Full report pipeline: from a parsed presentation or LOG to a verdict
document with a hypothesis checklist, certificates, cover verification and
an optional immersion scan.

There are two routes.  The presentation route checks validity, tries the
weight maps (Thm 3.4 over the integers, Thm 3.6 over an ordered target)
and for the integers falls back to the equal-length Adian route (Thm 4.1).
The LOG route applies the forest criteria (Cor 4.3).  Each route fills
its own sections of the document and returns the verdict as (status,
citation, detail).  :func:`full_report` then finishes every report the
same way: it asserts that the cover checks pass, when there is a cover;
runs the ``--scan`` on every input whose presentation passes
``validate``; and writes the verdict.

The hypotheses that depend on the presentation alone (validity, then H1
free of rank n - k) are computed once, in :func:`full_report`; both
routes, the Adian section and the scan gate read that one result, and
the weight search reads its kernel basis from the Smith form of that H1
check.  Within one report, each distinct tuple of multisets is decided
once (see :func:`check_assignment`).

Verdicts are three-valued; the tool never claims the absence of the
non-positive immersion property, only that a sufficient condition holds
(npi-certified), fails to apply (not-decided), or that a hypothesis is
violated (hypothesis-failure).
"""

from __future__ import annotations

from _json import encode_basestring_ascii
from typing import NamedTuple

# ``complexes``, ``cover`` and ``logs`` are lazy modules (see the package
# docstring): each is read through the module, so that it runs on first use.
from . import complexes, logs
from . import cover as cover_mod
from .homology import H1Structure, NoSurjection, _weight_stream
from .minima import (
    MAX,
    MIN,
    CheckVerdict,
    HypothesisResult,
    check_assignment,
    presentation_hypotheses,
)
from .orders import (
    BraidTarget,
    HandleReductionBudget,
    IntTarget,
    OrderedTarget,
    TargetAssignment,
)
from .words import Presentation

REPORT_FORMAT = "npicheck-report-v2"

# Rendered verdict labels required by the report interface.
CITATIONS = {
    "concat-z": "Thm 3.4",
    "concat-ordered": "Thm 3.6",
    "adian-equal-lengths": "Thm 4.1",
    "reduced-lof-forest": "Cor 4.3",
}

# The verdict statuses as the text report and the CLI print them.
VERDICT_LABELS = {
    "npi-certified": "NPI-certified",
    "not-decided": "NotDecided",
    "hypothesis-failure": "HypothesisFailure",
}

HYPOTHESIS_CITATIONS = {
    "h1-free-abelian-rank-n-k": "Thm 3.4",
    "weights-surjective": "Thm 3.4",
    "weights-nonnegative": "Thm 3.4",
    "map-surjective": "Thm 3.6",
    "target-locally-indicable": "Thm 3.6",
    "adian-form": "Thm 4.1",
    "equal-block-lengths": "Thm 4.1",
    "lof-reduced": "Cor 4.3",
}


class BadPhiSpec(ValueError):
    """Malformed --phi specification."""


class ReportOptions(NamedTuple):
    target: OrderedTarget
    phi_spec: str = "auto"
    mode: str = MIN
    scan_bounds: tuple[int, int] | None = None


def parse_phi_spec(spec: str, pres: Presentation, target: OrderedTarget):
    """Assignment spec: ``all-ones`` | ``auto`` | ``named`` | comma list.

    Returns None for ``auto`` (search over kernel combinations, integer
    targets only).  Comma lists map generator names to integers: weights
    for z, nonzero signed Artin indices for braid targets.  Every
    BadPhiSpec names ``--phi``, and the generator when one value is at
    fault.
    """
    if spec == "auto":
        if not isinstance(target, IntTarget):
            raise BadPhiSpec("--phi auto: the weight search needs the z target")
        return None
    if spec == "all-ones":
        if not isinstance(target, IntTarget):
            raise BadPhiSpec("--phi all-ones: all-ones weights need the z target")
        return TargetAssignment.all_ones(pres)
    if spec == "named":
        if not isinstance(target, BraidTarget):
            raise BadPhiSpec("--phi named: named assignments need a braid target")
        if len(pres.generators) >= target.n_strands:
            raise BadPhiSpec(
                f"--phi named: {len(pres.generators)} generators need a braid target "
                f"on at least {len(pres.generators) + 1} strands, got {target.n_strands}"
            )
        return TargetAssignment.named_braid(pres, target)
    images: dict[int, object] = {}
    for item in spec.split(","):
        if "=" not in item:
            raise BadPhiSpec(f"--phi: expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in pres.generators:
            raise BadPhiSpec(f"--phi: unknown generator {name!r}")
        if pres.generators.index(name) in images:
            raise BadPhiSpec(f"--phi: generator {name} is named twice")
        try:
            if isinstance(target, IntTarget):
                image = int(value)
            elif isinstance(target, BraidTarget):
                idx = int(value)
                image = target.generator(abs(idx), 1 if idx > 0 else -1)
            else:
                raise ValueError  # no value is an image in an unknown target
        except ValueError:
            raise BadPhiSpec(
                f"--phi: generator {name}: {value!r} is not an image in {target.name}"
            ) from None
        images[pres.generators.index(name)] = image
    missing = [pres.generators[j] for j in range(len(pres.generators)) if j not in images]
    if missing:
        raise BadPhiSpec(f"--phi: missing images for generators {', '.join(missing)}")
    return TargetAssignment(target, images)


def _hypothesis_dicts(hyps) -> list[dict]:
    return [
        {
            "name": h.key,
            "status": h.status,
            "citation": HYPOTHESIS_CITATIONS.get(h.key, ""),
            "detail": h.detail,
        }
        for h in hyps
    ]


def _merge_hypotheses(doc: dict, entries) -> None:
    present = {h["name"] for h in doc["hypotheses"]}
    for entry in entries:
        if entry["name"] not in present:
            doc["hypotheses"].append(entry)
            present.add(entry["name"])


def _verdict_to_entry(pres: Presentation, verdict: CheckVerdict) -> dict:
    """The attempt entry of a verdict.  The counts of each generator in
    ``verdict.flips`` are written inverted, [negative, positive]: they are
    the counts of the presentation with the generators of negative weight
    inverted, under the weights |phi|."""
    names = pres.generators
    flips = verdict.flips

    def copies(g: int, p: int, n: int) -> list[int]:
        return [n, p] if g in flips else [p, n]

    def witness(w) -> dict:
        p, n = copies(w.gen, w.positive, w.negative)
        return {"generator": names[w.gen], "positive": p, "negative": n}

    entry: dict = {
        "status": verdict.status,
        "mode": verdict.mode,
        "flips": sorted(names[j] for j in flips),
        "hypotheses": _hypothesis_dicts(verdict.hypotheses),
    }
    if verdict.multisets is not None:
        entry["multisets"] = [
            {
                "relator": m.relator,
                "mode": m.mode,
                "counts": {names[g]: copies(g, p, n) for g, (p, n) in sorted(m.counts.items())},
            }
            for m in verdict.multisets
        ]
    if verdict.certificate is not None:
        entry["certificate"] = {
            "ordering": list(verdict.certificate.ordering),
            "witnesses": [witness(w) for w in verdict.certificate.witnesses],
        }
    if verdict.failure is not None:
        entry["failure_witness"] = {"stuck_core": list(verdict.failure.stuck_core)}
    return entry


def cover_section(pres: Presentation, verdict: CheckVerdict) -> dict:
    """Verify the slim certificate of a concatenable integer verdict on
    ``pres`` on its cyclic cover.  The section names the window that reaches one level beyond
    the largest relator span on each side, and the cells it holds; the
    checks themselves are decided once per relator (see
    :func:`cover.verify_weak_slim_certificate`).

    The slim order of the cover is built for minima.  The maxima under
    phi are the minima under -phi, at the same letters, and reversing a
    left-invariant order gives another one; so a max-mode verdict is
    verified with its own multisets and certificate on the weights -phi.
    """
    sign = -1 if verdict.mode == MAX else 1
    weights = tuple(sign * verdict.assignment.image(j) for j in range(len(pres.generators)))
    spans = [
        cover_mod.relator_span(pres, weights, i) for i in range(len(pres.relators))
    ]
    margin = (max(spans) if spans else 0) + 1
    window = cover_mod.build_cover_window(pres, weights, -margin, margin, spans)
    slim = cover_mod.build_slim_certificate(pres, verdict.multisets, verdict.certificate)
    report = cover_mod.verify_weak_slim_certificate(
        pres, weights, verdict.multisets, slim, window
    )
    return {
        "window": [window.lo, window.hi],
        "cells": len(window.cells),
        "ok": report.ok,
        "checks": [
            {"check": c.check, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }


def full_report(
    source: Presentation | logs.Log,
    options: ReportOptions,
    input_text: str = "",
) -> dict:
    """Run the route for the input kind, then finish the report: assert
    that its cover checks pass, scan a valid presentation when ``--scan``
    asks for it, and write the verdict."""
    # Dispatched on Presentation, so that a presentation never loads ``logs``.
    log = not isinstance(source, Presentation)
    pres = logs.log_to_presentation(source) if log else source
    pres_hyps, h1 = presentation_hypotheses(pres)
    if log:
        doc = _base_doc("log", pres, input_text)
        status, citation, detail = _log_route(doc, source, pres, pres_hyps, options)
    else:
        doc = _base_doc("presentation", pres, input_text)
        status, citation, detail = _presentation_route(doc, pres, pres_hyps, h1, options)
    if doc["cover"] is not None and not doc["cover"]["ok"]:
        raise AssertionError("cover verification failed for a valid certificate")
    if options.scan_bounds is not None and pres_hyps[0].status == "pass":
        doc["oracle_scan"] = _scan_section(pres, options.scan_bounds)
    doc["verdict"] = {"status": status, "citation": citation, "detail": detail}
    return doc


def _scan_section(pres: Presentation, bounds: tuple[int, int]) -> dict:
    """The ``oracle_scan`` section: the bounded immersion scan of a valid
    presentation.  The CLI's ``immerse`` prints this section alone."""
    max_e, max_f = bounds
    reports = complexes.npi_scan(pres, max_e, max_f)
    return {
        "bounds": [max_e, max_f],
        "count": len(reports),
        # "note" is always empty; it stays until the next schema version.
        "candidates": [
            {"chi": r.chi, "complex": r.complex.to_dict(pres), "note": ""}
            for r in reports
        ],
    }


def _base_doc(kind: str, pres: Presentation, input_text: str) -> dict:
    return {
        "format": REPORT_FORMAT,
        "input": {
            "kind": kind,
            "text": input_text,
            "generators": list(pres.generators),
            "relators": [pres.word_str(r) for r in pres.relators],
        },
        "hypotheses": [],
        "phi": None,
        "attempts": [],
        "cover": None,
        "oracle_scan": None,
        "lot": None,
        "adian": None,
        "verdict": None,
    }


def _first_failure(entries: list[dict]) -> str:
    """Detail of the first failing hypothesis entry."""
    return next((h["detail"] for h in entries if h["status"] == "fail"), "")


def _adian_section(doc: dict, pres: Presentation, pres_hyps, outcomes=None) -> logs.AdianVerdict:
    """Run the equal-length Adian route and record it in ``adian``, whose
    flags are shown only when no hypothesis stopped the route.  The CLI's
    ``adian`` view prints the flags of this section."""
    verdict = logs.adian_check(pres, pres_hyps, outcomes)
    shown = verdict.status != "hypothesis-failure"
    doc["adian"] = {
        "hypotheses": _hypothesis_dicts(verdict.hypotheses),
        "graph_t_forest": verdict.t_forest if shown else None,
        "graph_i_forest": verdict.i_forest if shown else None,
    }
    return verdict


def _presentation_route(
    doc: dict, pres: Presentation, pres_hyps, h1: H1Structure | None, options: ReportOptions
) -> tuple[str, str, str]:
    """Validity, then the weight maps (Thm 3.4 over the integers, Thm 3.6
    over an ordered target), then for the integers the Adian fallback.

    ``h1`` is the H1 structure of the hypotheses, None when validity
    fails; the weight search reads its kernel basis from the same Smith
    form."""
    valid = pres_hyps[0]
    # A passing validity check carries no detail in the report.
    doc["hypotheses"] = _hypothesis_dicts(
        [valid if valid.status == "fail" else valid._replace(detail="")]
    )
    if valid.status == "fail":
        return "hypothesis-failure", "", "invalid presentation"

    target = options.target
    integer = isinstance(target, IntTarget)
    # The map a named spec gives, or for ``auto`` every weight map in the
    # order of homology._weight_stream: the maps of the relator part's
    # coefficient box, all-ones first when the box holds it, then the rest
    # in sorted order, each with weight 1 on every generator no relator
    # uses.  Only the kernel basis is read here, from the Smith form of the
    # H1 check, raising NoSurjection when it is empty.  The box is built
    # only when a map after all-ones is asked for, so a run that stops at
    # a concatenable all-ones map never builds it.
    assignment = parse_phi_spec(options.phi_spec, pres, target)
    try:
        candidates = iter([assignment]) if assignment is not None else (
            TargetAssignment.from_weights(pres, h.weights)
            for h in _weight_stream(h1)
        )
    except NoSurjection as exc:
        # No map reaches check_assignment, so the H1 row, pass or fail, is
        # written here.
        doc["hypotheses"] += _hypothesis_dicts(
            [pres_hyps[1], HypothesisResult("weights-surjective", "fail", str(exc))]
        )
        if h1.free:
            free = ", ".join(pres.generators[j] for j in h1.free)
            detail = (
                "every surjection to the integers is zero on every relator letter "
                f"(unused generators: {free}; torsion {list(h1.torsion)})"
            )
        else:
            detail = (
                f"no surjection to the integers (H1 rank {h1.free_rank}, "
                f"torsion {list(h1.torsion)})"
            )
        return "hypothesis-failure", "", detail

    # Thm 3.4 needs one concatenable map: stop at the first.  A named spec
    # gives one map and every auto map is primitive, so a failed
    # hypothesis is the presentation's own, which every later map would
    # fail too: stop there as well.  Otherwise every attempt stays in the
    # report as the witness of why none certifies.  Many maps give the same
    # multisets, so each distinct tuple is decided once per report.
    #
    # The attempts with one outcome share one entry body, and each adds
    # only its own weights; the writer then writes the body's row lists
    # once (see report_json).  A body is built once per distinct (flips,
    # hypothesis rows, decided outcome), and that triple fixes it: the
    # mode is the report's, and a decided outcome is the object that
    # check_assignment took from ``outcomes``, one per distinct multiset
    # tuple, so its identity fixes the multisets as well as the
    # certificate or stuck core.  A verdict that stopped at a hypothesis
    # has neither (both ids are of None) and no multisets.  ``outcomes``
    # keeps every outcome alive until the route returns, so no id is
    # reused while ``bodies`` is in use.
    outcomes: dict = {}
    bodies: dict = {}
    for cand in candidates:
        try:
            verdict = check_assignment(pres, pres_hyps, target, cand, options.mode, outcomes)
        except HandleReductionBudget as exc:
            # Only a braid target reduces handles, and it has one assignment:
            # no attempt finished, so the verdict names the stage that stopped.
            return "not-decided", "", f"handle reduction in {target.name} stopped: {exc}"
        key = (verdict.flips, verdict.hypotheses, id(verdict.certificate), id(verdict.failure))
        body = bodies.get(key)
        if body is None:
            body = bodies[key] = _verdict_to_entry(pres, verdict)
        entry = dict(body)
        if integer:
            entry["weights"] = {name: cand.image(j) for j, name in enumerate(pres.generators)}
        doc["attempts"].append(entry)
        if verdict.status != "not-concatenable":
            break
    certified = verdict.status == "concatenable"
    # The one assignment of an ordered target is always shown; an integer
    # map only when it certifies.
    if certified or not integer:
        doc["phi"] = {
            "target": target.name,
            "weights": {
                name: cand.image(j) if integer else target.describe(cand.image(j))
                for j, name in enumerate(pres.generators)
            },
            "flips": sorted(pres.generators[j] for j in verdict.flips),
        }
        _merge_hypotheses(doc, entry["hypotheses"])
    if certified and integer:
        doc["cover"] = cover_section(pres, verdict)
        return (
            "npi-certified",
            CITATIONS["concat-z"],
            "weakly concatenable over the integers; certificate replayed and "
            "cover checks passed",
        )
    if certified:
        return (
            "npi-certified",
            CITATIONS["concat-ordered"],
            f"weakly concatenable over {target.name}; local indicability of the "
            "target is recorded as an assumed hypothesis",
        )
    if verdict.status == "hypothesis-failure":
        _merge_hypotheses(doc, entry["hypotheses"])
        return "hypothesis-failure", "", _first_failure(entry["hypotheses"])
    if not integer:
        return "not-decided", "", "not weakly concatenable for this assignment"
    adian = _adian_section(doc, pres, pres_hyps, outcomes)
    if adian.status == "npi":
        branch = "T-forest (min mode)" if adian.t_forest else "I-forest (max mode)"
        return (
            "npi-certified",
            CITATIONS["adian-equal-lengths"],
            f"equal-length Adian presentation with {branch}",
        )
    return (
        "not-decided",
        "",
        "no tried weight map is weakly concatenable; the sufficient "
        "conditions do not apply",
    )


def _log_route(
    doc: dict, log: logs.Log, pres: Presentation, pres_hyps, options: ReportOptions
) -> tuple[str, str, str]:
    """A reduced LOG through the forest criteria on its letter graphs
    (Cor 4.3).

    A certified LOG always has a forest as its underlying graph.  Each
    relator makes its two endpoints equal in H1, so H1 of a reduced LOG is
    free of rank c, the number of components of the underlying graph.  That
    is n - k only for a forest; otherwise the H1 hypothesis of the Adian
    route fails first.  A reduced LOG edge's relator is u v^-1 with
    u = i lambda and v = lambda t, so the Adian form and its block lengths
    always pass, and :func:`adian_check` decides both letter graphs for the
    ``lot`` section whether or not the H1 row then fails.
    """
    reduced, diags = logs.log_is_reduced(log)
    doc["lot"] = {
        "reduced": reduced,
        "diagnostics": [{"edge": i, "code": code} for i, code in diags],
        "underlying_forest": logs.underlying_forest(log),
        "graph_i_forest": None,
        "graph_t_forest": None,
    }
    detail = "; ".join(f"edge {i}: {c}" for i, c in diags)
    doc["hypotheses"] = _hypothesis_dicts(
        [HypothesisResult("lof-reduced", "pass" if reduced else "fail", detail)]
    )
    if not reduced:
        return (
            "hypothesis-failure",
            "",
            "the LOG is not reduced; the forest criteria require reduced input",
        )
    verdict = _adian_section(doc, pres, pres_hyps)
    doc["lot"]["graph_i_forest"] = verdict.i_forest
    doc["lot"]["graph_t_forest"] = verdict.t_forest
    _merge_hypotheses(doc, doc["adian"]["hypotheses"])
    if verdict.status == "hypothesis-failure":
        return "hypothesis-failure", "", _first_failure(doc["hypotheses"])
    if verdict.status != "npi":
        return (
            "not-decided",
            "",
            "both letter graphs contain cycles; the forest criteria do not apply",
        )
    doc["attempts"].append(_verdict_to_entry(pres, verdict.min_check or verdict.max_check))
    doc["phi"] = {"target": "z", "weights": {name: 1 for name in pres.generators}, "flips": []}
    if verdict.min_check:
        doc["cover"] = cover_section(pres, verdict.min_check)
    branch = "T" if verdict.t_forest else "I"
    return (
        "npi-certified",
        CITATIONS["reduced-lof-forest"],
        f"reduced labelled oriented input with graph {branch} a forest",
    )


def report_json(doc: dict) -> str:
    """The report as JSON text: the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True) + "\n"``, with every non-ASCII character escaped.

    It does not call ``json.dumps``: with ``indent`` set, the standard
    library skips its C encoder and runs a pure-Python generator per
    nesting level, which made serialization a large share of a report.
    The writer below appends the same tokens to one list; strings go
    through the C string quoter.  It raises TypeError on any value a
    report does not hold (a float, a non-string key, any other object).

    A list of rows (a list whose first item is a dict) that the document
    holds more than once by identity, at the same indentation, is written
    once: attempts that share an entry body share its hypothesis rows and
    multisets.  Its second meeting appends the text of the first, kept
    as a span of the output until then.  The bytes do not change: the
    text of a value depends only on the value and its indentation, and
    the value is the same object.  The record of those lists lives for
    one call and holds each list it names, so no id is reused while it
    is in use.  A value the writer refuses fails on its first write,
    before anything is recorded.
    """
    out: list[str] = []
    _write_json(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str], rows: dict) -> None:
    """Append ``value`` to ``out``; ``newline`` is a line break followed by
    the indentation of the current level.  ``rows`` maps the id of each
    list of rows written so far to (the list, its ``newline``, its text):
    a slice of ``out`` until the list is met again, then the joined text.

    Inside a list or a dict, an item whose type is exactly ``str`` or
    ``int`` is written in place; every other item, subclasses of those
    included, takes the recursive call, so both ways accept and refuse the
    same values.  The recursive call mostly meets containers, so it tests
    for them first; no value is both a container and a scalar, so the
    order of the tests does not change what is written.
    """
    cls = type(value)
    if cls is list or cls is tuple:
        if not value:
            out.append("[]")
            return
        shared = cls is list and type(value[0]) is dict
        if shared:
            seen = rows.get(id(value))
            if seen is not None and seen[1] == newline:
                text = seen[2]
                if type(text) is slice:
                    text = "".join(out[text])
                    rows[id(value)] = (value, newline, text)
                out.append(text)
                return
            start = len(out)
        quote = encode_basestring_ascii
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(sep + quote(item))
            elif kind is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _write_json(item, inner, out, rows)
            sep = "," + inner
        out.append(newline + "]")
        if shared and seen is None:
            rows[id(value)] = (value, newline, slice(start, len(out)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        quote = encode_basestring_ascii
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys are strings, not {type(key).__name__}")
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(f"{sep}{quote(key)}: {quote(item)}")
            elif kind is int:
                out.append(f"{sep}{quote(key)}: {int.__repr__(item)}")
            else:
                out.append(f"{sep}{quote(key)}: ")
                _write_json(item, inner, out, rows)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a report holds no {type(value).__name__}")


def render_text(doc: dict) -> str:
    lines = [f"input: {doc['input']['kind']}"]
    for name, rel in zip(
        ["generators", "relators"],
        [", ".join(doc["input"]["generators"]), "; ".join(doc["input"]["relators"])],
    ):
        lines.append(f"  {name}: {rel}")
    lines.append("hypotheses:")
    for h in doc["hypotheses"]:
        cite = f" [{h['citation']}]" if h["citation"] else ""
        detail = f" -- {h['detail']}" if h["detail"] else ""
        lines.append(f"  {h['status']:>7}  {h['name']}{cite}{detail}")
    if doc.get("phi"):
        phi = doc["phi"]
        images = ", ".join(f"{k}={v}" for k, v in sorted(phi["weights"].items()))
        lines.append(f"phi: target {phi['target']}; {images}")
        if phi["flips"]:
            lines.append(f"  flipped generators: {', '.join(phi['flips'])}")
    for attempt in doc["attempts"]:
        if "multisets" in attempt:
            for m in attempt["multisets"]:
                counts = ", ".join(
                    f"{g}:(+{p},-{n})" for g, (p, n) in sorted(m["counts"].items())
                )
                lines.append(f"  multiset r{m['relator']} ({m['mode']}): {counts}")
        if "certificate" in attempt:
            cert = attempt["certificate"]
            order = ", ".join(f"r{i}" for i in cert["ordering"])
            wits = ", ".join(w["generator"] for w in cert["witnesses"])
            lines.append(f"  certificate: ordering ({order}); witnesses ({wits})")
        if "failure_witness" in attempt:
            core = ", ".join(f"r{i}" for i in attempt["failure_witness"]["stuck_core"])
            lines.append(f"  not concatenable; stuck core ({core})")
    if doc.get("cover"):
        cov = doc["cover"]
        status = "ok" if cov["ok"] else "FAILED"
        lines.append(f"cover window {cov['window']}: {cov['cells']} cells, checks {status}")
    if doc.get("oracle_scan"):
        scan = doc["oracle_scan"]
        lines.append(
            f"oracle scan bounds {scan['bounds']}: {scan['count']} candidate(s)"
        )
    verdict = doc["verdict"]
    label = VERDICT_LABELS[verdict["status"]]
    cite = f"({verdict['citation']})" if verdict["citation"] else ""
    lines.append(f"verdict: {label}{cite} -- {verdict['detail']}")
    return "\n".join(lines) + "\n"
