"""Full report pipeline: from a parsed presentation or LOG to a verdict
document with a hypothesis checklist, certificates, cover verification and
an optional immersion scan.

Verdicts are three-valued; the tool never claims the absence of the
non-positive immersion property, only that a sufficient condition holds
(npi-certified), fails to apply (not-decided), or that a hypothesis is
violated (hypothesis-failure).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from . import cover as cover_mod
from .complexes import npi_scan
from .homology import NoSurjection, find_weight_homomorphisms, h1_structure
from .logs import (
    Log,
    NotAdian,
    adian_npi_check,
    graph_I,
    graph_T,
    is_forest,
    log_is_reduced,
    log_to_presentation,
    underlying_forest,
)
from .minima import MIN, CheckVerdict, check_assignment, presentation_hypotheses
from .orders import (
    BraidTarget,
    IntTarget,
    LexTarget,
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

HYPOTHESIS_CITATIONS = {
    "h1-free-abelian-rank-n-k": "Thm 3.4",
    "weights-surjective": "Thm 3.4",
    "weights-nonnegative": "Thm 3.4",
    "map-surjective": "Thm 3.6",
    "target-locally-indicable": "Thm 3.6",
    "adian-form": "Thm 4.1",
    "equal-block-lengths": "Thm 4.1",
    "lof-reduced": "Cor 4.3",
    "no-proper-power": "Thm 3.4",
}


class BadPhiSpec(ValueError):
    """Malformed --phi specification."""


@dataclass
class ReportOptions:
    target: OrderedTarget
    phi_spec: str = "auto"
    mode: str = MIN
    coeff_bound: int = 3
    window: tuple[int, int] | None = None
    scan_bounds: tuple[int, int] | None = None


def parse_phi_spec(spec: str, pres: Presentation, target: OrderedTarget):
    """Assignment spec: ``all-ones`` | ``auto`` | ``named`` | comma list.

    Returns None for ``auto`` (search over kernel combinations, integer
    targets only).  Comma lists map generator names to integers (weights
    for z, signed Artin indices for braid targets) or to colon-separated
    vectors for zlex targets.
    """
    if spec == "auto":
        if not isinstance(target, IntTarget):
            raise BadPhiSpec("auto weight search is only available for the z target")
        return None
    if spec == "all-ones":
        if not isinstance(target, IntTarget):
            raise BadPhiSpec("all-ones weights need the z target")
        return TargetAssignment.all_ones(pres)
    if spec == "named":
        if not isinstance(target, BraidTarget):
            raise BadPhiSpec("named assignments need a braid target")
        return TargetAssignment.named_braid(pres, target)
    images: dict[int, object] = {}
    for item in spec.split(","):
        if "=" not in item:
            raise BadPhiSpec(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in pres.generators:
            raise BadPhiSpec(f"unknown generator {name!r}")
        gen = pres.generators.index(name)
        if isinstance(target, IntTarget):
            images[gen] = int(value)
        elif isinstance(target, LexTarget):
            vec = tuple(int(x) for x in value.split(":"))
            if len(vec) != target.dim:
                raise BadPhiSpec(f"{name}: expected {target.dim} components")
            images[gen] = vec
        elif isinstance(target, BraidTarget):
            idx = int(value)
            if idx == 0:
                raise BadPhiSpec("Artin index must be nonzero")
            images[gen] = target.generator(abs(idx), 1 if idx > 0 else -1)
        else:
            raise BadPhiSpec(f"unsupported target {target.name}")
    missing = [pres.generators[j] for j in range(len(pres.generators)) if j not in images]
    if missing:
        raise BadPhiSpec(f"missing images for: {', '.join(missing)}")
    return TargetAssignment(target, images)


def phi_candidates(
    spec: str, pres: Presentation, target: OrderedTarget, coeff_bound: int = 3
) -> Iterator[TargetAssignment]:
    """The assignments a ``--phi`` spec asks to try, in order: the one it
    names, or for ``auto`` every weight map that
    :func:`find_weight_homomorphisms` finds.

    The weight search runs at the call, which raises NoSurjection when it
    finds no map; each assignment is built only when the iterator reaches
    it, so a caller that stops at the first usable map builds no more.
    """
    assignment = parse_phi_spec(spec, pres, target)
    if assignment is not None:
        return iter([assignment])
    return (
        TargetAssignment.from_weights(pres, h.weights)
        for h in find_weight_homomorphisms(pres, coeff_bound)
    )


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


def _multiset_dicts(pres: Presentation, multisets) -> list[dict]:
    out = []
    for m in multisets:
        out.append(
            {
                "relator": m.relator,
                "mode": m.mode,
                "counts": {
                    pres.generators[g]: [p, n]
                    for g, (p, n) in sorted(m.counts.items())
                },
            }
        )
    return out


def _certificate_dict(pres: Presentation, cert) -> dict:
    return {
        "ordering": list(cert.ordering),
        "witnesses": [
            {
                "generator": pres.generators[w.gen],
                "positive": w.positive,
                "negative": w.negative,
            }
            for w in cert.witnesses
        ],
    }


def _verdict_to_entry(pres: Presentation, verdict: CheckVerdict) -> dict:
    entry: dict = {
        "status": verdict.status,
        "mode": verdict.mode,
        "flips": sorted(pres.generators[j] for j in verdict.flips),
        "hypotheses": _hypothesis_dicts(verdict.hypotheses),
    }
    if verdict.multisets is not None:
        entry["multisets"] = _multiset_dicts(verdict.presentation, verdict.multisets)
    if verdict.certificate is not None:
        entry["certificate"] = _certificate_dict(verdict.presentation, verdict.certificate)
    if verdict.failure is not None:
        entry["failure_witness"] = {"stuck_core": list(verdict.failure.stuck_core)}
    return entry


def cover_section(verdict: CheckVerdict, window_bounds) -> dict:
    """Verify the slim certificate of a concatenable integer verdict on a
    cover window: ``window_bounds`` (lo, hi), or by default one level
    beyond the largest relator span on each side."""
    pres = verdict.presentation
    weights = tuple(verdict.assignment.image(j) for j in range(len(pres.generators)))
    spans = [
        cover_mod.relator_span(pres, weights, i) for i in range(len(pres.relators))
    ]
    margin = (max(spans) if spans else 0) + 1
    lo, hi = window_bounds if window_bounds else (-margin, margin)
    window = cover_mod.build_cover_window(pres, weights, lo, hi)
    slim = cover_mod.build_slim_certificate(pres, verdict.multisets, verdict.certificate)
    report = cover_mod.verify_weak_slim_certificate(
        pres, weights, verdict.multisets, slim, window
    )
    return {
        "window": [lo, hi],
        "cells": len(window.cells),
        "ok": report.ok,
        "checks": [
            {"check": c.check, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }


def full_report(
    source: Presentation | Log,
    options: ReportOptions,
    input_text: str = "",
) -> dict:
    """Dispatch on the input kind and assemble the report document."""
    if isinstance(source, Log):
        return _log_report(source, options, input_text)
    return _presentation_report(source, options, input_text)


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


def _finish(doc: dict, status: str, citation: str, detail: str) -> dict:
    doc["verdict"] = {"status": status, "citation": citation, "detail": detail}
    return doc


def _presentation_report(pres: Presentation, options: ReportOptions, input_text: str) -> dict:
    doc = _base_doc("presentation", pres, input_text)
    pres_hyps = presentation_hypotheses(pres)
    valid = pres_hyps[0]
    # A passing validity check carries no detail in the report.
    doc["hypotheses"] = [
        {
            "name": valid.key,
            "status": valid.status,
            "citation": "",
            "detail": valid.detail if valid.status == "fail" else "",
        }
    ]
    if valid.status == "fail":
        return _finish(doc, "hypothesis-failure", "", "invalid presentation")

    target = options.target
    if isinstance(target, IntTarget):
        try:
            candidates = phi_candidates(options.phi_spec, pres, target, options.coeff_bound)
        except NoSurjection as exc:
            h1 = h1_structure(pres)
            doc["hypotheses"].append(
                {
                    "name": "weights-surjective",
                    "status": "fail",
                    "citation": HYPOTHESIS_CITATIONS["weights-surjective"],
                    "detail": str(exc),
                }
            )
            _maybe_scan(doc, pres, options)
            return _finish(
                doc,
                "hypothesis-failure",
                "",
                f"no surjection to the integers (H1 rank {h1.free_rank}, "
                f"torsion {list(h1.torsion)})",
            )

        # Thm 3.4 needs one concatenable map: stop at the first.  When there
        # is none, every attempt stays in the report as the witness of why.
        chosen = None
        for cand in candidates:
            verdict = check_assignment(pres, pres_hyps, target, cand, options.mode)
            entry = _verdict_to_entry(pres, verdict)
            entry["weights"] = {name: cand.image(j) for j, name in enumerate(pres.generators)}
            doc["attempts"].append(entry)
            if verdict.status == "concatenable":
                chosen = (entry["weights"], verdict)
                break
        if chosen is not None:
            weights, verdict = chosen
            doc["phi"] = {
                "target": target.name,
                "weights": dict(weights),
                "flips": sorted(pres.generators[j] for j in verdict.flips),
            }
            _merge_hypotheses(doc, _hypothesis_dicts(verdict.hypotheses))
            doc["cover"] = cover_section(verdict, options.window)
            if not doc["cover"]["ok"]:
                raise AssertionError("cover verification failed for a valid certificate")
            _maybe_scan(doc, pres, options)
            return _finish(
                doc,
                "npi-certified",
                CITATIONS["concat-z"],
                "weakly concatenable over the integers; certificate replayed and "
                "cover checks passed",
            )
        statuses = {a["status"] for a in doc["attempts"]}
        if statuses == {"hypothesis-failure"}:
            first = doc["attempts"][0]
            _merge_hypotheses(doc, first["hypotheses"])
            failed = [
                h for h in first["hypotheses"] if h["status"] == "fail"
            ]
            detail = failed[0]["detail"] if failed else "hypothesis failure"
            _maybe_scan(doc, pres, options)
            return _finish(doc, "hypothesis-failure", "", detail)
        adian_entry = _try_adian(doc, pres)
        if adian_entry is not None:
            return adian_entry
        _maybe_scan(doc, pres, options)
        return _finish(
            doc,
            "not-decided",
            "",
            "no tried weight map is weakly concatenable; the sufficient "
            "conditions do not apply",
        )

    # Ordered non-integer target.
    assignment = parse_phi_spec(options.phi_spec, pres, target)
    verdict = check_assignment(pres, pres_hyps, target, assignment, options.mode)
    entry = _verdict_to_entry(pres, verdict)
    doc["attempts"].append(entry)
    _merge_hypotheses(doc, _hypothesis_dicts(verdict.hypotheses))
    doc["phi"] = {
        "target": target.name,
        "weights": {
            pres.generators[j]: target.describe(assignment.image(j))
            for j in range(len(pres.generators))
        },
        "flips": [],
    }
    if verdict.status == "concatenable":
        _maybe_scan(doc, pres, options)
        return _finish(
            doc,
            "npi-certified",
            CITATIONS["concat-ordered"],
            f"weakly concatenable over {target.name}; local indicability of the "
            "target is recorded as an assumed hypothesis",
        )
    if verdict.status == "hypothesis-failure":
        failed = [h for h in entry["hypotheses"] if h["status"] == "fail"]
        _maybe_scan(doc, pres, options)
        return _finish(
            doc, "hypothesis-failure", "", failed[0]["detail"] if failed else ""
        )
    _maybe_scan(doc, pres, options)
    return _finish(doc, "not-decided", "", "not weakly concatenable for this assignment")


def _try_adian(doc: dict, pres: Presentation) -> dict | None:
    try:
        verdict = adian_npi_check(pres)
    except NotAdian:
        return None
    doc["adian"] = {
        "hypotheses": _hypothesis_dicts(verdict.hypotheses),
        "graph_t_forest": verdict.t_forest.ok if verdict.t_forest else None,
        "graph_i_forest": verdict.i_forest.ok if verdict.i_forest else None,
    }
    if verdict.status == "npi":
        branch = "T-forest (min mode)" if verdict.t_forest.ok else "I-forest (max mode)"
        return _finish(
            doc,
            "npi-certified",
            CITATIONS["adian-equal-lengths"],
            f"equal-length Adian presentation with {branch}",
        )
    return None


def _maybe_scan(doc: dict, pres: Presentation, options: ReportOptions) -> None:
    if options.scan_bounds is None:
        return
    max_e, max_f = options.scan_bounds
    reports = npi_scan(pres, max_e, max_f)
    doc["oracle_scan"] = {
        "bounds": [max_e, max_f],
        "count": len(reports),
        "candidates": [
            {"chi": r.chi, "complex": r.complex.to_dict(pres), "note": r.note}
            for r in reports
        ],
    }


def _log_report(log: Log, options: ReportOptions, input_text: str) -> dict:
    pres = log_to_presentation(log)
    doc = _base_doc("log", pres, input_text)
    reduced, diags = log_is_reduced(log)
    doc["lot"] = {
        "reduced": reduced,
        "diagnostics": [{"edge": i, "code": code} for i, code in diags],
        "underlying_forest": underlying_forest(log),
        "graph_i_forest": is_forest(graph_I(log)).ok if reduced else None,
        "graph_t_forest": is_forest(graph_T(log)).ok if reduced else None,
    }
    doc["hypotheses"].append(
        {
            "name": "lof-reduced",
            "status": "pass" if reduced else "fail",
            "citation": HYPOTHESIS_CITATIONS["lof-reduced"],
            "detail": "" if reduced else "; ".join(f"edge {i}: {c}" for i, c in diags),
        }
    )
    if not reduced:
        return _finish(
            doc,
            "hypothesis-failure",
            "",
            "the LOG is not reduced; the forest criteria require reduced input",
        )
    verdict = adian_npi_check(pres)
    doc["adian"] = {
        "hypotheses": _hypothesis_dicts(verdict.hypotheses),
        "graph_t_forest": verdict.t_forest.ok if verdict.t_forest else None,
        "graph_i_forest": verdict.i_forest.ok if verdict.i_forest else None,
    }
    _merge_hypotheses(doc, _hypothesis_dicts(verdict.hypotheses))
    if verdict.status == "npi":
        concat = verdict.min_check or verdict.max_check
        entry = _verdict_to_entry(pres, concat)
        doc["attempts"].append(entry)
        doc["phi"] = {
            "target": "z",
            "weights": {name: 1 for name in pres.generators},
            "flips": [],
        }
        doc["cover"] = (
            cover_section(verdict.min_check, options.window)
            if verdict.min_check
            else None
        )
        citation = (
            CITATIONS["reduced-lof-forest"]
            if underlying_forest(log)
            else CITATIONS["adian-equal-lengths"]
        )
        branch = "T" if verdict.t_forest.ok else "I"
        return _finish(
            doc,
            "npi-certified",
            citation,
            f"reduced labelled oriented input with graph {branch} a forest",
        )
    if verdict.status == "hypothesis-failure":
        failed = [h for h in doc["hypotheses"] if h["status"] == "fail"]
        return _finish(
            doc, "hypothesis-failure", "", failed[0]["detail"] if failed else ""
        )
    return _finish(
        doc,
        "not-decided",
        "",
        "both letter graphs contain cycles; the forest criteria do not apply",
    )


def report_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
    label = {
        "npi-certified": "NPI-certified",
        "not-decided": "NotDecided",
        "hypothesis-failure": "HypothesisFailure",
    }[verdict["status"]]
    cite = f"({verdict['citation']})" if verdict["citation"] else ""
    lines.append(f"verdict: {label}{cite} -- {verdict['detail']}")
    return "\n".join(lines) + "\n"
