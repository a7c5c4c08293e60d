"""Command line driver.

Subcommands: validate, h1, phi, minima, concat, lot, adian, cover,
immerse, report.  ``minima``, ``concat`` and ``cover`` print parts of
:func:`report.full_report` (its attempts, its cover section), so they
try the report's maps in its order, stop where it stops and check its
cover.  Exit codes: 0 a verdict was computed (whatever it is), 2 parse
or usage error, 3 any other failure (an internal check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .complexes import _check_bounds, npi_scan
from .homology import NoSurjection, find_weight_homomorphisms, is_generalized_wirtinger
from .logs import adian_npi_check
from .minima import MAX, MIN
from .orders import BadTargetSpec, IntTarget, parse_target_spec
from .report import (
    VERDICT_LABELS,
    BadPhiSpec,
    ReportOptions,
    full_report,
    render_text,
    report_json,
)
from .textio import ParseError, parse_log, parse_presentation, sniff_kind
from .words import validate as validate_presentation

# How minima and concat name the status of one attempt.
ATTEMPT_LABELS = {"concatenable": "Concatenable", "not-concatenable": "NotConcatenable",
                  "hypothesis-failure": "HypothesisFailure"}


def _int_pair(text: str) -> tuple[int, int]:
    """``LO,HI``: two comma-separated integers (argparse names the option)."""
    lo, _, hi = text.partition(",")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI (two integers), got {text!r}"
        ) from None


def _scan_bounds(text: str) -> tuple[int, int]:
    """``E,F`` within the immersion scan caps (argparse names the option)."""
    bounds = _int_pair(text)
    try:
        _check_bounds(*bounds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return bounds


def _positive_int(text: str) -> int:
    """An integer >= 1 (argparse names the option)."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _target(text: str):
    """A target spec, parsed (argparse names the option)."""
    try:
        return parse_target_spec(text)
    except BadTargetSpec as exc:
        why = f" ({exc.__cause__})" if exc.__cause__ else ""
        raise argparse.ArgumentTypeError(
            f"expected z | zlex:<d> | braid:<n>[:opp], got {text!r}{why}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npicheck",
        description="certified sufficient conditions for non-positive immersions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", type=Path, help="input file")
        return p

    add("validate", "report presentation diagnostics")
    add("h1", "first homology and the free-abelian rank check")
    p = add("phi", "list primitive weight maps to the integers")
    p.add_argument(
        "--bound", type=_positive_int, default=3, help="kernel coefficient bound (>= 1)"
    )
    # minima, concat and cover are views of the report: options they lack take defaults.
    for name in ("minima", "concat"):
        p = add(name, "multisets of minima" if name == "minima" else "weak concatenability verdict")
        p.add_argument("--phi", default="auto", help="all-ones | auto | named | name=value list")
        p.add_argument(
            "--target", type=_target, default="z", help="z | zlex:<d> | braid:<n>[:opp]"
        )
        p.add_argument("--mode", choices=[MIN, MAX], default=MIN)
        p.set_defaults(scan=None)
    add("lot", "labelled oriented graph pipeline")
    add("adian", "equal-length Adian pipeline")
    p = add("cover", "build and verify the cyclic-cover certificate")
    p.add_argument("--phi", default="auto")
    p.set_defaults(target=IntTarget(), mode=MIN, scan=None)
    p = add("immerse", "bounded immersion scan")
    p.add_argument("--bounds", type=_scan_bounds, default="4,2", help="E,F bounds")
    p = add("report", "full pipeline with verdict")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--phi", default="auto")
    p.add_argument("--target", type=_target, default="z")
    p.add_argument("--mode", choices=[MIN, MAX], default=MIN)
    p.add_argument("--scan", type=_scan_bounds, default=None, help="E,F immersion scan bounds")
    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ParseError(0, 0, f"readable file ({exc})")


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _dispatch(args)
    except (ParseError, BadPhiSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # every other failure is the program's own
        import traceback  # imported here so that start-up does not load it

        traceback.print_exc()
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _print_attempts(doc: dict, command: str, name_maps: bool) -> None:
    """``minima`` / ``concat``: one block per attempt of the report."""
    if not doc["attempts"]:
        verdict = doc["verdict"]
        print(f"{VERDICT_LABELS[verdict['status']]}: {verdict['detail']}")
    for attempt in doc["attempts"]:
        label = ATTEMPT_LABELS[attempt["status"]]
        if name_maps:
            print("phi: " + ", ".join(f"{n}={w}" for n, w in attempt["weights"].items()))
        if command == "minima" and "multisets" in attempt:
            for m in attempt["multisets"]:
                counts = ", ".join(f"{g}:(+{p},-{n})" for g, (p, n) in m["counts"].items())
                print(f"  r{m['relator']}: {{{counts}}}")
        elif command == "concat" and "certificate" in attempt:
            cert = attempt["certificate"]
            order = ", ".join(f"r{i}" for i in cert["ordering"])
            wits = ", ".join(w["generator"] for w in cert["witnesses"])
            print(f"  {label}: ordering ({order}); witnesses ({wits})")
        elif command == "concat" and "failure_witness" in attempt:
            core = ", ".join(f"r{i}" for i in attempt["failure_witness"]["stuck_core"])
            print(f"  {label} -- stuck core ({core})")
        else:
            print(f"  {label}")


def _print_cover(doc: dict) -> None:
    """``cover``: the report's cover section, or the verdict without one."""
    section = doc["cover"]
    if section is None:
        verdict = doc["verdict"]
        cite = f" ({verdict['citation']})" if verdict["citation"] else ""
        print(f"no cover: {verdict['status']}{cite}")
        return
    print(f"window {section['window']}: {section['cells']} cells")
    for c in section["checks"]:
        print(f"  {'ok' if c['ok'] else 'FAIL':>4}  {c['check']}: {c['detail']}")
    print("certificate verified" if section["ok"] else "certificate REJECTED")


def _dispatch(args) -> int:
    text = _read(args.file)
    command = args.command

    if command == "lot":
        log = parse_log(text)
        doc = full_report(log, ReportOptions(target=IntTarget()), input_text=text)
        sys.stdout.write(render_text(doc))
        return 0

    if command in ("report", "minima", "concat", "cover"):
        log = command == "report" and sniff_kind(text) == "log"
        source = parse_log(text) if log else parse_presentation(text)
        options = ReportOptions(args.target, phi_spec=args.phi, mode=args.mode, scan_bounds=args.scan)
        doc = full_report(source, options, input_text=text)
        if command == "report":
            sys.stdout.write(report_json(doc) if args.json else render_text(doc))
        elif command == "cover":
            _print_cover(doc)
        else:
            _print_attempts(doc, command, name_maps=args.phi == "auto")
        return 0

    pres = parse_presentation(text)

    if command == "validate":
        diags = validate_presentation(pres)
        if not diags:
            print("ok: presentation satisfies all invariants")
        for d in diags:
            print(str(d))
        return 0

    if command == "h1":
        wirt = is_generalized_wirtinger(pres)
        print(f"H1: free rank {wirt.h1.free_rank}, torsion {list(wirt.h1.torsion)}")
        if wirt.ok:
            print(f"ok: {wirt.reason}")
        else:
            print(f"HypothesisFailure: {wirt.reason}")
        return 0

    if command == "phi":
        try:
            homs = find_weight_homomorphisms(pres, args.bound)
        except NoSurjection as exc:
            print(f"NoSurjection: {exc}")
            return 0
        for hom in homs:
            weights = ", ".join(
                f"{name}={w}" for name, w in zip(pres.generators, hom.weights)
            )
            flips = ", ".join(sorted(pres.generators[j] for j in hom.flips)) or "none"
            print(f"weights: {weights}  (flips: {flips})")
        return 0

    if command == "adian":
        verdict = adian_npi_check(pres)
        for h in verdict.hypotheses:
            print(f"{h.status:>7}  {h.key}: {h.detail}")
        if verdict.t_forest is not None:
            print(f"graph T forest: {verdict.t_forest.ok}")
            print(f"graph I forest: {verdict.i_forest.ok}")
        label = {"npi": "NPI", "not-decided": "NotDecided", "hypothesis-failure": "HypothesisFailure"}
        print(f"verdict: {label[verdict.status]}")
        return 0

    if command == "immerse":
        diags = validate_presentation(pres)
        if diags:  # the scan is defined for valid presentations only
            print("error: invalid presentation: " + "; ".join(map(str, diags)), file=sys.stderr)
            return 2
        max_e, max_f = args.bounds
        reports = npi_scan(pres, max_e, max_f)
        print(f"candidates within bounds ({max_e}, {max_f}): {len(reports)}")
        for r in reports:
            print(f"  chi={r.chi} {r.complex.to_dict(pres)}")
        return 0

    raise AssertionError(f"unhandled command {command}")


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
