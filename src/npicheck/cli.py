"""Command line driver.

Subcommands: validate, h1, phi, minima, concat, lot, adian, cover,
immerse, report.  Each prints part of one :func:`report.full_report`
document, or of its first stage, the presentation hypotheses
(:func:`minima.presentation_hypotheses`): ``validate``, ``h1`` and
``adian`` print those rows, and ``immerse`` the report's oracle scan
section (:func:`report._scan_section`) of a presentation that passes
validity, without running the routes; ``phi``, ``minima`` and ``concat``
print the report's attempts; ``cover`` its cover section; ``report`` and
``lot`` the whole document.  So every view tries the report's maps in its
order, stops where it stops and shares its checks.
Every subcommand but ``lot`` reads the input kind its file names, as
``report`` does; ``lot`` reads a LOG only.  The first-stage views read a
LOG as its presentation (:func:`logs.log_to_presentation`).  The LOG route
tries the all-ones map over Z in min mode only, so on a LOG any other
``--phi``, ``--target`` or ``--mode`` is a usage error.
Exit codes: 0 a verdict was computed (whatever it is), 1 the reader
closed standard output, 2 parse or usage error, 3 any other failure (an
internal check).
"""

from __future__ import annotations

import argparse
import os
import sys

from .complexes import _check_bounds
from .logs import log_to_presentation
from .minima import MAX, MIN, presentation_hypotheses
from .orders import BadTargetSpec, IntTarget, parse_target_spec
from .report import (
    VERDICT_LABELS,
    BadPhiSpec,
    ReportOptions,
    _adian_section,
    _scan_section,
    full_report,
    render_text,
    report_json,
)
from .textio import ParseError, parse_log, parse_presentation, sniff_kind

# How minima and concat name the status of one attempt.
ATTEMPT_LABELS = {"concatenable": "Concatenable", "not-concatenable": "NotConcatenable",
                  "hypothesis-failure": "HypothesisFailure"}

# The subcommands that print part of a full report; the rest print its first stage.
REPORT_VIEWS = ("report", "lot", "phi", "minima", "concat", "cover")


def _scan_bounds(text: str) -> tuple[int, int]:
    """``E,F``: two comma-separated integers within the immersion scan caps
    (argparse names the option)."""
    e, _, f = text.partition(",")
    try:
        bounds = int(e), int(f)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected E,F (two integers), got {text!r}"
        ) from None
    try:
        _check_bounds(*bounds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return bounds


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
        p.add_argument("file", help="input file")
        if name in REPORT_VIEWS:  # the options a view lacks take the report's defaults
            p.set_defaults(json=False, phi="auto", target=IntTarget(), mode=MIN, scan=None)
        return p

    add("validate", "report presentation diagnostics")
    add("h1", "first homology and the free-abelian rank check")
    add("phi", "list the weight maps the report tries")
    for name in ("minima", "concat"):
        p = add(name, "multisets of minima" if name == "minima" else "weak concatenability verdict")
        p.add_argument("--phi", default="auto", help="all-ones | auto | named | name=value list")
        p.add_argument(
            "--target", type=_target, default="z", help="z | zlex:<d> | braid:<n>[:opp]"
        )
        p.add_argument("--mode", choices=[MIN, MAX], default=MIN)
    add("lot", "labelled oriented graph pipeline")
    add("adian", "equal-length Adian pipeline")
    p = add("cover", "build and verify the cyclic-cover certificate")
    p.add_argument("--phi", default="auto")
    p = add("immerse", "bounded immersion scan")
    p.add_argument("--bounds", dest="scan", type=_scan_bounds, default="4,2", metavar="E,F",
                   help="edge and face bounds")
    p = add("report", "full pipeline with verdict")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--phi", default="auto")
    p.add_argument("--target", type=_target, default="z")
    p.add_argument("--mode", choices=[MIN, MAX], default=MIN)
    p.add_argument("--scan", type=_scan_bounds, default=None, metavar="E,F",
                   help="immersion scan edge and face bounds")
    return parser


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ParseError(0, 0, f"readable file ({exc})")


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (ParseError, BadPhiSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (as ``| head`` does).  Point stdout at
        # devnull, so that the flush at exit does not fail again, and exit
        # 1 as CPython does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # every other failure is the program's own
        import traceback  # imported here so that start-up does not load it

        traceback.print_exc()
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _print_attempts(doc: dict, command: str, name_maps: bool) -> None:
    """``phi`` / ``minima`` / ``concat``: one block per attempt of the report."""
    if not doc["attempts"]:
        verdict = doc["verdict"]
        print(f"{VERDICT_LABELS[verdict['status']]}: {verdict['detail']}")
    for attempt in doc["attempts"]:
        # A LOG report's one attempt is the all-ones map that its phi names.
        weights = attempt["weights"] if "weights" in attempt else doc["phi"]["weights"]
        if command == "phi":
            # The generators of negative weight, which the check flips;
            # an attempt stopped by a hypothesis records no flips.
            images = ", ".join(f"{n}={w}" for n, w in weights.items())
            flips = sorted(n for n, w in weights.items() if w < 0)
            print(f"weights: {images}  (flips: {', '.join(flips) or 'none'})")
            continue
        label = ATTEMPT_LABELS[attempt["status"]]
        if name_maps:
            print("phi: " + ", ".join(f"{n}={w}" for n, w in weights.items()))
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


def _print_scan(scan: dict) -> None:
    """``immerse``: the report's oracle scan section."""
    max_e, max_f = scan["bounds"]
    print(f"candidates within bounds ({max_e}, {max_f}): {scan['count']}")
    for c in scan["candidates"]:
        print(f"  chi={c['chi']} {c['complex']}")


def _print_rows(hyps) -> None:
    """Hypothesis rows, as ``validate``, ``h1`` and ``adian`` print them."""
    for h in hyps:
        print(f"{h.status:>7}  {h.key}: {h.detail}")


def _dispatch(args) -> int:
    text = _read(args.file)
    command = args.command
    # ``lot`` reads a LOG; every other view reads the kind the file names.
    log = command == "lot" or sniff_kind(text) == "log"
    source = parse_log(text) if log else parse_presentation(text)

    if command in REPORT_VIEWS:
        # The LOG route certifies the all-ones map over Z in min mode only.
        if log and (args.phi, args.target.name, args.mode) != ("auto", "z", MIN):
            print("error: LOG input takes no --phi, --target or --mode", file=sys.stderr)
            return 2
        options = ReportOptions(args.target, phi_spec=args.phi, mode=args.mode, scan_bounds=args.scan)
        doc = full_report(source, options, input_text=text)
        if command in ("report", "lot"):
            sys.stdout.write(report_json(doc) if args.json else render_text(doc))
        elif command == "cover":
            _print_cover(doc)
        else:
            _print_attempts(doc, command, name_maps=args.phi == "auto")
        return 0

    # The first stage of every report: validity, then H1 free of rank n - k.
    pres = log_to_presentation(source) if log else source
    hyps, h1 = presentation_hypotheses(pres)
    if command == "validate":
        _print_rows(hyps[:1])
    elif command == "h1":
        if h1 is not None:
            print(f"H1: free rank {h1.free_rank}, torsion {list(h1.torsion)}")
        _print_rows(hyps)
    elif command == "immerse":
        # The report scans valid presentations only; an invalid one is a usage error.
        if hyps[0].status == "fail":
            print(f"error: invalid presentation: {hyps[0].detail}", file=sys.stderr)
            return 2
        _print_scan(_scan_section(pres, args.scan))
    elif command == "adian":
        doc = {}
        verdict = _adian_section(doc, pres, hyps)
        _print_rows(verdict.hypotheses)
        if doc["adian"]["graph_t_forest"] is not None:  # shown as in the report
            print(f"graph T forest: {doc['adian']['graph_t_forest']}")
            print(f"graph I forest: {doc['adian']['graph_i_forest']}")
        label = {"npi": "NPI", "not-decided": "NotDecided", "hypothesis-failure": "HypothesisFailure"}
        print(f"verdict: {label[verdict.status]}")
    else:
        raise AssertionError(f"unhandled command {command}")
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
