"""The former command line parser, which built all ten subparsers in
every run, kept verbatim as a differential oracle for
:func:`npicheck.cli._build_parser`.

The current CLI builds the parser of the subcommand that ``argv`` names
alone, and all ten only for help, an empty ``argv`` or an unknown name.
What a user sees must not change: every help text, usage line, error
message and exit code is the one this parser gives.
"""

from __future__ import annotations

import argparse

from npicheck.cli import REPORT_VIEWS, _scan_bounds, _target
from npicheck.minima import MAX, MIN
from npicheck.orders import IntTarget


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--target", type=_target, default="z", help="z | braid:<n>[:opp]")
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
