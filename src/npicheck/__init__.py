"""Machine-checkable sufficient conditions for the non-positive immersion
property of presentation 2-complexes: weight homomorphisms, multisets of
minima, weak concatenability certificates, cyclic-cover verification,
labelled-oriented-graph criteria, and a bounded immersion oracle.

The package exports the report: parse an input, run :func:`full_report`
with :class:`ReportOptions`, and print it with :func:`render_text` or
:func:`report_json`.  :func:`npi_scan` is the immersion oracle the
report's ``--scan`` runs.  The layers stay importable as submodules;
importing the package loads every one of them, since ``report`` imports
them all.

The result types are immutable ``typing.NamedTuple`` records.  Being
tuples, records of different types with equal fields compare equal, so
code compares records of one type only (``cover`` compares edges with
edges and cells with cells).
"""

from .complexes import npi_scan
from .orders import parse_target_spec
from .report import ReportOptions, full_report, render_text, report_json
from .textio import ParseError, parse_log, parse_presentation

__version__ = "0.1.0"
