"""Machine-checkable sufficient conditions for the non-positive immersion
property of presentation 2-complexes: weight homomorphisms, multisets of
minima, weak concatenability certificates, cyclic-cover verification,
labelled-oriented-graph criteria, and a bounded immersion oracle.

The package exports the report: parse an input, run :func:`full_report`
with :class:`ReportOptions`, and print it with :func:`render_text` or
:func:`report_json`.  :func:`npi_scan` is the immersion oracle the
report's ``--scan`` runs.  The layers stay importable as submodules.
Importing the package puts every one of them in ``sys.modules``, since
``report`` imports them all, but it registers three layers through
:class:`importlib.util.LazyLoader`: each is compiled and run on the
first read of one of its attributes, so a process never pays for a
layer its route does not use.  The scan layer ``complexes`` runs only in
a scan, ``cover`` only when an integer certificate is verified on the
cyclic cover, and ``logs`` only on LOG input, in the ``adian`` view and
on the report's Adian fallback.  ``report``, ``textio`` and ``cli``
reach them through the module (``complexes.npi_scan``, ``logs.Log``),
and the package resolves ``npi_scan`` on demand.  On Python 3.10 and
3.11 that first load is not thread-safe; npicheck starts no threads.

The result types are immutable ``typing.NamedTuple`` records.  Being
tuples, records of different types with equal fields compare equal, so
code compares records of one type only (``cover`` compares edges with
edges and cells with cells).
"""

import importlib.util
import sys


def _register_lazily(name: str):
    """Put module ``name`` in ``sys.modules`` unexecuted; it runs on first use."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Registered before ``report`` imports them, so that the imports find them.
complexes = _register_lazily(f"{__name__}.complexes")
cover = _register_lazily(f"{__name__}.cover")
logs = _register_lazily(f"{__name__}.logs")

from .orders import parse_target_spec
from .report import ReportOptions, full_report, render_text, report_json
from .textio import ParseError, parse_log, parse_presentation

__all__ = [
    "ParseError",
    "ReportOptions",
    "full_report",
    "npi_scan",
    "parse_log",
    "parse_presentation",
    "parse_target_spec",
    "render_text",
    "report_json",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "npi_scan":  # loads the scan layer
        return complexes.npi_scan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
