"""Machine-checkable sufficient conditions for the non-positive immersion
property of presentation 2-complexes: weight homomorphisms, multisets of
minima, weak concatenability certificates, cyclic-cover verification,
labelled-oriented-graph criteria, and a bounded immersion oracle.

The result types are immutable ``typing.NamedTuple`` records.  Being
tuples, records of different types with equal fields compare equal, so
code compares records of one type only (``cover`` compares edges with
edges and cells with cells).
"""

from .words import (
    Diagnostic,
    Presentation,
    exponent_sum,
    flip_generator,
    freely_reduce,
    make_presentation,
    validate,
)
from .homology import (
    H1Structure,
    NoSurjection,
    SmithForm,
    WeightHom,
    exponent_matrix,
    find_weight_homomorphisms,
    h1_structure,
    is_generalized_wirtinger,
    smith_normal_form,
)
from .orders import (
    BraidTarget,
    IntTarget,
    LexTarget,
    OrderedTarget,
    TargetAssignment,
    braid_sign,
    evaluate_word,
    handle_reduce,
    parse_target_spec,
)
from .minima import (
    ConcatCertificate,
    ConcatFailure,
    MinimaMultiset,
    check_assignment,
    check_presentation,
    minima_multiset,
    prefix_profile,
    presentation_hypotheses,
    replay_certificate,
    replay_stuck_core,
    weak_concatenability,
)
from .logs import (
    AdianForm,
    Log,
    Multigraph,
    NotAdian,
    Unsatisfiable,
    adian_check,
    adian_normalize,
    adian_npi_check,
    graph_I,
    graph_T,
    is_forest,
    lof_random,
    log_is_reduced,
    log_to_presentation,
)
from .cover import (
    CoverEdge,
    CoverWindow,
    SlimCertificate,
    WindowTooSmall,
    CertificateMismatch,
    build_cover_window,
    build_slim_certificate,
    lifted_boundary,
    min_edge,
    verify_weak_slim_certificate,
)
from .complexes import (
    ImmersionReport,
    TwoComplex,
    collapsible,
    euler_characteristic,
    is_folded,
    link_injective,
    npi_scan,
)
from .textio import (
    ParseError,
    UnknownVertex,
    parse_log,
    parse_presentation,
)
from .report import ReportOptions, full_report, render_text, report_json

__version__ = "0.1.0"
