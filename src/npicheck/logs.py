"""Labelled oriented graphs/trees/forests and Adian presentations.

A LOG edge (i, lambda, t) encodes the relator t^-1 lambda^-1 i lambda.
An Adian relator is cyclically a positive block followed by a negative
block, i.e. u v^-1 with u, v nonempty positive words.  The graphs:
graph_T joins the first letters of u and v, graph_I the last letters.
For an equal-length Adian presentation with all-ones weights the Min-mode
multiset support of a relator is exactly its T-edge and the Max-mode
support its I-edge, so a T-forest certifies Min-mode concatenability and
an I-forest Max-mode concatenability.

The letter graphs have one builder, from the Adian form, and one caller,
:func:`adian_check`, which decides both right after the form and its
block lengths pass, before the H1 row.  A LOG edge's relator is
u v^-1 with u = i lambda and v = lambda t, so its flags come from the
same form.  The report shows the flags in its ``adian`` section only
when every Adian hypothesis holds; its ``lot`` section reads them for
every reduced LOG.
"""

from __future__ import annotations

from typing import NamedTuple

from .minima import (
    MAX,
    MIN,
    CheckVerdict,
    HypothesisResult,
    check_assignment,
)
from .orders import IntTarget, TargetAssignment
from .words import Presentation, Word, letter_gen, rotate_word


class NotAdian(ValueError):
    """A relator admits no rotation of the form (positive block)(negative block)."""


class Log(NamedTuple):
    """Labelled oriented graph: edges are (initial, label, terminal) vertex indices."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]


def log_to_presentation(log: Log) -> Presentation:
    """One relator t^-1 lambda^-1 i lambda per edge; generators are the vertices."""
    rels: list[Word] = []
    for i, lam, t in log.edges:
        rels.append((-(t + 1), -(lam + 1), i + 1, lam + 1))
    return Presentation(log.vertices, tuple(rels))


def log_is_reduced(log: Log) -> tuple[bool, list[tuple[int, str]]]:
    """Reduced means i != lambda and t != lambda on every edge."""
    diags: list[tuple[int, str]] = []
    for idx, (i, lam, t) in enumerate(log.edges):
        if i == lam:
            diags.append((idx, "label-equals-initial"))
        if t == lam:
            diags.append((idx, "label-equals-terminal"))
    return not diags, diags


def underlying_forest(log: Log) -> bool:
    """True iff the i--t multigraph of the LOG is a forest."""
    graph = Multigraph(
        len(log.vertices),
        tuple(tuple(sorted((i, t))) for i, _, t in log.edges),
    )
    return is_forest(graph)


class AdianPair(NamedTuple):
    u: Word  # positive block
    v: Word  # positive block; the relator is cyclically u v^-1


class AdianForm(NamedTuple):
    generators: tuple[str, ...]
    pairs: tuple[AdianPair, ...]


def adian_normalize(pres: Presentation) -> AdianForm:
    """Decompose every relator as u v^-1 with u, v nonempty positive words.

    A cyclic word admits such a rotation iff it has exactly one positive
    and one negative run, which makes the decomposition canonical.  One
    pass over each relator finds its runs: a run starts at each letter
    whose sign differs from that of the letter before it, cyclically.
    """
    pairs: list[AdianPair] = []
    for idx, rel in enumerate(pres.relators):
        starts = [k for k in range(len(rel)) if (rel[k] > 0) != (rel[k - 1] > 0)]
        if len(starts) != 2:
            raise NotAdian(
                f"relator {idx} is not cyclically (positive block)(negative block)"
            )
        k, j = starts if rel[starts[0]] > 0 else starts[::-1]
        rot = rotate_word(rel, k)
        split = (j - k) % len(rel)
        u = rot[:split]
        v = tuple(-x for x in reversed(rot[split:]))
        pairs.append(AdianPair(u, v))
    return AdianForm(pres.generators, pairs)


class Multigraph(NamedTuple):
    """Undirected multigraph: loops and parallel edges allowed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # sorted vertex pairs


def _letter_graph(form: AdianForm, end: int) -> Multigraph:
    """Edges join the letters of u and v at index ``end`` of each block."""
    ends = [(letter_gen(p.u[end]), letter_gen(p.v[end])) for p in form.pairs]
    return Multigraph(len(form.generators), tuple(tuple(sorted(pair)) for pair in ends))


def graph_I(form: AdianForm) -> Multigraph:
    """Edges join the last letters of u and v (for a LOG edge: {lambda, t})."""
    return _letter_graph(form, -1)


def graph_T(form: AdianForm) -> Multigraph:
    """Edges join the first letters of u and v (for a LOG edge: {i, lambda})."""
    return _letter_graph(form, 0)


def is_forest(graph: Multigraph) -> bool:
    """Union-find acyclicity; loops and parallel edges count as cycles."""
    parent = list(range(graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra == rb:  # a loop, or an edge within one tree
            return False
        parent[ra] = rb
    return True


class AdianVerdict(NamedTuple):
    status: str  # "npi" | "not-decided" | "hypothesis-failure"
    hypotheses: tuple[HypothesisResult, ...]
    t_forest: bool | None  # None when the form or its block lengths fail
    i_forest: bool | None
    min_check: CheckVerdict | None
    max_check: CheckVerdict | None


def adian_check(
    pres: Presentation,
    pres_hyps: tuple[HypothesisResult, ...],
    outcomes: dict | None = None,
) -> AdianVerdict:
    """Equal-length Adian route to non-positive immersions, on a
    presentation whose own hypotheses ``pres_hyps`` (from
    :func:`minima.presentation_hypotheses`) are known.  ``outcomes`` is passed
    on to :func:`check_assignment`.

    Requires an Adian decomposition with len(u) = len(v) everywhere, a
    valid presentation and H1 free abelian of rank n - k; then a T-forest
    forces Min-mode weak concatenability with all-ones weights and an
    I-forest Max-mode.  Both letter graphs are tested once the form and
    its block lengths pass, so the verdict carries both flags whenever
    the form exists, also when the H1 row then fails.  The
    concatenability run is a mandatory internal cross-check: it must
    succeed whenever the corresponding forest test does.
    """
    hyps: list[HypothesisResult] = []
    try:
        form = adian_normalize(pres)
    except NotAdian as exc:
        hyps.append(HypothesisResult("adian-form", "fail", str(exc)))
        return AdianVerdict("hypothesis-failure", tuple(hyps), None, None, None, None)
    hyps.append(HypothesisResult("adian-form", "pass", "all relators are u v^-1"))

    unequal = [i for i, p in enumerate(form.pairs) if len(p.u) != len(p.v)]
    if unequal:
        hyps.append(
            HypothesisResult(
                "equal-block-lengths", "fail", f"len(u) != len(v) for relators {unequal}"
            )
        )
        return AdianVerdict("hypothesis-failure", tuple(hyps), None, None, None, None)
    hyps.append(HypothesisResult("equal-block-lengths", "pass", "len(u) = len(v) throughout"))

    t_forest = is_forest(graph_T(form))
    i_forest = is_forest(graph_I(form))
    hyps.append(pres_hyps[-1])
    if pres_hyps[-1].status == "fail":
        return AdianVerdict("hypothesis-failure", tuple(hyps), t_forest, i_forest, None, None)

    assignment = TargetAssignment.all_ones(pres)
    target = IntTarget()
    min_verdict = None
    max_verdict = None
    if t_forest:
        min_verdict = check_assignment(pres, pres_hyps, target, assignment, MIN, outcomes)
        if min_verdict.status != "concatenable":
            raise AssertionError(
                "T-forest without Min-mode concatenability: internal cross-check failed"
            )
    if i_forest:
        max_verdict = check_assignment(pres, pres_hyps, target, assignment, MAX, outcomes)
        if max_verdict.status != "concatenable":
            raise AssertionError(
                "I-forest without Max-mode concatenability: internal cross-check failed"
            )
    status = "npi" if (t_forest or i_forest) else "not-decided"
    return AdianVerdict(status, tuple(hyps), t_forest, i_forest, min_verdict, max_verdict)
