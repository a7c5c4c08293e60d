"""Seeded input texts for the four workloads.

The benchmark generates every input itself and hands the program only the
text, so a change to the program's own generators cannot change what is
measured.  The same seed gives the same texts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_NAMES = ("sample_a", "sample_b", "sample_braid")
TORSION_TEXT = "gens: a\nrel: a^2\n"


@dataclass(frozen=True)
class Case:
    """One input and what the checks know about its correct output."""

    name: str
    text: str
    target: str = "z"
    phi: str = "auto"
    scan: tuple[int, int] | None = None
    golden: str | None = None  # exact expected report bytes
    scan_count: int | None = None  # known oracle candidate count
    tree_twin: str | None = None  # the same labelled oriented tree in the other format

    def cli_args(self, path: str) -> list[str]:
        args = ["report", "--json", path]
        if self.target != "z":
            args += ["--target", self.target]
        if self.phi != "auto":
            args += ["--phi", self.phi]
        if self.scan is not None:
            args += ["--scan", f"{self.scan[0]},{self.scan[1]}"]
        return args


def golden_samples(root: Path) -> list[Case]:
    """The three worked samples with their checked-in golden reports."""
    out = []
    for name in GOLDEN_NAMES:
        golden = (root / "tests" / "golden" / f"{name}.json").read_text()
        doc = json.loads(golden)
        braid = doc["phi"]["target"].startswith("braid")
        out.append(
            Case(
                name,
                doc["input"]["text"],
                target=doc["phi"]["target"],
                phi="named" if braid else "auto",
                golden=golden,
            )
        )
    return out


def _vertex(i: int) -> str:
    return f"v{i}"


def random_forest(n: int, k: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """Reduced labelled oriented forest: k edges (i, label, t) on n vertices.

    A random recursive tree on a shuffled vertex order, cut down to k edges,
    with random orientations and labels distinct from both endpoints.
    """
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(pairs)
    edges = []
    for a, b in pairs[:k]:
        if rng.random() < 0.5:
            a, b = b, a
        label = rng.choice([v for v in range(n) if v != a and v != b])
        edges.append((a, label, b))
    return edges


def log_text(n: int, edges) -> str:
    lines = ["vertices: " + " ".join(_vertex(i) for i in range(n))]
    lines += [f"edge: {_vertex(i)} {_vertex(l)} {_vertex(t)}" for i, l, t in edges]
    return "\n".join(lines) + "\n"


def presentation_text(n: int, edges) -> str:
    """Relator t^-1 label^-1 i label per edge, as in the LOG file format."""
    lines = ["gens: " + " ".join(_vertex(i) for i in range(n))]
    lines += [
        f"rel: {_vertex(t)}^-1 {_vertex(l)}^-1 {_vertex(i)} {_vertex(l)}"
        for i, l, t in edges
    ]
    return "\n".join(lines) + "\n"


def _tree_case(name: str, n: int, rng: random.Random) -> Case:
    edges = random_forest(n, n - 1, rng)
    return Case(name, presentation_text(n, edges), tree_twin=log_text(n, edges))


def _interleave(groups: list[list[Case]]) -> list[Case]:
    """Round-robin over the groups, so every prefix of a pass is balanced."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def cli_cases(seed: int, root: Path) -> list[Case]:
    rng = random.Random(seed)
    n = rng.randrange(6, 9)
    edges = random_forest(n, n - 1, rng)
    tree = Case(f"lot{n}-log", log_text(n, edges), tree_twin=presentation_text(n, edges))
    return golden_samples(root) + [tree]


def batch_cases(seed: int, root: Path) -> list[Case]:
    """Criterion-6-style LOFs as LOG text, rank-1 LOTs as presentation text.

    Equal counts per vertex count, and per edge count within it, keep the
    mix, and so the pass cost, the same from seed to seed.
    """
    rng = random.Random(seed)
    lofs = []
    for n in range(3, 9):
        for j in range(50):
            edges = random_forest(n, 1 + j % (n - 1), rng)
            lofs.append(Case(f"lof{n}-{j}", log_text(n, edges)))
    lots = [_tree_case(f"lot{n}-{j}", n, rng) for n in range(3, 10) for j in range(28)]
    rng.shuffle(lofs)
    rng.shuffle(lots)
    return golden_samples(root) + _interleave([lofs, lots])


def wide_cases(seed: int) -> list[Case]:
    """Trees with 10-12 relators and forests of H1 rank 3-4, all as
    presentation text, so the weight search and the subset DP do the work.

    Every stratum has a fixed size, because cost grows steeply with the
    vertex count (rank-4 forests: ~0.47 s at n=6, ~0.75 s at n=8), and the
    tree costs vary most from seed to seed.  The counts place the
    percentiles inside the larger forest strata, clear of their edges: the
    median among the 24 rank-3 forests, p75 among the 16 rank-4 ones.
    """
    rng = random.Random(seed)
    groups = [[_tree_case(f"lot{n}-{j}", n, rng) for j in range(count)]
              for n, count in ((11, 10), (12, 6), (13, 2))]
    for rank, plan in ((3, ((6, 12), (7, 12))), (4, ((6, 16),))):
        group = []
        for n, count in plan:
            for j in range(count):
                edges = random_forest(n, n - rank, rng)
                group.append(Case(f"forest{n}r{rank}-{j}", presentation_text(n, edges)))
        rng.shuffle(group)
        groups.append(group)
    return _interleave(groups)


def relabel(text: str, rng: random.Random) -> str:
    """Same presentation under fresh generator names drawn by the seed.

    The generator order and the relators' letters stay as they are, so the
    scan does the same work and a ``named`` braid assignment still applies.
    """
    lines = text.strip().splitlines()
    gens = lines[0].split()[1:]
    fresh = [f"g{i}" for i in rng.sample(range(100), len(gens))]
    rename = dict(zip(gens, fresh))
    rels = []
    for line in lines[1:]:
        letters = [tok.partition("^") for tok in line.split()[1:]]
        rels.append(" ".join(rename[name] + caret + power for name, caret, power in letters))
    return "gens: " + " ".join(fresh) + "\n" + "".join(f"rel: {r}\n" for r in rels)


def oracle_cases(seed: int, root: Path) -> list[Case]:
    """Bounded immersion scans whose candidate counts are known: none for
    the worked samples within these bounds, one for the torsion complex.

    Sample A at (4,3) comes three times a pass, under three namings, so the
    median of a run falls among those scans and rests on three samples a
    pass rather than one.
    """
    rng = random.Random(seed)
    a, b, braid = golden_samples(root)
    plan = [(a, (5, 2), 1), (b, (5, 2), 1), (braid, (4, 2), 1), (a, (4, 3), 3)]
    cases = [
        Case(f"{c.name}-scan{e}{f}-{j}", relabel(c.text, rng), c.target, c.phi, (e, f),
             scan_count=0)
        for c, (e, f), copies in plan
        for j in range(copies)
    ]
    cases.append(Case("torsion-scan11", TORSION_TEXT, scan=(1, 1), scan_count=1))
    rng.shuffle(cases)
    return cases


def make_cases(workload: str, seed: int, root: Path) -> list[Case]:
    if workload == "cli-report":
        return cli_cases(seed, root)
    if workload == "batch-certify":
        return batch_cases(seed, root)
    if workload == "wide-presentations":
        return wide_cases(seed)
    if workload == "oracle-scan":
        return oracle_cases(seed, root)
    raise ValueError(f"unknown workload {workload!r}")
