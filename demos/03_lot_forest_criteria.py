"""Labelled oriented trees and the letter-graph forest criteria.

Each LOG edge (i, lambda, t) contributes the relator t^-1 lambda^-1 i
lambda, i.e. the relation i lambda = lambda t.  The graph on first
letters (T) being a forest forces min-mode weak concatenability with
all-ones weights; the graph on last letters (I) being a forest forces the
max-mode version.  Either one certifies non-positive immersions (Cor 4.3).
"""

import random

from npicheck import ReportOptions, full_report, parse_log, parse_target_spec, render_text

OPTIONS = ReportOptions(target=parse_target_spec("z"))


def log_report(text: str) -> dict:
    return full_report(parse_log(text), OPTIONS, input_text=text)


def print_lot(doc: dict) -> None:
    lot = doc["lot"]
    print(f"graph T forest: {lot['graph_t_forest']} | graph I forest: {lot['graph_i_forest']}")


single = log_report("vertices: a b c\nedge: a b c\n")
print(render_text(single), end="")
print_lot(single)
print()

# Two edges sharing initial vertex and label: T acquires parallel edges
# (its criterion fails) while I stays a path, and the max-mode branch
# still certifies.
skew = log_report("vertices: a b c d\nedge: a b c\nedge: a b d\n")
print(render_text(skew), end="")
print_lot(skew)
print()


def random_forest_text(n: int, k: int, rng: random.Random) -> str:
    """A reduced LOG whose underlying graph is a forest with k edges: each
    edge joins a new vertex to an earlier one of a shuffled order, in a
    random direction, with a label distinct from both ends."""
    order = rng.sample(range(n), n)
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(n))]
    for j in range(1, k + 1):
        i, t = order[rng.randrange(j)], order[j]
        if rng.random() < 0.5:
            i, t = t, i
        label = rng.choice([v for v in range(n) if v not in (i, t)])
        lines.append(f"edge: v{i} v{label} v{t}")
    return "\n".join(lines) + "\n"


rng = random.Random(2024)
counts: dict[str, int] = {}
for _ in range(200):
    n = rng.randrange(3, 9)
    verdict = log_report(random_forest_text(n, rng.randrange(1, n), rng))["verdict"]
    key = f"{verdict['status']} ({verdict['citation']})" if verdict["citation"] else verdict["status"]
    counts[key] = counts.get(key, 0) + 1
print("200 random reduced forests:", dict(sorted(counts.items())))
