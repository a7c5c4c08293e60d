"""Output checks that do not trust the code being timed.

The replay re-derives the integer prefix sums and the multisets of minima
(or maxima) from ``input.text`` and ``phi`` with its own small parser, then
checks the certificate ordering step by step.  Nothing here imports
npicheck.
"""

from __future__ import annotations

import json
import math

from inputs import Case

VERDICTS = ("npi-certified", "not-decided", "hypothesis-failure")


def parse_input(text: str) -> tuple[list[str], list[list[tuple[int, int]]]]:
    """Generators and relators (letters as (generator, sign)) of a
    presentation or LOG file; a LOG edge (i, label, t) is t^-1 label^-1 i label."""
    gens: list[str] = []
    rels: list[list[tuple[int, int]]] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, body = tokens[0], tokens[1:]
        if head in ("gens:", "vertices:"):
            gens = body
        elif head == "rel:":
            word = []
            for tok in body:
                name, _, power = tok.partition("^")
                k = int(power) if power else 1
                word += [(gens.index(name), 1 if k > 0 else -1)] * abs(k)
            rels.append(word)
        elif head == "edge:":
            i, lab, t = (gens.index(x) for x in body)
            rels.append([(t, -1), (lab, -1), (i, 1), (lab, 1)])
        else:
            raise ValueError(f"unexpected line {raw!r}")
    return gens, rels


def extremal_counts(word, weights, mode: str) -> dict[int, list[int]]:
    """Copies [positive, negative] per generator of the letters whose
    boundary step touches the extremal prefix weight (v_0 = 0)."""
    profile = []
    acc = 0
    for g, s in word:
        acc += s * weights[g]
        profile.append(acc)
    ext = min(profile) if mode == "min" else max(profile)
    counts: dict[int, list[int]] = {}
    prev = 0
    for (g, s), cur in zip(word, profile):
        if prev == ext or cur == ext:
            counts.setdefault(g, [0, 0])[0 if s > 0 else 1] += 1
        prev = cur
    return counts


def replay(doc: dict) -> list[str]:
    """Problems with an integer-weight certificate, re-derived from scratch."""
    gens, rels = parse_input(doc["input"]["text"])
    phi = doc["phi"]
    if phi is None or phi["target"] != "z":
        return ["certified over the integers without an integer phi"]
    weights = [phi["weights"][g] for g in gens]
    if math.gcd(*weights) != 1:
        return [f"weights {weights} are not primitive"]
    for r, word in enumerate(rels):
        if sum(s * weights[g] for g, s in word) != 0:
            return [f"relator {r} does not die under phi"]
    attempt = next(
        (a for a in doc["attempts"]
         if "certificate" in a and a.get("weights", phi["weights"]) == phi["weights"]),
        None,
    )
    if attempt is None:
        return ["no attempt carries the certificate for phi"]
    flips = {gens.index(name) for name in phi["flips"]}
    if flips != {j for j, w in enumerate(weights) if w < 0}:
        return ["flips are not the negative-weight generators"]
    weights = [abs(w) for w in weights]
    rels = [[(g, -s if g in flips else s) for g, s in word] for word in rels]
    counts = [extremal_counts(word, weights, attempt["mode"]) for word in rels]
    for r, (mine, got) in enumerate(zip(counts, attempt["multisets"])):
        if {gens[g]: pn for g, pn in mine.items()} != got["counts"]:
            return [f"multiset of relator {r} does not replay"]
    cert = attempt["certificate"]
    if sorted(cert["ordering"]) != list(range(len(rels))):
        return ["ordering is not a permutation of the relators"]
    used: set[int] = set()
    for step, (r, wit) in enumerate(zip(cert["ordering"], cert["witnesses"])):
        g = gens.index(wit["generator"])
        p, n = counts[r].get(g, (0, 0))
        if p == n or [p, n] != [wit["positive"], wit["negative"]] or g in used:
            return [f"certificate step {step} does not replay"]
        used |= set(counts[r])
    if len(cert["witnesses"]) != len(rels):
        return ["one witness per relator required"]
    return []


def check_report(case: Case, out: str, tree_twin: dict | None = None) -> list[str]:
    """Every problem found with one report; an empty list means it passed.

    ``tree_twin`` is the report on the same tree in the other input format.
    """
    if case.golden is not None and out != case.golden:
        return ["report differs from the golden bytes"]
    doc = json.loads(out)
    if doc["input"]["text"] != case.text:
        return ["input.text is not the input"]
    verdict = doc["verdict"]
    if verdict["status"] not in VERDICTS:
        return [f"unknown verdict {verdict['status']!r}"]
    problems = []
    if case.scan_count is not None:
        scan = doc["oracle_scan"]
        if scan is None or scan["count"] != case.scan_count:
            problems.append(f"scan count is not {case.scan_count}")
    certified = verdict["status"] == "npi-certified"
    if certified and (verdict["citation"] == "Thm 3.4" or doc["input"]["kind"] == "log"):
        problems += replay(doc)
    if tree_twin is not None:
        log_doc, pres_doc = (doc, tree_twin) if doc["input"]["kind"] == "log" else (tree_twin, doc)
        if (log_doc["verdict"]["status"] == "npi-certified"
                and pres_doc["verdict"]["status"] != "npi-certified"):
            problems.append("tree certified as a LOG but not as a presentation")
    return problems
