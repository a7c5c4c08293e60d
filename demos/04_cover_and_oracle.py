"""Inspect the machinery behind a verdict: the cyclic-cover certificate
and the bounded immersion oracle, as the report's ``cover`` and
``oracle_scan`` sections.

The cover section verifies, on a window of the infinite cyclic cover,
that the concatenability certificate really produces a slim-style edge
order: every lifted 2-cell has its witness lift as the unique minimal
boundary edge, traversed with nonzero signed count.

The oracle enumerates small immersions outright.  For <a | a^2> it finds
the presentation complex itself as a chi = 1 non-collapsible candidate
(proper powers break the hypotheses); for the certified presentation the
scan comes back empty.
"""

from npicheck import ReportOptions, full_report, parse_presentation, parse_target_spec

Z = parse_target_spec("z")
certified = "gens: a b c\nrel: a^-1 b\nrel: c^-1 b^-1 c a b a^-1 c^-1 b^-1 c^2\n"
torsion = "gens: a\nrel: a^2\n"

docs = {
    name: full_report(parse_presentation(text), ReportOptions(target=Z, scan_bounds=bounds))
    for name, text, bounds in (("<a | a^2>", torsion, (1, 1)), ("certified", certified, (6, 2)))
}

cover = docs["certified"]["cover"]
print(f"cover window {cover['window']} holds {cover['cells']} two-cells")
for check in cover["checks"]:
    print(f"  [{'ok' if check['ok'] else 'FAIL'}] {check['check']}: {check['detail']}")
print()

for name, doc in docs.items():
    scan = doc["oracle_scan"]
    print(f"scan of {name} at bounds {tuple(scan['bounds'])}: {scan['count']} candidate(s)")
    for c in scan["candidates"]:
        print(f"  chi={c['chi']}: {c['complex']}")
    print(f"  verdict: {doc['verdict']['status']} -- {doc['verdict']['detail']}")
