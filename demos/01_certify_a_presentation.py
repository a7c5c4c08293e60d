"""Certify a two-relator presentation (sample A) and read the maps the
report tried.

The presentation <a, b, c | a^-1 b, c^-1 b^-1 c a b a^-1 c^-1 b^-1 c^2>
has the homology of a circle, so weight maps to the integers exist; the
all-ones map turns out to make the relator family weakly concatenable,
which certifies the non-positive immersion property for the standard
2-complex (Thm 3.4).  Each attempt of the report carries its hypotheses,
its multisets of minima and, when it certifies, the ordering of the
relators with one witness generator each.
"""

from npicheck import ReportOptions, full_report, parse_presentation, parse_target_spec, render_text

text = """\
gens: a b c
rel: a^-1 b
rel: c^-1 b^-1 c a b a^-1 c^-1 b^-1 c^2
"""

pres = parse_presentation(text)
print("presentation:", pres)
doc = full_report(pres, ReportOptions(target=parse_target_spec("z")), input_text=text)
print(render_text(doc))

for n, attempt in enumerate(doc["attempts"]):
    weights = ", ".join(f"{g}={w}" for g, w in attempt["weights"].items())
    print(f"attempt {n}: {weights} ({attempt['mode']} mode): {attempt['status']}")
    for h in attempt["hypotheses"]:
        print(f"  {h['status']:>7}  {h['name']}: {h['detail']}")
    for m in attempt["multisets"]:
        counts = ", ".join(f"{g}:(+{p},-{q})" for g, (p, q) in m["counts"].items())
        print(f"  multiset of minima, r{m['relator']}: {{{counts}}}")
    if "certificate" in attempt:
        cert = attempt["certificate"]
        print("  certificate ordering:", tuple(cert["ordering"]))
        print(
            "  witnesses:",
            [(w["generator"], w["positive"], w["negative"]) for w in cert["witnesses"]],
        )
