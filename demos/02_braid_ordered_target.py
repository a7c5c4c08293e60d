"""A presentation that no integer weight map certifies, rescued by a
left-ordered braid target.

Every map to the integers sends all three generators to the same weight,
and both multisets of minima come out with support {x, z}: no fresh
element is available at the second step, so weak concatenability fails
over the integers, and the presentation is not an equal-length Adian one
either.  Mapping the generators to the Artin generators of the 4-strand
braid group (x -> s1, y -> s2, z -> s3) and ordering it by the opposite
of the Dehornoy order separates the supports into {y, z} and {x, z}
(Thm 3.6).  The second report is ``npicheck report --target braid:4:opp
--phi named`` on the same text.
"""

from npicheck import ReportOptions, full_report, parse_presentation, parse_target_spec, render_text

text = """\
gens: x y z
rel: x^-1 z^4 x z^-3 y z y^-1 z^-1 y^-1
rel: y^-1 x^-1 y^-1 z^-1 x z y z x z^-1
"""
pres = parse_presentation(text)

for title, options in (
    ("integer side", ReportOptions(target=parse_target_spec("z"))),
    ("braid side", ReportOptions(target=parse_target_spec("braid:4:opp"), phi_spec="named")),
):
    print(f"--- {title} ---")
    doc = full_report(pres, options, input_text=text)
    print(render_text(doc), end="")
    if doc["adian"] is not None:
        for h in doc["adian"]["hypotheses"]:
            print(f"Adian route: {h['status']} {h['name']} -- {h['detail']}")
    assumed = [h["name"] for h in doc["hypotheses"] if h["status"] == "assumed"]
    print("assumed hypotheses:", assumed)
