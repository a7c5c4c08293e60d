"""Walk a two-relator presentation through the whole integer pipeline.

The presentation <a, b, c | a^-1 b, c^-1 b^-1 c a b a^-1 c^-1 b^-1 c^2>
has the homology of a circle, so weight maps to the integers exist; the
all-ones map turns out to make the relator family weakly concatenable,
which certifies the non-positive immersion property for the standard
2-complex.
"""

from npicheck import (
    check_presentation,
    find_weight_homomorphisms,
    h1_structure,
    parse_presentation,
    prefix_profile,
)
from npicheck.orders import IntTarget, TargetAssignment

text = """
gens: a b c
rel: a^-1 b
rel: c^-1 b^-1 c a b a^-1 c^-1 b^-1 c^2
"""

pres = parse_presentation(text)
print("presentation:", pres)

h1 = h1_structure(pres)
print(f"H1: free rank {h1.free_rank}, torsion {list(h1.torsion)}")

homs = find_weight_homomorphisms(pres)
print("primitive weight maps found:", [h.weights for h in homs])

target = IntTarget()
ones = TargetAssignment.all_ones(pres)
for i in range(len(pres.relators)):
    print(f"prefix weights of r{i}:", prefix_profile(pres, i, target, ones))

verdict = check_presentation(pres, target, ones)
print("verdict:", verdict.status)
for m in verdict.multisets:
    print(f"  multiset of minima, r{m.relator}: {m.describe(pres)}")
cert = verdict.certificate
print("certificate ordering:", cert.ordering)
print(
    "witnesses:",
    [(pres.generators[w.gen], w.positive, w.negative) for w in cert.witnesses],
)
