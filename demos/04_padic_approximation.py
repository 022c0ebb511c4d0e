"""
p-adic embeddings and strong approximation
==========================================

Q(i) embeds into the 5-adic and 13-adic numbers once a square root of -1
is fixed in each.  The package pins canonical roots, tracks precision
explicitly, and uses lattice rounding to hit a complex target and a
p-adic target simultaneously with one element of the base ring.
"""

from fractions import Fraction

from pyjama import (
    P5BAR,
    P13BAR,
    THETA5,
    THETA13,
    CosetSpec,
    GaussianInt,
    GaussianRational,
    closure_index,
    coset_element,
    embed,
    sqrt_neg1,
    strong_approx,
)

# Canonical square roots of -1: the Newton lift of 3 mod 5 and 5 mod 13.
for p, k in ((5, 6), (13, 6)):
    root = sqrt_neg1(p, k)
    print(f"sqrt(-1) in Z_{p} at precision {k}: ...{root % p**3} (mod {p}^3)")
    assert (root**2 + 1) % p**k == 0

# Under these roots the barred generators become the non-units: they embed
# with valuation 1, while their conjugates embed as units.
print("val of 1-2i at 5:", embed(GaussianRational(P5BAR.generator), 5, 8).valuation)
print("val of 1+2i at 5:", embed(GaussianRational(GaussianInt(1, 2)), 5, 8).valuation)
print("val of theta13 at 5:", embed(THETA13, 5, 8).valuation, "(a unit)")

# closure_index measures how much of the unit group a rotation generates:
# index 1 means the closed subgroup generated by theta13 is everything.
print("closure index of theta13 at 5, precision 4:", closure_index(embed(THETA13, 5, 4)))

# Strong approximation: one ring element that is simultaneously within
# delta of a complex target and within delta of a 5-adic target.
z = 1.25 - 0.5j
target = embed(GaussianRational(GaussianInt(2, 1), 1) / GaussianRational(P5BAR.generator), 5, 12)
delta = Fraction(1, 500)
q = strong_approx(z, target, delta)
print("strong approx:", q)
qc = complex(Fraction(q.num.re, q.den), Fraction(q.num.im, q.den))
print("  complex residual:", abs(qc - z))
print("  5-adic residual bound:", embed(q, 5, 14).distance(target))

# Coset elements: a ring element lying in a prescribed closed coset of the
# rotation subgroup while being small in modulus and large 5-adically.
spec = CosetSpec(5, 2, embed(THETA5, 5, 3), 3)
y = coset_element(Fraction(1, 100), Fraction(100), spec)
print("coset element:", y)
print("  |y|^2 =", float(y.abs2()))
assert spec.contains(y)
