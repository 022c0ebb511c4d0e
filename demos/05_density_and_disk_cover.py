"""
Density certificates and certified disk coverings
=================================================

Two quantitative density checks back the covering machinery: the
multiplicative semigroup generated by 2 and 3 is dense at any scale, and
non-torsion rotations equidistribute on the circle.  Combining the two
yields rotation families that provably cover a large disk with stripes —
certified here by an exhaustive grid check with an explicit Lipschitz
margin.
"""

from fractions import Fraction

from pyjama import THETA5, circle_density, semigroup_density
from pyjama.disk import certified_disk_cover, irrational_triple, theta_prime

# Products eta * 2^r * 3^s fill (0, 1] densely: at scale eta = 10^-4 the
# largest gap between consecutive products below 1 is certified exactly.
report = semigroup_density(Fraction(1, 10**4), Fraction(1, 10))
print("semigroup scale 10^-4: max gap", float(report.max_gap), "dense:", report.is_dense)

# The rotation theta5 has infinite order, so its orbit equidistributes:
# 200 steps leave no arc of width 2*pi/20.
circ = circle_density(THETA5, 1, 200)
print("circle orbit after 200 steps: max gap", round(circ.max_gap, 4))

# Unit vectors with exactly irrational relative angles, used to build
# stripe families without rational resonances.
z1, z2, z3 = irrational_triple(1)
print("irrational triple at n=1:", z1, z2, z3)

# theta_prime(n, N) is the derived rotation family: the three triple
# directions spun by the (N+1)^2 exact rotations of theta_set(N).
family = theta_prime(1, 1)
print("theta_prime(1, 1) has", len(family), "rotations")

# Certified covering of the radius-20 disk at stripe half-width 0.3.  The
# grid check is sound: a cell passes only if its center is within
# epsilon - h*sqrt(2)/2 of some stripe, which covers the whole cell.
result = certified_disk_cover(family, 0.3, 20.0, 0.05, refine_rounds=2)
print(
    "disk cover: certified =", result.certified,
    "| cells checked =", result.cells_checked,
    "| final pitch =", result.pitch,
)
assert result.certified

# A too-small family fails honestly, and proves it: the report names a
# witness, a cell centre in the disk that lies outside every stripe of every
# rotation, checked in exact arithmetic.  No refinement could cover it, so
# the run stops on the grid.
small = certified_disk_cover(theta_prime(1, 0), 0.3, 20.0, 0.1, refine_rounds=1)
print("3-rotation family certified:", small.certified, "| failing cells:", small.failing_count)
print("3-rotation family witness:", small.witness)
assert small.witness is not None and small.witness.abs2() <= 20**2
