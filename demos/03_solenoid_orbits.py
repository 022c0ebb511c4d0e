"""
Points of the adelic solenoid and their orbits
==============================================

The configuration space is a solenoid: a complex coordinate plus one
p-adic coordinate at each of the primes 5 and 13, modulo a twisted
diagonal copy of the base ring A = Z[i][1/(1-2i), 1/(2-3i)].  Rotating by
theta5 or theta13 permutes the stripes of demo 02; the pairing value
evaluate(x, r) is what the stripes read off.
"""

from fractions import Fraction

from pyjama import (
    ExactPoint,
    GaussianInt,
    GaussianRational,
    act,
    classify_point,
    evaluate,
    orbit_eval_sweep,
    period_exponent,
    periodic_dense_set,
    theta_power,
)

# Diagonal points evaluate to exactly zero against every ring element:
# they represent the origin of the quotient.
q = GaussianRational(GaussianInt(7, -2)) / GaussianRational(GaussianInt(1, -2))
r = GaussianRational(GaussianInt(2, 5))
print("diagonal pairing:", evaluate(ExactPoint(q), r))

# Every exact rational point is torsion; the interesting split is whether
# the rotation action has it periodic.
for num, den in (((1, 1), 2), ((1, 0), 5), ((2, 3), 3)):
    point = GaussianRational(GaussianInt(*num), den)
    info = classify_point(point)
    line = f"q = {point}: {info.kind}"
    if info.kind == "periodic":
        line += f", period exponent {period_exponent(point)}"
    print(line)

# periodic_dense_set(n) returns the 49^n diagonal points (a + bi)/7^n,
# 0 <= a, b < 7^n, of the 7^-n torsion layer (all periodic, since 7 is
# prime to 5 and 13), together with an exponent that fixes every one.
points, m = periodic_dense_set(1)
print(len(points), "periodic points with common exponent", m)
t5, t13 = theta_power(m, 0), theta_power(0, m)
assert all(act(t5, pt).same_class(pt) and act(t13, pt).same_class(pt) for pt in points)
print("all fixed by theta5^m and theta13^m exactly")

# Purely complex points behave very differently depending on modulus.
# On the unit circle the rotation orbit fills the value circle densely...
# (a float w is taken at its binary value, so the sweep is exact; its gaps
# are fractions hundreds of digits long, printed here as floats)
import math

on_circle = ExactPoint.from_complex(complex(math.cos(1.0), math.sin(1.0)))
print("orbit gap, |w| = 1, sweep 100:", float(orbit_eval_sweep(on_circle, 1, 100)))

# ...while at modulus 1/4 the values are trapped in [-1/4, 1/4] mod 1 and
# a gap of at least 1/2 persists forever.
inside = ExactPoint.from_complex(0.25 + 0j)
print("orbit gap, |w| = 1/4, sweep 100:", float(orbit_eval_sweep(inside, 1, 100)))

# evaluate() returns an exact Fraction, for diagonal points as for any other.
x = ExactPoint(GaussianRational(GaussianInt(1, 1), 2))
print("exact pairing of the half-odd point against 1:", evaluate(x, GaussianRational(1)))
assert evaluate(x, GaussianRational(1)) == Fraction(1, 2)
