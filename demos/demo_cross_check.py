"""Two independent routes to the same classification.

The Diophantine route: a coprime pair (p, q) with p >= q admits an index-zero
rational curve exactly when p^2 + q^2 - 7pq + 9 >= 0, which happens exactly
for the staircase pairs (fib(2k+5), fib(2k+1)) and for ratios beyond
tau^4.  The geometric route: complete the thrice-weighted scattering diagram,
transport it along ((-1,-3), (1,0)), and read off which pairs carry a nonzero
first-order log coefficient.  This script runs both and prints the agreement
table, then the bound each detected curve puts on the stabilized embedding
function next to the staircase's value.
"""

from fractions import Fraction

from scatstair import curve_obstruction, scattering_cross_check, stabilized_value
from scatstair.curves import degeneration_admissible

report = scattering_cross_check(12)
print(report.to_table())

print("detected pairs:", report.detected_pairs())
print("reachable but not detected:",
      sorted(set(report.reachable_pairs()) - set(report.detected_pairs())))

print("\nnative-lattice lowest-order spectrum:")
for direction, order, coeff in report.native_spectrum:
    print(f"  ray {direction}: t^{order} coefficient {coeff}")

print("\na detected curve's bound 3*min(p, q*a)/(p + q) at a = p/q is the stabilized value:")
for p, q in report.detected_pairs()[:5]:
    a = Fraction(p, q)
    print(f"  ({p},{q}): curve bound {curve_obstruction(p, q, a)}, stabilized value {stabilized_value(a)}")

print("\nbonus: the degeneration inequality rules out splitting an (11,5) cusp")
ok, witness = degeneration_admissible((11, 5), [(8, 3), (3, 2)])
print(f"  admissible: {ok}, violating direction: {witness}")
