"""Weighted seeds and the onset of the dense region.

Doubling the seed weights already forces infinitely many walls, but they stay
organized: two ladders of slopes converging to 1 and a single diagonal wall
with label (1 - t^2*x*y)^(-4).  Tripling the weights produces the Fibonacci
fan: discrete rays (1,3), (3,8), ... and (3,1), (8,3), ... bounding a cone in
which every rational slope carries a wall.
"""

from scatstair import initial_diagram, ks_complete, log_coefficient, ray_spectrum
from scatstair.series import TruncatedSeries as TS

print("== twice-weighted seeds, order 9 ==")
double = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 9))
for direction, order, coeff in ray_spectrum(double):
    print(f"  ray {direction}: lowest term at t^{order} with coefficient {coeff}")

one = TS.one(9)
closed_form = (one - TS.monomial(9, (1, 1), 2)) ** -4
print("  diagonal label equals (1 - t^2 x y)^-4:",
      double.wall_on_ray((1, 1)).label == closed_form)

print("\n== thrice-weighted seeds, order 12 ==")
triple = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 12))
spectrum = ray_spectrum(triple)
print(f"  {len(spectrum)} outgoing rays below truncation")

fan = [(a, b) for (a, b), _, _ in spectrum if a * a - 3 * a * b + b * b == 1]
dense = [(a, b) for (a, b), _, _ in spectrum if a * a - 3 * a * b + b * b <= 0]
print("  discrete Fibonacci-fan rays:", sorted(fan))
print("  dense-cone rays:", sorted(dense))

print("\n  first-order log coefficients along the lower fan:")
for ray in [(1, 0), (3, 1), (8, 3)]:
    print(f"    {ray}: {log_coefficient(triple, ray)}")
print("  a ray strictly between the fan rays stays empty:",
      log_coefficient(triple, (4, 1)) == 0)
