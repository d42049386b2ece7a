"""The smallest interesting consistent completion.

Two incoming walls with labels 1 + t*x and 1 + t*y force exactly three
outgoing walls; the diagonal one carries 1 + t^2*x*y.  This script builds the
seed diagram, completes it, and verifies that the counterclockwise composition
of all five crossing automorphisms is the identity.
"""

from scatstair import (
    apply_wall,
    diagram_to_json,
    initial_diagram,
    ks_complete,
    total_monodromy,
)
from scatstair.series import TruncatedSeries as TS

ORDER = 10

seed = initial_diagram([((1, 0), 1), ((0, 1), 1)], ORDER)
print("seed walls (incoming only):")
for wall in seed.walls:
    print(f"  {wall.direction}  {wall.label.to_text()}")

completed = ks_complete(seed)
print("\ncompleted diagram:")
for wall in completed.walls:
    tag = "in " if wall.incoming else "out"
    print(f"  {tag} {wall.direction}  {wall.label.to_text()}")

sx, sy = total_monodromy(completed)
print("\ntotal monodromy fixes x:", sx == TS.monomial(ORDER, (1, 0), 0))
print("total monodromy fixes y:", sy == TS.monomial(ORDER, (0, 1), 0))

# one crossing in isolation: the diagonal wall twists x by the inverse label
diagonal = completed.wall_on_ray((1, 1))
print("\ndiagonal crossing applied to x:",
      apply_wall(diagonal, TS.monomial(ORDER, (1, 0), 0)).truncate(5).to_text())

print("\nJSON wall count:", len(diagram_to_json(completed)["walls"]))
