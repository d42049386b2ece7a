"""Walls, wall-crossing automorphisms, and consistent completion of rank-two
scattering diagrams.

Conventions (fixed once and verified by the pentagon computation in the test
suite):

* A wall is an origin-anchored ray {s*d : s >= 0} for a primitive integer
  direction d, together with an orientation (incoming rays point toward the
  origin, outgoing rays away from it) and a series label.  The label lives in
  Q[z^m][[t]] and is congruent to 1 mod (z^m t), where m = -d for incoming
  walls and m = d for outgoing ones.
* The crossing automorphism of a wall acts on monomials by
  z^w -> f^{<w, n>} z^w with n = rot90(d); equivalently the exponent is
  wedge(d, w).  It does not depend on the orientation.
* The total monodromy composes the crossing automorphisms counterclockwise
  starting at the positive x-axis, first-crossed wall applied innermost.  A
  wall exactly on the positive x-axis counts as the first wall.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .series import (
    TruncatedSeries,
    Vec,
    is_primitive,
    primitive_part,
    wedge,
)


class ConventionError(RuntimeError):
    """An internal consistency check of the completion algorithm failed."""


class TermCapExceeded(RuntimeError):
    """The configured bound on total stored label terms was exceeded."""


class TruncationTooLow(ValueError):
    """The requested quantity is not determined at the stored truncation order."""


# ---------------------------------------------------------------------------
# walls and diagrams


@dataclass(frozen=True)
class Wall:
    """An oriented rational ray with a series label."""

    direction: Vec
    incoming: bool
    label: TruncatedSeries

    def __post_init__(self):
        if not is_primitive(self.direction):
            raise ValueError(f"wall direction {self.direction} is not primitive")
        m = self.monomial_direction()
        if self.label.constant_term() != 1:
            raise ValueError("wall label must have constant term 1")
        for (a, b, k) in self.label.terms:
            if (a, b, k) == (0, 0, 0):
                continue
            if k < 1:
                raise ValueError("wall label must be congruent to 1 mod t")
            j = _ray_multiple((a, b), m)
            if j is None:
                raise ValueError(
                    f"label term z^({a},{b}) is not a positive multiple of z^{m}"
                )

    def monomial_direction(self) -> Vec:
        """Direction of the monomials the label is supported on."""
        d = self.direction
        return (-d[0], -d[1]) if self.incoming else d

    def crossing_exponent(self, w: Vec) -> int:
        """Exponent <w, rot90(direction)> = wedge(direction, w)."""
        return wedge(self.direction, w)

    def truncate(self, new_order: int) -> "Wall":
        return Wall(self.direction, self.incoming, self.label.truncate(new_order))


def _ray_multiple(v: Vec, m: Vec) -> Optional[int]:
    """Return j >= 1 with v = j*m, or None."""
    if m[0] != 0:
        j, r = divmod(v[0], m[0])
        if r != 0 or j < 1 or v[1] != j * m[1]:
            return None
        return j
    if v[0] != 0 or m[1] == 0:
        return None
    j, r = divmod(v[1], m[1])
    if r != 0 or j < 1:
        return None
    return j


def _half_plane(v: Vec) -> int:
    """0 for angles in [0, pi), 1 for [pi, 2*pi)."""
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def direction_cmp(u: Vec, v: Vec) -> int:
    """Exact comparison of ray directions by angle in [0, 2*pi)."""
    hu, hv = _half_plane(u), _half_plane(v)
    if hu != hv:
        return -1 if hu < hv else 1
    x = wedge(u, v)
    if x > 0:
        return -1
    if x < 0:
        return 1
    return 0


def _wall_cmp(w1: Wall, w2: Wall) -> int:
    c = direction_cmp(w1.direction, w2.direction)
    if c:
        return c
    if w1.incoming != w2.incoming:
        return -1 if w1.incoming else 1
    return 0


_wall_key = functools.cmp_to_key(_wall_cmp)


@dataclass(frozen=True)
class ScatteringDiagram:
    """A finite multiset of walls sharing one truncation order.

    ``grading`` optionally records a basis (g1, g2) such that every monomial
    z^w appearing in any label satisfies w = a*g1 + b*g2 with a, b >= 0 and
    t-degree a + b.  Diagrams built from two-seed initial data carry it; it
    lets coefficient queries certify that a monomial is determined at the
    stored truncation.
    """

    order: int
    walls: Tuple[Wall, ...]
    grading: Optional[Tuple[Vec, Vec]] = None

    def __post_init__(self):
        for w in self.walls:
            if w.label.order != self.order:
                raise ValueError("all wall labels must share the diagram truncation order")

    def sorted_walls(self) -> List[Wall]:
        return sorted(self.walls, key=_wall_key)

    def outgoing_walls(self) -> List[Wall]:
        return [w for w in self.sorted_walls() if not w.incoming]

    def wall_on_ray(self, direction: Vec, incoming: bool = False) -> Optional[Wall]:
        for w in self.walls:
            if w.direction == direction and w.incoming == incoming:
                return w
        return None

    def total_terms(self) -> int:
        return sum(len(w.label.terms) for w in self.walls)

    def truncate(self, new_order: int) -> "ScatteringDiagram":
        walls = tuple(w.truncate(new_order) for w in self.walls)
        return ScatteringDiagram(new_order, walls, self.grading)

    def min_t_degree(self, w: Vec) -> Optional[int]:
        """Minimal t-degree at which z^w can appear, from the grading; None if ungraded
        or w is outside the graded cone (in which case z^w never appears)."""
        if self.grading is None:
            return None
        g1, g2 = self.grading
        det = wedge(g1, g2)
        na = wedge(w, g2)
        nb = wedge(g1, w)
        if na % det or nb % det:
            return -1
        a, b = na // det, nb // det
        if a < 0 or b < 0:
            return -1
        return a + b


def initial_diagram(seeds: Sequence[Tuple[Vec, int]], order: int) -> ScatteringDiagram:
    """Diagram with incoming walls along -m_s labelled (1 + t z^{m_s})^{k_s}."""
    walls = []
    for m, k in seeds:
        if not is_primitive(m):
            raise ValueError(f"seed direction {m} is not primitive")
        if k < 1:
            raise ValueError("seed exponents must be >= 1")
        base = TruncatedSeries.one(order) + TruncatedSeries.monomial(order, m, 1)
        walls.append(Wall((-m[0], -m[1]), True, base ** k))
    grading = None
    if len(seeds) == 2 and wedge(seeds[0][0], seeds[1][0]) != 0:
        grading = (seeds[0][0], seeds[1][0])
    return ScatteringDiagram(order, tuple(walls), grading)


# ---------------------------------------------------------------------------
# wall crossing and monodromy


def apply_wall(wall: Wall, s: TruncatedSeries) -> TruncatedSeries:
    """Apply the crossing automorphism of ``wall`` to a series.

    Terms are grouped by their exponent e = wedge(d, w); the result is
    sum_e S_e * label^e with the powers computed incrementally.
    """
    groups: Dict[int, Dict] = {}
    for key, c in s.terms.items():
        e = wall.crossing_exponent((key[0], key[1]))
        groups.setdefault(e, {})[key] = c
    if set(groups) <= {0}:
        return s
    order = s.order
    f = wall.label
    powers: Dict[int, TruncatedSeries] = {0: TruncatedSeries.one(order)}
    f_inv: Optional[TruncatedSeries] = None
    result = TruncatedSeries.zero(order)
    for e in sorted(groups):
        if e not in powers:
            if e > 0:
                base = max(i for i in powers if 0 <= i < e)
                acc = powers[base]
                for i in range(base + 1, e + 1):
                    acc = acc * f
                    powers[i] = acc
            else:
                if f_inv is None:
                    f_inv = f.inverse()
                base = min(i for i in powers if i > e)
                acc = powers[base]
                for i in range(base - 1, e - 1, -1):
                    acc = acc * f_inv
                    powers[i] = acc
        part = TruncatedSeries(order, groups[e])
        result = result + part * powers[e]
    return result


def total_monodromy(diagram: ScatteringDiagram) -> Tuple[TruncatedSeries, TruncatedSeries]:
    """Images of x and y under the counterclockwise composition of all crossings."""
    sx = TruncatedSeries.monomial(diagram.order, (1, 0), 0)
    sy = TruncatedSeries.monomial(diagram.order, (0, 1), 0)
    for wall in diagram.sorted_walls():
        sx = apply_wall(wall, sx)
        sy = apply_wall(wall, sy)
    return sx, sy


# ---------------------------------------------------------------------------
# defect extraction and completion


@dataclass(frozen=True)
class DefectReport:
    """First obstruction to consistency at a single t-order.

    A diagram with trivial monodromy mod t^k has, mod t^{k+1},
    Mon(x)/x - 1 = t^k sum_w c_w * (-w2) * z^w and
    Mon(y)/y - 1 = t^k sum_w c_w * (w1) * z^w;
    ``terms`` maps each w to c_w, after checking that both readouts agree
    wherever both are defined.
    """

    order: int
    terms: Dict[Vec, Fraction]

    def __bool__(self) -> bool:
        return bool(self.terms)


def _readout(series: TruncatedSeries, base: Vec, k: int, coord: int) -> Dict[Vec, Fraction]:
    """Extract {w: c_w} from Mon(z^base)/z^base - 1 at order t^k.

    ``coord`` selects the readout: 0 means the stated coefficient is
    c_w * (-w2) (x-readout), 1 means c_w * (w1) (y-readout).
    """
    out: Dict[Vec, Fraction] = {}
    for (a, b, kk), c in series.terms.items():
        if (a, b, kk) == (base[0], base[1], 0):
            if c != 1:
                raise ConventionError("monodromy does not fix the base monomial")
            continue
        if kk < k:
            raise ValueError(
                f"monodromy is not trivial mod t^{k}: found a defect at order t^{kk}"
            )
        if kk > k:
            continue
        w = (a - base[0], b - base[1])
        if w == (0, 0):
            raise ConventionError("defect term with zero z-exponent cannot be cancelled")
        if coord == 0:
            if w[1] == 0:
                raise ConventionError(f"x-readout saw a defect at {w} with w2 = 0")
            out[w] = -c / w[1]
        else:
            if w[0] == 0:
                raise ConventionError(f"y-readout saw a defect at {w} with w1 = 0")
            out[w] = c / w[0]
    return out


def defect_at_order(diagram: ScatteringDiagram, k: int) -> DefectReport:
    """Defect terms of the total monodromy at order t^k (needs triviality mod t^k)."""
    if not 1 <= k < diagram.order:
        raise ValueError(f"order {k} out of range for truncation {diagram.order}")
    walls = [w.truncate(k + 1) for w in diagram.walls]
    walls = [w for w in walls if len(w.label.terms) > 1]
    small = ScatteringDiagram(k + 1, tuple(walls), diagram.grading)
    sx, sy = total_monodromy(small)
    from_x = _readout(sx, (1, 0), k, 0)
    from_y = _readout(sy, (0, 1), k, 1)
    merged = dict(from_x)
    for w, c in from_y.items():
        if w in merged:
            if merged[w] != c:
                raise ConventionError(
                    f"inconsistent defect readouts at {w}: {merged[w]} vs {c}"
                )
        else:
            merged[w] = c
    return DefectReport(k, merged)


def canonicalize(diagram: ScatteringDiagram) -> ScatteringDiagram:
    """One wall per (ray, orientation): merge labels, drop trivial walls, sort."""
    merged: Dict[Tuple[Vec, bool], TruncatedSeries] = {}
    for w in diagram.walls:
        key = (w.direction, w.incoming)
        if key in merged:
            merged[key] = merged[key] * w.label
        else:
            merged[key] = w.label
    one = TruncatedSeries.one(diagram.order)
    walls = [
        Wall(d, inc, label)
        for (d, inc), label in merged.items()
        if label != one
    ]
    walls.sort(key=_wall_key)
    return ScatteringDiagram(diagram.order, tuple(walls), diagram.grading)


def ks_complete(
    diagram: ScatteringDiagram,
    term_cap: Optional[int] = 500_000,
) -> ScatteringDiagram:
    """Add outgoing walls order by order until the total monodromy is trivial.

    At order k the defect report is converted into walls: a term (w, c_w)
    with primitive part (p, j) yields an outgoing wall on the ray p with
    label 1 - j*c_w*t^k*z^w, which cancels that term exactly mod t^{k+1}.
    Incoming walls pass through unchanged.  Raises
    :class:`TermCapExceeded` when the total number of stored label terms
    passes ``term_cap``.
    """
    diag = canonicalize(diagram)
    K = diag.order
    for k in range(1, K):
        report = defect_at_order(diag, k)
        if not report:
            continue
        new_walls = list(diag.walls)
        for w, c in sorted(report.terms.items()):
            p, j = primitive_part(w)
            label = TruncatedSeries.one(K) + TruncatedSeries.monomial(K, w, k, -j * c)
            new_walls.append(Wall(p, False, label))
        diag = canonicalize(ScatteringDiagram(K, tuple(new_walls), diag.grading))
        if term_cap is not None and diag.total_terms() > term_cap:
            raise TermCapExceeded(
                f"diagram stores {diag.total_terms()} terms (cap {term_cap})"
            )
    sx, sy = total_monodromy(diag)
    if sx != TruncatedSeries.monomial(K, (1, 0), 0) or sy != TruncatedSeries.monomial(K, (0, 1), 0):
        raise ConventionError("completion finished with nontrivial monodromy")
    return diag


# ---------------------------------------------------------------------------
# change of lattice, coefficient extraction, spectra


def change_of_lattice(
    diagram_std: ScatteringDiagram, m1: Vec, m2: Vec
) -> ScatteringDiagram:
    """Transport a standard-lattice diagram along e1 -> m1, e2 -> m2.

    Ray directions are mapped by the matrix with columns m1, m2 and
    re-normalized to primitive generators; label monomials are transported by
    the same matrix with coefficients copied verbatim.  Ray membership is
    exact; transported coefficients agree with the native computation only up
    to degree-dependent combinatorial factors, so nonvanishing (not values)
    is the transported guarantee.
    """
    if not (is_primitive(m1) and is_primitive(m2)):
        raise ValueError("lattice generators must be primitive")
    if wedge(m1, m2) == 0:
        raise ValueError("lattice generators must not be colinear")
    walls = []
    for w in diagram_std.walls:
        image = (
            w.direction[0] * m1[0] + w.direction[1] * m2[0],
            w.direction[0] * m1[1] + w.direction[1] * m2[1],
        )
        new_dir, _ = primitive_part(image)
        terms = {}
        for (a, b, k), c in w.label.terms.items():
            na = a * m1[0] + b * m2[0]
            nb = a * m1[1] + b * m2[1]
            terms[(na, nb, k)] = c
        walls.append(Wall(new_dir, w.incoming, TruncatedSeries(diagram_std.order, terms)))
    grading = None
    if diagram_std.grading is not None:
        g1, g2 = diagram_std.grading
        grading = (
            (g1[0] * m1[0] + g1[1] * m2[0], g1[0] * m1[1] + g1[1] * m2[1]),
            (g2[0] * m1[0] + g2[1] * m2[0], g2[0] * m1[1] + g2[1] * m2[1]),
        )
    return ScatteringDiagram(diagram_std.order, tuple(walls), grading)


def log_coefficient(diagram: ScatteringDiagram, direction: Vec, kappa: int) -> Fraction:
    """Coefficient of z^{kappa*direction} in log of the outgoing label on the ray,
    summed over all t-degrees (the t = 1 specialization is finite per monomial).
    """
    if not is_primitive(direction):
        raise ValueError("direction must be primitive")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    target = (kappa * direction[0], kappa * direction[1])
    min_deg = diagram.min_t_degree(target)
    if min_deg is not None:
        if min_deg == -1:
            return Fraction(0)
        if min_deg >= diagram.order:
            raise TruncationTooLow(
                f"z^{target} first appears at t^{min_deg}, beyond truncation {diagram.order}"
            )
    wall = diagram.wall_on_ray(direction, incoming=False)
    if wall is None:
        return Fraction(0)
    total = Fraction(0)
    for (a, b, _), c in wall.label.log().terms.items():
        if (a, b) == target:
            total += c
    return total


def _lowest_terms(wall: Wall) -> List[Tuple[Tuple[int, int, int], Fraction]]:
    """The nontrivial label terms of least t-degree, ordered by the multiple j
    of the wall's monomial direction they sit on.  A graded diagram has one
    such term per wall; an ungraded one may have several."""
    nontrivial = [(key, c) for key, c in wall.label.terms.items() if key != (0, 0, 0)]
    if not nontrivial:
        return []
    k0 = min(key[2] for key, _ in nontrivial)
    m = wall.monomial_direction()
    return sorted(
        ((key, c) for key, c in nontrivial if key[2] == k0),
        key=lambda term: _ray_multiple(term[0][:2], m),
    )


def ray_spectrum(diagram: ScatteringDiagram) -> List[Tuple[Vec, int, Fraction]]:
    """(direction, t-degree, coefficient) of each lowest-degree label term of
    each outgoing ray, in ray order and then by multiple of the direction."""
    return [
        (wall.direction, key[2], c)
        for wall in diagram.outgoing_walls()
        for key, c in _lowest_terms(wall)
    ]


# ---------------------------------------------------------------------------
# serialization


def diagram_to_json(diagram: ScatteringDiagram) -> dict:
    return {
        "K": diagram.order,
        "walls": [
            {
                "dir": list(w.direction),
                "orientation": "in" if w.incoming else "out",
                "label": w.label.term_records(),
            }
            for w in diagram.sorted_walls()
        ],
    }


def diagram_from_json(data: dict) -> ScatteringDiagram:
    order = int(data["K"])
    walls = tuple(
        Wall(
            (int(w["dir"][0]), int(w["dir"][1])),
            w["orientation"] == "in",
            TruncatedSeries.from_records(order, w["label"]),
        )
        for w in data["walls"]
    )
    return ScatteringDiagram(order, walls)


def diagram_to_svg(diagram: ScatteringDiagram, provenance: str = "") -> str:
    """Static SVG with unit-length rays annotated by their lowest-order term."""
    size = 480
    center = size / 2
    scale = size * 0.42
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- truncation order: {diagram.order} -->",
    ]
    if provenance:
        lines.append(f"<!-- {provenance} -->")
    lines.append(
        f'<circle cx="{center}" cy="{center}" r="2.5" fill="black"/>'
    )
    for wall in diagram.sorted_walls():
        a, b = wall.direction
        norm = (a * a + b * b) ** 0.5
        ux, uy = a / norm, b / norm
        x2 = center + scale * ux
        y2 = center - scale * uy
        style = "stroke:#904050;stroke-dasharray:6 3" if wall.incoming else "stroke:#204080"
        lines.append(
            f'<line x1="{center:.2f}" y1="{center:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'style="{style};stroke-width:1.6"/>'
        )
        lowest = _lowest_terms(wall)
        if lowest:
            text = f"1 + {TruncatedSeries(diagram.order, dict(lowest)).to_text()} + ..."
        else:
            text = "1"
        tx = center + (scale + 14) * ux
        ty = center - (scale + 14) * uy
        lines.append(
            f'<text x="{tx:.2f}" y="{ty:.2f}" font-size="9" text-anchor="middle">{text}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
