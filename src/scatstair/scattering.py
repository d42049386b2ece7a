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
  z^w -> f^{<w, n>} z^w with n = (-d_2, d_1); equivalently the exponent is
  wedge(d, w).  It does not depend on the orientation.
* The total monodromy composes the crossing automorphisms counterclockwise
  starting at the positive x-axis, first-crossed wall applied innermost.  A
  wall exactly on the positive x-axis counts as the first wall.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import Record
from .lattice import Vec, at_least, integers, mat_apply, primitive, primitive_part, wedge
from .series import TruncatedSeries, read_int


class ConventionError(RuntimeError):
    """An internal consistency check of the completion algorithm failed."""


class TermCapExceeded(RuntimeError):
    """The configured bound on total stored label terms was exceeded.

    ``order`` is the order k whose walls pushed the count past the cap.
    """

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class TruncationTooLow(ValueError):
    """The requested quantity is not determined at the stored truncation order."""


# ---------------------------------------------------------------------------
# walls and diagrams


class Wall(Record):
    """An oriented rational ray with a series label."""

    __slots__ = ("direction", "incoming", "label")
    direction: Vec
    incoming: bool
    label: TruncatedSeries

    def __post_init__(self):
        primitive(self.direction, "wall direction")
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


def _ray_multiple(v: Vec, m: Vec) -> Optional[int]:
    """Return j >= 1 with v = j*m for the primitive m, or None."""
    if v == (0, 0):
        return None
    p, j = primitive_part(v)
    return j if p == m else None


def _wall_key(wall: Wall) -> Tuple[bool, bool, Union[Fraction, int], bool]:
    """Exact sort key of a wall: its direction's angle in [0, 2*pi), then
    incoming before outgoing.  The angle is keyed by the half-plane, the
    x-axis first in each, and then the increasing -a/b = -cot of the angle."""
    a, b = wall.direction
    return (b < 0 or (b == 0 and a < 0), b != 0, Fraction(-a, b) if b else 0, not wall.incoming)


class ScatteringDiagram(Record):
    """Walls sharing one truncation order, in normal form: at most one wall
    per ray and orientation, none labelled 1, in crossing order.  The
    constructor sorts the walls by :func:`_wall_key` and raises ValueError
    for a second wall on a ray and orientation or a wall labelled 1.

    It is graded by (g1, g2) when it has exactly two incoming walls, each label
    is a series in t*z^g (every term above 1 is z^(k*g)*t^k, g read off its t^1
    term) and g1, g2 are independent.  Then each monomial z^w of its completion
    has w = a*g1 + b*g2, a, b >= 0, at t^(a + b) (Gross-Pandharipande-Siebert),
    so a coefficient query can tell whether the truncation determines it.
    """

    __slots__ = ("order", "walls")
    order: int
    walls: Tuple[Wall, ...]

    def __post_init__(self):
        at_least(self.order, 1, "diagram truncation order")
        walls = tuple(sorted(self.walls, key=_wall_key))
        rays = [(w.direction, w.incoming) for w in walls]
        for w, ray, before in zip(walls, rays, [None] + rays):
            if w.label.order != self.order:
                raise ValueError("all wall labels must share the diagram truncation order")
            name = f"{'incoming' if w.incoming else 'outgoing'} ray {w.direction}"
            if len(w.label.terms) == 1:  # the constant 1 alone
                raise ValueError(f"the wall on the {name} is labelled 1")
            if ray == before:
                raise ValueError(f"two walls on the {name}")
        object.__setattr__(self, "walls", walls)

    @property
    def grading(self) -> Optional[Tuple[Vec, Vec]]:
        """(g1, g2), derived from the walls by the rule above, or None if ungraded."""
        labels = [w.label.terms for w in self.walls if w.incoming]
        basis = tuple(next(((a, b) for a, b, k in ts if k == 1), (0, 0)) for ts in labels)
        fits = (a == k * u and b == k * v for (u, v), ts in zip(basis, labels) for a, b, k in ts)
        return basis if len(basis) == 2 and wedge(*basis) and all(fits) else None

    def outgoing_walls(self) -> List[Wall]:
        return [w for w in self.walls if not w.incoming]

    def wall_on_ray(self, direction: Vec) -> Optional[Wall]:
        """The outgoing wall on the ray ``direction``, or None."""
        integers(*direction)
        for w in self.walls:
            if w.direction == direction and not w.incoming:
                return w
        return None

    def total_terms(self) -> int:
        return sum(len(w.label.terms) for w in self.walls)

    def min_t_degree(self, w: Vec) -> Optional[int]:
        """Minimal t-degree at which z^w can appear, from the grading; None if ungraded
        or w is not a nonnegative integral combination of the grading (in which
        case z^w never appears)."""
        if (grading := self.grading) is None:
            return None
        g1, g2 = grading
        det = wedge(g1, g2)
        na = wedge(w, g2)
        nb = wedge(g1, w)
        if na % det or nb % det:
            return None
        a, b = na // det, nb // det
        if a < 0 or b < 0:
            return None
        return a + b


def initial_diagram(seeds: Sequence[Tuple[Vec, int]], order: int) -> ScatteringDiagram:
    """Diagram with incoming walls along -m labelled (1 + t z^m)^k; a repeated m sums its k."""
    at_least(order, 2, "the order of seed labels 1 + t*z^m")
    exponents: Dict[Vec, int] = {}
    for m, k in seeds:
        primitive(m, "seed direction")
        at_least(k, 1, "seed exponent")
        exponents[m] = exponents.get(m, 0) + k
    walls = []
    for m, k in exponents.items():
        base = TruncatedSeries.one(order) + TruncatedSeries.monomial(order, m, 1)
        walls.append(Wall((-m[0], -m[1]), True, base ** k))
    return ScatteringDiagram(order, tuple(walls))


# ---------------------------------------------------------------------------
# wall crossing and monodromy


# Inside this module's slices and term maps (label slices, label powers, the
# images kept by ks_complete and total_monodromy, the body of apply_wall) a
# coefficient is an ``int`` when it is integral and a ``Fraction`` otherwise;
# TruncatedSeries converts back.
Coeff = Union[int, Fraction]

# The t^0 slice of every label power.
_UNIT: Dict[Vec, Coeff] = {(0, 0): 1}


def _exact(c: Coeff) -> Coeff:
    """``c``, an int or a Fraction, as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _divide(c: Coeff, m: int) -> Coeff:
    """The exact quotient c / m, an int when it is integral."""
    if type(c) is int:
        q, r = divmod(c, m)
        return Fraction(c, m) if r else q
    return _exact(c / m)


def _label_slices(label: TruncatedSeries) -> Dict[int, Dict[Vec, Coeff]]:
    """The nonzero t-degree slices of a wall label above its constant 1."""
    slices: Dict[int, Dict[Vec, Coeff]] = {}
    for (a, b, d), c in label.terms.items():
        if d:
            slices.setdefault(d, {})[(a, b)] = _exact(c)
    return slices


def _stride(label: Dict[int, Dict[Vec, Coeff]]) -> int:
    """The gcd of a label's t-degrees; every power of the label lives only at
    multiples of it.  A label with no terms above 1 has stride 1."""
    return math.gcd(*label) or 1


def _power_slices(
    label: Dict[int, Dict[Vec, Coeff]],
    e: int,
    slices: Dict[int, Dict[Vec, Coeff]],
    lo: int,
    hi: int,
    stride: int,
) -> None:
    """Extend ``slices``, the nonzero t-degree slices of f^e below t^lo, in
    place through t^hi, where f = 1 + the sum of ``label``'s slices and
    ``stride`` is the label's stride (see :func:`_stride`).

    J. C. P. Miller's recurrence for g = f^e with f_0 = 1, any integer e:
    m * g_m = sum over a of ((e + 1) * a - m) * f_a * g_(m - a)
    Only degrees m that are multiples of the stride are visited; the others
    vanish.  The division by m is exact and yields an int whenever the
    quotient is integral, so int labels stay int until a remainder appears.
    """
    for m in range(lo + (-lo) % stride, hi + 1, stride):
        acc: Dict[Vec, Coeff] = {}
        for a, fa in label.items():
            g = slices.get(m - a)
            scale = (e + 1) * a - m
            if not g or not scale:
                continue
            for (u0, u1), cu in fa.items():
                for (v0, v1), cv in g.items():
                    key = (u0 + v0, u1 + v1)
                    acc[key] = acc.get(key, 0) + scale * cu * cv
        acc = {key: _divide(c, m) for key, c in acc.items() if c}
        if acc:
            slices[m] = acc


# A series by t-degree: entry d maps each z-exponent to its coefficient at t^d.
Slices = List[Dict[Vec, Coeff]]

_BASES: Tuple[Vec, Vec] = ((1, 0), (0, 1))


def _cross_in_place(direction: Vec, label: Dict[int, Dict[Vec, Coeff]], slices: Slices) -> None:
    """Replace ``slices``, a series by t-degree below t^K with K its length,
    by its image under the crossing of the wall on ``direction`` whose label
    has the slices ``label``.

    A term c*z^v*t^a with e = wedge(direction, v) != 0 becomes
    c*z^v*t^a * label^e.  label^e - 1 starts at t^L, L the label's lowest
    t-degree, so only the source degrees a <= K - 1 - L can change anything,
    and each adds only into degrees a + L and above.  The source degrees are
    visited highest first, so every degree written is above every degree
    still to be read, and the series is updated in place.  The powers come
    from :func:`_power_slices`, each extended once, through the degree its
    lowest source term needs; zeros are dropped only in the degrees written.
    """
    if not label:
        return
    d0, d1 = direction
    K = len(slices)
    top = K - 1 - min(label)
    # exponent -> degree its powers must reach, set by its lowest source degree
    reach: Dict[int, int] = {}
    for a in range(top, -1, -1):
        for v0, v1 in slices[a]:
            e = d0 * v1 - d1 * v0
            if e:
                reach[e] = K - 1 - a
    stride = _stride(label)
    powers: Dict[int, List[Tuple[int, Dict[Vec, Coeff]]]] = {}
    for e, hi in reach.items():
        power = {0: _UNIT}
        _power_slices(label, e, power, 1, hi, stride)
        del power[0]
        powers[e] = list(power.items())  # ascending degree
    touched = set()
    for a in range(top, -1, -1):
        for (v0, v1), c in slices[a].items():
            e = d0 * v1 - d1 * v0
            if not e:
                continue
            for m, g in powers[e]:
                n = a + m
                if n >= K:
                    break
                touched.add(n)
                out = slices[n]
                for (u0, u1), cg in g.items():
                    key = (v0 + u0, v1 + u1)
                    out[key] = out.get(key, 0) + c * cg
    for n in touched:
        slices[n] = {key: c for key, c in slices[n].items() if c}


def _from_slices(slices: Slices) -> TruncatedSeries:
    return TruncatedSeries(
        len(slices), {(a, b, k): c for k, s in enumerate(slices) for (a, b), c in s.items()}
    )


def apply_wall(wall: Wall, s: TruncatedSeries) -> TruncatedSeries:
    """Apply the crossing automorphism of ``wall`` to a series.

    The truncation orders must agree (else :class:`TruncationMismatch`).  A
    term z^w is multiplied by label^e with e = wedge(d, w).  The series is
    split by t-degree and crossed in place (see :func:`_cross_in_place`):
    only the degrees a label of lowest degree L can reach, below t^(K - L),
    are read.  Each power comes from J. C. P. Miller's recurrence (see
    :func:`_power_slices`), which visits only the multiples of the label's
    stride, the gcd of its t-degrees.  The products are taken with integral
    coefficients as ints; the returned series holds Fractions again.
    """
    s._check_order(wall.label)
    slices: Slices = [{} for _ in range(s.order)]
    for (a, b, k), c in s.terms.items():
        slices[k][(a, b)] = _exact(c)
    _cross_in_place(wall.direction, _label_slices(wall.label), slices)
    return _from_slices(slices)


def _pruned_axis(walls: Sequence[Wall]) -> Optional[int]:
    """The image that can be kept on its axis line: 0 when the first
    coordinates of all the walls' monomial directions are >= 0, or all are
    <= 0; else 1 when the second coordinates are; else None.

    With axis a chosen, the image of the a-th base z^(e_a) is kept only at
    the offsets w from its base with w_a = 0, the line through z^(e_a)
    parallel to the other axis.  Every label monomial moves an offset's
    a-th coordinate one way only, so a term off that line never comes back
    to it, and only the walls with direction_a = 0, the walls on the line,
    change the terms on it.  x is preferred, so the image of x is pruned
    whenever both qualify.
    """
    for axis in (0, 1):
        signs = {w.monomial_direction()[axis] > 0 for w in walls if w.monomial_direction()[axis]}
        if len(signs) < 2:
            return axis
    return None


def _monodromy_slices(walls: Sequence[Wall], K: int, axis: Optional[int] = None) -> List[Slices]:
    """The images of x and y by t-degree under the composition of the
    crossings of ``walls``, given in crossing order, each crossed in place
    (see :func:`_cross_in_place`).  The image of the ``axis``-th base, if
    any, crosses only the walls on its line (see :func:`_pruned_axis`) and
    so holds only its terms on that line."""
    images = [[{base: 1}] + [{} for _ in range(K - 1)] for base in _BASES]
    for wall in walls:
        label = _label_slices(wall.label)
        for n, slices in enumerate(images):
            if n != axis or not wall.direction[axis]:
                _cross_in_place(wall.direction, label, slices)
    return images


def total_monodromy(diagram: ScatteringDiagram) -> Tuple[TruncatedSeries, TruncatedSeries]:
    """Images of x and y under the counterclockwise composition of all crossings.

    The images are held by t-degree, and each wall crosses them in place as
    in :func:`apply_wall`: only the degrees below t^(K - L) are read for a
    label of lowest degree L.  The images stay int/Fraction slices until
    they are returned as series.
    """
    sx, sy = _monodromy_slices(diagram.walls, diagram.order)
    return _from_slices(sx), _from_slices(sy)


def _monodromy_is_trivial(diagram: ScatteringDiagram) -> bool:
    """Whether ``total_monodromy(diagram) == (x, y)``, with the image picked
    by :func:`_pruned_axis` from the diagram's own walls kept on its line.

    Say x's image is pruned (y's is the mirror case).  The total monodromy
    is a product of wall crossings, so it is exp(D) for a D in the tropical
    vertex Lie algebra, a sum of terms z^w * d_n with n orthogonal to w.
    Such a term sends y to a multiple of w_1 * z^(w + (0, 1)).  If the
    image of y is y, the lowest t-degree of D off the vertical line w_1 = 0
    would show in it, so all of D lies on that line, and the image of x is
    x times terms on that line: exactly the terms the pruned image keeps.
    So "y's full image is y and x's pruned image is x" decides the same as
    the full comparison.
    """
    images = _monodromy_slices(diagram.walls, diagram.order, _pruned_axis(diagram.walls))
    return not any(s for slices in images for s in slices[1:])


# ---------------------------------------------------------------------------
# completion


def _read_defect(k: int, sx: Slices, sy: Slices) -> Dict[Vec, Coeff]:
    """The order-k defect {w: c_w} from the t-degree slices of Mon(x) and Mon(y).

    Slices 1..k-1 must vanish, else :class:`ConventionError`.  In slice k
    the image of z^base states -c_w * wedge(base, w) at z^(base + w):
    c_w * (-w2) for x, c_w * w1 for y; where both readouts state c_w they
    must agree.  When one image is kept only on its line (see
    :func:`_pruned_axis`), say x's, it states c_w just for the w with
    w1 = 0, which y cannot read, so the readouts do not overlap and nothing
    is compared: the final check of :func:`ks_complete` is then the guard.
    An offending term is reported lowest degree first, then by exponent,
    the x-image before the y-image.
    """
    readouts = []
    for base, slices, name, axis in (((1, 0), sx, "x", "w2"), ((0, 1), sy, "y", "w1")):
        for d in range(1, k):
            if slices[d]:
                raise ConventionError(
                    f"monodromy is not trivial mod t^{k}: found a defect at order t^{d}"
                )
        out: Dict[Vec, Coeff] = {}
        for (a, b), c in sorted(slices[k].items()):
            w = (a - base[0], b - base[1])
            if w == (0, 0):
                raise ConventionError("defect term with zero z-exponent cannot be cancelled")
            e = wedge(base, w)
            if e == 0:
                raise ConventionError(f"{name}-readout saw a defect at {w} with {axis} = 0")
            out[w] = _divide(-c, e)
        readouts.append(out)
    merged, from_y = readouts
    for w, c in from_y.items():
        if merged.setdefault(w, c) != c:
            raise ConventionError(f"inconsistent defect readouts at {w}: {merged[w]} vs {c}")
    return merged


class _Crossing:
    """A wall of a completion in progress: direction, orientation, label
    series, the label by t-degree, the label's power slices so far, its
    :func:`_wall_key` and the images of x and of y after it, by t-degree.
    Crossings keep the normal form of :class:`ScatteringDiagram`'s walls.

    Every power of the label lives only at t-degrees that are multiples of
    ``stride``, the gcd of the label's own t-degrees, so only those slices
    are computed and only image degrees a with stride | k - a are crossed.
    A power has no slice at 0 < n < ``low``, the label's lowest t-degree, so
    at order k only the image degrees a <= k - low are crossed.  Integral
    coefficients are ints, the others Fractions.  No :class:`Wall` is built.
    ``unchanged`` is the image the wall passes as it is: the one ``axis``
    prunes (see :func:`_pruned_axis`) when the wall is off its line, or None.
    """

    def __init__(self, direction: Vec, incoming: bool, label: TruncatedSeries, axis: Optional[int]):
        self.direction = direction
        self.incoming = incoming
        self.key = _wall_key(self)
        self.unchanged = axis if axis is not None and direction[axis] else None
        self.images: Tuple[Slices, Slices] = tuple([{base: 1}] for base in _BASES)
        # exponent e -> (degree computed through, nonzero t-degree slices of label^e)
        self.powers: Dict[int, Tuple[int, Dict[int, Dict[Vec, Coeff]]]] = {}
        self.relabel(label, label.order)

    def relabel(self, label: TruncatedSeries, k: int) -> None:
        """Take ``label``, which differs from the current label only from t^k
        on; the power slices below t^k carry over.  The stride is read off
        the new label: a term at t^k can shrink it."""
        self.label = label
        self.slices = _label_slices(label)
        self.stride = _stride(self.slices)
        self.low = min(self.slices, default=label.order)
        for e, (done, slices) in self.powers.items():
            slices.pop(k, None)
            self.powers[e] = (min(done, k - 1), slices)

    def power(self, e: int, n: int) -> Dict[Vec, Coeff]:
        """The t^n slice of label^e, n >= 1."""
        done, slices = self.powers.get(e, (0, {0: _UNIT}))
        if done < n:
            _power_slices(self.slices, e, slices, done + 1, n, self.stride)
            self.powers[e] = (n, slices)
        return slices.get(n, {})

    def advance(self, prev: Slices, k: int) -> Dict[Vec, Coeff]:
        """The t^k slice of the image of ``prev`` under this wall's crossing."""
        d0, d1 = self.direction
        out = dict(prev[k])
        for a in range(k % self.stride, k - self.low + 1, self.stride):
            for (v0, v1), c in prev[a].items():
                e = d0 * v1 - d1 * v0
                if not e:
                    continue
                for (u0, u1), g in self.power(e, k - a).items():
                    key = (v0 + u0, v1 + u1)
                    out[key] = out.get(key, 0) + c * g
        return {key: c for key, c in out.items() if c}


def ks_complete(
    diagram: ScatteringDiagram,
    term_cap: Optional[int] = 500_000,
) -> ScatteringDiagram:
    """Add outgoing walls order by order until the total monodromy is trivial.

    The walls are kept in the normal form of :class:`ScatteringDiagram`, each
    with the images of x and of y after it, stored by t-degree.  When the first coordinates
    of all label monomials are >= 0, or all are <= 0, the image of x is kept
    only at its offsets w from x with w1 = 0, the vertical line through x;
    otherwise, when the second coordinates share a sign, the image of y
    only on the horizontal line through y; otherwise both in full (see
    :func:`_pruned_axis`).  Offsets then never move back across the line,
    so the kept terms depend only on earlier kept terms and on the walls on
    the line: a wall off the line passes the pruned image through
    unchanged.  The other image reads every defect term off the line, the
    pruned one the rest (see :func:`_read_defect`).  At order k only the t^k
    slice of each image is computed, from the slices below it and the
    slices of the label powers the crossing needs (each power slice comes
    from J. C. P. Miller's recurrence).  A label's powers live only at
    multiples of its stride, the gcd of its t-degrees, and have no slice
    between t^0 and t^L, L the label's lowest t-degree, so at order k a
    crossing reads only the image degrees a <= k - L with stride | k - a.
    The defect is read off the image after the last wall: a term (w, c_w)
    with primitive part (p, j) becomes the factor 1 - j*c_w*t^k*z^w of the
    outgoing wall on the ray p, which cancels that term mod t^{k+1}; the
    label f takes it as f + f*(-j*c_w*t^k*z^w), a product with one
    monomial.  Such a factor changes nothing below t^k, so it only
    shifts the t^k slices of the images from its wall onward, the pruned
    image only for w on its line, and nothing below t^k is ever
    recomputed.  Incoming walls pass through unchanged.
    Inside the loop an integral coefficient is an int and any other a
    Fraction.  A wall is a :class:`_Crossing`, relabelled in place; each
    :class:`Wall` is built once, when the diagram (of Fractions) is returned.

    Raises ValueError for a ``term_cap`` that is not an integer >= 0; ``None``
    means no cap.
    Raises :class:`TermCapExceeded` when, after the walls of some order are
    added, the diagram (one merged label per ray and orientation) stores
    more than ``term_cap`` label terms.  The full-order total monodromy is
    recomputed at the end as a check, and :class:`ConventionError` is
    raised if it is not the identity; each wall there reads only the image
    degrees its label can reach.  The check picks its own line by
    :func:`_pruned_axis` from the completed diagram's walls, not from the
    loop's choice, and crosses the image it prunes only through the walls
    on that line, the other image through every wall.  This decides exactly
    what ``total_monodromy(diag) == (x, y)`` decides: the monodromy is
    exp(D) in the tropical vertex group, and if it fixes y, all of D lies
    on the vertical line, so the image of x is x times terms on that line
    (see :func:`_monodromy_is_trivial`).  Besides that rule, the check
    shares only the power recurrence :func:`_power_slices` with the loop
    above, and none of its power caches.  Tests pin it against series
    products and against :func:`total_monodromy` on perturbed diagrams, and
    whole completions against the slope-ordered factorization of the
    incoming walls' product.
    """
    if term_cap is not None:
        at_least(term_cap, 0, "term cap")
    K = diagram.order
    axis = _pruned_axis(diagram.walls)
    crossings = [_Crossing(w.direction, w.incoming, w.label, axis) for w in diagram.walls]
    # the images of x and of y before the first wall, by t-degree
    start: Tuple[Slices, Slices] = tuple([{base: 1}] for base in _BASES)
    one = TruncatedSeries.one(K)
    for k in range(1, K):
        for slices in start:
            slices.append({})
        before = start
        for crossing in crossings:
            for n, (prev, cur) in enumerate(zip(before, crossing.images)):
                cur.append(dict(prev[k]) if n == crossing.unchanged else crossing.advance(prev, k))
            before = crossing.images
        defect = _read_defect(k, *before)
        if not defect:
            continue
        factors: Dict[Vec, List[Tuple[Vec, Coeff]]] = {}
        for w, c in sorted(defect.items()):
            p, j = primitive_part(w)
            factors.setdefault(p, []).append((w, _exact(-j * c)))
        for p, terms in factors.items():
            new = _Crossing(p, False, one, axis)
            i = bisect.bisect_left(crossings, new.key, key=lambda cr: cr.key)
            if i == len(crossings) or crossings[i].key != new.key:
                prior = crossings[i - 1].images if i else start
                new.images = tuple(s[:k] + [dict(s[k])] for s in prior)
                crossings.insert(i, new)
            crossing = crossings[i]
            label = crossing.label
            for w, alpha in terms:
                label = label + label * TruncatedSeries.monomial(K, w, k, alpha)
            for n, base in enumerate(_BASES):
                e = wedge(p, base)
                if not e or n == crossing.unchanged:
                    continue
                for w, alpha in terms:
                    key = (base[0] + w[0], base[1] + w[1])
                    for later in crossings[i:]:
                        s = later.images[n][k]
                        s[key] = s.get(key, 0) + e * alpha
                        if not s[key]:
                            del s[key]
            if label == one:
                del crossings[i]
            else:
                crossing.relabel(label, k)
        total = sum(len(cr.label.terms) for cr in crossings)
        if term_cap is not None and total > term_cap:
            raise TermCapExceeded(
                f"diagram stores {total} terms (cap {term_cap}) after order {k} of {K}", k
            )
    walls = tuple(Wall(cr.direction, cr.incoming, cr.label) for cr in crossings)
    diag = ScatteringDiagram(K, walls)
    if not _monodromy_is_trivial(diag):
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
    primitive(m1, "m1")
    primitive(m2, "m2")
    if wedge(m1, m2) == 0:
        raise ValueError("lattice generators must not be colinear")

    M = ((m1[0], m2[0]), (m1[1], m2[1]))
    walls = []
    for w in diagram_std.walls:
        terms = {mat_apply(M, (a, b)) + (k,): c for (a, b, k), c in w.label.terms.items()}
        new_dir, _ = primitive_part(mat_apply(M, w.direction))
        walls.append(Wall(new_dir, w.incoming, TruncatedSeries(diagram_std.order, terms)))
    return ScatteringDiagram(diagram_std.order, tuple(walls))


def log_coefficient(diagram: ScatteringDiagram, direction: Vec) -> Fraction:
    """First-order coefficient of z^direction in log of the outgoing label on
    the ray, summed over all t-degrees (the t = 1 specialization is finite per
    monomial).

    Every label term above 1 sits on z^(j*direction) with j >= 1, so of the
    powers of g = label - 1 only g itself reaches z^direction: the value is
    the sum of the label's z^direction coefficients.
    """
    primitive(direction, "direction")
    min_deg = diagram.min_t_degree(direction)
    if min_deg is not None and min_deg >= diagram.order:
        raise TruncationTooLow(
            f"z^{direction} first appears at t^{min_deg}, beyond truncation {diagram.order}"
        )
    wall = diagram.wall_on_ray(direction)
    if wall is None:
        return Fraction(0)
    return sum((c for (a, b, _), c in wall.label.terms.items() if (a, b) == direction), Fraction(0))


def _lowest_terms(wall: Wall) -> List[Tuple[Tuple[int, int, int], Fraction]]:
    """The nontrivial label terms of least t-degree, ordered by the multiple j
    of the wall's monomial direction they sit on.  A graded diagram has one
    such term per wall; an ungraded one may have several."""
    nontrivial = [(key, c) for key, c in wall.label.terms.items() if key != (0, 0, 0)]
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
            for w in diagram.walls
        ],
    }


def _json_objects(value, field: str) -> list:
    """``value`` as the required list of JSON objects ``field``."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ValueError(f"field {field!r} must be a list of objects")
    return value


def diagram_from_json(data: dict) -> ScatteringDiagram:
    """The exact inverse of :func:`diagram_to_json`; keys it does not write are
    ignored, and a missing or malformed field raises ValueError."""
    order = read_int(data.get("K"), "K")
    walls = []
    for w in _json_objects(data.get("walls"), "walls"):
        if w.get("orientation") not in ("in", "out"):
            raise ValueError(f"wall orientation {w.get('orientation')!r} is not 'in' or 'out'")
        direction = w.get("dir")
        if not isinstance(direction, list) or len(direction) != 2:
            raise ValueError(f"wall dir {direction!r} is not a list of two integers")
        label = TruncatedSeries.from_records(order, _json_objects(w.get("label"), "label"))
        d = (read_int(direction[0], "dir"), read_int(direction[1], "dir"))
        walls.append(Wall(d, w["orientation"] == "in", label))
    return ScatteringDiagram(order, tuple(walls))


def diagram_to_svg(diagram: ScatteringDiagram, provenance: str) -> str:
    """Static SVG with unit-length rays annotated by their lowest-order terms.
    ``provenance``, the input echo, is required and goes in a comment."""
    size = 480
    center = size / 2
    scale = size * 0.42
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- truncation order: {diagram.order} -->",
        f"<!-- {provenance} -->",
        f'<circle cx="{center}" cy="{center}" r="2.5" fill="black"/>',
    ]
    for wall in diagram.walls:
        a, b = wall.direction
        # entries above 2^52 drop low bits, so that the squares fit a float
        shift = max(abs(a), abs(b)).bit_length() - 53
        if shift > 0:
            a, b = a >> shift, b >> shift
        norm = (a * a + b * b) ** 0.5
        ux, uy = a / norm, b / norm
        x2 = center + scale * ux
        y2 = center - scale * uy
        style = "stroke:#904050;stroke-dasharray:6 3" if wall.incoming else "stroke:#204080"
        lines.append(
            f'<line x1="{center:.2f}" y1="{center:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'style="{style};stroke-width:1.6"/>'
        )
        lowest = TruncatedSeries(diagram.order, dict(_lowest_terms(wall)))
        text = f"1 + {lowest.to_text()} + ..."
        tx = center + (scale + 14) * ux
        ty = center - (scale + 14) * uy
        lines.append(
            f'<text x="{tx:.2f}" y="{ty:.2f}" font-size="9" text-anchor="middle">{text}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
