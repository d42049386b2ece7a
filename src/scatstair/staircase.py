"""Four-dimensional ellipsoid-embedding numerics.

Weight sequences of rational aspect ratios, exceptional-class enumeration with
Cremona reduction, the sharp obstruction supremum, the infinite Fibonacci
staircase of the ball, its stabilized counterpart, and the folding upper bound
3a/(a+1).  Square roots are never evaluated: values on the volume branch are
returned as an exact :class:`SqrtValue` marker and compared by squaring.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ._record import Record
from .lattice import at_least, integers, primitive, rational


def fib(i: int) -> int:
    """Fibonacci numbers with fib(-1) = 1, fib(0) = 0."""
    at_least(i, -1, "index")
    a, b = 1, 0
    for _ in range(i + 1):
        a, b = b, a + b
    return a


def _fib_pair(n: int) -> Tuple[int, int]:
    """(fib(n), fib(n + 1)) for n >= 0 by fast doubling, one bit of n at a
    time: O(log n) products."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def fibonacci_step(k: int) -> Tuple[int, int, int]:
    """(fib(2k+1), fib(2k+3), fib(2k+5)) of step k >= -1."""
    at_least(k, -1, "step")
    f2, f3 = _fib_pair(2 * k + 2)
    f1 = f3 - f2
    return f1, f3, 3 * f3 - f1


def _step_of(n: int, d: int) -> Tuple[int, Tuple[int, int, int]]:
    """The first step k >= -1 with n/d <= inner_corner(k + 1), and its
    :func:`fibonacci_step` triple, for positive n/d < tau^4.

    The gap n^2 - 7nd + d^2 = d^2 (n/d - tau^4)(n/d - 1/tau^4) is a nonzero
    integer, and tau^4 - n/d shrinks by a factor of about tau^4 per step, so
    the bit lengths of the gap and of d estimate k, with 2777/1000 for
    log2 tau^4 (within two steps on every point measured).  From there it
    walks down by f1' = 3 f1 - f3 and up by f5' = 3 f5 - f3 on the exact
    corner tests, so the answer is exact whatever the estimate.
    """
    gap = abs(n * n - 7 * n * d + d * d)
    k = max(-1, (2 * d.bit_length() - gap.bit_length()) * 1000 // 2777 + 2)
    f1, f3, f5 = fibonacci_step(k)
    while k > -1 and n * f1 * f1 <= f3 * f3 * d:  # a <= inner_corner(k)
        k, f1, f3, f5 = k - 1, 3 * f1 - f3, f1, f3
    while n * f3 * f3 > f5 * f5 * d:  # a > inner_corner(k + 1)
        k, f1, f3, f5 = k + 1, f3, f5, 3 * f5 - f3
    return k, (f1, f3, f5)


def fibonacci_outer_index(p: int, q: int) -> Optional[int]:
    """k >= -1 with (p, q) = (fib(2k+5), fib(2k+1)), or None.  Every outer
    corner lies in (1, tau^4), and outer_corner(k) in step k of :func:`_step_of`."""
    integers(p, q)
    if q < 1 or p <= q or _above_tau4(p, q):
        return None
    k, (f1, _, f5) = _step_of(p, q)
    return k if (f5, f1) == (p, q) else None


class WeightSequence(Record):
    """Nonincreasing square side-lengths tiling a 1 x (p/q) box."""

    __slots__ = ("target", "weights", "multiplicities")
    target: Fraction
    weights: Tuple[Fraction, ...]
    multiplicities: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.weights)

    def square_sum(self) -> Fraction:
        return sum((w * w for w in self.weights), Fraction(0))


def weight_sequence(p: int, q: int) -> WeightSequence:
    """Weight sequence of a = p/q > 1 via the Euclidean algorithm on (p, q).

    The multiplicities of the distinct weights are the continued-fraction
    coefficients of a, the weights are nonincreasing, start at 1, and their
    squares sum to a.
    """
    at_least(q, 1, "q")
    at_least(p, q + 1, "p")
    primitive((p, q), "(p, q)")
    weights: List[Fraction] = []
    mults: List[int] = []
    num, den = p, q
    while den > 0:
        m, r = divmod(num, den)
        weights.extend([Fraction(den, q)] * m)
        mults.append(m)
        num, den = den, r
    return WeightSequence(Fraction(p, q), tuple(weights), tuple(mults))


# ---------------------------------------------------------------------------
# exceptional classes


class ExceptionalClass(Record):
    """Degree and nonincreasing multiplicities of a (-1)-sphere class."""

    __slots__ = ("degree", "multiplicities")
    degree: int
    multiplicities: Tuple[int, ...]

    def chern(self) -> int:
        return 3 * self.degree - sum(self.multiplicities)

    def self_intersection(self) -> int:
        return self.degree ** 2 - sum(m * m for m in self.multiplicities)


def cremona_reduces(degree: int, multiplicities: Sequence[int]) -> bool:
    """Iterated standard Cremona moves terminate at (0; -1)."""
    d = degree
    ms = sorted((m for m in multiplicities if m != 0), reverse=True)
    while True:
        if d == 0:
            return ms == [-1]
        if d < 0:
            return False
        top = (ms + [0, 0, 0])[:3]
        c = d - sum(top)
        if c >= 0:
            return False
        d += c
        ms = sorted([m + c for m in top] + ms[3:], reverse=True)
        ms = [m for m in ms if m != 0]


def is_exceptional_class(cls: ExceptionalClass) -> bool:
    """Numerical conditions d^2 - sum m^2 = -1, 3d - sum m = 1, plus Cremona reduction."""
    if cls.self_intersection() != -1 or cls.chern() != 1:
        return False
    if any(m < 0 for m in cls.multiplicities):
        return False
    return cremona_reduces(cls.degree, cls.multiplicities)


def _search(
    degree: int, max_length: int, weights: Sequence[int] = (), floor: Optional[Fraction] = None
) -> Iterator[Tuple[ExceptionalClass, int]]:
    """Valid classes of ``degree`` with at most ``max_length`` positive
    multiplicities, each with its total sum m_i * weights[i] (missing weights
    count as 0), by pruned search over nonincreasing tuples in descending
    lexicographic order.

    Each entry m must leave a remaining sum and square sum that positive
    entries, none above m, can reach in the slots left.  Given ``floor``, the
    weights must be nonincreasing and the search yields only classes whose
    total exceeds the floor, raising it to each total it yields.  With
    W_i = weights[i], a subtree at slot i with prefix total ``acc`` and
    remaining sum ``rs`` and square sum ``rq`` is cut when acc + rs * W_i
    cannot exceed the floor, or when by Cauchy-Schwarz
    acc + sqrt(rq * sum_{j >= i} W_j^2) cannot; the second is compared by
    squaring.
    """
    target_sum = 3 * degree - 1
    slots = min(max_length, target_sum)  # every entry is at least 1
    if slots < 1:  # also every degree < 1
        return
    w = list(weights[:slots]) + [0] * (slots - len(weights))
    tail_sq = [0] * (slots + 1)  # tail_sq[i] = sum of w_j^2 for j >= i
    for i in range(slots - 1, -1, -1):
        tail_sq[i] = tail_sq[i + 1] + w[i] * w[i]
    # the floor as num/den, so every comparison is between integers
    lim = None if floor is None else [floor.numerator, floor.denominator]
    prefix: List[int] = []

    def recurse(acc: int, rs: int, rq: int, bound: int):
        i = len(prefix)
        if rs == 0:
            if rq == 0 and (lim is None or acc * lim[1] > lim[0]) and cremona_reduces(degree, prefix):
                if lim is not None:
                    lim[:] = [acc, 1]
                yield ExceptionalClass(degree, tuple(prefix)), acc
            return
        if lim is not None:
            num, den = lim
            if (acc + rs * w[i]) * den <= num:
                return
            gap = num - acc * den
            if gap > 0 and rq * tail_sq[i] * den * den <= gap * gap:
                return
        # The entries from slot i on are positive and at most m, so m <= bound,
        # m <= rs, m^2 - m <= rq - rs, m * (slots - i) >= rs and m * rs >= rq.
        # These keep rq >= rs at every node and use up rs by the last slot.
        top = min(bound, rs, (1 + math.isqrt(1 + 4 * (rq - rs))) // 2)
        for m in range(top, max(-(-rs // (slots - i)), -(-rq // rs)) - 1, -1):
            prefix.append(m)
            yield from recurse(acc + m * w[i], rs - m, rq - m * m, m)
            prefix.pop()

    yield from recurse(0, target_sum, degree * degree + 1, degree)


def enumerate_exceptional_classes(degree: int, max_length: int) -> Iterator[ExceptionalClass]:
    """All valid classes of the given degree with at most ``max_length`` positive
    multiplicities, by pruned search over nonincreasing tuples."""
    integers(degree, max_length)
    return (cls for cls, _ in _search(degree, max_length))


def obstruction_sup(
    p: int, q: int, d_max: int
) -> Tuple[Fraction, Optional[ExceptionalClass]]:
    """Largest (sum m_i w_i)/d over valid classes of degree <= d_max, with the
    weights of p/q padded or truncated to the class length; returns the
    achieving class (None when no class exists).

    Degrees are searched in increasing order and the classes of one degree in
    the order of ``enumerate_exceptional_classes``; the first class to reach
    the maximum certifies it.  The search is branch-and-bound over the
    integer weights W_i = w_i * q: a subtree is cut when no class in it can
    exceed the best ratio found so far (see ``_search``), and only the
    classes that would raise it are tested by Cremona reduction.
    """
    at_least(d_max, 1, "d_max")
    wt = weight_sequence(p, q)
    scaled = [int(w * q) for w in wt.weights]
    best = Fraction(0)
    best_cls: Optional[ExceptionalClass] = None
    for d in range(1, d_max + 1):
        for cls, total in _search(d, len(scaled), scaled, best * q * d):
            best, best_cls = Fraction(total, q * d), cls
    return best, best_cls


# ---------------------------------------------------------------------------
# the staircase and its stabilization


@functools.total_ordering
class SqrtValue(Record):
    """Exact marker for the square root of a nonnegative rational number.

    It compares and hashes like the real number it stands for: with ``int``,
    ``Fraction``, ``float`` and other markers, by a sign test and squaring.
    """

    __slots__ = ("radicand",)
    radicand: Fraction

    def __post_init__(self) -> None:
        if rational(self.radicand) < 0:
            raise ValueError("radicand must be nonnegative")

    def _sign_minus(self, other) -> Optional[int]:
        """The sign of sqrt(radicand) - other, or None when other is not a number."""
        if isinstance(other, SqrtValue):
            x = other.radicand
        elif isinstance(other, (int, Fraction, float)) and other == other:  # not nan
            if other < 0 or other == math.inf:
                return 1 if other < 0 else -1
            x = Fraction(other) ** 2
        else:
            return None
        return (self.radicand > x) - (self.radicand < x)

    def __eq__(self, other):
        sign = self._sign_minus(other)
        return NotImplemented if sign is None else sign == 0

    def __lt__(self, other):
        sign = self._sign_minus(other)
        return NotImplemented if sign is None else sign < 0

    def __hash__(self):
        root = _rational_sqrt(self.radicand)
        return hash(root if root is not None else ("sqrt", self.radicand))

    def __str__(self):
        root = _rational_sqrt(self.radicand)
        return str(root) if root is not None else f"sqrt({self.radicand})"


class Unspecified:
    """Sentinel for the transitional window where no closed form is implemented."""

    def __repr__(self):
        return "Unspecified"

    def __str__(self):
        return "unspecified"

    def __reduce__(self):
        return "UNSPECIFIED"


UNSPECIFIED = Unspecified()

StaircaseValue = Union[Fraction, SqrtValue, Unspecified]
_Row = Tuple[Fraction, StaircaseValue, Fraction, Fraction]

# Transitional window of the ball embedding function.
WINDOW_LOW = Fraction(7)
WINDOW_HIGH = Fraction(7) + Fraction(1) + Fraction(1, 36)  # 8 + 1/36


def exceeds_tau4(p: int, q: int) -> bool:
    """Exact test p/q > tau^4, via the larger root of x^2 - 7x + 1."""
    at_least(p, 1, "p")
    at_least(q, 1, "q")
    return _above_tau4(p, q)


def _above_tau4(n: int, d: int) -> bool:
    """n/d > tau^4 for positive n and d."""
    return n * n + d * d - 7 * n * d > 0 and 2 * n > 7 * d


def _rational_sqrt(a: Fraction) -> Optional[Fraction]:
    rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
    if rn * rn == a.numerator and rd * rd == a.denominator:
        return Fraction(rn, rd)
    return None


def outer_corner(k: int) -> Fraction:
    """x-value fib(2k+5)/fib(2k+1) of the k-th outer staircase corner, k >= -1."""
    f1, _, f5 = fibonacci_step(k)
    return Fraction(f5, f1)


def inner_corner(k: int) -> Fraction:
    """x-value fib(2k+3)^2/fib(2k+1)^2 of the k-th inner staircase corner."""
    f1, f3, _ = fibonacci_step(k)
    return Fraction(f3 * f3, f1 * f1)


def step_height(k: int) -> Fraction:
    """Constant value fib(2k+5)/fib(2k+3) of the k-th staircase step."""
    _, f3, f5 = fibonacci_step(k)
    return Fraction(f5, f3)


def _aspect(a: Fraction) -> Tuple[Fraction, int, int]:
    """a as a Fraction with its numerator and denominator; a must be >= 1."""
    a = rational(a)
    if a < 1:
        raise ValueError("aspect ratio must be >= 1")
    return a, a.numerator, a.denominator


def ball_embedding_value(a: Fraction) -> StaircaseValue:
    """The ellipsoid-into-ball embedding function of the four-ball at aspect a.

    Piecewise on [1, tau^4]: linear a * fib(2k+1)/fib(2k+3) on
    [inner_corner(k), outer_corner(k)] and constant step_height(k) up to the
    next inner corner; (a + 1)/3 on [tau^4, 7]; the volume bound sqrt(a) from
    8 + 1/36 on; unspecified in between.  Below tau^4 the value comes from the
    Fibonacci numbers of a's own step k (see :func:`_step_of`), which cost
    O(log k) products and are kept nowhere.
    """
    a, n, d = _aspect(a)
    if _above_tau4(n, d):
        return _ball_beyond_tau4(a)
    return _ball_below_tau4(n, d)


def _ball_below_tau4(n: int, d: int) -> Fraction:
    """The ball value at a = n/d in [1, tau^4), n and d positive, from the
    Fibonacci numbers of a's step, found by :func:`_step_of`."""
    _, (f1, f3, f5) = _step_of(n, d)
    if n * f1 <= f5 * d:  # a <= outer_corner(k)
        return Fraction(n * f1, d * f3)
    return Fraction(f5, f3)


def _ball_beyond_tau4(a: Fraction) -> StaircaseValue:
    """The ball value at a > tau^4."""
    if a <= WINDOW_LOW:
        return (a + 1) / 3
    if a < WINDOW_HIGH:
        return UNSPECIFIED
    root = _rational_sqrt(a)
    return root if root is not None else SqrtValue(a)


def stabilized_value(a: Fraction) -> Fraction:
    """Stabilized embedding value: the staircase below tau^4, else 3a/(a+1).

    It does not depend on the number of stabilizing factors."""
    a, n, d = _aspect(a)
    if _above_tau4(n, d):
        return folding_bound(a)
    return _ball_below_tau4(n, d)


def folding_bound(a: Fraction) -> Fraction:
    """The folding upper bound 3a/(a+1) for the stabilized problem."""
    _, n, d = _aspect(a)
    return Fraction(3 * n, n + d)


def volume_bound(a: Fraction) -> SqrtValue:
    """The volume lower bound sqrt(a) of the ball embedding function."""
    return SqrtValue(_aspect(a)[0])


def staircase_row(a: Fraction) -> _Row:
    """(a, ball value, stabilized value, folding bound) at aspect a, from one
    tau^4 sign test and at most one step search."""
    return _row(_aspect(a)[0])


def _row(a: Fraction) -> _Row:
    n, d = a.numerator, a.denominator
    fold = Fraction(3 * n, n + d)
    if _above_tau4(n, d):
        return a, _ball_beyond_tau4(a), fold, fold
    ball = _ball_below_tau4(n, d)  # the stabilized value too
    return a, ball, ball, fold


# ---------------------------------------------------------------------------
# sampling and plots


def staircase_samples(lo: Fraction, hi: Fraction, count: int) -> List[_Row]:
    """:func:`staircase_row` rows at ``count`` evenly spaced points from lo to
    hi: row i is at (lo (count - 1) + i (hi - lo)) / (count - 1), one integer
    numerator over the common denominator of lo, hi and count - 1."""
    lo, hi = rational(lo), rational(hi)
    at_least(count, 2, "count")
    if hi <= lo:
        raise ValueError(f"hi = {hi} must be above lo = {lo}")
    _aspect(lo)
    span = count - 1
    den = math.lcm(lo.denominator, hi.denominator)
    lo_num = lo.numerator * (den // lo.denominator)
    hi_num = hi.numerator * (den // hi.denominator)
    return [_row(Fraction(lo_num * span + i * (hi_num - lo_num), den * span)) for i in range(count)]


def samples_to_csv(rows) -> str:
    lines = ["a,ball,stabilized,folding"]
    for a, ball, stab, fold in rows:
        lines.append(f"{a},{ball},{stab},{fold}")
    return "\n".join(lines) + "\n"


def samples_to_json(rows) -> List[dict]:
    """JSON-ready records of ``staircase_samples`` rows."""
    return [
        {
            "a": str(a),
            "ball": str(ball),
            "stabilized": str(stab),
            "folding": str(fold),
        }
        for a, ball, stab, fold in rows
    ]


def _plot_y(v: StaircaseValue) -> Optional[float]:
    if isinstance(v, Unspecified):
        return None
    if isinstance(v, SqrtValue):
        return float(v.radicand) ** 0.5
    return float(v)


def staircase_svg(rows, provenance: str) -> str:
    """Static SVG of ``staircase_samples`` rows: the ball staircase and the
    folding curve, with the outer and inner corners in range marked.
    ``provenance``, the input echo, is required and goes in a comment."""
    lo, hi, count = rows[0][0], rows[-1][0], len(rows)
    if hi > sys.float_info.max:
        raise ValueError(f"range end {hi} is beyond the largest float and cannot be plotted")
    if float(lo) == float(hi):
        raise ValueError(f"range [{lo}, {hi}] is too narrow to plot: its ends round to one float")
    width, height = 640, 420
    pad = 40.0
    xs = [float(a) for a, *_ in rows]
    ys = [y for _, ball, stab, fold in rows for y in (_plot_y(ball), float(fold)) if y is not None]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys) - 0.1, max(ys) + 0.1

    def px(x: float) -> float:
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y: float) -> float:
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- range: [{lo}, {hi}] samples: {count} -->",
        f"<!-- {provenance} -->",
    ]
    stair_pts = [
        f"{px(float(a)):.2f},{py(_plot_y(ball)):.2f}"
        for a, ball, _, _ in rows
        if _plot_y(ball) is not None
    ]
    fold_pts = [f"{px(float(a)):.2f},{py(float(h)):.2f}" for a, _, _, h in rows]
    out.append(
        f'<polyline fill="none" stroke="#204080" stroke-width="1.6" points="{" ".join(stair_pts)}"/>'
    )
    out.append(
        f'<polyline fill="none" stroke="#a04040" stroke-width="1.2" '
        f'stroke-dasharray="5 3" points="{" ".join(fold_pts)}"/>'
    )
    # corners accumulate below tau^4, so cap the index once they are closer
    # together than any plausible plot resolution
    for k in range(-1, 25):
        ak = outer_corner(k)
        if ak > hi:
            break
        if ak >= lo:
            out.append(
                f'<circle cx="{px(float(ak)):.2f}" cy="{py(float(step_height(k))):.2f}" '
                f'r="3" fill="#204080"/>'
            )
        gk = inner_corner(k + 1)
        if lo <= gk <= hi:
            out.append(
                f'<circle cx="{px(float(gk)):.2f}" cy="{py(float(step_height(k))):.2f}" '
                f'r="3" fill="none" stroke="#204080"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
