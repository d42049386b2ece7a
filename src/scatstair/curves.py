"""Numerics of plane curves with one distinguished (p, q) cusp: index and
double-point counts, the Diophantine classification of index-zero parameter
pairs, the cusp-parameter symmetries, the bound a cuspidal curve puts on the
stabilized embedding function, the degeneration inequality, and the
scattering cross-check pipeline.

Everything is exact; the golden-ratio threshold tau^4 = (7 + 3*sqrt(5))/2 is
only ever used through the sign of the quadratic x^2 - 7x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ._record import Record
from .lattice import (
    Vec, at_least, is_primitive, mat_apply, nonzero_nonnegative, primitive, primitive_part,
    rational,
)
from .staircase import exceeds_tau4, fibonacci_outer_index, fibonacci_step

# Lattice generators of the reference model; the cross-check transports the
# standard-lattice computation along them, by the matrix M with columns M1, M2.
M1: Vec = (-1, -3)
M2: Vec = (1, 0)
M = ((M1[0], M2[0]), (M1[1], M2[1]))


def curve_index(d: int, p: int, q: int) -> int:
    """Expected real dimension 2*(3d - p - q) of the constrained moduli space."""
    at_least(d, 1, "d")
    at_least(p, 1, "p")
    at_least(q, 1, "q")
    return 2 * (3 * d - p - q)


def double_point_count(d: int, p: int, q: int) -> Fraction:
    """((d-1)(d-2) - (p-1)(q-1)) / 2 for a rational plane curve of degree d.

    Realizable parameters require a nonnegative integer; the caller interprets
    anything else as non-realizability.
    """
    at_least(d, 1, "d")
    at_least(p, 1, "p")
    at_least(q, 1, "q")
    return Fraction((d - 1) * (d - 2) - (p - 1) * (q - 1), 2)


def unicuspidal_families(d_max: int) -> List[Tuple[str, int, int, int]]:
    """All members (tag, d, p, q) of the six classified families with d <= d_max."""
    at_least(d_max, 3, "d_max")
    out: List[Tuple[str, int, int, int]] = []
    for d in range(3, d_max + 1):
        out.append(("a", d, d, d - 1))
    for d in range(4, d_max + 1, 2):
        out.append(("b", d, 2 * d - 1, d // 2))
    # the steps k >= 1 with fib(2k+3) <= d_max, which hold both walks
    steps = []
    while (step := fibonacci_step(len(steps) + 1))[1] <= d_max:
        steps.append(step)
    for f1, f3, _ in steps:
        if f3 * f1 > d_max:
            break
        out.append(("c", f3 * f1, f3 * f3, f1 * f1))
    for f1, f3, f5 in steps:
        out.append(("d", f3, f5, f1))
    if d_max >= 8:
        out.append(("e", 8, 22, 3))
    if d_max >= 16:
        out.append(("f", 16, 43, 6))
    return out


def diophantine_value(p: int, q: int) -> int:
    """p^2 + q^2 - 7pq + 9; nonnegative exactly on realizable coprime parameters."""
    at_least(p, 1, "p")
    at_least(q, 1, "q")
    return p * p + q * q - 7 * p * q + 9


FIBONACCI_OUTER = "fibonacci_outer"
SUPERCRITICAL = "supercritical"
NOT_REALIZABLE = "not_realizable"


@dataclass(frozen=True)
class Classification:
    p: int
    q: int
    verdict: str
    fibonacci_index: Optional[int]

    @property
    def diophantine(self) -> int:
        return diophantine_value(self.p, self.q)

    @property
    def divisible_by_three(self) -> bool:
        return (self.p + self.q) % 3 == 0

    def realizable(self) -> bool:
        return self.verdict != NOT_REALIZABLE

    def verdict_text(self) -> str:
        """The verdict, followed by ``(k=i)`` for the pair of staircase step i."""
        k = self.fibonacci_index
        return self.verdict if k is None else f"{self.verdict}(k={k})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "verdict": self.verdict,
            "fibonacci_index": self.fibonacci_index,
            "diophantine": self.diophantine,
            "divisible_by_three": self.divisible_by_three,
            "coprime": True,  # classify_pair refuses every other pair
        }


def classify_pair(p: int, q: int) -> Classification:
    """Realizability verdict for a coprime pair p >= q >= 1.

    The divisibility of p + q by 3 is reported but not enforced: the verdict
    follows the ratio test alone.
    """
    at_least(q, 1, "q")
    at_least(p, q, "p")
    primitive((p, q), "(p, q)")
    k = fibonacci_outer_index(p, q)
    if k is not None:
        verdict = FIBONACCI_OUTER
    elif exceeds_tau4(p, q):
        verdict = SUPERCRITICAL
    else:
        verdict = NOT_REALIZABLE
    return Classification(p, q, verdict, k)


# ---------------------------------------------------------------------------
# cusp-parameter symmetries


def phi_map(p: int, q: int) -> Tuple[int, int]:
    """First mutation symmetry on cusp parameters; an involution.

    A single zero coordinate is allowed: the boundary classes (p, 0) are the
    smooth-point tangency data and the maps exchange them with honest pairs.
    """
    nonzero_nonnegative((p, q), "(p, q)")
    if 7 * p >= q:
        return (p, 7 * p - q)
    r = q - 7 * p
    return (r, p + 7 * r)


def psi_map(p: int, q: int) -> Tuple[int, int]:
    """Second mutation symmetry on cusp parameters; an involution."""
    nonzero_nonnegative((p, q), "(p, q)")
    if p >= 7 * q:
        return (q + 7 * (p - 7 * q), p - 7 * q)
    return (7 * q - p, q)


def shift_s(x: Fraction) -> Fraction:
    """The shift symmetry S(x) = 7 - 1/x of the realizable ratio set."""
    x = rational(x)
    if x == 0:
        raise ValueError("S has a pole at 0")
    return 7 - 1 / x


def reflect_r(x: Fraction) -> Fraction:
    """The reflection symmetry R(x) = 7 + 1/(x - 7); an involution fixing 8."""
    x = rational(x)
    if x == 7:
        raise ValueError("R has a pole at 7")
    return 7 + 1 / (x - 7)


def shift_decomposition_index(x: Fraction) -> int:
    """The unique i >= 0 with x in S^i([7, oo)), for rational x > tau^4.

    Computed by iterating the inverse shift x -> 1/(7 - x) until reaching
    [7, oo); terminates for every rational above the fixed point.
    """
    x = rational(x)
    if not (x > 0 and exceeds_tau4(x.numerator, x.denominator)):
        raise ValueError(f"{x} is not above tau^4")
    i = 0
    while x < 7:
        x = 1 / (7 - x)
        i += 1
    return i


# ---------------------------------------------------------------------------
# the curve bound and the degeneration inequality


def curve_obstruction(p: int, q: int, a: Fraction) -> Fraction:
    """The lower bound 3*min(p, q*a)/(p + q) that a rational curve of degree
    (p + q)/3 with one (p, q) cusp puts on the stabilized embedding function
    at aspect a."""
    at_least(p, 1, "p")
    at_least(q, 1, "q")
    a = rational(a)
    if a <= 0:
        raise ValueError(f"a must be a positive rational, not {a}")
    return Fraction(3 * min(p, q * a), p + q)


def degeneration_admissible(
    target: Tuple[int, int], parts: Sequence[Tuple[int, int]]
) -> Tuple[bool, Optional[Vec]]:
    """Exact check of sum_i min(a1*p_i, a2*q_i) >= min(a1*p, a2*q) for all a > 0.

    Normalizing a = (1, s), the difference is piecewise linear in s, so it
    suffices to test the two asymptotic slopes and every breakpoint
    s in {p_i/q_i} u {p/q}.  Returns (admissible, witness): on failure the
    witness is a primitive integer vector a with the inequality violated.
    """
    p, q = target
    at_least(p, 1, "target p")
    at_least(q, 1, "target q")
    if not parts:
        raise ValueError("need a nonempty parts list")
    for pi, qi in parts:
        at_least(pi, 1, "part p")
        at_least(qi, 1, "part q")

    def deficit(s: Fraction) -> Fraction:
        total = sum(min(Fraction(pi), s * qi) for pi, qi in parts)
        return total - min(Fraction(p), s * q)

    # Below every breakpoint the deficit is s * (sum q_i - q), above them all
    # sum p_i - p, so one point on each side decides the asymptotic slopes.
    breakpoints = sorted({Fraction(pi, qi) for pi, qi in parts} | {Fraction(p, q)})
    for s in [breakpoints[0] / 2, breakpoints[-1] * 2] + breakpoints:
        if deficit(s) < 0:
            return (False, (s.denominator, s.numerator))
    return (True, None)


# ---------------------------------------------------------------------------
# the scattering cross-check
#
# Dictionary between coprime cusp pairs and standard-lattice scattering rays.
# A coprime pair (p, q) with p >= q corresponds to the monomial
# z^w, w = (-(p+q)/3, q - 2p), in the diagram seeded along M1, M2; pulled back
# to the standard lattice this is the ray (a, b) = ((2p-q)/3, (p-2q)/3), and
# the mirror order (q, p) lands on the swapped ray (b, a).  The map is fixed
# by three facts checked in the test suite: the two seed rays carry the basic
# exceptional pairs (2, 1) and (1, 2); integrality holds exactly when
# 3 | (p + q); and the staircase pairs (fib(2k+5), fib(2k+1)) land on the
# discrete Fibonacci fan of the completed diagram.  A pair is detected when
# the log of the consolidated label on its ray has a nonzero z^(a,b)
# coefficient, and detectable at truncation K once a + b = p - q < K.


def pair_to_ray(p: int, q: int) -> Optional[Vec]:
    """Standard-lattice ray detecting the sorted coprime pair (p, q), or None
    when the pair is invisible to this lattice (3 does not divide p + q)."""
    at_least(q, 1, "q")
    at_least(p, q, "p")
    primitive((p, q), "(p, q)")
    if (p + q) % 3:
        return None
    a, b = (2 * p - q) // 3, (p - 2 * q) // 3
    if b < 0:
        return None
    return (a, b)


def ray_to_pair(a: int, b: int) -> Optional[Tuple[int, int]]:
    """Sorted coprime pair carried by the standard ray (a, b), or None.

    Rays with slope strictly between 1/2 and 2 carry no coprime pair, and
    rays whose nominal pair is non-coprime (3 | a + b) carry only multiple
    data; both give None.
    """
    nonzero_nonnegative((a, b), "(a, b)")
    if not is_primitive((a, b)):
        return None
    if a >= 2 * b:
        p, q = 2 * a - b, a - 2 * b
    elif b >= 2 * a:
        p, q = 2 * b - a, b - 2 * a
    else:
        return None
    if q < 1 or not is_primitive((p, q)):
        return None
    return (p, q)


class CrossCheckRow(Record):
    __slots__ = ("p", "q", "rays", "log_coefficient", "classification")
    p: int
    q: int
    rays: Tuple[Vec, ...]
    log_coefficient: Fraction
    classification: Classification

    @property
    def detected(self) -> bool:
        """Whether a wall carries the pair: its log coefficient is nonzero."""
        return self.log_coefficient != 0

    @property
    def grade(self) -> int:
        """a + b of each ray (a, b) of the pair, which is p - q."""
        return self.p - self.q

    @property
    def native_rays(self) -> Tuple[Vec, ...]:
        """The rays transported along (M1, M2)."""
        return tuple(primitive_part(mat_apply(M, r))[0] for r in self.rays)

    def consistent(self) -> bool:
        return self.detected == self.classification.realizable()


class CrossCheckReport(Record):
    __slots__ = ("order", "rows", "native_spectrum")
    order: int
    rows: Tuple[CrossCheckRow, ...]
    native_spectrum: Tuple[Tuple[Vec, int, Fraction], ...]

    @property
    def agreement(self) -> bool:
        """Whether every row's detection matches its verdict."""
        return all(r.consistent() for r in self.rows)

    def reachable_pairs(self) -> List[Tuple[int, int]]:
        return sorted((r.p, r.q) for r in self.rows)

    def detected_pairs(self) -> List[Tuple[int, int]]:
        return sorted((r.p, r.q) for r in self.rows if r.detected)

    def expected_pairs(self) -> List[Tuple[int, int]]:
        return sorted((r.p, r.q) for r in self.rows if r.classification.realizable())

    def mismatches(self) -> List[Tuple[int, int]]:
        return sorted((r.p, r.q) for r in self.rows if not r.consistent())

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "agreement": self.agreement,
            "reachable": [list(p) for p in self.reachable_pairs()],
            "detected": [list(p) for p in self.detected_pairs()],
            "expected": [list(p) for p in self.expected_pairs()],
            "mismatches": [list(p) for p in self.mismatches()],
            "rows": [
                {
                    "p": r.p,
                    "q": r.q,
                    "rays": [list(v) for v in r.rays],
                    "native_rays": [list(v) for v in r.native_rays],
                    "grade": r.grade,
                    "detected": r.detected,
                    "log_coefficient": str(r.log_coefficient),
                    "classification": r.classification.to_json(),
                }
                for r in self.rows
            ],
            "native_spectrum": [
                {"dir": list(d), "order": o, "coeff": str(c)}
                for d, o, c in self.native_spectrum
            ],
        }

    def to_table(self) -> str:
        lines = [
            f"cross-check at truncation order {self.order}",
            f"{'pair':>10}  {'ray':>8}  {'grade':>5}  {'coeff':>8}  {'detected':>8}  verdict",
        ]
        for r in sorted(self.rows, key=lambda r: (r.grade, r.p, r.q)):
            ray = f"({r.rays[0][0]},{r.rays[0][1]})"
            mark = "" if r.consistent() else "   <-- MISMATCH"
            lines.append(
                f"({r.p:>3},{r.q:>3})  {ray:>8}  {r.grade:>5}  {str(r.log_coefficient):>8}  "
                f"{str(r.detected):>8}  {r.classification.verdict_text()}{mark}"
            )
        lines.append(f"agreement: {self.agreement}")
        return "\n".join(lines) + "\n"


def scattering_cross_check(
    order: int,
    term_cap: Optional[int] = 500_000,
    classifier: Callable[[int, int], Classification] = classify_pair,
) -> CrossCheckReport:
    """Cross-verify the Diophantine classification against wall detection.

    Completes the thrice-weighted standard seed diagram at the given order,
    transports it along (M1, M2), and compares, over every coprime pair
    reachable below the truncation, scattering detection against the
    classifier's verdict.
    """
    at_least(order, 3, "order")
    # imported here, so that the rest of the curve layer loads without it
    from .scattering import (
        ConventionError,
        change_of_lattice,
        initial_diagram,
        ks_complete,
        log_coefficient,
        ray_spectrum,
    )

    diagram = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], order), term_cap)
    native = change_of_lattice(diagram, M1, M2)

    by_pair: Dict[Tuple[int, int], List[Vec]] = {}
    for s in range(1, order):
        for a in range(0, s + 1):
            b = s - a
            pair = ray_to_pair(a, b)
            if pair is None:
                continue
            by_pair.setdefault(pair, []).append((a, b))

    rows = []
    for (p, q), rays in sorted(by_pair.items()):
        coeffs = [log_coefficient(diagram, ray) for ray in rays]
        if len(set(coeffs)) > 1:
            raise ConventionError(f"mirror rays of pair ({p},{q}) disagree: {coeffs}")
        rows.append(CrossCheckRow(p, q, tuple(rays), coeffs[0], classifier(p, q)))
    return CrossCheckReport(order, tuple(rows), tuple(ray_spectrum(native)))
