"""Weight sequences, exceptional classes, and the embedding staircase."""

import copy
import json
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from scatstair import staircase
from scatstair.staircase import (
    ExceptionalClass,
    SqrtValue,
    UNSPECIFIED,
    WINDOW_HIGH,
    ball_embedding_value,
    cremona_reduces,
    enumerate_exceptional_classes,
    exceeds_tau4,
    fib,
    fibonacci_outer_index,
    folding_bound,
    inner_corner,
    is_exceptional_class,
    obstruction_sup,
    outer_corner,
    stabilized_value,
    staircase_samples,
    samples_to_csv,
    staircase_svg,
    step_height,
    weight_sequence,
)


def test_fib_values():
    assert fib(-1) == 1
    assert fib(0) == 0
    assert [fib(i) for i in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(ValueError):
        fib(-2)


# ---------------------------------------------------------------------------
# weight sequences


def test_weight_sequence_17_5():
    wt = weight_sequence(17, 5)
    assert wt.weights == (
        Fraction(1), Fraction(1), Fraction(1),
        Fraction(2, 5), Fraction(2, 5),
        Fraction(1, 5), Fraction(1, 5),
    )
    assert wt.multiplicities == (3, 2, 2)  # continued fraction of 17/5
    assert wt.square_sum() == Fraction(17, 5)
    assert len(wt) == 7


def test_weight_sequence_simple():
    assert weight_sequence(2, 1).weights == (Fraction(1), Fraction(1))
    assert weight_sequence(5, 1).weights == (Fraction(1),) * 5


def test_weight_sequence_preconditions():
    with pytest.raises(ValueError):
        weight_sequence(1, 1)
    with pytest.raises(ValueError):
        weight_sequence(4, 2)


def test_weight_sequence_random_invariants():
    rng = random.Random(2718)
    done = 0
    while done < 200:
        p, q = rng.randint(2, 400), rng.randint(1, 200)
        if p <= q or math.gcd(p, q) != 1:
            continue
        done += 1
        wt = weight_sequence(p, q)
        assert wt.square_sum() == Fraction(p, q)
        assert wt.weights[0] == 1
        assert all(w1 >= w2 for w1, w2 in zip(wt.weights, wt.weights[1:]))


# ---------------------------------------------------------------------------
# exceptional classes


def test_basic_classes_valid():
    assert is_exceptional_class(ExceptionalClass(1, (1, 1)))
    assert is_exceptional_class(ExceptionalClass(2, (1, 1, 1, 1, 1)))
    assert not is_exceptional_class(ExceptionalClass(1, (1, 1, 1)))
    assert not cremona_reduces(1, [2, 2, 2])  # the degree goes negative
    # (0; -1) reduces, but a class needs nonnegative multiplicities
    assert cremona_reduces(0, [-1])
    assert not is_exceptional_class(ExceptionalClass(0, (-1,)))


def test_class_enumeration_degree_one_two():
    assert {c.multiplicities for c in enumerate_exceptional_classes(1, 9)} == {(1, 1)}
    assert {c.multiplicities for c in enumerate_exceptional_classes(2, 9)} == {(1,) * 5}
    # the arguments are checked at the call, before the search is iterated
    with pytest.raises(ValueError):
        enumerate_exceptional_classes(2.5, 3)


def test_enumerated_classes_satisfy_numerics():
    for d in range(1, 7):
        for cls in enumerate_exceptional_classes(d, 12):
            assert cls.self_intersection() == -1
            assert cls.chern() == 1
            # mu <= (3d - 1)/d since the weights are at most 1
            assert sum(cls.multiplicities) == 3 * d - 1


def test_obstruction_sup_examples():
    value, cls = obstruction_sup(2, 1, 3)
    assert value == 2 and cls == ExceptionalClass(1, (1, 1))
    value, cls = obstruction_sup(5, 1, 3)
    assert value == Fraction(5, 2) and cls == ExceptionalClass(2, (1, 1, 1, 1, 1))


def test_enumeration_matches_partition_filter():
    # every partition of 3d - 1 into at most max_length parts, in descending
    # lexicographic order, kept when it is an exceptional class
    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for m in range(min(n, largest), 0, -1):
            for rest in partitions(n - m, m):
                yield (m,) + rest

    for d in range(1, 9):
        for max_length in (1, 4, 7, 3 * d - 1, 3 * d + 2):
            want = [
                ms for ms in partitions(3 * d - 1, 3 * d - 1)
                if len(ms) <= max_length and is_exceptional_class(ExceptionalClass(d, ms))
            ]
            got = [cls.multiplicities for cls in enumerate_exceptional_classes(d, max_length)]
            assert got == want, (d, max_length)


def reference_obstruction(p, q, d_max):
    """First strict maximum of sum(m_i w_i)/d over the enumerated classes."""
    weights = weight_sequence(p, q).weights
    best, best_cls = Fraction(0), None
    for d in range(1, d_max + 1):
        for cls in enumerate_exceptional_classes(d, len(weights)):
            ratio = sum((m * w for m, w in zip(cls.multiplicities, weights)), Fraction(0)) / d
            if ratio > best:
                best, best_cls = ratio, cls
    return best, best_cls


def test_obstruction_sup_matches_enumeration():
    rng = random.Random(4181)
    cases = [(34, 5, 9), (13, 2, 5), (5, 1, 3), (2, 1, 1), (17, 5, 9)]
    # integer targets, where several classes of the top degree tie
    cases += [(9, 1, 6), (10, 1, 6), (12, 1, 7)]
    while len(cases) < 220:
        q = rng.randint(1, 40)
        p = rng.randint(q + 1, 8 * q + 3)
        if math.gcd(p, q) == 1:
            cases.append((p, q, rng.randint(1, 9)))
    for p, q, d_max in cases:
        assert obstruction_sup(p, q, d_max) == reference_obstruction(p, q, d_max), (p, q, d_max)


def test_obstruction_sup_fibonacci_steps():
    # the outer corner fib(2k+5)/fib(2k+1) is certified in degree fib(2k+3),
    # here for k = 3 (degree 34) and k = 4 (degree 89)
    for p, q, degree in ((89, 13, 34), (233, 34, 89)):
        value, cls = obstruction_sup(p, q, degree)
        assert value == Fraction(p, degree)
        assert cls.degree == degree and is_exceptional_class(cls)
        assert sum(m * w for m, w in zip(cls.multiplicities, weight_sequence(p, q).weights)) / degree == value


def test_obstruction_below_volume_for_long_targets():
    for a in (9, 10, 12):
        value, _ = obstruction_sup(a, 1, 6)
        assert value * value < a  # strictly below sqrt(a)
    value, _ = obstruction_sup(17, 2, 6)
    assert value * value < Fraction(17, 2)


# ---------------------------------------------------------------------------
# the staircase


def test_corner_data():
    assert outer_corner(-1) == 2 and outer_corner(0) == 5 and outer_corner(1) == Fraction(13, 2)
    assert inner_corner(0) == 4 and inner_corner(1) == Fraction(25, 4)
    assert step_height(-1) == 2 and step_height(0) == Fraction(5, 2)


def test_staircase_continuity_identities():
    for k in range(-1, 21):
        slope = Fraction(fib(2 * k + 1), fib(2 * k + 3))
        assert slope * outer_corner(k) == step_height(k)
        assert step_height(k) ** 2 == inner_corner(k + 1)


def test_ball_value_samples():
    assert ball_embedding_value(Fraction(4)) == 2
    assert ball_embedding_value(Fraction(13, 2)) == Fraction(13, 5)
    assert ball_embedding_value(Fraction(7)) == Fraction(8, 3)
    assert ball_embedding_value(Fraction(1)) == 1
    assert ball_embedding_value(Fraction(3)) == 2
    assert ball_embedding_value(Fraction(9)) == 3
    assert ball_embedding_value(Fraction(10)) == SqrtValue(Fraction(10))
    assert ball_embedding_value(Fraction(15, 2)) is UNSPECIFIED
    assert ball_embedding_value(WINDOW_HIGH) == SqrtValue(WINDOW_HIGH)


# F(-1), F(0), F(1), ...: the Fibonacci numbers with F(-1) = 1, F(0) = 0, far
# enough for a step table grown past step 1000 (at most 2,048 steps).
FIB = [1, 0]
while len(FIB) < 4200:
    FIB.append(FIB[-1] + FIB[-2])


def F(i):
    return FIB[i + 1]


def inner(k):
    """g(k) = F(2k+3)^2 / F(2k+1)^2, the left end of step k."""
    return Fraction(F(2 * k + 3) ** 2, F(2 * k + 1) ** 2)


def staircase_piece(a, k):
    """min(a*F(2k+1)/F(2k+3), F(2k+5)/F(2k+3)), the staircase on [g(k), g(k+1)]."""
    return min(a * Fraction(F(2 * k + 1), F(2 * k + 3)), Fraction(F(2 * k + 5), F(2 * k + 3)))


def below_tau_fourth(a):
    """a < tau^4 = (7 + 3*sqrt(5))/2, i.e. 2a - 7 < 3*sqrt(5)."""
    return 2 * a - 7 < 0 or (2 * a - 7) ** 2 < 45


def test_ball_value_matches_fibonacci_min_form():
    rng = random.Random(31)
    points = []
    for _ in range(150):  # uniform in [1, tau^4)
        q = rng.randint(1, 10 ** 6)
        a = Fraction(rng.randint(q, 7 * q), q)
        if below_tau_fourth(a):
            points.append(a)
    for _ in range(150):  # inside a random step k = -1..30
        k = rng.randint(-1, 30)
        u = Fraction(rng.randint(0, 10 ** 9), 10 ** 9)
        points.append(inner(k) + u * (inner(k + 1) - inner(k)))
    assert len(points) >= 200
    for a in points:
        k = next(k for k in range(-1, 40) if a <= inner(k + 1))
        assert ball_embedding_value(a) == staircase_piece(a, k), a
    for k in range(-1, 301):
        outer = Fraction(F(2 * k + 5), F(2 * k + 1))
        assert inner(k) < outer < inner(k + 1)
        # step k at the outer corner, step k - 1 at the inner corner
        assert ball_embedding_value(outer) == Fraction(F(2 * k + 5), F(2 * k + 3)), k
        assert ball_embedding_value(inner(k)) == Fraction(F(2 * k + 3), F(2 * k + 1)), k


def test_ball_value_from_a_fresh_step_table(monkeypatch):
    """From an empty step table, which a lookup grows to the indices 0, 1, 3,
    7, ... until one covers a, 1,000 seeded points inside steps -1..1000, in
    random order, have the Fibonacci min-form values, and the table covering
    step 1000 has 1,024 steps."""
    monkeypatch.setattr(staircase, "_STEPS", ((1, 1, 2),))
    rng = random.Random(2000)
    for _ in range(1000):
        k = rng.randint(-1, 1000)
        a = inner(k) + Fraction(rng.randint(0, 10 ** 9), 10 ** 9) * (inner(k + 1) - inner(k))
        assert ball_embedding_value(a) == staircase_piece(a, k), (k, a)
    assert len(staircase._STEPS) == 1024


class RecordingSteps(tuple):
    """A step table that records the indices read from it."""

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


def test_a_lookup_reads_the_table_near_its_own_step(monkeypatch):
    """Once the table has grown past step 10,000, the lookups at 34/5, the
    outer corner of step k = 2, read no index above 2 (k + 2) of it."""
    staircase.fibonacci_step(10001)
    table = RecordingSteps(staircase._STEPS)
    table.read = []
    monkeypatch.setattr(staircase, "_STEPS", table)
    a = Fraction(34, 5)
    assert ball_embedding_value(a) == stabilized_value(a) == Fraction(34, 13)
    assert staircase_samples(a, a + 1, 2)[0][1] == Fraction(34, 13)
    assert fibonacci_outer_index(34, 5) == 2
    assert staircase._STEPS is table and len(table) > 10002
    assert table.read and max(table.read) <= 2 * (2 + 2), table.read


def test_fibonacci_outer_index_finds_exactly_the_outer_pairs(monkeypatch):
    """Only the pairs (F(2k+5), F(2k+1)) of the test's own Fibonacci list are
    outer.  Pairs with q < 1 or p <= q and supercritical pairs are decided
    without growing the step table; the others, in random order from an empty
    step table, grow it far enough to decide, including p one past an outer
    numerator and the multiples (2p, 2q)."""
    monkeypatch.setattr(staircase, "_STEPS", ((1, 1, 2),))
    outer = {(F(2 * k + 5), F(2 * k + 1)): k for k in range(-1, 301)}
    rng = random.Random(301)
    at_once = [(0, 1), (1, 1), (7, 1), (-2, -1)]
    for p, q in outer:
        at_once += [(q, p), (p, p), (p, 0), (p, -q), (-p, q), (-p, -q), (7 * q, q)]
    for _ in range(1000):  # supercritical: p/q >= 7 > tau^4
        q = rng.randint(1, 10 ** rng.randint(1, 60))
        at_once.append((rng.randint(7 * q, 100 * q), q))
    for p, q in at_once:
        assert fibonacci_outer_index(p, q) is None, (p, q)
    assert staircase._STEPS == ((1, 1, 2),)
    pairs = []
    for p, q in outer:
        pairs += [(p, q), (p, q + 1), (p, q - 1), (p + 1, q), (2 * p, 2 * q)]
    for _ in range(1000):  # 1 < p/q < 6 < tau^4
        q = rng.randint(1, 10 ** rng.randint(1, 60))
        pairs.append((rng.randint(q + 1, 6 * q), q))
    rng.shuffle(pairs)
    for p, q in pairs:
        assert fibonacci_outer_index(p, q) == outer.get((p, q)), (p, q)


# ---------------------------------------------------------------------------
# ECH capacities as an independent oracle
#
# E(1, a) embeds in B(mu) iff N(1, a)_k <= mu N(1, 1)_k for all k (McDuff, The
# Hofer conjecture on embedding symplectic ellipsoids; Hutchings, Quantitative
# embedded contact homology).  N(1, 1)_k = d for d(d+1)/2 <= k <= d(d+3)/2, so
# the ball value is the sup over d of N(1, a)_{d(d+3)/2} / d, here for d <= 120.

ECH_DEGREES = 120


def ech_value(p, q):
    """max over d <= ECH_DEGREES of N(1, p/q)_{d(d+3)/2} / d, where N(1, p/q)
    is the sorted list of m + n p/q over m, n >= 0 (scaled by q: q m + p n)."""
    need = ECH_DEGREES * (ECH_DEGREES + 3) // 2 + 1
    bound = math.isqrt(2 * p * q * need)  # about need values lie below it
    while True:
        values = sorted(
            q * m + p * n for n in range(bound // p + 1) for m in range((bound - p * n) // q + 1)
        )
        if len(values) >= need:  # every value up to bound is listed
            break
        bound *= 2
    return max(Fraction(values[d * (d + 3) // 2], q * d) for d in range(1, ECH_DEGREES + 1))


def test_ball_value_matches_ech_capacities():
    rng = random.Random(120)
    points = [Fraction(F(2 * k + 5), F(2 * k + 1)) for k in range(-1, 4)]
    points += [inner(k) for k in range(-1, 4)]
    while len(points) < 40:  # [1, 89/13], the outer corner of step 3
        q = rng.randint(1, 30)
        a = Fraction(rng.randint(q, 89 * q // 13), q)
        points.append(a)
    while len(points) < 55:  # (tau^4, 7]
        q = rng.randint(1, 40)
        a = Fraction(rng.randint(6 * q, 7 * q), q)
        if not below_tau_fourth(a):
            points.append(a)
    for a in points:
        assert ech_value(a.numerator, a.denominator) == ball_embedding_value(a), a


def test_ech_capacities_against_the_volume_bound():
    # from 8 + 1/36 on, the finite sup stays within the volume bound sqrt(a)
    rng = random.Random(36)
    points = [WINDOW_HIGH]
    while len(points) < 13:
        q = rng.randint(1, 30)
        a = Fraction(rng.randint(8 * q, 40 * q), q)
        if a >= WINDOW_HIGH:
            points.append(a)
    for a in points:
        c = ech_value(a.numerator, a.denominator)
        assert c * c <= a, a
    # inside the window (7, 8 + 1/36) it exceeds sqrt(a), which is why the
    # ball value is unspecified there
    assert ech_value(8, 1) == Fraction(17, 6)
    for a in (Fraction(8), Fraction(71, 10), Fraction(82, 11)):
        c = ech_value(a.numerator, a.denominator)
        assert c * c > a and ball_embedding_value(a) is UNSPECIFIED, a


# Evaluates the JSON list of rationals on stdin with ``threads`` threads in a
# fresh interpreter, whose step table starts at step -1, and prints the values
# and the table.  A short switch interval makes the threads interleave inside
# the table's growth.
FRESH_EVALUATION = """
import json, sys, threading
from fractions import Fraction
from scatstair import staircase

points = [Fraction(p) for p in json.load(sys.stdin)]
values = [None] * len(points)
threads = int(sys.argv[1])

def work(start):
    for i in range(start, len(points), threads):
        values[i] = str(staircase.ball_embedding_value(points[i]))

sys.setswitchinterval(1e-6)
workers = [threading.Thread(target=work, args=(s,)) for s in range(threads)]
for w in workers:
    w.start()
for w in workers:
    w.join(timeout=60)
    assert not w.is_alive()
json.dump({"values": values, "steps": [list(map(str, s)) for s in staircase._STEPS]}, sys.stdout)
"""


@pytest.mark.parametrize("threads", [1, 5])
def test_corners_up_to_step_1000_in_any_order(threads):
    """The outer corner of step k has value F(2k+5)/F(2k+3), the inner corner
    F(2k+3)/F(2k+1), for k = -1..1000, however the step table grows."""
    expected = {}
    for k in range(-1, 1001):
        expected[Fraction(F(2 * k + 5), F(2 * k + 1))] = Fraction(F(2 * k + 5), F(2 * k + 3))
        expected[Fraction(F(2 * k + 3) ** 2, F(2 * k + 1) ** 2)] = Fraction(F(2 * k + 3), F(2 * k + 1))
    points = list(expected)
    random.Random(1000 + threads).shuffle(points)
    completed = subprocess.run(
        [sys.executable, "-c", FRESH_EVALUATION, str(threads)],
        input=json.dumps([str(a) for a in points]),
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(completed.stdout)
    wrong = [(a, got) for a, got in zip(points, result["values"]) if Fraction(got) != expected[a]]
    assert not wrong, wrong[:3]
    # one entry per step, in order: (F(2k+1), F(2k+3), F(2k+5)) for k = -1, 0, ...
    steps = [tuple(map(int, s)) for s in result["steps"]]
    assert len(steps) >= 1002
    assert steps == [(F(2 * k + 1), F(2 * k + 3), F(2 * k + 5)) for k in range(-1, len(steps) - 1)]


def test_corner_functions_read_the_step_table(monkeypatch):
    """outer_corner, inner_corner and step_height for k = -1..1000 in random
    order, from an empty step table, which they grow exactly by index."""
    monkeypatch.setattr(staircase, "_STEPS", ((1, 1, 2),))
    steps = list(range(-1, 1001))
    random.Random(7).shuffle(steps)
    for k in steps:
        assert outer_corner(k) == Fraction(F(2 * k + 5), F(2 * k + 1)), k
        assert inner_corner(k) == Fraction(F(2 * k + 3) ** 2, F(2 * k + 1) ** 2), k
        assert step_height(k) == Fraction(F(2 * k + 5), F(2 * k + 3)), k
    assert list(staircase._STEPS) == [(F(2 * k + 1), F(2 * k + 3), F(2 * k + 5)) for k in range(-1, 1001)]
    for corner in (outer_corner, inner_corner, step_height):
        with pytest.raises(ValueError, match="index must be >= -1"):
            corner(-2)


def test_samples_match_pointwise_values():
    """Rows of staircase_samples on ranges across tau^4, 7 and 8 + 1/36 hold
    the values the point functions give."""
    rng = random.Random(736)
    ranges = [
        (Fraction(6), WINDOW_HIGH, 74),  # hits 6, 7 and 8 + 1/36 exactly
        # endpoints with large, coprime denominators
        (Fraction(13, 7), Fraction(59, 8), 333),
        (Fraction(100003, 99991), Fraction(900007, 100019), 257),
        (Fraction(700001, 100003), Fraction(1000003, 99989), 101),
    ]
    for _ in range(30):
        lo = Fraction(rng.randint(100, 690), 100)
        hi = Fraction(rng.randint(810, 1200), 100)
        ranges.append((lo, hi, rng.randint(2, 120)))
    kinds = set()
    for lo, hi, count in ranges:
        rows = staircase_samples(lo, hi, count)
        assert len(rows) == count and rows[0][0] == lo and rows[-1][0] == hi
        for i, (a, ball, stab, fold) in enumerate(rows):
            assert a == lo + i * (hi - lo) / (count - 1) and type(a) is Fraction
            assert ball == ball_embedding_value(a) and type(ball) is type(ball_embedding_value(a))
            assert stab == stabilized_value(a) and type(stab) is Fraction
            assert fold == folding_bound(a) and type(fold) is Fraction
            kinds.add((type(ball).__name__, exceeds_tau4(a.numerator, a.denominator)))
    assert Fraction(7) in {a for a, *_ in staircase_samples(*ranges[0])}
    assert kinds == {("Fraction", False), ("Fraction", True), ("Unspecified", True), ("SqrtValue", True)}
    with pytest.raises(ValueError, match="aspect ratio must be >= 1"):
        staircase_samples(Fraction(1, 2), Fraction(3), 5)
    with pytest.raises(ValueError, match="aspect ratio must be >= 1"):
        staircase_samples(Fraction(99, 100), Fraction(101, 100), 2)


def test_ball_value_rejects_below_one():
    with pytest.raises(ValueError):
        ball_embedding_value(Fraction(1, 2))


def test_sqrt_marker_comparisons():
    root = SqrtValue(Fraction(10))
    assert root > 3 and root < Fraction(7, 2)
    assert SqrtValue(Fraction(9)) == 3
    assert not (SqrtValue(Fraction(8)) == 3)
    assert (root <= 4) is True and (root >= 3) is True
    assert (SqrtValue(Fraction(0)) > 0) is False
    assert SqrtValue(Fraction(0)) == 0 and SqrtValue(Fraction(0)) > -1
    assert (SqrtValue(Fraction(9)) == "3") is False
    assert (root == None) is False  # noqa: E711
    assert (UNSPECIFIED in [root]) is False
    assert len({3, SqrtValue(Fraction(9))}) == 1
    assert {Fraction(1, 2): 1}[SqrtValue(Fraction(1, 4))] == 1


def test_sqrt_marker_renders_a_rational_square_as_its_root():
    assert str(SqrtValue(Fraction(9, 4))) == "3/2"
    assert str(SqrtValue(Fraction(9))) == "3" == str(ball_embedding_value(Fraction(9)))
    assert str(SqrtValue(Fraction(8))) == "sqrt(8)"
    assert str(SqrtValue(Fraction(0))) == "0"


def test_sqrt_marker_orders_like_its_real_value():
    """Rationals, binary floats and square roots of rationals more than 1e-9
    apart compare as their floats do; closer ones are equal (no two distinct
    samples are that close) and hash equally."""
    rng = random.Random(16)
    values = [Fraction(rng.randint(0, 400), rng.randint(1, 30)) for _ in range(60)]
    values += [SqrtValue(Fraction(rng.randint(0, 400), rng.randint(1, 30))) for _ in range(60)]
    values += [rng.randint(0, 160) / 8 for _ in range(20)]  # exact binary fractions
    values += [SqrtValue(Fraction(x) ** 2) for x in values[:20] + values[-10:]]
    real = {
        id(v): float(v.radicand) ** 0.5 if isinstance(v, SqrtValue) else float(v) for v in values
    }
    for u in values:
        for v in values:
            gap = real[id(u)] - real[id(v)]
            if abs(gap) > 1e-9:
                below, above = gap < 0, gap > 0
                assert (u < v, u <= v, u > v, u >= v, u == v) == (below, below, above, above, False)
            else:
                assert u == v and u <= v and u >= v and hash(u) == hash(v), (u, v)
    ordered = sorted(values)
    assert all(real[id(u)] <= real[id(v)] + 1e-9 for u, v in zip(ordered, ordered[1:]))
    for other in ("3", None, (3,), [9]):
        assert SqrtValue(Fraction(9)) != other
        with pytest.raises(TypeError):
            SqrtValue(Fraction(9)) < other
    assert SqrtValue(Fraction(10)) < math.inf and SqrtValue(Fraction(10)) > -math.inf
    assert SqrtValue(Fraction(10)) != math.nan
    with pytest.raises(ValueError, match="radicand must be nonnegative"):
        SqrtValue(Fraction(-1))


def test_unspecified_renders_and_copies_as_itself():
    assert str(UNSPECIFIED) == "unspecified" and repr(UNSPECIFIED) == "Unspecified"
    assert pickle.loads(pickle.dumps(UNSPECIFIED)) is UNSPECIFIED
    assert copy.deepcopy(UNSPECIFIED) is UNSPECIFIED and copy.copy(UNSPECIFIED) is UNSPECIFIED
    rows = staircase_samples(Fraction(15, 2), Fraction(17, 2), 3)
    assert [str(ball) for _, ball, _, _ in rows] == ["unspecified", "unspecified", "sqrt(17/2)"]
    assert samples_to_csv(rows).splitlines()[1:] == [
        "15/2,unspecified,45/17,45/17",
        "8,unspecified,8/3,8/3",
        "17/2,sqrt(17/2),51/19,51/19",
    ]


def test_tau4_sign_test_matches_float_threshold():
    # tau^4 = (7 + 3*sqrt(5))/2 = 46.98.../6.708...; no sampled ratio is
    # within 1e-6 of it, so the float comparison is exact here
    tau4 = (7 + 3 * math.sqrt(5)) / 2
    rng = random.Random(46)
    for _ in range(2000):
        p, q = rng.randint(1, 900), rng.randint(1, 90)
        assert exceeds_tau4(p, q) == (p / q > tau4), (p, q)
    assert exceeds_tau4(7, 1) and not exceeds_tau4(1, 1)
    for p, q in ((0, 1), (-7, 1), (7, 0)):
        with pytest.raises(ValueError):
            exceeds_tau4(p, q)


def test_stabilized_examples():
    assert stabilized_value(Fraction(5)) == Fraction(5, 2)
    assert stabilized_value(Fraction(8)) == Fraction(8, 3)
    assert stabilized_value(Fraction(13, 2)) == Fraction(13, 5)
    assert folding_bound(Fraction(13, 2)) == Fraction(13, 5)


def test_folding_values():
    assert folding_bound(Fraction(1)) == Fraction(3, 2)
    assert folding_bound(Fraction(48, 7)) == Fraction(144, 55)
    big = Fraction(10 ** 6)
    assert folding_bound(big) < 3


def test_corner_contact():
    # the folding curve meets the staircase exactly at the outer corners
    for k in range(-1, 21):
        a = outer_corner(k)
        assert stabilized_value(a) == folding_bound(a) == step_height(k)


def test_folding_strictly_above_between_corners():
    rng = random.Random(6)
    for _ in range(200):
        a = Fraction(rng.randint(101, 680), 100)
        if exceeds_tau4(a.numerator, a.denominator):
            continue
        k = -1
        while outer_corner(k) < a:
            k += 1
        if outer_corner(k) == a:
            continue
        assert stabilized_value(a) < folding_bound(a)


def test_stabilized_never_exceeds_unstabilized():
    rng = random.Random(9)
    for _ in range(200):
        a = Fraction(rng.randint(100, 1500), 100)
        ball = ball_embedding_value(a)
        if ball is UNSPECIFIED:
            continue
        stab = stabilized_value(a)
        if isinstance(ball, SqrtValue):
            assert stab * stab <= ball.radicand
        else:
            assert stab <= ball


def test_obstruction_consistency_outer_corners():
    # reproduces the corner lower bounds for the first two corners
    for k in (-1, 0):
        p, q = fib(2 * k + 5), fib(2 * k + 1)
        value, _ = obstruction_sup(p, q, fib(2 * k + 3))
        assert value >= step_height(k)


def test_samples_and_renderings():
    rows = staircase_samples(Fraction(1), Fraction(9), 17)
    assert len(rows) == 17
    csv = samples_to_csv(rows)
    assert csv.splitlines()[0] == "a,ball,stabilized,folding"
    svg = staircase_svg(staircase_samples(Fraction(1), Fraction(9), 40), "input: range 1..9")
    assert svg.startswith("<svg") and "polyline" in svg
    # on [1, 3] only the outer corner 2 is drawn: the inner corner 4 and the
    # outer corner 5 lie past the range, and the loop stops at 5
    assert staircase_svg(staircase_samples(1, 3, 5), "input: range 1..3").count("<circle") == 1
