"""Acceptance criteria, one test per numbered criterion.

Every comparison is exact (Fraction/int equality); the only tolerances are
the stated wall-clock budgets for the scattering computations.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from scatstair.series import TruncatedSeries as TS
from scatstair.scattering import (
    change_of_lattice,
    initial_diagram,
    ks_complete,
    log_coefficient,
    ray_spectrum,
    total_monodromy,
)
from scatstair.curves import (
    classify_pair,
    degeneration_admissible,
    scattering_cross_check,
)
from scatstair.staircase import (
    enumerate_exceptional_classes,
    fib,
    folding_bound,
    inner_corner,
    obstruction_sup,
    outer_corner,
    stabilized_value,
    step_height,
    weight_sequence,
)
from test_series import random_series


@pytest.fixture(scope="session")
def triple_seed_12():
    start = time.time()
    diagram = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 12))
    return diagram, time.time() - start


def report(criterion: str, ok: bool):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_pentagon():
    start = time.time()
    S = ks_complete(initial_diagram([((1, 0), 1), ((0, 1), 1)], 10))
    elapsed = time.time() - start
    walls = {(w.direction, w.incoming): w.label for w in S.walls}
    ok = (
        len(walls) == 5
        and walls[((1, 0), False)] == TS.from_text(10, "1 + t*x")
        and walls[((0, 1), False)] == TS.from_text(10, "1 + t*y")
        and walls[((1, 1), False)] == TS.from_text(10, "1 + t^2*x*y")
        and total_monodromy(S)
        == (TS.monomial(10, (1, 0), 0), TS.monomial(10, (0, 1), 0))
        and elapsed < 1.0
    )
    report("1 (pentagon, exact walls and trivial monodromy, < 1 s)", ok)


def test_criterion_02_double_seed_labels():
    start = time.time()
    S = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 9))
    elapsed = time.time() - start
    one = TS.one(9)
    ok = elapsed < 30.0
    for k in range(0, 4):
        expected = (one + TS.monomial(9, (k, k + 1), 2 * k + 1)) ** 2
        wall = S.wall_on_ray((k, k + 1))
        ok = ok and wall is not None and wall.label == expected
        expected = (one + TS.monomial(9, (k + 1, k), 2 * k + 1)) ** 2
        wall = S.wall_on_ray((k + 1, k))
        ok = ok and wall is not None and wall.label == expected
    diag = S.wall_on_ray((1, 1))
    ok = ok and diag is not None and diag.label == (one - TS.monomial(9, (1, 1), 2)) ** -4
    report("2 (twice-weighted labels at order 9, < 30 s)", ok)


def test_criterion_03_triple_seed_rays(triple_seed_12):
    S, elapsed = triple_seed_12
    spectrum = {d: (o, c) for d, o, c in ray_spectrum(S)}
    required = [(1, 3), (3, 8), (3, 1), (8, 3), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]
    ok = elapsed < 600.0
    for ray in required:
        ok = ok and ray in spectrum and spectrum[ray][1] != 0
    for (a, b) in spectrum:
        if a >= 1 and b >= 1:
            # inside or on the Fibonacci fan: a^2 - 3ab + b^2 is <= 0 in the
            # dense cone and exactly 1 on the discrete fan rays
            ok = ok and a * a - 3 * a * b + b * b <= 1
    report("3 (thrice-weighted rays at order 12, fan containment, < 10 min)", ok)


def test_criterion_04_change_of_lattice():
    native = ks_complete(initial_diagram([((-1, -3), 1), ((1, 0), 1)], 9))
    std = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 9))
    transported = change_of_lattice(std, (-1, -3), (1, 0))
    ok = {(w.direction, w.incoming) for w in native.walls} == {
        (w.direction, w.incoming) for w in transported.walls
    }
    report("4 (native completion matches transported ray set at order 9)", ok)


def test_criterion_05_cross_check():
    rep = scattering_cross_check(12)
    detected = set(rep.detected_pairs())
    reachable = set(rep.reachable_pairs())
    ok = (
        rep.agreement
        and (2, 1) in detected
        and any(classify_pair(p, q).verdict == "supercritical" for p, q in detected)
        and (3, 1) not in reachable
        and (5, 4) not in reachable
        and (3, 1) not in detected
        and (5, 4) not in detected
    )
    report("5 (classification cross-check at order 12 with full agreement)", ok)


def test_criterion_06_diophantine_sweep():
    start = time.time()
    fib_pairs = set()
    k = -1
    while fib(2 * k + 5) + fib(2 * k + 1) <= 600:
        fib_pairs.add((fib(2 * k + 5), fib(2 * k + 1)))
        k += 1
    ok = True
    for total in range(3, 601, 3):
        for q in range(1, total // 2 + 1):
            p = total - q
            if p < q or math.gcd(p, q) != 1:
                continue
            c = classify_pair(p, q)
            ok = ok and (c.diophantine >= 0) == c.realizable()
            ok = ok and (c.diophantine == 0) == ((p, q) in fib_pairs)
    elapsed = time.time() - start
    report("6 (Diophantine sweep to 600, < 1 s)", ok and elapsed < 1.0)


def test_criterion_07_staircase_identities():
    ok = True
    for k in range(0, 21):
        slope = Fraction(fib(2 * k + 1), fib(2 * k + 3))
        beta = step_height(k)
        ok = ok and slope * outer_corner(k) == beta
        ok = ok and beta * beta == inner_corner(k + 1)
        ok = ok and stabilized_value(outer_corner(k)) == folding_bound(outer_corner(k)) == beta
    wt = weight_sequence(17, 5)
    ok = ok and wt.weights == (
        Fraction(1), Fraction(1), Fraction(1),
        Fraction(2, 5), Fraction(2, 5),
        Fraction(1, 5), Fraction(1, 5),
    )
    rng = random.Random(170805)
    done = 0
    while done < 200:
        p, q = rng.randint(2, 500), rng.randint(1, 250)
        if p <= q or math.gcd(p, q) != 1:
            continue
        done += 1
        ok = ok and weight_sequence(p, q).square_sum() == Fraction(p, q)
    report("7 (staircase corner identities, weight sequences)", ok)


def test_criterion_08_packing_obstructions():
    value, cls = obstruction_sup(2, 1, 4)
    ok = value == 2 and cls is not None and cls.degree == 1 and cls.multiplicities == (1, 1)
    value, cls = obstruction_sup(5, 1, 4)
    ok = ok and value == Fraction(5, 2) and cls.multiplicities == (1, 1, 1, 1, 1)
    for a in (9, 10, 12):
        value, _ = obstruction_sup(a, 1, 8)
        ok = ok and value * value < a
    for d in range(1, 9):
        for cls in enumerate_exceptional_classes(d, 12):
            ok = ok and cls.self_intersection() == -1 and cls.chern() == 1
            mu_bound = Fraction(3 * d - 1, d)
            ok = ok and Fraction(sum(cls.multiplicities), d) <= mu_bound
    report("8 (packing obstructions and class numerics)", ok)


def test_criterion_09_symmetry_orbit():
    from scatstair.curves import (
        exceeds_tau4,
        phi_map,
        psi_map,
        reflect_r,
        shift_decomposition_index,
    )

    expected = {(fib(2 * k + 5), fib(2 * k + 1)) for k in range(-1, 21)}
    produced = set()
    for seed in ((2, 1), (1, 2)):
        pair = seed
        produced.add(tuple(sorted(pair, reverse=True)))
        for step in range(22):
            pair = phi_map(*pair) if step % 2 == 0 else psi_map(*pair)
            produced.add(tuple(sorted(pair, reverse=True)))
    ok = expected <= produced

    rng = random.Random(90210)
    for _ in range(100):
        p, q = rng.randint(1, 80), rng.randint(1, 80)
        ok = ok and phi_map(*phi_map(p, q)) == (p, q)
        x = Fraction(rng.randint(-300, 300), rng.randint(1, 30))
        if x != 7:
            ok = ok and reflect_r(reflect_r(x)) == x

    count = 0
    while count < 100:
        x = Fraction(rng.randint(687, 10000), rng.randint(1, 100))
        if not exceeds_tau4(x.numerator, x.denominator) or x > 100:
            continue
        count += 1
        i = shift_decomposition_index(x)
        lo, hi = Fraction(7), None
        for _ in range(i):
            lo, hi = 7 - 1 / lo, (Fraction(7) if hi is None else 7 - 1 / hi)
        ok = ok and x >= lo and (hi is None or x < hi)
    report("9 (symmetry orbit, involutions, shift decomposition)", ok)


def test_criterion_10_mutation_calculus():
    from scatstair.toric import ToricModel, apply_word, gl2z_equivalent, mutate

    t0 = ToricModel(((-1, -3), (1, 0)))
    ok = gl2z_equivalent(t0, apply_word(t0, [1, 2])) is not None
    ok = ok and gl2z_equivalent(t0, apply_word(t0, [2, 1])) is not None
    ok = ok and gl2z_equivalent(t0, mutate(t0, 1)) is None
    ok = ok and gl2z_equivalent(t0, mutate(t0, 2)) is None

    rng = random.Random(314159)
    for _ in range(100):
        length = rng.randint(1, 4)
        vectors = []
        while len(vectors) < length:
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if v != (0, 0) and math.gcd(abs(v[0]), abs(v[1])) == 1:
                vectors.append(v)
        model = ToricModel(tuple(vectors))
        i = rng.randint(1, length)
        ok = ok and gl2z_equivalent(model, mutate(mutate(model, i), i)) is not None
    report("10 (mutation equivalences)", ok)


def test_criterion_11_degeneration_check():
    ok, witness = degeneration_admissible((11, 5), [(8, 3), (3, 2)])
    good = not ok and witness is not None
    if good:
        a1, a2 = witness
        good = sum(min(a1 * p, a2 * q) for p, q in [(8, 3), (3, 2)]) < min(11 * a1, 5 * a2)
    good = good and min(5 * 8, 11 * 3) + min(5 * 3, 11 * 2) == 48 < 55

    rng = random.Random(271828)

    def brute(target, parts):
        p, q = target
        for num in range(1, 61):
            for den in range(1, 13):
                s = Fraction(num, den)
                if sum(min(Fraction(pi), s * qi) for pi, qi in parts) < min(
                    Fraction(p), s * q
                ):
                    return False
        return True

    for _ in range(200):
        target = (rng.randint(1, 12), rng.randint(1, 12))
        parts = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        good = good and degeneration_admissible(target, parts)[0] == brute(target, parts)
    report("11 (degeneration inequality with witness)", good)


def test_criterion_12_ring_laws():
    rng = random.Random(121212)
    ok = True
    for _ in range(1000):
        f = random_series(rng)
        g = random_series(rng)
        h = random_series(rng)
        ok = ok and (f + g) + h == f + (g + h)
        ok = ok and f * g == g * f
        ok = ok and f * (g + h) == f * g + f * h
        ok = ok and f * TS.one(f.order) == f
        u = random_series(rng, order=5, unit=True, max_terms=3)
        ok = ok and u.log().exp() == u
        n = rng.randint(1, 5)
        ok = ok and (u ** n) * (u ** -n) == TS.one(u.order)
    report("12 (ring laws on 1000 random series)", ok)
