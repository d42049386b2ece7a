"""Classification, symmetries, bounds, degenerations, and the cross-check."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from scatstair.curves import (
    Classification,
    CrossCheckReport,
    CrossCheckRow,
    FIBONACCI_OUTER,
    NOT_REALIZABLE,
    SUPERCRITICAL,
    classify_pair,
    curve_index,
    degeneration_admissible,
    diophantine_value,
    double_point_count,
    exceeds_tau4,
    inflation_upper_bound,
    obstruction_lower_bound,
    pair_to_ray,
    phi_map,
    psi_map,
    ray_to_pair,
    reflect_r,
    scattering_cross_check,
    shift_decomposition_index,
    shift_s,
    unicuspidal_families,
    visible_area,
)
from scatstair.lattice import wedge
from scatstair.staircase import fib
from scatstair.toric import half_shear, w_t0


# ---------------------------------------------------------------------------
# index and double points


def test_curve_index_examples():
    assert curve_index(5, 13, 2) == 0
    assert curve_index(3, 3, 2) == 8
    assert curve_index(8, 22, 3) == -2


def test_double_point_count_examples():
    assert double_point_count(2, 5, 1) == 0
    assert double_point_count(5, 13, 2) == 0
    assert double_point_count(3, 8, 1) == 1


def test_families_contents():
    fams = unicuspidal_families(8)
    assert ("e", 8, 22, 3) in fams
    assert ("d", 5, 13, 2) in fams
    assert ("f", 16, 43, 6) not in fams
    fams16 = unicuspidal_families(16)
    assert ("f", 16, 43, 6) in fams16
    for tag, d, p, q in fams16:
        if tag == "c":
            assert d * d == p * q


def test_family_indices():
    for tag, d, p, q in unicuspidal_families(40):
        ind = curve_index(d, p, q)
        if tag == "a":
            assert ind == 2 * d + 2
        elif tag == "b":
            assert ind == d + 2
        elif tag == "c":
            assert ind == 2
        elif tag == "d":
            assert ind == 0
            assert double_point_count(d, p, q) == 0
        else:
            assert ind == -2


# ---------------------------------------------------------------------------
# Diophantine classification


def test_diophantine_values():
    assert diophantine_value(2, 1) == 0
    assert diophantine_value(13, 2) == 0
    assert diophantine_value(8, 1) == 18


def test_exceeds_tau4():
    assert exceeds_tau4(7, 1)
    assert not exceeds_tau4(13, 2)
    assert exceeds_tau4(48, 7)


def test_classify_examples():
    c = classify_pair(2, 1)
    assert c.verdict == FIBONACCI_OUTER and c.fibonacci_index == -1
    assert classify_pair(8, 1).verdict == SUPERCRITICAL
    assert classify_pair(3, 1).verdict == NOT_REALIZABLE
    assert classify_pair(5, 1).fibonacci_index == 0


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_pair(4, 2)
    with pytest.raises(ValueError):
        classify_pair(1, 2)


def test_diophantine_sweep_small():
    # quick version of the acceptance sweep: bound 120 instead of 600
    fib_pairs = set()
    k = -1
    while fib(2 * k + 5) + fib(2 * k + 1) <= 120:
        fib_pairs.add((fib(2 * k + 5), fib(2 * k + 1)))
        k += 1
    for total in range(2, 121):
        if total % 3:
            continue
        for q in range(1, total // 2 + 1):
            p = total - q
            if p < q or math.gcd(p, q) != 1:
                continue
            c = classify_pair(p, q)
            assert (c.diophantine >= 0) == c.realizable()
            assert (c.diophantine == 0) == ((p, q) in fib_pairs)


# ---------------------------------------------------------------------------
# symmetries


def test_phi_psi_examples():
    assert phi_map(2, 1) == (2, 13)
    assert phi_map(*phi_map(2, 1)) == (2, 1)
    assert psi_map(1, 2) == (13, 2)


def test_phi_psi_involutions_random():
    rng = random.Random(1)
    for _ in range(100):
        p, q = rng.randint(1, 60), rng.randint(1, 60)
        assert phi_map(*phi_map(p, q)) == (p, q)
        assert psi_map(*psi_map(p, q)) == (p, q)


def test_phi_psi_preserve_realizability():
    for total in range(2, 90):
        for q in range(1, total):
            p = total - q
            if p < q or math.gcd(p, q) != 1:
                continue
            before = classify_pair(p, q).realizable()
            for image in (phi_map(p, q), psi_map(p, q)):
                a, b = sorted(image, reverse=True)
                if b == 0:
                    continue  # axis class, outside the classifier domain
                g = math.gcd(a, b)
                after = classify_pair(a // g, b // g).realizable()
                assert before == after


def test_phi_is_the_product_of_the_kronecker_reflections():
    """On standard rays, phi_map is s1 s2 for the seeds (1 + tx)^3, (1 + ty)^3,
    with s1(a, b) = (3b - a, b) and s2(a, b) = (a, 3a - b): it sends the ray
    (a, b) of a visible pair to (8a - 3b, 3a - b) (see
    ``test_scattering.test_labels_are_invariant_under_kronecker_reflections``)."""
    count = 0
    for p in range(1, 300):
        for q in range(1, p + 1):
            ray = pair_to_ray(p, q) if math.gcd(p, q) == 1 else None
            if ray is None or min(ray) < 1:
                continue
            a, b = ray
            assert pair_to_ray(*sorted(phi_map(p, q), reverse=True)) == (8 * a - 3 * b, 3 * a - b)
            count += 1
    assert count == 3422


def test_alternating_orbit_hits_fibonacci_pairs():
    expected = {(fib(2 * k + 5), fib(2 * k + 1)) for k in range(-1, 21)}
    produced = set()
    for seed in ((2, 1), (1, 2)):
        pair = seed
        produced.add(tuple(sorted(pair, reverse=True)))
        for step in range(22):
            pair = phi_map(*pair) if step % 2 == 0 else psi_map(*pair)
            produced.add(tuple(sorted(pair, reverse=True)))
    assert expected <= produced


def test_shift_and_reflection_values():
    assert shift_s(Fraction(7)) == Fraction(48, 7)
    assert reflect_r(reflect_r(Fraction(15, 2))) == Fraction(15, 2)
    # 8 is the fixed point of the involution swapping (7,8) and (8,oo)
    assert reflect_r(Fraction(8)) == Fraction(8)
    assert reflect_r(Fraction(15, 2)) == Fraction(9)


def test_shift_reflection_poles():
    with pytest.raises(ValueError):
        shift_s(Fraction(0))
    with pytest.raises(ValueError):
        reflect_r(Fraction(7))


def test_reflection_involution_random():
    rng = random.Random(4)
    for _ in range(100):
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        if x == 7:
            continue
        assert reflect_r(reflect_r(x)) == x


def test_shift_decomposition_examples():
    assert shift_decomposition_index(Fraction(9)) == 0
    assert shift_decomposition_index(Fraction(69, 10)) == 1
    assert shift_decomposition_index(Fraction(329, 48)) == 2


def test_shift_decomposition_rejects_subcritical():
    with pytest.raises(ValueError):
        shift_decomposition_index(Fraction(13, 2))


def test_shift_decomposition_against_interval_membership():
    rng = random.Random(8)
    count = 0
    while count < 100:
        x = Fraction(rng.randint(687, 10000), rng.randint(1, 100))
        if not exceeds_tau4(x.numerator, x.denominator) or x > 100:
            continue
        count += 1
        i = shift_decomposition_index(x)
        # oracle: S^i maps [7, oo) onto the interval [S^i(7), S^i(oo))
        lo, hi = Fraction(7), None
        for _ in range(i):
            lo, hi = 7 - 1 / lo, (Fraction(7) if hi is None else 7 - 1 / hi)
        if hi is None:
            assert x >= lo
        else:
            assert lo <= x < hi


# ---------------------------------------------------------------------------
# bounds and areas


def test_obstruction_lower_bound():
    assert obstruction_lower_bound(13, 2, Fraction(5)) == Fraction(26, 5)
    assert obstruction_lower_bound(8, 1, Fraction(3)) == Fraction(8, 3)
    assert obstruction_lower_bound(1, 1, Fraction(1)) == 1


def test_inflation_upper_bound():
    assert inflation_upper_bound(25, 4, 100, Fraction(10)) == 10
    assert inflation_upper_bound(5, 1, 4, Fraction(10)) is None
    assert inflation_upper_bound(2, 1, 4, Fraction(2)) == 2


def test_visible_area():
    assert visible_area(Fraction(1), 2, 3) == 6
    assert visible_area(Fraction(1, 5), 13, 2) == Fraction(26, 5)
    with pytest.raises(ValueError):
        visible_area(Fraction(0), 1, 1)


@pytest.mark.parametrize("call", [
    lambda: curve_index(0, 1, 1),
    lambda: double_point_count(1, -1, 1),
    lambda: diophantine_value(1, 0),
    lambda: obstruction_lower_bound(0, 1, Fraction(1)),
    lambda: obstruction_lower_bound(13, 2, 0),
    lambda: obstruction_lower_bound(13, 2, -1),
    lambda: inflation_upper_bound(1, 0, 1, Fraction(1)),
    lambda: visible_area(Fraction(-1, 2), 1, 1),
])
def test_nonpositive_inputs_rejected(call):
    with pytest.raises(ValueError, match="^inputs must be positive$"):
        call()


def _coprime_pair(rng):
    while True:
        p, q = rng.randint(1, 60), rng.randint(1, 60)
        if math.gcd(p, q) == 1:
            return [max(p, q), min(p, q)]


def _ints(n, lo, hi):
    return lambda rng: [rng.randint(lo, hi) for _ in range(n)]


# (a call of each function on integers only, seeded integers in its domain)
INTEGER_FORMULAS = [
    (curve_index, _ints(3, 1, 30)),
    (double_point_count, _ints(3, 1, 30)),
    (diophantine_value, _ints(2, 1, 60)),
    (phi_map, lambda rng: [rng.randint(1, 60), rng.randint(0, 60)]),
    (psi_map, lambda rng: [rng.randint(0, 60), rng.randint(1, 60)]),
    (pair_to_ray, lambda rng: sorted(_ints(2, 1, 60)(rng), reverse=True)),
    (ray_to_pair, lambda rng: [rng.randint(1, 30), rng.randint(0, 30)]),
    (classify_pair, _coprime_pair),
    (unicuspidal_families, _ints(1, 3, 40)),
    (exceeds_tau4, _ints(2, 1, 60)),
    (w_t0, lambda rng: [rng.randint(1, 60), rng.randint(0, 60)]),
    (lambda p, q: obstruction_lower_bound(p, q, Fraction(3, 2)), _ints(2, 1, 30)),
    (lambda p, q, s: inflation_upper_bound(p, q, s, Fraction(5, 2)), _ints(3, 1, 30)),
    (lambda p, q: visible_area(Fraction(1, 3), p, q), _ints(2, 1, 30)),
    (lambda p, q, *parts: degeneration_admissible((p, q), [parts[:2], parts[2:]]), _ints(6, 1, 20)),
]

# sha256 of the repr of every integer result below, recorded at the commit
# before these functions checked their integer parameters, and re-recorded
# when Classification dropped its derived fields (only the 10 classify_pair
# results changed)
INTEGER_RESULTS_DIGEST = "ade3b808ac15cc0cb7f139f68373dade74362d4abd72ad1e332311b7b8489446"


def _integer_formula_cases(seed=3141):
    """(call, integer inputs) for ten seeded inputs per function."""
    rng = random.Random(seed)
    return [(call, gen(rng)) for call, gen in INTEGER_FORMULAS for _ in range(10)]


def test_integer_formulas_reject_other_numbers():
    """Each integer parameter must be an int: a float (integral or not), a
    bool or a numeric string in its place raises ValueError; the integers
    themselves give the values recorded before the check existed."""
    results = []
    for call, ints in _integer_formula_cases():
        results.append(call(*ints))
        for i, v in enumerate(ints):
            for bad in (float(v), v + 0.5, True, str(v)):
                with pytest.raises(ValueError):
                    call(*ints[:i], bad, *ints[i + 1:])
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == INTEGER_RESULTS_DIGEST


# ---------------------------------------------------------------------------
# degenerations


def test_degeneration_reference_instance():
    ok, witness = degeneration_admissible((11, 5), [(8, 3), (3, 2)])
    assert not ok
    assert witness is not None
    a1, a2 = witness
    assert min(a1 * 8, a2 * 3) + min(a1 * 3, a2 * 2) < min(a1 * 11, a2 * 5)
    # the canonical witness direction
    assert witness == (5, 11)
    assert min(5 * 8, 11 * 3) + min(5 * 3, 11 * 2) == 48 < 55


def test_degeneration_trivial_cases():
    assert degeneration_admissible((7, 3), [(7, 3)]) == (True, None)
    ok, _ = degeneration_admissible((5, 3), [(5, 3), (1, 1)])
    assert ok
    with pytest.raises(ValueError, match="^need a positive target and a nonempty parts list$"):
        degeneration_admissible((1, 1), [])
    with pytest.raises(ValueError, match="^parts must be positive$"):
        degeneration_admissible((1, 1), [(0, 1)])


def test_degeneration_matches_grid_bruteforce():
    rng = random.Random(1234)

    def brute(target, parts):
        p, q = target
        for num in range(1, 61):
            for den in range(1, 13):
                s = Fraction(num, den)
                total = sum(min(Fraction(pi), s * qi) for pi, qi in parts)
                if total < min(Fraction(p), s * q):
                    return False
        return True

    for _ in range(200):
        target = (rng.randint(1, 12), rng.randint(1, 12))
        parts = [
            (rng.randint(1, 12), rng.randint(1, 12))
            for _ in range(rng.randint(1, 3))
        ]
        exact, witness = degeneration_admissible(target, parts)
        assert exact == brute(target, parts)
        if not exact:
            a1, a2 = witness
            assert sum(min(a1 * pi, a2 * qi) for pi, qi in parts) < min(
                a1 * target[0], a2 * target[1]
            )


# sha256 of the repr of the values below, recorded at the commit before fib,
# half_shear and degeneration_admissible lost their special cases
GENERAL_FORMULA_DIGEST = "178c87e9ec4e10a35591859d9a1d6e3f882e156f8fca65df0e12580bda653e96"


def test_general_formulas_keep_the_special_cases():
    """fib(-1..300), half_shear on seeded vectors on both sides of its fixed
    half-plane, and degeneration_admissible with its witnesses on seeded
    targets and parts give the values recorded while each had a branch of its
    own for fib(-1), for a fixed vector, and for each asymptotic slope.  The
    degenerations fail at both slopes and at a breakpoint."""
    rng = random.Random(1597)
    values = [fib(i) for i in range(-1, 301)]
    sides = set()
    while len(values) < 302 + 300:
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if math.gcd(*v) == 1:
            w = (rng.randint(-9, 9), rng.randint(-9, 9))
            sides.add(wedge(w, v) > 0)
            values.append(half_shear(v, w))
    witnesses = set()
    for _ in range(600):
        target = (rng.randint(1, 12), rng.randint(1, 12))
        parts = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        ok, witness = degeneration_admissible(target, parts)
        values.append((ok, witness))
        if witness:
            s = Fraction(witness[1], witness[0])
            breakpoints = [Fraction(p, q) for p, q in parts + [target]]
            side = "below" if s < min(breakpoints) else "above" if s > max(breakpoints) else "at"
            witnesses.add(side)
    assert sides == {False, True}
    assert witnesses == {"below", "above", "at"}
    assert hashlib.sha256(repr(values).encode()).hexdigest() == GENERAL_FORMULA_DIGEST


# ---------------------------------------------------------------------------
# the pair <-> ray dictionary and the cross-check


def test_pair_ray_dictionary_fixed_points():
    assert pair_to_ray(2, 1) == (1, 0)
    assert pair_to_ray(5, 1) == (3, 1)
    assert pair_to_ray(13, 2) == (8, 3)
    assert pair_to_ray(8, 1) == (5, 2)
    assert pair_to_ray(3, 1) is None          # 3 does not divide p + q
    assert pair_to_ray(5, 4) is None          # image leaves the quadrant
    assert ray_to_pair(1, 0) == (2, 1)
    assert ray_to_pair(0, 1) == (2, 1)        # mirror ray, same sorted pair
    assert ray_to_pair(1, 1) is None          # no coprime pair on the diagonal
    assert ray_to_pair(2, 1) is None          # nominal pair (3, 0) is not coprime
    with pytest.raises(ValueError, match="^need a nonzero ray in the closed first quadrant$"):
        ray_to_pair(-1, 0)


def test_pair_ray_dictionary_roundtrip():
    for total in range(3, 200, 3):
        for q in range(1, total // 2 + 1):
            p = total - q
            if p < q or math.gcd(p, q) != 1:
                continue
            ray = pair_to_ray(p, q)
            if ray is None:
                continue
            assert ray_to_pair(*ray) == (p, q)


def test_fibonacci_pairs_land_on_fibonacci_fan():
    # staircase pairs sit on the discrete even-index Fibonacci rays
    for k in range(-1, 6):
        p, q = fib(2 * k + 5), fib(2 * k + 1)
        ray = pair_to_ray(p, q)
        assert ray == (fib(2 * k + 4), fib(2 * k + 2))
        a, b = ray
        assert a * a - 3 * a * b + b * b == 1


def test_cross_check_small_order():
    report = scattering_cross_check(5)
    assert report.agreement
    assert (2, 1) in report.detected_pairs()
    assert (5, 1) in report.detected_pairs()


def test_cross_check_deeper_order():
    # order 14 pulls in a new supercritical pair and three new
    # not-realizable ones; agreement must survive
    report = scattering_cross_check(14)
    assert report.agreement
    detected = set(report.detected_pairs())
    assert (14, 1) in detected
    undetected = set(report.reachable_pairs()) - detected
    assert {(17, 4), (20, 7), (23, 10)} <= undetected
    for row in report.rows:  # the grade p - q is a + b on every ray of the pair
        assert all(a + b == row.grade for a, b in row.rays)


def test_cross_check_rejects_tiny_order():
    with pytest.raises(ValueError):
        scattering_cross_check(2)


def test_cross_check_negative_control():
    def corrupted(p, q):
        result = classify_pair(p, q)
        if (p, q) == (2, 1):
            result = dataclasses.replace(result, verdict=NOT_REALIZABLE)
        return result

    report = scattering_cross_check(5, classifier=corrupted)
    assert not report.agreement
    assert (2, 1) in report.mismatches()


def test_cross_check_report_derives_its_agreement_from_its_rows():
    """A report built from rows with one verdict flipped disagrees, in its
    agreement, its mismatches and its JSON: no stored copy can contradict the
    rows."""
    rows = list(scattering_cross_check(5).rows)
    i = next(i for i, r in enumerate(rows) if (r.p, r.q) == (2, 1))
    rows[i] = dataclasses.replace(
        rows[i], classification=dataclasses.replace(rows[i].classification, verdict=NOT_REALIZABLE)
    )
    report = CrossCheckReport(5, tuple(rows), ())
    assert report.agreement is False
    assert report.mismatches() == [(2, 1)]
    assert report.to_json()["agreement"] is False


def test_cross_check_records_hold_only_what_their_producer_computed():
    """The records' fields are the producer's outputs; detection, grade,
    native rays, agreement and a pair's Diophantine facts are read-only
    properties derived from them."""
    fields = {
        Classification: ("p", "q", "verdict", "fibonacci_index"),
        CrossCheckRow: ("p", "q", "rays", "log_coefficient", "classification"),
        CrossCheckReport: ("order", "rows", "native_spectrum"),
    }
    derived = {
        Classification: ("diophantine", "divisible_by_three"),
        CrossCheckRow: ("detected", "grade", "native_rays"),
        CrossCheckReport: ("agreement",),
    }
    for cls, names in fields.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        for name in derived[cls]:
            assert isinstance(getattr(cls, name), property) and getattr(cls, name).fset is None
        assert not hasattr(cls, "coprime")
    assert Classification(2, 3, NOT_REALIZABLE, None).diophantine == -20


def test_cross_check_mirror_disagreement_is_an_internal_fault(monkeypatch):
    # the mirror rays (a, b) and (b, a) of a pair must carry one coefficient;
    # a disagreement is a fault of the engine, not bad input
    from scatstair import scattering

    original = scattering.log_coefficient

    def skewed(diagram, ray):
        value = original(diagram, ray)
        return 2 * value if ray[0] < ray[1] else value

    monkeypatch.setattr(scattering, "log_coefficient", skewed)
    with pytest.raises(scattering.ConventionError, match=r"mirror rays of pair \(2,1\) disagree"):
        scattering_cross_check(5)


def test_cross_check_report_serialization():
    report = scattering_cross_check(5)
    data = report.to_json()
    assert data["agreement"] is True
    assert [2, 1] in data["detected"]
    assert "pair" in report.to_table() or "cross-check" in report.to_table()
