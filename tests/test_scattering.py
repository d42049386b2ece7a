"""Wall crossing, monodromy, completion, lattice transport."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from scatstair.series import TruncatedSeries as TS, primitive_part
from scatstair.scattering import (
    ConventionError,
    ScatteringDiagram,
    TermCapExceeded,
    Wall,
    _label_slices,
    _power_slices,
    apply_wall,
    canonicalize,
    change_of_lattice,
    defect_at_order,
    diagram_from_json,
    diagram_to_json,
    diagram_to_svg,
    initial_diagram,
    ks_complete,
    log_coefficient,
    ray_spectrum,
    total_monodromy,
)


def mono(order, exponent, k=0, c=1):
    return TS.monomial(order, exponent, k, c)


def x_series(order):
    return mono(order, (1, 0))


def y_series(order):
    return mono(order, (0, 1))


def wall(direction, text, order, incoming=False):
    return Wall(direction, incoming, TS.from_text(order, text))


def pentagon(order=10):
    return ks_complete(initial_diagram([((1, 0), 1), ((0, 1), 1)], order))


# ---------------------------------------------------------------------------
# wall automorphisms


def test_wall_membership_validation():
    with pytest.raises(ValueError):
        wall((1, 0), "1 + t*y", 5)  # wrong monomial direction
    with pytest.raises(ValueError):
        wall((1, 0), "2 + t*x", 5)  # constant term not 1
    with pytest.raises(ValueError):
        wall((2, 2), "1 + t*x^2*y^2", 5)  # non-primitive ray
    with pytest.raises(ValueError):
        Wall((1, 0), True, TS.from_text(5, "1 + t*x"))  # incoming wants z^(-d)


def test_crossing_example_direction_2_3():
    # label (1+t x^2 y^3)^7 on the (2,3) ray: exponent on x^a y^b is 7(-3a+2b)
    w = Wall((2, 3), False, (TS.one(3) + mono(3, (2, 3), 1)) ** 7)
    image = apply_wall(w, y_series(3))
    assert image.coefficient((0, 1), 0) == 1
    assert image.coefficient((2, 4), 1) == 14
    # x^a y^b with -3a + 2b = 0 is fixed
    assert apply_wall(w, mono(3, (2, 3), 0)) == mono(3, (2, 3), 0)


def test_crossing_axis_fixes_x():
    w = wall((1, 0), "1 + t*x", 5)
    assert apply_wall(w, x_series(5)) == x_series(5)


def test_crossing_negative_exponent():
    w = wall((0, 1), "1 + t*y", 3)
    image = apply_wall(w, x_series(3))
    expected = x_series(3) - mono(3, (1, 1), 1) + mono(3, (1, 2), 2)
    assert image == expected


def test_same_ray_walls_commute():
    w1 = wall((1, 2), "1 + t^3*x*y^2", 9)
    w2 = wall((1, 2), "1 + 2*t^6*x^2*y^4", 9)
    probe = x_series(9) + mono(9, (2, 1), 1)
    assert apply_wall(w1, apply_wall(w2, probe)) == apply_wall(w2, apply_wall(w1, probe))


# Walls on several primitive rays; the label lives on z^m with m = -d for an
# incoming wall and m = d for an outgoing one.
ORACLE_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (2, 3), (-3, 1), (1, -2), (-2, -5)]


def _random_coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def _random_wall(rng, order):
    """A wall with 1 to 3 nontrivial label terms, at times two at one t-degree."""
    d = rng.choice(ORACLE_RAYS)
    incoming = rng.random() < 0.5
    m = (-d[0], -d[1]) if incoming else d
    degrees = [rng.randint(1, order - 1) for _ in range(rng.randint(1, 3))]
    if len(degrees) > 1 and rng.random() < 0.5:
        degrees[1] = degrees[0]
    terms = {(0, 0, 0): Fraction(1)}
    for j, k in enumerate(degrees, start=1):
        terms[(j * m[0], j * m[1], k)] = _random_coeff(rng)
    return Wall(d, incoming, TS(order, terms))


def _random_probe(rng, order):
    """1 to 4 terms with exponents up to 6 in each coordinate, so that the
    crossing exponents wedge(d, w) reach past 10 in absolute value."""
    return TS(order, {
        (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(0, order - 1)): _random_coeff(rng)
        for _ in range(rng.randint(1, 4))
    })


def reference_apply_wall(w, s):
    """sum_e S_e * f^e by TruncatedSeries products, with ``**`` taking the
    geometric-series inverse for e < 0."""
    out = TS.zero(s.order)
    d = w.direction
    for (a, b, k), c in s.terms.items():
        out = out + mono(s.order, (a, b), k, c) * w.label ** (d[0] * b - d[1] * a)
    return out


def test_apply_wall_matches_power_products():
    rng = random.Random(4242)
    widest = 0
    for case in range(320):
        order = rng.randint(2, 9)
        w, s = _random_wall(rng, order), _random_probe(rng, order)
        widest = max([widest] + [abs(w.crossing_exponent(key[:2])) for key in s.terms])
        assert apply_wall(w, s) == reference_apply_wall(w, s), (case, w, s)
    assert widest >= 10


def test_power_slices_match_series_powers():
    rng = random.Random(977)
    for _ in range(12):
        order = rng.randint(2, 9)
        f = _random_wall(rng, order).label
        label = _label_slices(f)
        for e in range(-12, 13):
            slices = {0: {(0, 0): Fraction(1)}}
            _power_slices(label, e, slices, 1, order - 1)
            assert all(slices.values())  # no empty slice is stored
            got = TS(order, {(a, b, m): c for m, g in slices.items() for (a, b), c in g.items()})
            assert got == f ** e, (f, e)
            # extending in two steps, as the completion's cache does, agrees
            split = rng.randint(1, order - 1)
            stepwise = {0: {(0, 0): Fraction(1)}}
            _power_slices(label, e, stepwise, 1, split)
            _power_slices(label, e, stepwise, split + 1, order - 1)
            assert stepwise == slices


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_empty_diagram():
    d = ScatteringDiagram(6, ())
    assert total_monodromy(d) == (x_series(6), y_series(6))


def test_monodromy_two_incoming_seeds():
    d = initial_diagram([((1, 0), 1), ((0, 1), 1)], 2)
    sx, sy = total_monodromy(d)
    assert sx == x_series(2) + mono(2, (1, 1), 1)
    assert sy == y_series(2) - mono(2, (1, 1), 1)


def test_pentagon_monodromy_trivial():
    S = pentagon(10)
    sx, sy = total_monodromy(S)
    assert sx == x_series(10)
    assert sy == y_series(10)


# ---------------------------------------------------------------------------
# defects


def test_defect_after_order_one_repair():
    d = initial_diagram([((1, 0), 1), ((0, 1), 1)], 4)
    walls = d.walls + (
        wall((1, 0), "1 + t*x", 4),
        wall((0, 1), "1 + t*y", 4),
    )
    repaired = ScatteringDiagram(4, walls, d.grading)
    report = defect_at_order(repaired, 2)
    assert set(report.terms) == {(1, 1)}


def test_defect_of_punctured_pentagon():
    # deleting the diagonal wall leaves a single defect at (1,1), cancelled
    # exactly by re-adding the wall 1 + t^2 x y
    S = pentagon(6)
    walls = tuple(w for w in S.walls if w.direction != (1, 1))
    broken = ScatteringDiagram(6, walls, S.grading)
    report = defect_at_order(broken, 2)
    assert set(report.terms) == {(1, 1)}
    c = report.terms[(1, 1)]
    label = TS.one(6) + mono(6, (1, 1), 2, -c)
    assert label == TS.from_text(6, "1 + t^2*x*y")


def test_defect_on_completed_diagram_is_empty():
    S = pentagon(8)
    for k in range(1, 8):
        assert not defect_at_order(S, k)


def test_defect_requires_lower_orders_trivial():
    d = initial_diagram([((1, 0), 1), ((0, 1), 1)], 4)
    with pytest.raises(ValueError):
        defect_at_order(d, 2)  # order-1 defect still present


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_merges_same_ray():
    w1 = wall((1, 0), "1 + t*x", 5)
    d = ScatteringDiagram(5, (w1, w1))
    merged = canonicalize(d)
    assert len(merged.walls) == 1
    assert merged.walls[0].label == TS.from_text(5, "1 + t*x") ** 2


def test_canonicalize_drops_trivial_and_is_idempotent():
    w_triv = Wall((1, 0), False, TS.one(5))
    d = ScatteringDiagram(5, (w_triv, wall((0, 1), "1 + t*y", 5)))
    c1 = canonicalize(d)
    assert [w.direction for w in c1.walls] == [(0, 1)]
    assert canonicalize(c1) == c1


# ---------------------------------------------------------------------------
# completion


def test_pentagon_walls_exact():
    S = pentagon(10)
    layout = {(w.direction, w.incoming): w.label for w in S.walls}
    assert len(layout) == 5
    assert layout[((1, 0), False)] == TS.from_text(10, "1 + t*x")
    assert layout[((0, 1), False)] == TS.from_text(10, "1 + t*y")
    assert layout[((1, 1), False)] == TS.from_text(10, "1 + t^2*x*y")
    assert layout[((-1, 0), True)] == TS.from_text(10, "1 + t*x")
    assert layout[((0, -1), True)] == TS.from_text(10, "1 + t*y")


def test_completion_keeps_incoming_walls():
    d = initial_diagram([((1, 0), 2), ((0, 1), 2)], 7)
    S = ks_complete(d)
    incoming = {(w.direction, w.label) for w in S.walls if w.incoming}
    assert incoming == {(w.direction, w.label) for w in d.walls}
    assert all(not w.incoming for w in S.walls if w.direction not in {(-1, 0), (0, -1)})


def test_completion_idempotent():
    S = pentagon(8)
    again = ks_complete(S)
    assert canonicalize(again) == canonicalize(S)


def test_completion_term_cap():
    with pytest.raises(TermCapExceeded) as info:
        ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 10), term_cap=10)
    # the seeds (1 + tx)^3, (1 + ty)^3 store 4 terms each and order 1 adds
    # the outgoing walls 1 + 3tx and 1 + 3ty
    assert info.value.order == 1
    assert str(info.value) == "diagram stores 12 terms (cap 10) after order 1 of 10"


def test_double_seed_labels():
    # the order-9 twice-weighted diagram reproduces the squared closed forms
    S = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 9))
    one = TS.one(9)
    for k in range(0, 4):
        w = S.wall_on_ray((k, k + 1))
        assert w is not None
        assert w.label == (one + mono(9, (k, k + 1), 2 * k + 1)) ** 2
        w = S.wall_on_ray((k + 1, k))
        assert w is not None
        assert w.label == (one + mono(9, (k + 1, k), 2 * k + 1)) ** 2
    diag = S.wall_on_ray((1, 1))
    assert diag is not None
    assert diag.label == (one - mono(9, (1, 1), 2)) ** -4


def test_swap_symmetry():
    # x <-> y reflects the symmetric diagram across the diagonal
    S = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 7))
    labels = {(w.direction, w.incoming): w.label for w in S.walls}
    for (d, inc), label in labels.items():
        mirror = (d[1], d[0])
        swapped = TS(
            label.order, {(b, a, k): c for (a, b, k), c in label.terms.items()}
        )
        assert labels[(mirror, inc)] == swapped


def test_grading_invariant():
    S = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 8))
    for w in S.walls:
        for (a, b, k) in w.label.terms:
            if (a, b, k) == (0, 0, 0):
                continue
            assert a >= 0 and b >= 0 and k == a + b


def test_completion_determinism():
    d = initial_diagram([((1, 0), 2), ((0, 1), 2)], 8)
    assert ks_complete(d) == ks_complete(d)


def reference_complete(diagram):
    """The completion loop that recomputes the whole defect at every order.

    Returns the completed diagram and, per order that added walls, the term
    count of the merged diagram afterwards."""
    diag = canonicalize(diagram)
    K, totals = diag.order, {}
    for k in range(1, K):
        report = defect_at_order(diag, k)
        if report:
            walls = list(diag.walls)
            for w, c in sorted(report.terms.items()):
                p, j = primitive_part(w)
                walls.append(Wall(p, False, TS.one(K) + mono(K, w, k, -j * c)))
            diag = canonicalize(ScatteringDiagram(K, tuple(walls), diag.grading))
            totals[k] = diag.total_terms()
    if total_monodromy(diag) != (x_series(K), y_series(K)):
        raise ConventionError("completion finished with nontrivial monodromy")
    return diag, totals


def _outcome(fn, *args):
    """(result, None), or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except (ValueError, ConventionError) as exc:
        return None, (type(exc), str(exc))


def _random_seeds(rng):
    def primitive():
        while True:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0) and gcd(*v) == 1:
                return v

    return [(primitive(), rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]


_rng = random.Random(20250)
EQUIVALENCE_CASES = [
    ([((1, 0), 1), ((0, 1), 1)], 10),
    ([((1, 0), 2), ((0, 1), 2)], 9),
    ([((1, 0), 3), ((0, 1), 3)], 9),
    ([((-1, -3), 1), ((1, 0), 1)], 9),
    ([((1, 0), 1), ((0, 1), 1), ((1, 1), 1)], 7),
    ([((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((-1, 1), 1)], 6),
    ([((-3, 1), 1), ((0, 1), 1), ((-1, -2), 1)], 6),  # several lowest terms on a ray
] + [(_random_seeds(_rng), 6) for _ in range(40)]


def _case_id(case):
    seeds, order = case
    return " ".join(f"{m[0]},{m[1]}^{k}" for m, k in seeds) + f" K={order}"


@pytest.mark.parametrize("seeds,order", EQUIVALENCE_CASES, ids=map(_case_id, EQUIVALENCE_CASES))
def test_completion_matches_reference(seeds, order):
    diagram = initial_diagram(seeds, order)
    want, want_error = _outcome(reference_complete, diagram)
    got, got_error = _outcome(ks_complete, diagram, None)
    assert got_error == want_error
    if want_error:
        return
    completed, totals = want
    assert got == completed
    for cap in (10, 50):
        over = next((k for k, n in totals.items() if n > cap), None)
        if over is None:
            assert ks_complete(diagram, cap) == completed
            continue
        with pytest.raises(TermCapExceeded) as info:
            ks_complete(diagram, cap)
        assert info.value.order == over
        assert str(info.value) == (
            f"diagram stores {totals[over]} terms (cap {cap}) after order {over} of {order}"
        )


def test_completion_drops_a_wall_that_cancels():
    # (1 + t*x) on the outgoing ray (1,0) is cancelled order by order: the
    # factors 1 - t*x, 1 + t^2*x^2, 1 + t^4*x^4 leave 1 - t^8*x^8 = 1 mod t^5
    lone = ScatteringDiagram(5, (wall((1, 0), "1 + t*x", 5),))
    assert ks_complete(lone) == ScatteringDiagram(5, ())
    assert reference_complete(lone)[0] == ScatteringDiagram(5, ())


def reineke_label(m, order):
    """f_(1,1) for seeds (1 + tx)^m, (1 + ty)^m: the Gross-Pandharipande-Siebert
    closed form proved by Reineke,
    (sum_j C((m-1)^2 j, j) / ((m^2 - 2m) j + 1) * (t^2 xy)^j)^(m^2)."""
    base = TS(order, {
        (j, j, 2 * j): Fraction(comb((m - 1) ** 2 * j, j), (m * m - 2 * m) * j + 1)
        for j in range(order // 2 + 1)
    })
    return base ** (m * m)


@pytest.mark.parametrize("m,order", [(2, 20), (3, 20), (4, 16)])
def test_diagonal_label_matches_reineke(m, order):
    S = ks_complete(initial_diagram([((1, 0), m), ((0, 1), m)], order))
    assert S.wall_on_ray((1, 1)).label == reineke_label(m, order)


# ---------------------------------------------------------------------------
# change of lattice


def test_change_of_lattice_identity():
    S = pentagon(8)
    assert change_of_lattice(S, (1, 0), (0, 1)) == S


def test_change_of_lattice_ray_images():
    S = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 9))
    T = change_of_lattice(S, (-1, -3), (1, 0))
    dirs = {w.direction for w in T.walls if not w.incoming}
    # (1,1) maps to primitive part of m1 + m2 = (0,-3), i.e. (0,-1)
    assert (0, -1) in dirs
    # the axis rays map to m1 and m2
    assert (-1, -3) in dirs and (1, 0) in dirs


def test_change_of_lattice_matches_native_completion():
    native = ks_complete(initial_diagram([((-1, -3), 1), ((1, 0), 1)], 9))
    std = ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 9))
    transported = change_of_lattice(std, (-1, -3), (1, 0))
    native_rays = {(w.direction, w.incoming) for w in native.walls}
    transported_rays = {(w.direction, w.incoming) for w in transported.walls}
    assert native_rays == transported_rays


def test_change_of_lattice_rejects_colinear():
    S = pentagon(6)
    with pytest.raises(ValueError):
        change_of_lattice(S, (1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# coefficient extraction and spectra


def test_log_coefficient_pentagon():
    S = pentagon(10)
    assert log_coefficient(S, (1, 1), 1) == 1
    assert log_coefficient(S, (2, 1), 1) == 0  # no wall on that ray
    assert log_coefficient(S, (1, 0), 1) == 1


def test_log_coefficient_double_seed():
    S = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 9))
    assert log_coefficient(S, (1, 1), 1) == 4
    assert log_coefficient(S, (1, 1), 2) == 2


def test_log_coefficient_truncation_guard():
    from scatstair.scattering import TruncationTooLow

    S = pentagon(4)
    with pytest.raises(TruncationTooLow):
        log_coefficient(S, (1, 1), 2)  # z^(2,2) first appears at t^4


def test_ray_spectrum_pentagon():
    S = pentagon(10)
    spectrum = {d: (o, c) for d, o, c in ray_spectrum(S)}
    assert spectrum[(1, 0)] == (1, 1)
    assert spectrum[(1, 1)] == (2, 1)
    assert spectrum[(0, 1)] == (1, 1)


def test_ray_spectrum_double_seed_ray_1_2():
    S = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 9))
    spectrum = {d: (o, c) for d, o, c in ray_spectrum(S)}
    assert spectrum[(1, 2)] == (3, 2)


def test_ray_spectrum_one_entry_per_graded_ray():
    for seeds in ([((1, 0), 1), ((0, 1), 1)], [((1, 0), 2), ((0, 1), 3)], [((-1, -3), 1), ((1, 0), 1)]):
        S = ks_complete(initial_diagram(seeds, 8))
        dirs = [d for d, _, _ in ray_spectrum(S)]
        assert dirs == [w.direction for w in S.outgoing_walls() if len(w.label.terms) > 1]


def test_ray_spectrum_empty():
    assert ray_spectrum(ScatteringDiagram(5, ())) == []


# ---------------------------------------------------------------------------
# serialization


def test_diagram_json_roundtrip():
    S = pentagon(8)
    data = diagram_to_json(S)
    back = diagram_from_json(data)
    assert canonicalize(back) == canonicalize(ScatteringDiagram(S.order, S.walls))


def test_diagram_json_order_is_angular():
    S = pentagon(8)
    dirs = [tuple(w["dir"]) for w in diagram_to_json(S)["walls"]]
    assert dirs == [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)]


def test_svg_output_contains_rays():
    svg = diagram_to_svg(pentagon(6), "demo")
    assert svg.startswith("<svg")
    assert svg.count("<line") == 5
    assert "demo" in svg
