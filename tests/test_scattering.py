"""Wall crossing, monodromy, completion, lattice transport."""

import pytest

from scatstair.series import TruncatedSeries as TS
from scatstair.scattering import (
    ConventionError,
    ScatteringDiagram,
    TermCapExceeded,
    Wall,
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
    with pytest.raises(TermCapExceeded):
        ks_complete(initial_diagram([((1, 0), 3), ((0, 1), 3)], 10), term_cap=10)


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
