"""Mutation calculus, GL(2,Z) comparison, and the reference fan-ray map."""

import math
import random

import pytest

from scatstair.series import wedge
from scatstair.toric import (
    ToricModel,
    apply_word,
    elementary_transform_fan,
    format_model,
    gl2z_equivalent,
    half_shear,
    mat_apply,
    mutate,
    mutation_orbit,
    orbit_to_dot,
    orbit_to_json,
    parse_model,
    w_t0,
    w_t0_inverse,
)

T0 = ToricModel(((-1, -3), (1, 0)))


# ---------------------------------------------------------------------------
# half shears and fan moves


def test_half_shear_examples():
    assert half_shear((1, 0), (2, -3)) == (5, -3)
    assert half_shear((1, 0), (2, 3)) == (2, 3)
    assert half_shear((2, 1), (2, 1)) == (2, 1)


def test_half_shear_requires_primitive():
    with pytest.raises(ValueError):
        half_shear((2, 2), (1, 0))


def test_half_shear_fixes_closed_half_plane():
    rng = random.Random(3)
    for _ in range(100):
        v = (1, 0)
        w = (rng.randint(-5, 5), rng.randint(-5, 5))
        if wedge(w, v) <= 0:
            assert half_shear(v, w) == w


def test_half_shear_bijective_on_box():
    v = (1, 2)
    box = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    images = {half_shear(v, w) for w in box}
    assert len(images) == len(box)


def test_elementary_transform_square_fan():
    fan = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    image = elementary_transform_fan(fan, 2)  # at ray (0, 1)
    assert image == [(1, 1), (-1, 0), (0, 1), (0, -1)]
    # the result is the first Hirzebruch fan up to GL(2,Z)
    hirzebruch = ToricModel(tuple(sorted([(1, 0), (-1, 1), (0, 1), (0, -1)])))
    assert gl2z_equivalent(ToricModel(tuple(sorted(image))), hirzebruch) is not None


def test_elementary_transform_fixed_rays():
    fan = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    image = elementary_transform_fan(fan, 0)
    assert image[0] == (1, 0)      # the shear direction itself
    assert image[1] == (-1, 0)     # the opposite ray (wedge zero)


def test_elementary_transform_needs_opposite_ray():
    with pytest.raises(ValueError):
        elementary_transform_fan([(1, 0), (0, 1)], 0)


# ---------------------------------------------------------------------------
# mutation


def test_mutate_reference_model():
    m1 = mutate(T0, 1)
    assert m1.vectors == ((1, 3), (1, 0))
    m12 = mutate(m1, 2)
    assert m12.vectors == ((1, 3), (-1, 0))


def test_mutate_index_range():
    with pytest.raises(IndexError):
        mutate(T0, 0)
    with pytest.raises(IndexError):
        mutate(T0, 3)


def test_mutate_transforms_fan_rays():
    model = ToricModel(((0, 1),), fan_rays=((1, 0), (-1, 0), (0, 1), (0, -1)))
    out = mutate(model, 1)
    assert out.vectors == ((0, -1),)
    assert out.fan_rays == ((1, 1), (-1, 0), (0, 1), (0, -1))


def test_double_mutation_is_equivalence():
    rng = random.Random(11)
    for _ in range(100):
        length = rng.randint(1, 4)
        vectors = []
        while len(vectors) < length:
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v != (0, 0) and math.gcd(abs(v[0]), abs(v[1])) == 1:
                vectors.append(v)
        model = ToricModel(tuple(vectors))
        i = rng.randint(1, length)
        twice = mutate(mutate(model, i), i)
        assert gl2z_equivalent(model, twice) is not None


# ---------------------------------------------------------------------------
# GL(2,Z) equivalence


def test_reference_double_mutations():
    m21 = apply_word(T0, [1, 2])
    A = gl2z_equivalent(T0, m21, ordered=True)
    assert A == ((-1, 0), (0, -1))
    m12 = apply_word(T0, [2, 1])
    assert gl2z_equivalent(T0, m12) is not None


def test_single_mutations_not_equivalent():
    assert gl2z_equivalent(T0, mutate(T0, 1)) is None
    assert gl2z_equivalent(T0, mutate(T0, 2)) is None


def test_self_equivalence_identity():
    A = gl2z_equivalent(T0, T0, ordered=True)
    assert A == ((1, 0), (0, 1))


def test_equivalence_applies_matrix():
    other = apply_word(T0, [1, 2])
    A = gl2z_equivalent(T0, other)
    assert A is not None
    assert sorted(mat_apply(A, v) for v in T0.vectors) == sorted(other.vectors)


def test_colinear_models():
    a = ToricModel(((1, 0), (1, 0)))
    b = ToricModel(((2, 1), (2, 1)))
    A = gl2z_equivalent(a, b)
    assert A is not None
    assert mat_apply(A, (1, 0)) == (2, 1)
    c = ToricModel(((1, 0), (-1, 0)))
    assert gl2z_equivalent(a, c) is None


def _primitive(rng):
    while True:
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v != (0, 0) and math.gcd(*v) == 1:
            return v


def test_colinear_equivalence_property():
    """Models on one line: a unimodular matrix mapping a's multiset onto b's
    is found, or None exactly when the counts of the two signs differ."""
    rng = random.Random(2024)
    for _ in range(400):
        models, counts = [], []
        for _ in range(2):
            p = _primitive(rng)
            plus, minus = rng.randint(0, 3), rng.randint(0, 3)
            if plus + minus == 0:
                plus = 1
            vectors = [p] * plus + [(-p[0], -p[1])] * minus
            rng.shuffle(vectors)
            models.append(ToricModel(tuple(vectors)))
            counts.append(sorted((plus, minus)))
        a, b = models
        A = gl2z_equivalent(a, b)
        if counts[0] != counts[1]:
            assert A is None, (a, b)
            continue
        assert A is not None, (a, b)
        assert A[0][0] * A[1][1] - A[0][1] * A[1][0] in (1, -1)
        assert sorted(mat_apply(A, v) for v in a.vectors) == sorted(b.vectors)


def test_unordered_versus_ordered():
    a = ToricModel(((1, 0), (0, 1)))
    b = ToricModel(((0, 1), (1, 0)))
    assert gl2z_equivalent(a, b) is not None
    assert gl2z_equivalent(a, b, ordered=True) is not None  # swap matrix exists
    c = ToricModel(((1, 0), (1, 1)))
    d = ToricModel(((1, 1), (1, 0)))
    assert gl2z_equivalent(c, d) is not None


# ---------------------------------------------------------------------------
# orbits


def test_orbit_depth_zero():
    nodes = mutation_orbit(T0, 0)
    assert len(nodes) == 1
    assert nodes[0].model == T0 and nodes[0].word == ()


def test_orbit_depth_two_contents():
    nodes = mutation_orbit(T0, 2)
    models = [n.model for n in nodes]
    assert any(gl2z_equivalent(m, mutate(T0, 1)) is not None for m in models)
    # the depth-2 words land back in the seed class, so no new classes appear
    words = {n.word for n in nodes}
    assert (1, 2) not in words and (2, 1) not in words


def test_orbit_monotone_in_depth():
    shallow = {n.word for n in mutation_orbit(T0, 1)}
    deep = {n.word for n in mutation_orbit(T0, 2)}
    assert shallow <= deep


def test_orbit_export():
    nodes = mutation_orbit(T0, 1)
    data = orbit_to_json(nodes)
    assert len(data["nodes"]) == len(nodes)
    assert all(e["index"] in (1, 2) for e in data["edges"])
    dot = orbit_to_dot(nodes, "seed")
    assert dot.startswith("digraph") and "seed" in dot


def test_model_parse_format_roundtrip():
    model = parse_model("-1,-3;1,0")
    assert model == T0
    assert format_model(model) == "-1,-3;1,0"


# ---------------------------------------------------------------------------
# the fan-ray map of the reference model


def test_w_t0_reference_values():
    assert w_t0(2, 1) == (-1, -3)
    assert w_t0(1, 2) == (1, 0)
    assert w_t0(1, 1) == (0, -1)


def test_w_t0_zero_rejected():
    with pytest.raises(ValueError):
        w_t0(0, 0)


def test_w_t0_branch_agreement_on_boundaries():
    for scale in range(1, 30):
        p, q = 2 * scale, scale
        assert w_t0(p, q) == (q - p, q - 2 * p)  # middle branch at p = 2q
        p, q = scale, 2 * scale
        assert w_t0(p, q) == (p, q - 2 * p)      # lower branch at q = 2p


def test_w_t0_identifies_axes():
    for p in range(1, 10):
        assert w_t0(p, 0) == w_t0(0, p) == (0, p)


def test_w_t0_injective_and_gcd_preserving():
    seen = {}
    for p in range(0, 25):
        for q in range(0, 25):
            if (p, q) == (0, 0):
                continue
            if q == 0:
                continue  # (p, 0) ~ (0, p) is already covered by (0, p)
            m = w_t0(p, q)
            assert m not in seen, (p, q, seen[m])
            seen[m] = (p, q)
            assert math.gcd(p, q) == math.gcd(abs(m[0]), abs(m[1]))


def test_w_t0_lattice_membership():
    # image lies in the span of (-1,-3), (1,0) exactly when 3 | p + q
    for p in range(0, 20):
        for q in range(0, 20):
            if (p, q) == (0, 0):
                continue
            u, v = w_t0(p, q)
            assert (v % 3 == 0) == ((p + q) % 3 == 0)


def test_w_t0_inverse_values():
    assert w_t0_inverse((-1, -3)) == (2, 1)
    assert w_t0_inverse((-1, 0)) == (5, 1)


def test_w_t0_inverse_roundtrip():
    def quotient_rep(p, q):
        # (p, 0) ~ (0, p); the inverse emits axis classes as (p, 0)
        return (q, 0) if p == 0 else (p, q)

    for p in range(0, 20):
        for q in range(0, 20):
            if (p, q) == (0, 0):
                continue
            assert w_t0_inverse(w_t0(p, q)) == quotient_rep(p, q)


def test_w_t0_inverse_rejects_zero():
    with pytest.raises(ValueError):
        w_t0_inverse((0, 0))
