"""Mutation calculus, GL(2,Z) comparison, the reference fan-ray map, and the
integer check on vectors and indices of the lattice, scattering and toric
layers."""

import hashlib
import itertools
import math
import random

import pytest

from scatstair import toric
from scatstair.lattice import is_primitive, mat_apply, primitive_part, wedge
from scatstair.scattering import (
    Wall,
    change_of_lattice,
    initial_diagram,
    ks_complete,
    log_coefficient,
)
from scatstair.series import TruncatedSeries
from scatstair.toric import (
    ToricModel,
    apply_word,
    elementary_transform_fan,
    format_model,
    gl2z_equivalent,
    half_shear,
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
    with pytest.raises(ValueError, match="^fan rays must be primitive$"):
        elementary_transform_fan([(2, 2), (-2, -2)], 0)


@pytest.mark.parametrize("i", [-1, 4, 5])
def test_elementary_transform_index_range(i):
    fan = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    with pytest.raises(ValueError, match=r"^fan index i out of range 0\.\.n-1$"):
        elementary_transform_fan(fan, i)


# ---------------------------------------------------------------------------
# mutation


def test_mutate_reference_model():
    m1 = mutate(T0, 1)
    assert m1.vectors == ((1, 3), (1, 0))
    m12 = mutate(m1, 2)
    assert m12.vectors == ((1, 3), (-1, 0))


def test_mutate_index_range():
    with pytest.raises(ValueError, match=r"mutation index 0 out of range 1\.\.2"):
        mutate(T0, 0)
    with pytest.raises(ValueError, match=r"mutation index 3 out of range 1\.\.2"):
        mutate(T0, 3)


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
    minus_one = ((-1, 0), (0, -1))
    assert m21.vectors == tuple(mat_apply(minus_one, v) for v in T0.vectors)
    assert gl2z_equivalent(T0, m21) == minus_one
    m12 = apply_word(T0, [2, 1])
    assert gl2z_equivalent(T0, m12) is not None


def test_single_mutations_not_equivalent():
    assert gl2z_equivalent(T0, mutate(T0, 1)) is None
    assert gl2z_equivalent(T0, mutate(T0, 2)) is None


def test_self_equivalence_identity():
    A = gl2z_equivalent(T0, T0)
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
    """Reordering a model's vectors keeps it in its class."""
    a = ToricModel(((1, 0), (0, 1)))
    b = ToricModel(((0, 1), (1, 0)))
    c = ToricModel(((1, 0), (1, 1)))
    d = ToricModel(((1, 1), (1, 0)))
    for x, y in ((a, b), (c, d)):
        A = gl2z_equivalent(x, y)
        assert A is not None
        assert sorted(mat_apply(A, v) for v in x.vectors) == sorted(y.vectors)


# ---------------------------------------------------------------------------
# the frame search against the solve-and-verify search it replaced


def _oracle_solve_matrix(src, dst):
    """Integer matrix A with det +-1 and A src_i = dst_i, if one exists."""
    (v1, v2), (w1, w2) = src, dst
    det = wedge(v1, v2)
    if det == 0:
        return None
    # A = [w1 w2] * [v1 v2]^{-1}
    inv = ((v2[1], -v2[0]), (-v1[1], v1[0]))  # adjugate of [v1 v2]
    entries = []
    for r in range(2):
        for c in range(2):
            num = w1[r] * inv[0][c] + w2[r] * inv[1][c]
            if num % det:
                return None
            entries.append(num // det)
    A = ((entries[0], entries[1]), (entries[2], entries[3]))
    if A[0][0] * A[1][1] - A[0][1] * A[1][0] not in (1, -1):
        return None
    return A


def _oracle_xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _oracle_completion(p):
    """A vector c with wedge(p, c) = 1 for the primitive vector p, so that
    p, c is a basis of Z^2."""
    _, x, y = _oracle_xgcd(*p)
    return (-y, x)


def oracle_gl2z_equivalent(a, b):
    """The earlier search: solve a 2x2 system for every candidate image of
    a's first independent pair, then check the whole multiset."""
    if len(a) != len(b):
        return None
    va, vb = a.vectors, b.vectors

    def matches(A):
        return sorted(mat_apply(A, v) for v in va) == sorted(vb)

    indep = next(
        (
            (i, j)
            for i in range(len(va))
            for j in range(i + 1, len(va))
            if wedge(va[i], va[j]) != 0
        ),
        None,
    )
    if indep is not None:
        i, j = indep
        candidates = [(vb[r], vb[s]) for r in range(len(vb)) for s in range(len(vb)) if r != s]
        for dst in candidates:
            A = _oracle_solve_matrix((va[i], va[j]), dst)
            if A is not None and matches(A):
                return A
        return None

    # All of a's vectors are colinear: map the basis p, _completion(p) onto
    # q, _completion(q) for q = +-(b's first vector).
    p = va[0]
    for q in {vb[0], (-vb[0][0], -vb[0][1])}:
        A = _oracle_solve_matrix((p, _oracle_completion(p)), (q, _oracle_completion(q)))
        if matches(A):
            return A
    return None


def _random_unimodular(rng):
    """A product of a few elementary GL(2, Z) moves."""
    A = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, 5)):
        k = rng.randint(-3, 3)
        E = rng.choice([((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))])
        A = tuple(
            tuple(sum(E[r][m] * A[m][c] for m in range(2)) for c in range(2)) for r in range(2)
        )
    return A


def _random_model(rng, length, bound=4):
    vectors = []
    while len(vectors) < length:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0) and math.gcd(*v) == 1:
            vectors.append(v)
    return ToricModel(tuple(vectors))


def _random_colinear(rng, length):
    p = _primitive(rng)
    return ToricModel(tuple(rng.choice([p, (-p[0], -p[1])]) for _ in range(length)))


def _random_symmetric(rng):
    """A model closed under the reflection (x, y) -> (x, -y): it has several
    frames at one vector that give the same image."""
    half = _random_model(rng, rng.randint(1, 3)).vectors
    return ToricModel(((1, 0),) + half + tuple((x, -y) for x, y in half))


def _comparison_pairs(rng, count):
    """Seeded (a, b) pairs: shuffled GL(2, Z) images, mutation words, random
    pairs, colinear models and shuffled reflection-symmetric models, cycled in
    that order."""
    for n in range(count):
        kind = n % 5
        if kind == 3:
            a = _random_colinear(rng, rng.randint(1, 4))
        elif kind == 4:
            a = _random_symmetric(rng)
        else:
            a = _random_model(rng, rng.randint(1, 5))
        if kind in (0, 4):
            A = _random_unimodular(rng)
            image = [mat_apply(A, v) for v in a.vectors]
            rng.shuffle(image)
            b = ToricModel(tuple(image))
        elif kind == 1:
            b = apply_word(a, [rng.randint(1, len(a)) for _ in range(rng.randint(0, 4))])
        elif kind == 2:
            b = _random_model(rng, len(a) if rng.random() < 0.8 else rng.randint(1, 5))
        else:
            A = _random_unimodular(rng)
            image = [mat_apply(A, v) for v in a.vectors]
            if rng.random() < 0.3:
                image[0] = (-image[0][0], -image[0][1])
            rng.shuffle(image)
            b = ToricModel(tuple(image))
        yield a, b


def test_frames_match_the_solve_search():
    """The frame search returns the earlier search's matrix, or None with it."""
    rng = random.Random(1414)
    found = 0
    for a, b in _comparison_pairs(rng, 3000):
        expected = oracle_gl2z_equivalent(a, b)
        assert gl2z_equivalent(a, b) == expected, (a, b)
        found += expected is not None
    assert found > 1500


def test_frame_match_places_the_second_vector():
    """b's first frame already puts b's multiset where a's frame puts a's, but
    it puts its own second vector at (1, 2), not at a's (0, 1): the matrix
    comes from the later frame that places both."""
    a = ToricModel(((1, 0), (0, 1), (1, 2), (0, -1), (1, -2)))
    b = ToricModel(((1, 0), (1, -2), (0, 1), (0, -1), (1, 2)))
    assert gl2z_equivalent(a, b) == oracle_gl2z_equivalent(a, b) == ((1, 0), (0, 1))


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


def test_orbit_nodes_are_the_classes_reached():
    """Orbit nodes are pairwise inequivalent under the earlier search, and
    every mutation of a node below the depth limit is equivalent to a node."""
    rng = random.Random(77)
    models = [T0, parse_model("1,2;-1,0;0,-1;2,1"), parse_model("1,0;1,0;-1,0")]
    models += [_random_model(rng, rng.randint(1, 4), bound=3) for _ in range(12)]
    for model in models:
        depth = 3
        nodes = mutation_orbit(model, depth)
        for x, y in itertools.combinations(nodes, 2):
            assert oracle_gl2z_equivalent(x.model, y.model) is None, (model, x, y)
        for node in nodes:
            if len(node.word) < depth:
                for i in range(1, len(model) + 1):
                    child = mutate(node.model, i)
                    assert any(
                        oracle_gl2z_equivalent(child, n.model) is not None for n in nodes
                    ), (model, node, i)


def test_orbit_deduplicates_by_class_key(monkeypatch):
    """The orbit compares no pair of models: each candidate's class key is
    looked up among the keys found so far."""

    def no_pairwise_search(*args, **kwargs):
        raise AssertionError("mutation_orbit called gl2z_equivalent")

    monkeypatch.setattr(toric, "gl2z_equivalent", no_pairwise_search)
    assert len(mutation_orbit(parse_model("1,2;-1,0;0,-1;2,1;1,-3"), 4)) == 358


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
    for p in range(1, 21):
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
    # and every nonzero vector is in the image, so the inverse never misses
    for m in itertools.product(range(-60, 61), repeat=2):
        if m != (0, 0):
            assert w_t0(*w_t0_inverse(m)) == m


def test_w_t0_inverse_rejects_zero():
    with pytest.raises(ValueError):
        w_t0_inverse((0, 0))


# ---------------------------------------------------------------------------
# integer vectors and indices


def _coprime(rng):
    """A primitive vector with entries in [-4, 4], as a list."""
    while True:
        v = [rng.randint(-4, 4), rng.randint(-4, 4)]
        if math.gcd(*v) == 1:
            return v


def _basis(rng):
    """Two independent primitive vectors, as one list of four entries."""
    while True:
        m1, m2 = _coprime(rng), _coprime(rng)
        if wedge(m1, m2):
            return m1 + m2


def _fan(rng):
    """A primitive v, -v and a primitive w, then the index of v or of -v."""
    v = _coprime(rng)
    return v + [-v[0], -v[1]] + _coprime(rng) + [rng.randint(0, 1)]


# graded by (1, 0), (0, 1) at order 8, so log_coefficient answers on every
# ray with entries in [-4, 4]
DIAGRAM = ks_complete(initial_diagram([((1, 0), 2), ((0, 1), 2)], 8))
SEEDS = initial_diagram([((1, 0), 2), ((0, 1), 1)], 6)

# (a call of each function on integers only, seeded integers in its domain);
# every integer is an entry of a vector, an index, a depth or a term cap
VECTOR_FORMULAS = [
    (lambda a, b: Wall((a, b), False, TruncatedSeries.one(4)), _coprime),
    (
        lambda a, b, k: initial_diagram([((a, b), k)], 4),
        lambda rng: _coprime(rng) + [rng.randint(1, 3)],
    ),
    (lambda a, b, c, d: change_of_lattice(DIAGRAM, (a, b), (c, d)), _basis),
    (lambda a, b: log_coefficient(DIAGRAM, (a, b)), _coprime),
    (lambda a, b, c, d: ToricModel(((a, b), (c, d))), lambda rng: _coprime(rng) + _coprime(rng)),
    (lambda a, b, c, d: half_shear((a, b), (c, d)), lambda rng: _coprime(rng) + _coprime(rng)),
    (lambda a, b: primitive_part((a, b)), _coprime),
    (lambda a, b: is_primitive((a, b)), lambda rng: [rng.randint(-4, 4), rng.randint(-4, 4)]),
    (
        lambda a, b, c, d, i: mutate(ToricModel(((a, b), (c, d))), i),
        lambda rng: _basis(rng) + [rng.randint(1, 2)],
    ),
    (lambda a, b, c, d, e, f, i: elementary_transform_fan([(a, b), (c, d), (e, f)], i), _fan),
    (
        lambda a, b, c, d, n: mutation_orbit(ToricModel(((a, b), (c, d))), n),
        lambda rng: _basis(rng) + [rng.randint(0, 2)],
    ),
    (lambda cap: ks_complete(SEEDS, cap), lambda rng: [rng.randint(100, 10**6)]),
]

# sha256 of the repr of every integer result of the default seed, recorded at
# the commit before these functions checked their vector entries and indices
VECTOR_RESULTS_DIGEST = "ba7b8d6171867453b03569e59ef567d038ef83654521b85d8c3b6a6d7797a38a"


def assert_vector_inputs_refused(seeds=(2718,)):
    """Call each function of VECTOR_FORMULAS on ten seeded integer inputs per
    seed, then once for each integer replaced by an integral float, a float, a
    bool and a numeric string, each of which must raise ValueError.  Returns
    the integer results and the number of calls refused."""
    results, refused = [], 0
    for seed in seeds:
        rng = random.Random(seed)
        for call, gen in VECTOR_FORMULAS:
            for _ in range(10):
                ints = gen(rng)
                results.append(call(*ints))
                for i, v in enumerate(ints):
                    for bad in (float(v), v + 0.5, bool(v), str(v)):
                        with pytest.raises(ValueError):
                            call(*ints[:i], bad, *ints[i + 1:])
                        refused += 1
    return results, refused


def test_vector_entries_and_indices_must_be_integers():
    """A float (integral or not), a bool or a numeric string as a vector entry,
    a mutation or fan index, an orbit depth or a term cap raises ValueError
    from the lattice check, not a TypeError from the arithmetic or indexing
    below it; the integers themselves give the values recorded before the
    check existed."""
    results, refused = assert_vector_inputs_refused()
    assert refused == 1640  # four bad values for each of 41 integers, ten times
    assert hashlib.sha256(repr(results).encode()).hexdigest() == VECTOR_RESULTS_DIGEST
