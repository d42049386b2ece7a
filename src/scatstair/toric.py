"""Toric-model mutation calculus on rank-two lattice data.

A toric model is encoded by its ordered list of primitive edge-blowup
directions m_1..m_l.  Mutation at index i negates m_i and applies the
primitive half-shear along m_i to the other vectors.  Models are compared up
to GL(2, Z) as unordered multisets, through frames: the normal forms that put
one vector at (1, 0) and a second at (x, y) with 0 <= x < y.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ._record import Record
from .lattice import (
    Matrix, Vec, at_least, integers, mat_apply, nonzero_nonnegative, parse_vec, primitive, wedge,
)


def half_shear(v: Vec, w: Vec) -> Vec:
    """Primitive half-shear along v: w + max(w ^ v, 0) * v.

    Fixes the closed half-plane {w : w ^ v <= 0} pointwise and shears the
    other half along v; a bijection of Z^2.
    """
    integers(*w)
    primitive(v, "half-shear direction")
    c = max(wedge(w, v), 0)
    return (w[0] + c * v[0], w[1] + c * v[1])


def elementary_transform_fan(fan: Sequence[Vec], i: int) -> List[Vec]:
    """Fan rays after the blowup/blowdown move at ray index i (0-based).

    Requires primitive rays, -fan[i] among them (existence of the ruling).
    """
    integers(i)
    if not 0 <= i < len(fan):
        raise ValueError(f"fan index {i} out of range 0..{len(fan) - 1}")
    for w in fan:
        primitive(w, "fan ray")
    v = fan[i]
    if (-v[0], -v[1]) not in fan:
        raise ValueError(f"opposite ray {(-v[0], -v[1])} missing from the fan")
    return [half_shear(v, w) for w in fan]


class ToricModel(Record):
    """Edge-blowup data: ordered primitive vectors."""

    __slots__ = ("vectors",)
    vectors: Tuple[Vec, ...]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("a toric model needs at least one blowup vector")
        for m in self.vectors:
            primitive(m, "blowup vector")

    def __len__(self) -> int:
        return len(self.vectors)


def mutate(model: ToricModel, i: int) -> ToricModel:
    """Mutation at the 1-based index i: negate m_i, half-shear the rest along m_i.

    The requirement that -m_i be an ambient fan ray is not enforced; extra
    corner blowups can always arrange it without changing the vector data.
    """
    integers(i)
    if not 1 <= i <= len(model):
        raise ValueError(f"mutation index {i} out of range 1..{len(model)}")
    mi = model.vectors[i - 1]
    new_vectors = []
    for s, m in enumerate(model.vectors, start=1):
        if s == i:
            new_vectors.append((-mi[0], -mi[1]))
        else:
            new_vectors.append(half_shear(mi, m))
    return ToricModel(tuple(new_vectors))


def apply_word(model: ToricModel, word: Sequence[int]) -> ToricModel:
    for i in word:
        model = mutate(model, i)
    return model


# ---------------------------------------------------------------------------
# GL(2, Z) comparison by frames


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
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


def _frame(u: Vec, v: Vec) -> Matrix:
    """The frame of the primitive u and of v: for v off u's line, the unique M
    in GL(2, Z) with M u = (1, 0) and M v = (x, y), 0 <= x < y; otherwise the
    det-1 M taking u and its ``_xgcd`` basis completion to the standard basis."""
    _, s, t = _xgcd(*u)
    y = wedge(u, v)
    bottom = (-u[1], u[0]) if y >= 0 else (u[1], -u[0])
    k = (s * v[0] + t * v[1]) // abs(y) if y else 0
    return ((s - k * bottom[0], t - k * bottom[1]), bottom)


def _independent_pairs(vectors: Sequence[Vec]) -> Iterator[Tuple[int, int]]:
    """Index pairs (r, s) of linearly independent vectors, r-major."""
    n = range(len(vectors))
    return ((r, s) for r in n for s in n if wedge(vectors[r], vectors[s]) != 0)


def _frame_pairs(vectors: Sequence[Vec]) -> List[Tuple[Vec, Vec]]:
    """The pairs (u, v) whose frames put ``vectors`` in normal form: every
    ordered independent pair, or else (q, q) for q = +-(the first vector)."""
    pairs = [(vectors[r], vectors[s]) for r, s in _independent_pairs(vectors)]
    q = vectors[0]
    return pairs or [(p, p) for p in {q, (-q[0], -q[1])}]


def _class_key(model: ToricModel) -> Tuple[Vec, ...]:
    """The least sorted image of the vectors over all their frames: equal
    exactly for unordered GL(2, Z)-equivalent models."""
    vs = model.vectors
    frames = (_frame(u, v) for u, v in _frame_pairs(vs))
    return min(tuple(sorted(mat_apply(M, w) for w in vs)) for M in frames)


def gl2z_equivalent(a: ToricModel, b: ToricModel) -> Optional[Matrix]:
    """A matrix in GL(2, Z) taking a's vectors to b's as multisets, or None.

    a's first frame M_a is that of its first independent pair i < j, or of
    its first vector if all are colinear.  b's frames M_b of pairs (u, v) are
    tried in turn; the first that puts v where M_a puts a_j, and b where M_a
    puts a, gives M_b^-1 M_a, the matrix taking a_i, a_j to u, v.
    """
    if len(a) != len(b):
        return None
    va, vb = a.vectors, b.vectors
    i, j = next(_independent_pairs(va), (0, 0))
    frame = _frame(va[i], va[j])
    target = (mat_apply(frame, va[j]), sorted(mat_apply(frame, w) for w in va))
    for u, v in _frame_pairs(vb):
        M = _frame(u, v)
        if (mat_apply(M, v), sorted(mat_apply(M, w) for w in vb)) == target:
            (p, q), (r, s), (e, f), (g, h) = M + frame
            d = p * s - q * r  # M^-1 = d adj(M), as d = +-1
            return ((d * (s * e - q * g), d * (s * f - q * h)),
                    (d * (p * g - r * e), d * (p * h - r * f)))
    return None


# ---------------------------------------------------------------------------
# mutation orbits


class OrbitNode(Record):
    __slots__ = ("model", "word")
    model: ToricModel
    word: Tuple[int, ...]


def mutation_orbit(model: ToricModel, depth: int) -> List[OrbitNode]:
    """Breadth-first mutation words up to ``depth``, deduplicated by unordered
    GL(2, Z) equivalence: a mutation is kept when its ``_class_key`` is new.
    The seed appears first with the empty word."""
    at_least(depth, 0, "depth")
    nodes = [OrbitNode(model, ())]
    seen = {_class_key(model)}
    frontier = [nodes[0]]
    for _ in range(depth):
        new_frontier = []
        for node in frontier:
            for i in range(1, len(model) + 1):
                cand = mutate(node.model, i)
                key = _class_key(cand)
                if key in seen:
                    continue
                seen.add(key)
                child = OrbitNode(cand, node.word + (i,))
                nodes.append(child)
                new_frontier.append(child)
        frontier = new_frontier
        if not frontier:
            break
    return nodes


# ---------------------------------------------------------------------------
# the piecewise-linear fan-ray map of the reference model


def w_t0(p: int, q: int) -> Vec:
    """Fan-ray map of the reference toric model on the quotient of Z^2_{>=0}
    identifying (p, 0) with (0, p).

    Branches by the ratio p/q; the branch matrices are unimodular and agree
    on the shared boundary rays p = 2q and q = 2p.
    """
    nonzero_nonnegative((p, q), "(p, q)")
    if p >= 2 * q:
        return (-q, p - 5 * q)
    if 2 * p >= q:
        return (q - p, q - 2 * p)
    return (p, q - 2 * p)


def w_t0_inverse(m: Vec) -> Tuple[int, int]:
    """The unique (p, q) with w_t0(p, q) = m, chosen by branch-cone membership.

    On the quotient identifying (p, 0) with (0, p) the map is a bijection;
    axis classes are returned in the (p, 0) form.
    """
    integers(*m)
    if m == (0, 0):
        raise ValueError("zero vector is not in the image")
    u, v = m
    if u <= 0 and v >= 3 * u:  # the image of p >= 2q under (p, q) -> (-q, p - 5q)
        return (v - 5 * u, -u)
    if v <= 0:  # the image of q <= 2p < 4q under (p, q) -> (q - p, q - 2p)
        return (u - v, 2 * u - v)
    return (u, v + 2 * u)  # the image of 2p < q under (p, q) -> (p, q - 2p)


# ---------------------------------------------------------------------------
# parsing and export


def parse_model(text: str) -> ToricModel:
    """Parse the CLI vector syntax ``a,b;c,d``."""
    return ToricModel(tuple(parse_vec(chunk) for chunk in text.split(";")))


def format_model(model: ToricModel) -> str:
    return ";".join(f"{a},{b}" for a, b in model.vectors)


def _edges(nodes: Sequence[OrbitNode]) -> List[Tuple[OrbitNode, OrbitNode]]:
    """(parent, child) for every node but the seed, in node order; a node's
    parent is the node whose word is its word without the last index."""
    by_word = {n.word: n for n in nodes}
    return [(by_word[n.word[:-1]], n) for n in nodes if n.word]


def orbit_to_json(nodes: Sequence[OrbitNode]) -> dict:
    return {
        "nodes": [
            {"model": format_model(n.model), "word": list(n.word)} for n in nodes
        ],
        "edges": [
            {"from": format_model(parent.model), "to": format_model(n.model), "index": n.word[-1]}
            for parent, n in _edges(nodes)
        ],
    }


def orbit_to_dot(nodes: Sequence[OrbitNode], provenance: str) -> str:
    """DOT graph of an orbit; ``provenance``, the input echo, is required and
    goes in a comment on the second line."""
    lines = ["digraph mutation_orbit {", f"  // {provenance}"]
    for n in nodes:
        lines.append(f'  "{format_model(n.model)}";')
    for parent, n in _edges(nodes):
        lines.append(
            f'  "{format_model(parent.model)}" -> "{format_model(n.model)}" '
            f'[label="{n.word[-1]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
