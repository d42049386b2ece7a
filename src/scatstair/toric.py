"""Toric-model mutation calculus on rank-two lattice data.

A toric model is encoded by its ordered list of primitive edge-blowup
directions m_1..m_l (plus, optionally, the ambient fan rays).  Mutation at
index i negates m_i and applies the primitive half-shear along m_i to the
other vectors; models are compared up to GL(2, Z), by default as unordered
multisets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ._record import Record
from .lattice import Vec, is_primitive, wedge

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))


def mat_apply(m: Matrix, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_det(m: Matrix) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def half_shear(v: Vec, w: Vec) -> Vec:
    """Primitive half-shear along v: w + max(w ^ v, 0) * v.

    Fixes the closed half-plane {w : w ^ v <= 0} pointwise and shears the
    other half along v; a bijection of Z^2.
    """
    if not is_primitive(v):
        raise ValueError(f"half-shear direction {v} must be primitive")
    c = wedge(w, v)
    if c <= 0:
        return w
    return (w[0] + c * v[0], w[1] + c * v[1])


def elementary_transform_fan(fan: Sequence[Vec], i: int) -> List[Vec]:
    """Fan rays after the blowup/blowdown move at ray index i (0-based).

    Requires -fan[i] to appear among the rays (existence of the ruling).
    """
    v = fan[i]
    if not is_primitive(v):
        raise ValueError("fan rays must be primitive")
    if (-v[0], -v[1]) not in fan:
        raise ValueError(f"opposite ray {(-v[0], -v[1])} missing from the fan")
    return [half_shear(v, w) for w in fan]


class ToricModel(Record):
    """Edge-blowup data: ordered primitive vectors, optional ambient fan rays."""

    __slots__ = ("vectors", "fan_rays")
    _defaults = {"fan_rays": None}
    vectors: Tuple[Vec, ...]
    fan_rays: Optional[Tuple[Vec, ...]]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("a toric model needs at least one blowup vector")
        for m in self.vectors:
            if not is_primitive(m):
                raise ValueError(f"blowup vector {m} is not primitive")

    def __len__(self) -> int:
        return len(self.vectors)

    def key(self) -> Tuple[Vec, ...]:
        return tuple(sorted(self.vectors))


def mutate(model: ToricModel, i: int) -> ToricModel:
    """Mutation at the 1-based index i: negate m_i, half-shear the rest along m_i.

    The requirement that -m_i be an ambient fan ray is not enforced; extra
    corner blowups can always arrange it without changing the vector data.
    """
    if not 1 <= i <= len(model):
        raise IndexError(f"mutation index {i} out of range 1..{len(model)}")
    mi = model.vectors[i - 1]
    new_vectors = []
    for s, m in enumerate(model.vectors, start=1):
        if s == i:
            new_vectors.append((-mi[0], -mi[1]))
        else:
            new_vectors.append(half_shear(mi, m))
    fan = None
    if model.fan_rays is not None:
        fan = tuple(half_shear(mi, v) for v in model.fan_rays)
    return ToricModel(tuple(new_vectors), fan)


def apply_word(model: ToricModel, word: Sequence[int]) -> ToricModel:
    for i in word:
        model = mutate(model, i)
    return model


# ---------------------------------------------------------------------------
# GL(2, Z) comparison


def _solve_matrix(src: Tuple[Vec, Vec], dst: Tuple[Vec, Vec]) -> Optional[Matrix]:
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
    A: Matrix = ((entries[0], entries[1]), (entries[2], entries[3]))
    if mat_det(A) not in (1, -1):
        return None
    return A


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


def _completion(p: Vec) -> Vec:
    """A vector c with wedge(p, c) = 1 for the primitive vector p, so that
    p, c is a basis of Z^2."""
    _, x, y = _xgcd(*p)
    return (-y, x)


def gl2z_equivalent(
    a: ToricModel, b: ToricModel, ordered: bool = False
) -> Optional[Matrix]:
    """A matrix in GL(2, Z) taking a's vectors to b's, or None.

    With ``ordered`` the match is positionwise; otherwise the vectors are
    compared as multisets.
    """
    if len(a) != len(b):
        return None
    va, vb = a.vectors, b.vectors

    def matches(A: Matrix) -> bool:
        image = [mat_apply(A, v) for v in va]
        if ordered:
            return image == list(vb)
        return sorted(image) == sorted(vb)

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
        if ordered:
            candidates = [(vb[i], vb[j])]
        else:
            candidates = [
                (vb[r], vb[s])
                for r in range(len(vb))
                for s in range(len(vb))
                if r != s
            ]
        for dst in candidates:
            A = _solve_matrix((va[i], va[j]), dst)
            if A is not None and matches(A):
                return A
        return None

    # All of a's vectors are colinear: map the basis p, _completion(p) onto
    # q, _completion(q) for q = +-(b's first vector).
    p = va[0]
    for q in {vb[0], (-vb[0][0], -vb[0][1])}:
        A = _solve_matrix((p, _completion(p)), (q, _completion(q)))
        if matches(A):
            return A
    return None


# ---------------------------------------------------------------------------
# mutation orbits


class OrbitNode(Record):
    __slots__ = ("model", "word")
    _defaults = {"word": ()}
    model: ToricModel
    word: Tuple[int, ...]


def mutation_orbit(model: ToricModel, depth: int) -> List[OrbitNode]:
    """Breadth-first mutation words up to ``depth``, deduplicated by unordered
    GL(2, Z) equivalence.  The seed appears first with the empty word."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    nodes = [OrbitNode(model, ())]
    frontier = [nodes[0]]
    for _ in range(depth):
        new_frontier = []
        for node in frontier:
            for i in range(1, len(model) + 1):
                cand = mutate(node.model, i)
                if any(gl2z_equivalent(cand, n.model) is not None for n in nodes):
                    continue
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
    if p < 0 or q < 0 or (p, q) == (0, 0):
        raise ValueError("w_t0 needs (p, q) nonzero with nonnegative entries")
    if q == 0 or p * 1 >= 2 * q:
        if q == 0:
            return (0, p)
        return (-q, p - 5 * q)
    if 2 * p >= q:
        return (q - p, q - 2 * p)
    return (p, q - 2 * p)


def w_t0_inverse(m: Vec) -> Tuple[int, int]:
    """The unique (p, q) with w_t0(p, q) = m, chosen by branch-cone membership.

    On the quotient identifying (p, 0) with (0, p) the map is a bijection;
    axis classes are returned in the (p, 0) form.
    """
    if m == (0, 0):
        raise ValueError("zero vector is not in the image")
    u, v = m
    candidates = [
        (v - 5 * u, -u),      # inverse of (p, q) -> (-q, p - 5q)
        (u - v, 2 * u - v),   # inverse of (p, q) -> (q - p, q - 2p)
        (u, v + 2 * u),       # inverse of (p, q) -> (p, q - 2p)
    ]
    for p, q in candidates:
        if p < 0 or q < 0 or (p, q) == (0, 0):
            continue
        if w_t0(p, q) == m:
            return (p, q)
    raise ValueError(f"{m} is not in the image of w_t0")


# ---------------------------------------------------------------------------
# parsing and export


def parse_model(text: str) -> ToricModel:
    """Parse the CLI vector syntax ``a,b;c,d``."""
    vectors = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad vector {chunk!r}; expected 'a,b'")
        vectors.append((int(parts[0].strip()), int(parts[1].strip())))
    return ToricModel(tuple(vectors))


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


def orbit_to_dot(nodes: Sequence[OrbitNode], provenance: str = "") -> str:
    lines = ["digraph mutation_orbit {"]
    if provenance:
        lines.append(f"  // {provenance}")
    for n in nodes:
        lines.append(f'  "{format_model(n.model)}";')
    for parent, n in _edges(nodes):
        lines.append(
            f'  "{format_model(parent.model)}" -> "{format_model(n.model)}" '
            f'[label="{n.word[-1]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
