"""Rank-two lattice arithmetic: the integer, bounded integer, nonnegative
vector, primitive vector and rational checks on numeric parameters, wedge
products, primitive vectors and integer matrices of Z^2, and the ``a,b``
syntax of a vector."""

from __future__ import annotations

import math
from typing import Tuple

Vec = Tuple[int, int]
Matrix = Tuple[Tuple[int, int], Tuple[int, int]]


def integers(*values) -> None:
    """The one check on integer parameters: each is an ``int``; a ``bool``, a
    float or a numeric string raises ValueError."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"integer input expected, not {value!r}")


def at_least(value, low: int, name: str) -> None:
    """The one check on a bounded integer parameter: ``value`` is an ``int``
    (not a ``bool``) and at least ``low``; otherwise ValueError names the
    parameter and echoes the value."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


def nonzero_nonnegative(value: Vec, name: str) -> None:
    """The one check on a vector of the closed first quadrant: ``int``
    entries, neither negative and not both zero; otherwise ValueError names
    the parameters and echoes the vector."""
    integers(*value)
    if min(value) < 0 or value == (0, 0):
        raise ValueError(f"{name} must be a nonzero vector with nonnegative entries, not {value!r}")


def primitive(value: Vec, name: str) -> None:
    """The one check on a primitive vector: ``int`` entries, not both zero and
    coprime; otherwise ValueError names the parameter and echoes the vector."""
    if not is_primitive(value):
        raise ValueError(f"{name} must be a primitive vector (coprime integer entries), not {value!r}")


def rational(value) -> "fractions.Fraction":
    """The one check on rational parameters: ``value``, an ``int`` or a
    ``Fraction``, as a ``Fraction``; a ``bool``, a float or a numeric string
    raises ValueError."""
    # imported here, so that loading this module does not load fractions, and
    # as a module: a from-import here would cost more than the check itself
    import fractions

    if isinstance(value, fractions.Fraction):
        return value
    if type(value) is not int:
        raise ValueError(f"rational input expected, not {value!r}")
    return fractions.Fraction(value)


def wedge(v: Vec, w: Vec) -> int:
    """Determinant of the 2x2 matrix with columns v, w."""
    integers(*v, *w)
    return v[0] * w[1] - v[1] * w[0]


def mat_apply(m: Matrix, v: Vec) -> Vec:
    """The product m v of the matrix given by its rows and the column v."""
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def is_primitive(v: Vec) -> bool:
    """Whether v is nonzero with coprime entries; a non-int entry raises ValueError."""
    integers(*v)
    return v != (0, 0) and math.gcd(abs(v[0]), abs(v[1])) == 1


def primitive_part(v: Vec) -> Tuple[Vec, int]:
    """Write v = j*p with p primitive and j = gcd(|a|, |b|) > 0.

    Raises ValueError on the zero vector and on entries that are not ``int``s.
    """
    integers(*v)
    if v == (0, 0):
        raise ValueError("zero vector has no primitive part")
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g), g


def parse_vec(text: str) -> Vec:
    """Parse the vector syntax ``a,b``."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad vector {text!r}; expected 'a,b'")
    return (int(parts[0]), int(parts[1]))
