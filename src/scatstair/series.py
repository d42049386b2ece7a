"""Exact truncated Laurent power series over rank-two lattice monomials.

The coefficient ring is Q, and every operation in this module is exact.  A
:class:`TruncatedSeries` is an element of the ring of Laurent polynomials in
two variables x, y with a formal parameter t, known modulo t^K for a fixed
truncation order K.  Terms are stored sparsely as a map (a, b, k) ->
coefficient for the monomial x^a y^b t^k, with no zero coefficients and every
k < K.  A coefficient is the exact ``int`` or ``fractions.Fraction`` it was
given or computed as; nothing converts between the two, so sums and products
of ints stay ints.  The constructor keeps each nonzero term it is given and
drops each zero one; it raises ValueError for a term outside 0 <= k < K, for
a coefficient that is not an ``int`` or a ``Fraction`` and for an order that
is not an integer >= 1.  Beyond zeros, terms are dropped only by ``truncate``
and by the products' degree bounds.  The text form has one grammar, from one
table of the variables: ``to_text`` writes it and ``from_text`` reads only it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .lattice import Vec, at_least

TermKey = Tuple[int, int, int]
# A coefficient: the exact int or Fraction it was given or computed as.
Coeff = Union[int, Fraction]
# The text form's variables in the order a term writes its factors, each with
# the index of its exponent in a term key (a, b, k); a factor of a term is one
# of them with an optional exponent, or a coefficient n or n/d (a pattern that
# ``re`` compiles on first use, so importing the module compiles none).
_VARIABLES = {"t": 2, "x": 0, "y": 1}
_FACTOR = rf"([{''.join(_VARIABLES)}])(?:\^(-?[0-9]+))?|([0-9]+(?:/[0-9]+)?)"


def _is_coeff(value) -> bool:
    """Whether ``value`` is an ``int`` (not a ``bool``) or a ``Fraction``:
    ``lattice.rational``'s rule, kept here as a test because it runs in every
    ``+`` and ``*``, where that function's import would cost each call."""
    return type(value) is int or isinstance(value, Fraction)


def _parsed_coeff(*parts) -> Fraction:
    """``Fraction(*parts)`` for a coefficient read from input; a zero
    denominator raises ValueError."""
    try:
        return Fraction(*parts)
    except ZeroDivisionError:
        text = "/".join(map(str, parts))
        raise ValueError(f"coefficient {text} has a zero denominator") from None


def read_int(value, field: str) -> int:
    """``value`` as the required integer ``field`` of loaded data such as JSON,
    where a missing field reads as None.  Anything but an ``int`` (a ``bool``,
    a float or a numeric string included) raises ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"field {field!r} must be an integer, not {value!r}")
    return value


def _put_term(terms: Dict[TermKey, Fraction], key: TermKey, c: Fraction) -> None:
    """Add the term ``key`` with coefficient ``c`` read from input to ``terms``;
    a zero coefficient and a term already there raise ValueError."""
    if not c:
        raise ValueError(f"term {key} has a zero coefficient")
    if key in terms:
        raise ValueError(f"term {key} has two records")
    terms[key] = c


class TruncationMismatch(ValueError):
    """Raised when two series with different truncation orders are combined."""


class TruncatedSeries:
    """An exact series sum c_{a,b,k} x^a y^b t^k, truncated at t^order."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Optional[Mapping[TermKey, Coeff]] = None):
        at_least(order, 1, "truncation order")
        self.order = order
        self.terms = {}
        for (a, b, k), c in (terms or {}).items():
            if not (type(a) is type(b) is type(k) is int and 0 <= k < order):
                raise ValueError(f"term {(a, b, k)} needs integers a, b and 0 <= k < {order}")
            if not _is_coeff(c):
                raise ValueError(f"coefficient {c!r} is not an int or a Fraction")
            if c:
                self.terms[(a, b, k)] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _trusted(order: int, terms: Dict[TermKey, Coeff]) -> "TruncatedSeries":
        """The series of ``terms`` as given: nonzero coefficients, all below t^order."""
        res = TruncatedSeries.__new__(TruncatedSeries)
        res.order = order
        res.terms = terms
        return res

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, {(0, 0, 0): 1})

    @classmethod
    def monomial(cls, order: int, exponent: Vec, t_degree: int, coeff=1) -> "TruncatedSeries":
        return cls(order, {(exponent[0], exponent[1], t_degree): coeff})

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, {self.to_text()!r})"

    def __iter__(self) -> Iterator[Tuple[TermKey, Coeff]]:
        """The terms by t-degree ascending, then z-exponent lexicographic."""
        return iter(sorted(self.terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])))

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise TruncationMismatch(
                f"mixed truncation orders {self.order} and {other.order}"
            )

    def constant_term(self) -> Coeff:
        return self.terms.get((0, 0, 0), 0)

    def is_unit(self) -> bool:
        """Constant term 1 and everything else of t-degree >= 1."""
        if self.constant_term() != 1:
            return False
        return all(k >= 1 for (a, b, k) in self.terms if (a, b, k) != (0, 0, 0))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries":
        if _is_coeff(other):
            other = TruncatedSeries(self.order, {(0, 0, 0): other})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return TruncatedSeries._trusted(self.order, out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.order, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        if not (_is_coeff(other) or isinstance(other, TruncatedSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        if not _is_coeff(other):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if _is_coeff(other):
            terms = {key: v * other for key, v in self.terms.items()} if other else {}
            return TruncatedSeries._trusted(self.order, terms)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        order = self.order
        out: Dict[TermKey, Coeff] = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        for (a1, b1, k1), c1 in small.items():
            for (a2, b2, k2), c2 in big.items():
                k = k1 + k2
                if k >= order:
                    continue
                key = (a1 + a2, b1 + b2, k)
                s = out.get(key, 0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return TruncatedSeries._trusted(order, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if type(n) is not int:
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = TruncatedSeries.one(self.order)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _power_sum(self, acc: "TruncatedSeries", coefficient) -> "TruncatedSeries":
        """acc + sum_{j>=1} coefficient(j) * self^j for self in the ideal (t),
        stopped at the first power that vanishes modulo t^order."""
        power = TruncatedSeries.one(self.order)
        for j in range(1, self.order):
            power = power * self
            if not power:
                break
            acc = acc + power * coefficient(j)
        return acc

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a unit 1 + g with g in the ideal (t), via the geometric series."""
        if not self.is_unit():
            raise ValueError("only units (constant term 1, rest in (t)) are invertible")
        return (1 - self)._power_sum(TruncatedSeries.one(self.order), lambda j: 1)

    def log(self) -> "TruncatedSeries":
        """log(1 + g) = sum_{j>=1} (-1)^(j+1) g^j / j, finite modulo t^order."""
        if not self.is_unit():
            raise ValueError("log requires constant term 1 and every other term in the ideal (t)")
        return (self - 1)._power_sum(
            TruncatedSeries(self.order), lambda j: Fraction((-1) ** (j + 1), j)
        )

    def exp(self) -> "TruncatedSeries":
        """exp(g) = sum g^j / j! for g with zero constant term, in the ideal (t)."""
        if any(k < 1 for (_, _, k) in self.terms):
            raise ValueError("exp requires the argument to lie in the ideal (t)")
        return self._power_sum(
            TruncatedSeries.one(self.order), lambda j: Fraction(1, math.factorial(j))
        )

    # -- reshaping -----------------------------------------------------------

    def truncate(self, new_order: int) -> "TruncatedSeries":
        """Reduce the truncation order, discarding terms of t-degree >= new_order."""
        if new_order > self.order:
            raise ValueError("cannot raise the truncation order of a series")
        return TruncatedSeries(new_order, {k: c for k, c in self.terms.items() if k[2] < new_order})

    # -- rendering -------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``1 + 2*t*x + t^2*x^2``."""
        if not self.terms:
            return "0"
        parts: List[str] = []
        for key, c in self:
            factors = [v if key[i] == 1 else f"{v}^{key[i]}" for v, i in _VARIABLES.items() if key[i]]
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    @classmethod
    def from_text(cls, order: int, text: str) -> "TruncatedSeries":
        """Parse the text form :meth:`to_text` writes, ``0`` for the zero series.
        A term is an optional sign and ``*``-joined factors: at most one
        coefficient ``n`` or ``n/d`` (else 1) and at most one ``v`` or ``v^n`` per
        variable v.  Any other factor, a repeated one, an empty term, a second
        term of one monomial and a zero coefficient raise ValueError naming it."""
        text = text.strip()
        if text == "0":
            return cls(order)
        tokens = text.replace("- ", "+ -").split("+ ")
        terms: Dict[TermKey, Fraction] = {}
        for token in tokens[1:] if text.startswith("- ") else tokens:  # "" before a leading "- "
            term, parts = token.strip(), {}
            for factor in term.removeprefix("-").split("*"):
                match = re.fullmatch(_FACTOR, factor)
                if not match:
                    raise ValueError(f"term {term!r} in {text!r} has a malformed factor {factor!r}")
                name, exponent, number = match.groups()
                part = name or "coefficient"
                if part in parts:
                    raise ValueError(f"term {term!r} in {text!r} has a second {part}")
                parts[part] = number or exponent or "1"
            coeff = _parsed_coeff(parts.pop("coefficient", "1"))
            key = [0, 0, 0]
            for name, exponent in parts.items():
                key[_VARIABLES[name]] = int(exponent)
            _put_term(terms, tuple(key), -coeff if term.startswith("-") else coeff)
        return cls(order, terms)

    def term_records(self) -> List[dict]:
        """JSON-ready list of {a, b, k, num, den} records in canonical order."""
        return [
            {"a": a, "b": b, "k": k, "num": c.numerator, "den": c.denominator}
            for (a, b, k), c in self
        ]

    @classmethod
    def from_records(cls, order: int, records: Iterable[Mapping]) -> "TruncatedSeries":
        """The inverse of :meth:`term_records`; a missing or non-integer field, a
        second record of one term and a zero coefficient raise ValueError."""
        terms: Dict[TermKey, Fraction] = {}
        for rec in records:
            a, b, k, num, den = (read_int(rec.get(f), f) for f in ("a", "b", "k", "num", "den"))
            _put_term(terms, (a, b, k), _parsed_coeff(num, den))
        return cls(order, terms)
