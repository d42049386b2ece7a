"""Ring laws and lattice primitives of the exact core."""

import random
import re
from fractions import Fraction

import pytest

from scatstair.lattice import is_primitive, parse_vec, primitive_part, wedge
from scatstair.series import TruncatedSeries as TS, TruncationMismatch, read_int


def s(order, text):
    return TS.from_text(order, text)


# ---------------------------------------------------------------------------
# lattice operations


def test_wedge_values():
    assert wedge((-1, -3), (1, 0)) == 3
    assert wedge((1, 0), (1, 0)) == 0
    assert wedge((2, -3), (1, 0)) == 3


def test_primitive_part():
    assert primitive_part((2, 2)) == ((1, 1), 2)
    assert primitive_part((-3, 2)) == ((-3, 2), 1)
    assert primitive_part((0, 4)) == ((0, 1), 4)
    with pytest.raises(ValueError):
        primitive_part((0, 0))


def test_is_primitive():
    assert is_primitive((2, 3))
    assert not is_primitive((2, 2))
    assert not is_primitive((0, 0))


def test_parse_vec():
    assert parse_vec("-1,3") == (-1, 3)
    assert parse_vec(" 2, 0 ") == (2, 0)
    for text in ("1,2,3", "1", ""):
        with pytest.raises(ValueError, match=f"bad vector {text!r}; expected 'a,b'"):
            parse_vec(text)
    with pytest.raises(ValueError):
        parse_vec("a,b")


# ---------------------------------------------------------------------------
# arithmetic examples


def test_add_identity_and_cancellation():
    f = s(5, "1 + t*x")
    assert f + TS(5) == f
    assert f + s(5, "-t*x") == TS.one(5)
    assert s(5, "t*x") + s(5, "t*x") == s(5, "2*t*x")


def test_add_rejects_mixed_orders():
    with pytest.raises(TruncationMismatch):
        TS.one(4) + TS.one(5)


@pytest.mark.parametrize("operand", ["x", 1.5, None, True])
def test_sub_rejects_unsupported_operands(operand):
    f = s(4, "1 + t*x")
    with pytest.raises(TypeError, match="unsupported operand type.* for -:"):
        f - operand
    with pytest.raises(TypeError, match="unsupported operand type.* for -:"):
        operand - f
    with pytest.raises(TypeError, match=r"unsupported operand type.* for \*\* or pow\(\):"):
        f ** operand
    # + and * on either side raise TypeError too (a str's own message when it
    # is on the left), and == is False
    for operation in (lambda: f + operand, lambda: operand + f, lambda: f * operand, lambda: operand * f):
        with pytest.raises(TypeError):
            operation()
    assert not f == operand and f != operand


def test_mul_examples():
    assert s(4, "1 + t*x") * s(4, "1 + t*y") == s(4, "1 + t*x + t*y + t^2*x*y")
    assert s(2, "1 + t*x") * s(2, "1 + t*y") == s(2, "1 + t*x + t*y")
    assert s(4, "1 + t*x") * s(4, "1 - t*x") == s(4, "1 - t^2*x^2")


def test_pow_examples():
    assert s(4, "1 + t*x") ** 2 == s(4, "1 + 2*t*x + t^2*x^2")
    assert s(3, "1 + t*x") ** -1 == s(3, "1 - t*x + t^2*x^2")
    f = (TS.one(5) - TS.monomial(5, (1, 1), 2)) ** -4
    assert f == TS.one(5) + TS.monomial(5, (1, 1), 2, 4) + TS.monomial(5, (2, 2), 4, 10)


def test_pow_negative_requires_unit():
    with pytest.raises(ValueError):
        s(4, "2 + t*x") ** -1
    with pytest.raises(ValueError):
        s(4, "1 + x") ** -1  # t-degree zero term off the constant


def test_log_examples():
    f = TS.one(5) + TS.monomial(5, (1, 1), 2)
    assert f.log() == TS.monomial(5, (1, 1), 2) - TS.monomial(5, (2, 2), 4, Fraction(1, 2))
    g = (TS.one(5) - TS.monomial(5, (1, 1), 2)) ** -4
    # oracle: -4 * log(1 - u) = 4u + 2u^2 + ... termwise in u = t^2 x y
    assert g.log() == TS.monomial(5, (1, 1), 2, 4) + TS.monomial(5, (2, 2), 4, 2)
    assert TS.one(5).log() == TS(5)


def test_log_requires_constant_one():
    with pytest.raises(ValueError):
        s(4, "2 + t*x").log()


def test_exp_examples():
    assert TS(5).exp() == TS.one(5)
    e = TS.monomial(5, (1, 1), 2).exp()
    assert e == TS.one(5) + TS.monomial(5, (1, 1), 2) + TS.monomial(5, (2, 2), 4, Fraction(1, 2))
    f = s(6, "1 + t*x")
    assert f.log().exp() == f


def test_exp_requires_ideal_t():
    with pytest.raises(ValueError):
        s(4, "1 + t*x").exp()
    with pytest.raises(ValueError):
        s(4, "x").exp()


# ---------------------------------------------------------------------------
# randomized ring laws (criterion 12 runs the full-size version)


def random_series(rng, order=5, unit=False, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        k = rng.randint(1 if unit else 0, order - 1)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[(a, b, k)] = terms.get((a, b, k), Fraction(0)) + c
    f = TS(order, terms)
    if unit:
        return TS.one(order) + f
    return f


def test_ring_laws_random():
    rng = random.Random(20240817)
    for _ in range(200):
        f = random_series(rng)
        g = random_series(rng)
        h = random_series(rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_pow_inverse_random():
    rng = random.Random(99)
    for _ in range(50):
        f = random_series(rng, unit=True)
        n = rng.randint(1, 5)
        assert (f ** n) * (f ** -n) == TS.one(f.order)


def test_exp_log_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        f = random_series(rng, order=6, unit=True, max_terms=3)
        assert f.log().exp() == f
        g = random_series(rng, order=6, unit=True, max_terms=3) - 1
        assert g.exp().log() == g


def test_all_coefficients_exact():
    rng = random.Random(5)
    f = random_series(rng, unit=True)
    g = (f ** 3).log()
    assert all(isinstance(c, Fraction) for c in g.terms.values())


# ---------------------------------------------------------------------------
# rendering round-trips


def test_text_rendering_canonical():
    f = TS(5, {(1, 0, 1): Fraction(2), (0, 0, 0): Fraction(1), (2, 0, 2): Fraction(1)})
    assert f.to_text() == "1 + 2*t*x + t^2*x^2"


def test_text_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        f = random_series(rng)
        assert TS.from_text(f.order, f.to_text()) == f


# Texts the reader misread before it had one grammar (``1 + tx`` read as
# ``1 + t``), each with the term its refusal names.
MISREAD_TEXTS = [
    ("1 + tx", "tx"),
    ("1 + t*xy", "t*xy"),
    ("2*x2", "2*x2"),
    ("1 + t*x*x", "t*x*x"),
    ("2*3*t", "2*3*t"),
    ("t ^2", "t ^2"),
    ("1 + + t", ""),
    ("t +", "t +"),
]


@pytest.mark.parametrize("text, term", MISREAD_TEXTS)
def test_text_outside_the_grammar_is_refused(text, term):
    with pytest.raises(ValueError, match=f"^term {re.escape(repr(term))} in {re.escape(repr(text))} has a "):
        TS.from_text(5, text)


def test_text_grammar_property():
    """For random series, the text round-trips, a leading "- " reads as a
    glued "-", and each of these mutations of the text raises ValueError
    naming a term: a letter or digit glued after a variable, a repeated
    variable factor, a second coefficient, a doubled operator and a trailing
    operator."""
    rng = random.Random(4040)
    mutated = 0
    for _ in range(300):
        f = random_series(rng, order=rng.randint(1, 6), max_terms=5)
        text = f.to_text()
        assert TS.from_text(f.order, text) == f
        if text == "0":
            continue
        if text.startswith("-"):
            assert TS.from_text(f.order, "- " + text[1:]) == f
        # to_text joins its terms by " + " and " - "; mutate one term of it
        pieces = re.split(r"( [+-] )", text)
        i = rng.randrange(0, len(pieces), 2)
        sign, term = ("-", pieces[i][1:]) if pieces[i].startswith("-") else ("", pieces[i])
        factors = term.split("*")
        variables = [j for j, factor in enumerate(factors) if factor[0] in "txy"]
        bad_terms = [term + "*2*3"]  # a second coefficient
        if variables:
            j = rng.choice(variables)
            glued = factors[j][0] + rng.choice("txyab0123456789") + factors[j][1:]
            bad_terms.append("*".join(factors[:j] + [glued] + factors[j + 1:]))
            bad_terms.append(term + "*" + factors[j])  # a repeated variable
        for bad_term in bad_terms:
            bad = "".join(pieces[:i] + [sign + bad_term] + pieces[i + 1:])
            with pytest.raises(ValueError, match=f"^term .* in {re.escape(repr(bad))} has a "):
                TS.from_text(f.order, bad)
            mutated += 1
        ops = [rng.choice("+-") + " " for _ in range(3)]
        bad_texts = [ops[0] + ops[1] + text, text + " " + ops[2].strip()]  # doubled, trailing
        if len(pieces) > 1:
            j = rng.randrange(1, len(pieces), 2)
            bad_texts.append("".join(pieces[:j] + [pieces[j] + ops[0]] + pieces[j + 1:]))
        for bad in bad_texts:
            with pytest.raises(ValueError, match=f"^term .* in {re.escape(repr(bad))} has a "):
                TS.from_text(f.order, bad)
            mutated += 1
    assert mutated > 1500


def test_json_records_roundtrip():
    rng = random.Random(77)
    for _ in range(100):
        f = random_series(rng)
        assert TS.from_records(f.order, f.term_records()) == f


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="^coefficient 1/0 has a zero denominator$"):
        s(4, "1 + 1/0*t*x")
    record = {"a": 1, "b": 0, "k": 1, "num": 3, "den": 0}
    with pytest.raises(ValueError, match="^coefficient 3/0 has a zero denominator$"):
        TS.from_records(4, [record])


def test_records_take_only_integers():
    """A float, a bool or a numeric string in a record, or a missing field,
    raises ValueError naming the field instead of being rounded or read."""
    good = {"a": 1, "b": 0, "k": 1, "num": 3, "den": 2}
    assert TS.from_records(4, [good]) == s(4, "3/2*t*x")
    for field in good:
        for bad in (1.0, 1.9, True, "1", None):
            with pytest.raises(ValueError, match=f"^field '{field}' must be an integer, not "):
                TS.from_records(4, [{**good, field: bad}])
        missing = dict(good)
        del missing[field]
        with pytest.raises(ValueError, match=f"^field '{field}' must be an integer, not None$"):
            TS.from_records(4, [missing])
    assert read_int(-7, "K") == -7


def test_records_hold_each_term_once_and_nonzero():
    """A second record of one term, or a record whose coefficient is 0, raises
    ValueError naming the term instead of being summed or dropped."""
    one, two = ({"a": 1, "b": 0, "k": 1, "num": n, "den": 1} for n in (1, 2))
    with pytest.raises(ValueError, match=r"^term \(1, 0, 1\) has two records$"):
        TS.from_records(4, [one, two])
    for den in (1, 5, -3):
        with pytest.raises(ValueError, match=r"^term \(1, 0, 1\) has a zero coefficient$"):
            TS.from_records(4, [{**one, "num": 0, "den": den}])
    assert TS.from_records(4, [one, {**two, "k": 2}]) == s(4, "t*x + 2*t^2*x")


def test_record_order_is_canonical():
    f = s(5, "1 + t*y + t*x + t^2*x^2")
    recs = f.term_records()
    keys = [(r["k"], r["a"], r["b"]) for r in recs]
    assert keys == sorted(keys)


def test_constructor_holds_exactly_what_it_is_given():
    """For random orders and term maps, a series keeps every nonzero term as
    given, the coefficient object itself, when each degree is in [0, K) and
    each coefficient is an int or a Fraction, and equals the sum of its
    monomials; a degree outside [0, K), a
    float, a numeric string or a bool coefficient, or an order that is not an
    int >= 1 raises ValueError instead of being dropped or converted, and so
    does a term beyond the order read by from_text or built by monomial.
    from_text also refuses a term given twice or with coefficient 0, as
    from_records does, and reads "0", the text of the zero series, as it."""
    rng = random.Random(2210)
    for _ in range(300):
        K = rng.randint(1, 7)
        terms = {
            (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, K + 5)): rng.choice(
                [rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.randint(1, 4))]
            )
            for _ in range(rng.randint(0, 6))
        }
        valid = {key: c for key, c in terms.items() if 0 <= key[2] < K}
        f = TS(K, valid)
        assert f.terms == {key: c for key, c in valid.items() if c}
        assert all(f.terms[key] is c for key, c in valid.items() if c)
        assert f == sum((TS.monomial(K, key[:2], key[2], c) for key, c in valid.items()), TS(K))
        for key in sorted(set(terms) - set(valid)):
            with pytest.raises(ValueError, match=re.escape(f"term {key} needs integers a, b and 0 <= k < {K}")):
                TS(K, {**valid, key: 1})
        key = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(K))
        for bad in (0.1, float(rng.randint(-3, 3)), "3/2", str(rng.randint(-3, 3)), True, False):
            with pytest.raises(ValueError, match="^coefficient .* is not an int or a Fraction$"):
                TS(K, {**valid, key: bad})
    for order in (2.5, 3.0, True, "3", None, 0, -1):
        with pytest.raises(ValueError, match="^truncation order must be an integer >= 1, not "):
            TS(order)
    for build in (lambda: TS.from_text(4, "1 + t^4*x"), lambda: TS.monomial(4, (1, 0), 4)):
        with pytest.raises(ValueError, match=re.escape("term (1, 0, 4) needs integers a, b and 0 <= k < 4")):
            build()
    for text, message in (
        ("t*x + 2*t*x", "term (1, 0, 1) has two records"),
        ("1 - t*x + t*x", "term (1, 0, 1) has two records"),
        ("0*t*x", "term (1, 0, 1) has a zero coefficient"),
        ("1 + 0*t^2*y", "term (0, 1, 2) has a zero coefficient"),
        ("0 + t*x", "term (0, 0, 0) has a zero coefficient"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TS.from_text(4, text)
    assert TS.from_text(4, "0") == TS(4) and TS(4).to_text() == "0"
    assert TS.from_text(4, "1 + t*x").terms == {(0, 0, 0): 1, (1, 0, 1): 1}


def test_truncate_drops_high_terms():
    f = s(6, "1 + t*x + t^4*x^4")
    assert f.truncate(3) == s(3, "1 + t*x")
    with pytest.raises(ValueError):
        f.truncate(7)
