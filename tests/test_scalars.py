from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewhecke.scalars import (
    NotAUnitError,
    PrimeField,
    Rationals,
    field_make,
    is_prime,
)

from reference_shapes import assert_canonical

Q = Rationals()
F5 = PrimeField(5)
F97 = PrimeField(97)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


def mod_elements(field):
    return st.integers(min_value=0, max_value=field.p - 1)


@settings(max_examples=1000)
@given(rationals, rationals, rationals)
def test_rationals_field_axioms(a, b, c):
    f = Q
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    assert f.mul(a, f.one) == a
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


@settings(max_examples=1000)
@given(mod_elements(F97), mod_elements(F97), mod_elements(F97))
def test_prime_field_axioms(a, b, c):
    f = F97
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


def canonical(x):
    """The value Rationals stores for x: an int when integral, else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# canonical rationals, integral ones included, and ints past 64 bits
rational_values = st.one_of(
    rationals, st.integers(min_value=-(10 ** 30), max_value=10 ** 30)
).map(canonical)


@settings(max_examples=500)
@given(rational_values, rational_values)
def test_rationals_match_fraction_and_stay_canonical(a, b):
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (Q.add(a, b), fa + fb),
        (Q.sub(a, b), fa - fb),
        (Q.mul(a, b), fa * fb),
        (Q.neg(a), -fa),
        (Q.parse(Q.format(a)), fa),
        # an unreduced literal, padded with spaces
        (Q.parse(f" {3 * fa.numerator}/{3 * fa.denominator} "), fa),
        (Q.from_int(fa.numerator), fa.numerator),
    ]
    if fb != 0:
        results.append((Q.inv(b), 1 / fb))
    for got, want in results:
        assert got == want
        assert hash(got) == hash(want)
        assert Q.format(got) == str(want)
        assert_canonical(got)
    for constant in (Q.zero, Q.one):
        assert type(constant) is int


P61 = PrimeField(2 ** 61 - 1)


@st.composite
def raw_sums(draw, field):
    """(raw, expected): a raw value built with Python's + - * from canonical
    values, and the same expression through the field's methods."""
    value = rational_values if field.characteristic == 0 else mod_elements(field)
    a, b, c, d, e = (draw(value) for _ in range(5))
    f = field
    kind = draw(st.sampled_from(["a*b + c*d - e", "cancels", "integral product"]))
    if kind == "cancels":  # e is a*b + c*d through the field
        e = f.add(f.mul(a, b), f.mul(c, d))
    elif kind == "integral product":  # a Fraction times its denominator
        if type(a) is not int:
            b = a.denominator * draw(st.integers(-5, 5))
        return a * b, f.mul(a, b)
    return a * b + c * d - e, f.sub(f.add(f.mul(a, b), f.mul(c, d)), e)


@settings(max_examples=200)
@pytest.mark.parametrize("field", [Q, F5, P61], ids=["Q", "GF5", "GF2^61-1"])
@given(data=st.data())
def test_reduce_into_keeps_the_field_contract(field, data):
    """Python's + - * on canonical values are the field's operations up to
    reduction, and reduce_into turns a map of raw values into what the field
    methods give: canonical, with no zeros; with keys it touches no other key.
    The contract needs numbers: on tuple values + would concatenate."""
    sums = data.draw(st.dictionaries(st.integers(0, 9), raw_sums(field), max_size=6))
    raw = {l: r for l, (r, _) in sums.items()}
    expected = {l: x for l, (_, x) in sums.items() if not field.is_zero(x)}
    out = dict(raw)
    assert field.reduce_into(out) is out
    assert out == expected
    for x in out.values():
        assert_canonical(x, field)
        assert not field.is_zero(x)
    keys = data.draw(st.sets(st.sampled_from(sorted(raw)))) if raw else set()
    part = dict(raw)
    assert field.reduce_into(part, {k: None for k in keys}) is part
    for l, x in raw.items():
        if l not in keys:
            assert type(part[l]) is type(x) and part[l] == x
        elif l in expected:
            assert part[l] == expected[l]
            assert_canonical(part[l], field)
        else:
            assert l not in part


@pytest.mark.parametrize("text", ["1/0", " -3/0 ", "0/0"])
def test_rationals_parse_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match=f"zero denominator in the literal '{text.strip()}'"):
        Q.parse(text)


@given(rationals)
def test_rationals_parse_format_roundtrip(a):
    assert Q.parse(Q.format(a)) == a


@given(mod_elements(F5))
def test_prime_field_parse_format_roundtrip(a):
    assert F5.parse(F5.format(a)) == a


@pytest.mark.parametrize("text, value", [
    ("1/2", 3), (" -3/4 ", 3), ("7/3", 4), ("10/2", 0), ("4", 4), ("-1", 4), ("2/-3", 1),
])
def test_prime_field_parses_fractions(text, value):
    assert F5.parse(text) == value


@given(st.integers(-100, 100), st.integers(-100, 100).filter(lambda b: b % 97))
def test_prime_field_parse_fraction_is_a_times_b_inverse(a, b):
    assert F97.parse(f"{a}/{b}") == F97.mul(F97.from_int(a), F97.inv(F97.from_int(b)))


@pytest.mark.parametrize("text", ["1/5", " 2/10 ", "0/0", "3/-5"])
def test_prime_field_parse_denominator_zero_mod_p_is_a_value_error(text):
    with pytest.raises(ValueError, match=f"literal '{text.strip()}' is 0 mod 5$"):
        F5.parse(text)


@pytest.mark.parametrize("text", ["x", "1/2/3", "1.5", "/2"])
def test_prime_field_parse_names_the_field_on_a_malformed_literal(text):
    with pytest.raises(ValueError, match=r"over GF\(5\)"):
        F5.parse(text)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 101}
    for n in range(2, 110):
        assert is_prime(n) == (n in primes or all(n % d for d in range(2, n)))


def test_inv_of_zero_raises():
    with pytest.raises(NotAUnitError):
        Q.inv(Q.zero)
    with pytest.raises(NotAUnitError):
        F5.inv(F5.zero)


def test_characteristic_arithmetic():
    f = PrimeField(2)
    assert f.add(f.one, f.one) == f.zero
    assert f.from_int(-1) == f.one
    with pytest.raises(NotAUnitError):
        f.inv(f.from_int(2))


def test_field_make():
    assert field_make("rationals").characteristic == 0
    assert field_make("prime_field(7)").p == 7
    assert field_make("gf(2)").p == 2
    with pytest.raises(ValueError):
        field_make("octonions")
