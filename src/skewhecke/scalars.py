"""Exact coefficient arithmetic: arbitrary-precision rationals and prime fields.

Scalar values are plain Python objects in canonical form.  A rational is an
``int`` when it is integral and a ``fractions.Fraction`` otherwise (an ``int``
and the equal ``Fraction`` compare equal, hash the same and print the same, so
the split shows only in speed); a prime-field value is an ``int`` in
``[0, p)``.  Field objects supply the arithmetic so that the rest of the
library is generic over the coefficient field.

Hot loops may skip the field methods: on values of either field, Python's own
``+``, ``-`` and ``*`` compute the field operation up to reduction, exactly
over Q and mod p over GF(p).  Such raw values live only in a coefficient map
under construction; ``reduce_into`` is the one place a coefficient map is
brought back to canonical form, its zeros deleted.
"""

from __future__ import annotations

from fractions import Fraction

MAX_PRIME_BITS = 64


class NotAUnitError(ArithmeticError):
    """Raised when inverting a scalar that is zero or not a unit."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid for n < 3.3e24 (covers 64-bit range)
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _canonical(x):
    """A rational result as an ``int`` when its denominator is 1."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class Rationals:
    """The field of rational numbers: integral values are ``int``, the rest
    ``Fraction``.  Nearly every value met in practice is integral, and ``int``
    arithmetic skips the gcd that every ``Fraction`` operation pays; add, sub
    and mul canonicalise inline, one Python call per operation."""

    characteristic = 0

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return int(n)

    def add(self, a, b):
        return x if type(x := a + b) is int or x.denominator != 1 else x.numerator

    def sub(self, a, b):
        return x if type(x := a - b) is int or x.denominator != 1 else x.numerator

    def mul(self, a, b):
        return x if type(x := a * b) is int or x.denominator != 1 else x.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise NotAUnitError("0 is not a unit")
        return _canonical(1 / Fraction(a))

    def is_zero(self, a) -> bool:
        return a == 0

    def reduce_into(self, out: dict, keys=None) -> dict:
        """``out`` canonical at ``keys`` (None: everywhere) in place, zeros
        deleted; a map of nonzero ints, the common case, costs one scan."""
        if keys is None:
            for x in out.values():
                if type(x) is not int or not x:
                    break
            else:
                return out
            keys = [*out]
        for k in keys:
            x = out[k]
            if type(x) is not int and x.denominator == 1:
                x = out[k] = x.numerator
            if not x:
                del out[k]
        return out

    def parse(self, s: str):
        try:
            return _canonical(Fraction(s.strip()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the literal {s.strip()!r}") from None

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field Z/p for a prime p, values stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p.bit_length() > MAX_PRIME_BITS:
            raise ValueError(f"prime moduli are capped at {MAX_PRIME_BITS} bits")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise NotAUnitError(f"{a} is not a unit mod {self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def reduce_into(self, out: dict, keys=None) -> dict:
        """``out`` reduced mod p at ``keys`` (None: everywhere) in place, zeros deleted."""
        p = self.p
        for k in [*out] if keys is None else keys:
            if x := out[k] % p:
                out[k] = x
            else:
                del out[k]
        return out

    def parse(self, s: str) -> int:
        """An integer literal ``a`` or a fraction ``a/b``, read as a b^-1 mod p."""
        text = s.strip()
        num, slash, den = text.partition("/")
        try:
            a, b = int(num), int(den) if slash else 1
        except ValueError:
            raise ValueError(
                f"{text!r} is not an integer or a fraction a/b over GF({self.p})"
            ) from None
        if b % self.p == 0:
            raise ValueError(
                f"the denominator of the literal {text!r} is 0 mod {self.p}"
            )
        return a * pow(b, -1, self.p) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime_field", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_make(spec):
    """Build a field from a descriptor: ``"rationals"`` or ``"prime_field(p)"``."""
    s = spec.strip().lower()
    if s in ("rationals", "q", "qq"):
        return Rationals()
    if s.startswith("prime_field(") and s.endswith(")"):
        return PrimeField(int(s[len("prime_field(") : -1]))
    if s.startswith("gf(") and s.endswith(")"):
        return PrimeField(int(s[3:-1]))
    raise ValueError(f"unknown field descriptor {spec!r}")
