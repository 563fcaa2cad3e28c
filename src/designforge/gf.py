"""Arithmetic in GF(p^k) with a polynomial basis.

Elements are coefficient tuples (c0, c1, ..., c_{k-1}) over GF(p).  The
modulus is the lexicographically least monic irreducible of degree k, so a
given (p, k) always yields the same field.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvalidField


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


# -- polynomial helpers over GF(p); dense low-to-high coefficient lists


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def _poly_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) >= len(mod):
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - len(mod)
        if coef:
            for i, m in enumerate(mod):
                a[shift + i] = (a[shift + i] - coef * m) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_rem(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(mod, p):
    """Rabin test: x^(p^k) == x mod f, and no subfield factors."""
    k = len(mod) - 1
    if k <= 0:
        return False
    x = [0, 1]
    xq = _poly_powmod(x, p**k, mod, p)
    lhs = _poly_trim([(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)])
    if lhs:
        return False
    for r in _prime_factors(k):
        xqr = _poly_powmod(x, p ** (k // r), mod, p)
        diff = _poly_trim(
            [(a - b) % p for a, b in itertools.zip_longest(xqr, x, fillvalue=0)]
        )
        g = _poly_gcd(mod, diff, p)
        if len(g) - 1 != 0:
            return False
    return True


class FieldSpec:
    """The field GF(p^k); a factory and cache for its elements."""

    def __init__(self, p: int, k: int, modulus):
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)  # monic, degree k, low-to-high
        self.size = p**k
        self.zero = FieldElem(self, (0,) * k)
        self.one = FieldElem(self, (1,) + (0,) * (k - 1))

    def elem(self, coeffs) -> "FieldElem":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) < self.k:
            coeffs = coeffs + (0,) * (self.k - len(coeffs))
        if len(coeffs) != self.k:
            raise ValueError("coefficient vector too long")
        return FieldElem(self, coeffs)

    def from_int(self, n: int) -> "FieldElem":
        """Base-p digits of n as coefficients; prime-field ints embed naturally."""
        coeffs = []
        n %= self.size
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElem(self, tuple(coeffs))

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield FieldElem(self, coeffs)

    def generator(self) -> "FieldElem":
        """Least multiplicative generator (by from_int enumeration order)."""
        target = self.size - 1
        for n in range(1, self.size):
            a = self.from_int(n)
            if _mult_order(a) == target:
                return a
        raise AssertionError("no generator found")

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k) if self.k > 1 else "GF(%d)" % self.p


def _mult_order(a: "FieldElem") -> int:
    n = 1
    x = a
    one = a.spec.one
    while x != one:
        x = x * a
        n += 1
        if n > a.spec.size:
            raise AssertionError("order computation ran away")
    return n


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> FieldSpec:
    """GF(p^k) with the lexicographically least monic irreducible modulus."""
    if not _is_prime(p):
        raise InvalidField("%d is not prime" % p)
    if k < 1:
        raise InvalidField("extension degree must be >= 1")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for tail in itertools.product(range(p), repeat=k):
        mod = list(tail) + [1]
        if _is_irreducible(mod, p):
            return FieldSpec(p, k, mod)
    raise AssertionError("no irreducible polynomial found")


class FieldElem:
    """An element of GF(p^k) as a reduced coefficient tuple."""

    __slots__ = ("spec", "coeffs", "_hash")

    def __init__(self, spec: FieldSpec, coeffs):
        self.spec = spec
        self.coeffs = tuple(coeffs)
        self._hash = hash(self.coeffs)

    def __add__(self, other):
        p = self.spec.p
        return FieldElem(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        p = self.spec.p
        return FieldElem(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.spec.p
        return FieldElem(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        spec = self.spec
        prod = _poly_mulmod(list(self.coeffs), list(other.coeffs), list(spec.modulus), spec.p)
        return spec.elem(tuple(prod))

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero field element")
        # a^(q-2) = a^-1 in GF(q)
        return self ** (self.spec.size - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        spec = self.spec
        if e < 0:
            return self.inverse() ** (-e)
        res = _poly_powmod(list(self.coeffs), e, list(spec.modulus), spec.p)
        return spec.elem(tuple(res))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, FieldElem) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def to_int(self) -> int:
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.spec.p + c
        return n

    def __repr__(self):
        return "FieldElem(%s, %r)" % (self.spec, list(self.coeffs))


def is_square(a: FieldElem) -> bool:
    """Whether nonzero a is a square, by the Euler criterion."""
    if a.is_zero():
        raise ValueError("squareness of zero is undefined here")
    if a.spec.p == 2:
        return True
    return a ** ((a.spec.size - 1) // 2) == a.spec.one


def frobenius(a: FieldElem, i: int) -> FieldElem:
    """The field automorphism a -> a^(p^i)."""
    return a ** (a.spec.p ** (i % a.spec.k))


def subfield_embedding(small: FieldSpec, big: FieldSpec):
    """Embedding GF(p^k) -> GF(p^m) with k | m, as a dict on elements.

    Found by locating a root of the small field's modulus in the big field
    and mapping the polynomial basis through it.
    """
    if small.p != big.p or big.k % small.k != 0:
        raise InvalidField("no embedding of %r into %r" % (small, big))
    if small.k == 1:
        return {a: big.from_int(a.to_int()) for a in small.elements()}

    def evaluate(coeffs, x):
        acc = big.zero
        power = big.one
        for c in coeffs:
            if c:
                acc = acc + power * big.from_int(c)
            power = power * x
        return acc

    root = next((x for x in big.elements() if evaluate(small.modulus, x).is_zero()), None)
    if root is None:
        raise AssertionError("modulus has no root in the big field")
    return {a: evaluate(a.coeffs, root) for a in small.elements()}
