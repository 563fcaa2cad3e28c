"""Arithmetic in GF(p^k) on the integers 0..q-1, q = p^k.

The integer n stands for the polynomial sum(d_i x^i) whose coefficients
d_i are the base-p digits of n, least significant first, so 0..p-1 is the
prime field.  The modulus is the least monic irreducible of degree k when
the coefficient tuples (c_0, ..., c_{k-1}) are taken in the order of
itertools.product, so a given (p, k) always yields the same field.  Products,
inverses and powers are lookups in exp/log tables of the least primitive
element; sums act on the digits.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import InvalidField


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _digits(n: int, p: int, k: int) -> list:
    """The k base-p digits of n, least significant first."""
    return [n // p**i % p for i in range(k)]


def _number(digits, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(digits))


def _rem(a, mod, p: int) -> list:
    """The remainder of the polynomial a modulo the monic polynomial mod,
    both coefficient lists over GF(p) from the constant term up."""
    a = list(a)
    d = len(mod) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top] % p
        for i, m in enumerate(mod):
            a[top - d + i] -= c * m
    return [c % p for c in a[:d]]


def _is_irreducible(f, p: int) -> bool:
    """Whether the monic f has no monic factor of degree 1..deg(f)/2."""
    k = len(f) - 1
    return all(
        any(_rem(f, tail + (1,), p))
        for d in range(1, k // 2 + 1)
        for tail in product(range(p), repeat=d)
    )


class Field:
    """GF(p^k): its modulus, and the exp/log tables of its generator, the
    least element of multiplicative order q - 1."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k, self.size = p, k, p**k
        self.modulus = tuple(modulus)  # monic, degree k, low-to-high
        q = self.size
        for g in range(1, q):
            g_digits, powers, x = _digits(g, p, k), [1], g
            while x != 1:
                powers.append(x)
                prod = [0] * (2 * k - 1)
                for i, a in enumerate(_digits(x, p, k)):
                    for j, b in enumerate(g_digits):
                        prod[i + j] += a * b
                x = _number(_rem(prod, self.modulus, p), p)
            if len(powers) == q - 1:
                break
        self.generator = g
        self.exp = powers + powers  # exp[i + j] needs no reduction mod q - 1
        self.log = [0] * q
        for e, x in enumerate(powers):
            self.log[x] = e

    def add(self, a: int, b: int) -> int:
        p, n, place = self.p, 0, 1
        while a or b:
            n += (a + b) % p * place
            a, b, place = a // p, b // p, place * p
        return n

    def neg(self, a: int) -> int:
        p, n, place = self.p, 0, 1
        while a:
            n += -a % p * place
            a, place = a // p, place * p
        return n

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting zero field element")
        return self.exp[self.size - 1 - self.log[a]]

    def power(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverting zero field element")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.size - 1)]

    def is_square(self, a: int) -> bool:
        """Whether nonzero a is a square: an even logarithm, or p = 2."""
        if a == 0:
            raise ValueError("squareness of zero is undefined here")
        return self.p == 2 or self.log[a] % 2 == 0

    def frobenius(self, a: int, i: int) -> int:
        """The field automorphism a -> a^(p^i)."""
        return self.power(a, self.p ** (i % self.k))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k) if self.k > 1 else "GF(%d)" % self.p


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    """GF(p^k) with the least monic irreducible modulus."""
    if not _is_prime(p):
        raise InvalidField("%d is not prime" % p)
    if k < 1:
        raise InvalidField("extension degree must be >= 1")
    return Field(p, k, next(
        tail + (1,) for tail in product(range(p), repeat=k) if _is_irreducible(tail + (1,), p)
    ))


def subfield_embedding(small: Field, big: Field) -> list:
    """The embedding GF(p^k) -> GF(p^m), k | m, as the list of images of
    0..p^k - 1.

    It maps x to the first root of the small field's modulus in the big
    field, the elements taken in itertools.product order of their digit
    tuples.
    """
    if small.p != big.p or big.k % small.k != 0:
        raise InvalidField("no embedding of %r into %r" % (small, big))

    def evaluate(coeffs, x):
        acc = 0
        for i, c in enumerate(coeffs):
            acc = big.add(acc, big.mul(c, big.power(x, i)))
        return acc

    root = next(
        x for x in (_number(t, big.p) for t in product(range(big.p), repeat=big.k))
        if evaluate(small.modulus, x) == 0
    )
    return [evaluate(_digits(a, small.p, small.k), root) for a in range(small.size)]
