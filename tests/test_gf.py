from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import gf
from designforge.errors import InvalidField
from designforge.gf import field_make, subfield_embedding
from oracles import field_add_by_digits, field_digits, field_mul_by_digits, field_number

FIELDS = [field_make(p, k) for p, k in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (7, 1)]]

# GF(q) for every prime power q <= 81: the fields of PG(1,q) and of the
# PGL(2,q) copies in PSL(2,q^2) that the atlas can build at that size
SMALL_FIELDS = [field_make(p, k) for p in range(2, 82) for k in range(1, 7) if gf._is_prime(p) and p**k <= 81]


def field_and_elems(min_elems=1, max_elems=3):
    return st.sampled_from(FIELDS).flatmap(
        lambda F: st.lists(st.integers(0, F.size - 1), min_size=min_elems, max_size=max_elems).map(
            lambda xs: (F, xs)
        )
    )


def test_rejects_bad_parameters():
    with pytest.raises(InvalidField):
        field_make(6, 1)
    with pytest.raises(InvalidField):
        field_make(3, 0)


def test_least_irreducible_moduli():
    # low-to-high coefficients; constant term first
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert field_make(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert field_make(2, 4).modulus == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
    assert field_make(5, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field_make(3, 3).modulus == (1, 0, 2, 1)  # x^3 + 2x^2 + 1
    assert field_make(3, 4).modulus == (1, 0, 1, 1, 1)  # x^4 + x^3 + x^2 + 1


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def test_irreducible_counts_match_gauss():
    # the monic degree-k polynomials over GF(p) that gf accepts number
    # (1/k) sum_{d | k} mu(d) p^(k/d), for every p^k <= 729
    for p in (n for n in range(2, 730) if gf._is_prime(n)):
        k = 1
        while p**k <= 729:
            accepted = sum(gf._is_irreducible(tail + (1,), p) for tail in product(range(p), repeat=k))
            gauss = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0)
            assert k * accepted == gauss, (p, k)
            k += 1


def test_field_is_cached():
    assert field_make(3, 2) is field_make(3, 2)


@settings(max_examples=150, deadline=None)
@given(field_and_elems(3, 3))
def test_ring_axioms(fx):
    F, (a, b, c) = fx
    add, mul = F.add, F.mul
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a
    assert mul(a, 1) == a
    assert add(a, F.neg(a)) == 0


@settings(max_examples=100, deadline=None)
@given(field_and_elems(1, 1))
def test_multiplicative_inverse(fx):
    F, (a,) = fx
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        with pytest.raises(ZeroDivisionError):
            F.power(a, -1)
    else:
        assert F.mul(a, F.inv(a)) == 1
        assert F.power(a, -1) == F.inv(a)


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_arithmetic_matches_digit_oracle(F):
    q = F.size
    for a in range(q):
        x = 1
        for b in range(q):
            assert F.add(a, b) == field_add_by_digits(F, a, b)
            assert F.mul(a, b) == field_mul_by_digits(F, a, b)
            assert F.power(a, b) == x
            x = field_mul_by_digits(F, x, a)
        if a:
            assert field_mul_by_digits(F, a, F.inv(a)) == 1
    assert all(F.neg(a) == field_mul_by_digits(F, a, F.p - 1) for a in range(q))


@pytest.mark.parametrize("F", FIELDS)
def test_generator_has_full_order(F):
    powers = set()
    x = 1
    for _ in range(F.size - 1):
        powers.add(x)
        x = F.mul(x, F.generator)
    assert len(powers) == F.size - 1
    assert x == 1
    # no smaller element generates
    assert all(len({F.power(g, e) for e in range(F.size - 1)}) < F.size - 1 for g in range(1, F.generator))


@pytest.mark.parametrize("F", FIELDS)
def test_square_counts(F):
    nonzero = range(1, F.size)
    squares = [a for a in nonzero if F.is_square(a)]
    expected = len(nonzero) if F.p == 2 else len(nonzero) // 2
    assert len(squares) == expected
    assert all(F.is_square(F.mul(a, a)) for a in nonzero)


def test_is_square_rejects_zero():
    F = field_make(5, 1)
    with pytest.raises(ValueError):
        F.is_square(0)


@pytest.mark.parametrize("F", [field_make(3, 2), field_make(2, 3)])
def test_frobenius_is_automorphism(F):
    elems = range(F.size)
    phi = [F.frobenius(a, 1) for a in elems]
    for a in elems:
        for b in elems:
            assert phi[F.add(a, b)] == F.add(phi[a], phi[b])
            assert phi[F.mul(a, b)] == F.mul(phi[a], phi[b])
    # composing k times is the identity
    assert all(F.frobenius(a, F.k) == a for a in elems)
    assert len(set(phi)) == F.size


def test_frobenius_fixes_prime_subfield():
    F = field_make(3, 2)
    for a in range(3):
        assert F.frobenius(a, 1) == a


def _assert_embedding(small, big):
    emb = subfield_embedding(small, big)
    assert len(set(emb)) == small.size
    for a in range(small.size):
        for b in range(small.size):
            assert emb[small.add(a, b)] == big.add(emb[a], emb[b])
            assert emb[small.mul(a, b)] == big.mul(emb[a], emb[b])
    assert emb[1] == 1


def test_subfield_embedding_is_homomorphism():
    _assert_embedding(field_make(3, 1), field_make(3, 2))


def test_subfield_embedding_nontrivial_degrees():
    _assert_embedding(field_make(2, 2), field_make(2, 4))
    _assert_embedding(field_make(3, 2), field_make(3, 4))


def test_subfield_embedding_rejects_mismatch():
    with pytest.raises(InvalidField):
        subfield_embedding(field_make(2, 2), field_make(3, 2))
    with pytest.raises(InvalidField):
        subfield_embedding(field_make(2, 2), field_make(2, 3))


def test_digit_roundtrip():
    for F in (field_make(3, 2), field_make(2, 3)):
        for n in range(F.size):
            digits = gf._digits(n, F.p, F.k)
            assert digits == field_digits(F, n)
            assert gf._number(digits, F.p) == field_number(F, digits) == n
