"""Field construction, arithmetic and Frobenius maps against brute-force
polynomial oracles."""

import random
import time
import tracemalloc
from array import array
from itertools import product
from math import isqrt

import pytest

from conftest import from_coeffs
from lirg.field import ORDER_BITS, PRIME_LIMIT, Field, is_irreducible, is_prime, make_field


def poly_mul_mod(a, b, modulus, p):
    """Oracle: schoolbook polynomial product reduced by long division."""
    prod_ = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod_[i + j] = (prod_[i + j] + x * y) % p
    deg_m = len(modulus) - 1
    while len(prod_) > deg_m:
        lead = prod_[-1]
        shift = len(prod_) - 1 - deg_m
        for k in range(deg_m + 1):
            prod_[shift + k] = (prod_[shift + k] - lead * modulus[k]) % p
        prod_.pop()
    prod_ += [0] * (deg_m - len(prod_))
    return tuple(prod_)


def oracle_reducible(coeffs, p):
    """Oracle: search for a factorization into two lower-degree monics."""
    deg = len(coeffs) - 1
    for d1 in range(1, deg):
        d2 = deg - d1
        for lo1 in product(range(p), repeat=d1):
            g = lo1 + (1,)
            for lo2 in product(range(p), repeat=d2):
                h = lo2 + (1,)
                prod_ = [0] * (deg + 1)
                for i, x in enumerate(g):
                    for j, y in enumerate(h):
                        prod_[i + j] = (prod_[i + j] + x * y) % p
                if tuple(prod_) == tuple(coeffs):
                    return True
    return False


def test_prime_field_basics():
    F = make_field(2, 1)
    assert F.q == 2
    assert F.add(1, 1) == 0
    assert F.inv(1) == 1


def test_gf4_default_modulus_is_the_unique_irreducible_quadratic():
    # scan all four monic quadratics over Z_2 with the factorization oracle
    irreducibles = [
        lo + (1,) for lo in product(range(2), repeat=2) if not oracle_reducible(lo + (1,), 2)
    ]
    assert irreducibles == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_reducible_modulus_rejected():
    assert oracle_reducible((1, 0, 1), 2)  # x^2 + 1 = (x + 1)^2
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 2, (1, 0, 1))


def test_nonprime_p_rejected():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError, match="monic of degree"):
        make_field(2, 2, (1, 1))


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_default_modulus_is_lexicographically_first(p, m):
    F = make_field(p, m)
    for lower in product(range(p), repeat=m):
        cand = lower + (1,)
        if not oracle_reducible(cand, p):
            assert F.modulus == cand
            return
    pytest.fail("oracle found no irreducible")


@pytest.mark.parametrize(
    "p,deg", [(2, d) for d in range(1, 8)] + [(3, d) for d in range(1, 5)]
    + [(5, d) for d in range(1, 4)] + [(7, d) for d in range(1, 4)],
)
def test_ben_or_matches_factorization_oracle(p, deg):
    for lower in product(range(p), repeat=deg):
        f = lower + (1,)
        assert is_irreducible(f, p) == (not oracle_reducible(f, p)), f
        assert not is_irreducible(f[:-1] + (p + 2,), p)  # not monic


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1)),
        (2, 12, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
        (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
        (3, 7, (1, 0, 0, 0, 0, 1, 2, 1)),
        (5, 4, (1, 0, 1, 1, 1)),
        (7, 3, (1, 0, 1, 1)),
        (13, 3, (1, 0, 4, 1)),
        (4099, 2, (1, 0, 1)),
    ],
)
def test_default_modulus_pinned(p, m, modulus):
    """Default moduli as trial division over every lower-degree monic chose
    them; element codes in every file format depend on these."""
    assert make_field(p, m).modulus == modulus


@pytest.mark.parametrize("p,m", [(1_000_003, 2), (1_000_000_007, 2), (2, 24), (2, 40)])
def test_default_modulus_for_large_p_or_m_is_prompt(p, m):
    start = time.perf_counter()
    F = make_field(p, m)
    assert time.perf_counter() - start < 1.0
    assert F.modulus[0] != 0 and is_irreducible(F.modulus, p)


def test_field_order_limit():
    assert 2**81 < PRIME_LIMIT < 2**ORDER_BITS
    assert make_field(2, ORDER_BITS - 1).q == 2**81
    assert make_field(3317044064679887385961813, 1).q < PRIME_LIMIT
    start = time.perf_counter()
    for args in [(2, ORDER_BITS), (2, ORDER_BITS, (1,) + (0,) * 81 + (1,)),
                 (2, 10**12), (2305843009213693951, 2), (3, 52)]:
        with pytest.raises(ValueError, match=r"is at least 2\^82, the field order limit"):
            make_field(*args)
    assert time.perf_counter() - start < 0.1


def test_gf4_multiplication_against_polynomial_oracle():
    F = make_field(2, 2)
    x, x1 = 2, 3  # codes of x and x + 1
    expected = poly_mul_mod(F.coeffs(x), F.coeffs(x1), F.modulus, 2)
    assert F.coeffs(F.mul(x, x1)) == expected
    assert F.mul(x, x1) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_inv_of_one_is_one(p, m):
    assert make_field(p, m).inv(1) == 1


def test_frobenius_gf4():
    F = make_field(2, 2)
    x = 2
    # oracle: x^2 reduced mod x^2 + x + 1
    expected = poly_mul_mod(F.coeffs(x), F.coeffs(x), F.modulus, 2)
    assert F.coeffs(F.frobenius(x, 1)) == expected
    assert F.frobenius(x, 1) == 3  # x + 1
    assert all(F.frobenius(a, 0) == a for a in F.elements())
    assert F.frobenius(F.frobenius(x, 1), 1) == x


def test_frobenius_exponent_out_of_range():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        F.frobenius(1, 2)
    with pytest.raises(ValueError):
        F.frobenius(1, -1)


def _is_field_automorphism(F: Field, mapping) -> bool:
    return all(
        mapping[F.add(a, b)] == F.add(mapping[a], mapping[b])
        and mapping[F.mul(a, b)] == F.mul(mapping[a], mapping[b])
        for a in F.elements()
        for b in F.elements()
    )


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3)])
def test_automorphism_exponent_list(p, m):
    F = make_field(p, m)
    assert F.automorphism_exponents() == list(range(m))
    # exhaustive check: each listed exponent really is an automorphism
    for t in F.automorphism_exponents():
        mapping = [F.frobenius(a, t) for a in F.elements()]
        assert _is_field_automorphism(F, mapping)


@pytest.mark.parametrize(
    "p,m",
    [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)],
)
def test_frobenius_preserves_add_and_mul_exhaustively(p, m):
    F = make_field(p, m)
    assert F.q <= 64
    for t in range(m):
        frob = [F.frobenius(a, t) for a in F.elements()]
        for a in F.elements():
            for b in F.elements():
                assert frob[F.add(a, b)] == F.add(frob[a], frob[b])
                assert frob[F.mul(a, b)] == F.mul(frob[a], frob[b])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 4)])
def test_code_roundtrip(p, m):
    F = make_field(p, m)
    seen = set()
    for a in F.elements():
        c = F.coeffs(a)
        assert len(c) == m and all(0 <= x < p for x in c)
        assert from_coeffs(F, c) == a
        seen.add(c)
    assert len(seen) == F.q


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_exhaustive(p, m):
    F = make_field(p, m)
    assert F.q <= 16
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a and F.mul(a, 1) == a and F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(3, 1).inv(0)


def test_element_range_checked():
    F = make_field(2, 2)
    with pytest.raises(ValueError):
        F.add(4, 0)
    with pytest.raises(ValueError):
        F.coeffs(-1)


def test_is_prime_small():
    assert [k for k in range(2, 30) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _is_prime_by_trial_division(k):
    return k >= 2 and all(k % d for d in range(2, isqrt(k) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(k) == _is_prime_by_trial_division(k) for k in range(-3, 10**5))


def test_is_prime_strong_pseudoprimes_and_limit():
    # Strong pseudoprimes to the bases 2..7 and 2..31 respectively.
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    assert is_prime(2305843009213693951)  # 2^61 - 1
    assert is_prime(2**64 - 59) and is_prime(2**80 - 65) and not is_prime(2**80 - 63)
    assert not is_prime(PRIME_LIMIT - 1)  # even
    with pytest.raises(ValueError, match="too large"):
        is_prime(PRIME_LIMIT)


def _oracle_add(F: Field, a, b):
    return from_coeffs(F, tuple((x + y) % F.p for x, y in zip(F.coeffs(a), F.coeffs(b))))


def _oracle_mul(F: Field, a, b):
    return from_coeffs(F, poly_mul_mod(F.coeffs(a), F.coeffs(b), F.modulus, F.p))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_mul_matches_oracle_for_every_irreducible_modulus(p, m):
    moduli = [lo + (1,) for lo in product(range(p), repeat=m) if not oracle_reducible(lo + (1,), p)]
    for modulus in moduli:
        F = make_field(p, m, modulus)
        for a in F.elements():
            for b in F.elements():
                assert F.mul(a, b) == _oracle_mul(F, a, b), (modulus, a, b)


@pytest.mark.parametrize("p,m", [(2, 11), (2, 12), (3, 7), (4099, 1), (100003, 1)])
def test_random_elements_against_oracle(p, m):
    F = make_field(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(400):
        a, b = rng.randrange(F.q), rng.randrange(1, F.q)
        assert F.mul(a, b) == _oracle_mul(F, a, b)
        assert F.add(a, b) == _oracle_add(F, a, b)
        assert F.neg(a) == from_coeffs(F, tuple(-c % p for c in F.coeffs(a)))
        assert F.mul(b, F.inv(b)) == 1
        assert F.pow(b, F.q - 1) == 1 and F.pow(b, 3) == F.mul(b, F.mul(b, b))
        assert F.pow(b, -1) == F.inv(b)
        for t in range(m):
            fa, fb = F.frobenius(a, t), F.frobenius(b, t)
            assert F.frobenius(F.add(a, b), t) == F.add(fa, fb)
            assert F.frobenius(F.mul(a, b), t) == F.mul(fa, fb)


def test_large_prime_field_allocates_nothing_of_size_p():
    tracemalloc.start()
    try:
        F = make_field(1_000_003, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.modulus == (0, 1)
    assert peak < 1_000_000
    # The exp/log/Zech tables wait for the first operation, then all three
    # are plain instance attributes.
    tables = ("_exp", "_log", "_zech")
    assert not any(name in vars(F) for name in tables)
    assert F.mul(2, F.inv(2)) == 1
    assert all(isinstance(vars(F).get(name), array) for name in tables)
    with pytest.raises(AttributeError):
        F._not_a_table
