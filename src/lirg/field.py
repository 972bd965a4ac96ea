"""Exact arithmetic in GF(p^m).

Elements are integer codes in ``[0, q)`` with ``q = p**m``: the code of an
element with coefficient vector ``(c_0, ..., c_{m-1})`` (coefficient of x^i
at index i) is ``sum(c_i * p**i)``.  The code is the interchange encoding
used by every file format in this package.

A :class:`Field` is immutable after construction and safe to share; all
operations are pure functions of their arguments.
"""

from functools import cached_property
from itertools import product
from math import isqrt

import numpy as np

# Beyond this size the dense q x q operation tables are not built; scalar
# arithmetic falls back to per-call polynomial reduction.
TABLE_LIMIT = 2048


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    if k % 2 == 0:
        return k == 2
    for d in range(3, isqrt(k) + 1, 2):
        if k % d == 0:
            return False
    return True


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a, mod, p):
    """Remainder of a modulo a monic polynomial, coefficients mod p."""
    r = list(a)
    dm = len(mod) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * mod[i]) % p
        r.pop()
    return _poly_trim(tuple(r))


def is_irreducible(coeffs, p: int) -> bool:
    """Trial division against every lower-degree monic polynomial."""
    c = tuple(x % p for x in coeffs)
    deg = len(c) - 1
    if deg < 1 or c[-1] != 1:
        return False
    if deg == 1:
        return True
    if c[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for lower in product(range(p), repeat=d):
            g = lower + (1,)
            if not _poly_mod(c, g, p):
                return False
    return True


def smallest_irreducible(p: int, m: int):
    """Lexicographically smallest monic irreducible of degree m over Z_p.

    Candidates are ordered by their coefficient vector read from the
    constant term upward, so the choice is deterministic across runs.
    """
    for lower in product(range(p), repeat=m):
        cand = lower + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible of degree {m} over Z_{p}")  # unreachable


class Field:
    """GF(p^m) with an explicit monic irreducible modulus.

    ``modulus`` is the full coefficient vector, low to high (length m+1,
    last entry 1).  For m = 1 the modulus plays no role in arithmetic.
    """

    def __init__(self, p: int, m: int, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"m = {m} must be >= 1")
        if modulus is None:
            modulus = smallest_irreducible(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over Z_{p}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus})"

    # -- element encoding ------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element code of GF({self.q})")
        return int(a)

    def coeffs(self, a: int):
        """Length-m coefficient vector of an element code."""
        a = self.check(a)
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(coeffs)}")
        a = 0
        for c in reversed(coeffs):
            c = int(c) % self.p
            a = a * self.p + c
        return a

    def elements(self):
        return range(self.q)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (self.check(a) + self.check(b)) % self.p
        if self._small:
            return self._add[self.check(a)][self.check(b)]
        return self._add_slow(a, b)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-self.check(a)) % self.p
        if self._small:
            return self._neg[self.check(a)]
        return self.from_coeffs(tuple((-c) % self.p for c in self.coeffs(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (self.check(a) * self.check(b)) % self.p
        if self._small:
            return self._mul[self.check(a)][self.check(b)]
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) by square and multiply
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        a = self.check(a)
        if k < 0:
            return self.pow(self.inv(a), -k)
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def frobenius(self, a: int, t: int) -> int:
        """a ** (p**t); the automorphisms of GF(p^m) are exactly these maps."""
        if not 0 <= t < self.m:
            raise ValueError(f"Frobenius exponent {t} out of range [0, {self.m})")
        return self.pow(a, self.p**t)

    def automorphism_exponents(self):
        """Exponents t labelling the maps a -> a**(p**t)."""
        return list(range(self.m))

    # -- slow paths for large extension fields ---------------------------

    def _add_slow(self, a, b):
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.from_coeffs(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def _mul_slow(self, a, b):
        prod_ = _poly_mul(self.coeffs(self.check(a)), self.coeffs(self.check(b)), self.p)
        rem = _poly_mod(prod_, self.modulus, self.p)
        return self.from_coeffs(rem + (0,) * (self.m - len(rem)))

    # -- cached tables ---------------------------------------------------

    @cached_property
    def _small(self) -> bool:
        return self.q <= TABLE_LIMIT

    @cached_property
    def _add(self):
        return [[self._add_slow(a, b) for b in range(self.q)] for a in range(self.q)]

    @cached_property
    def _neg(self):
        return [self._add_slow(0, 0)] + [
            self.from_coeffs(tuple((-c) % self.p for c in self.coeffs(a)))
            for a in range(1, self.q)
        ]

    @cached_property
    def _mul(self):
        return [[self._mul_slow(a, b) for b in range(self.q)] for a in range(self.q)]


def make_field(p: int, m: int, modulus=None) -> Field:
    """Validated GF(p^m); picks the smallest irreducible modulus when absent."""
    return Field(p, m, modulus)
