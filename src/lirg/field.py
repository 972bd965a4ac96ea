"""Exact arithmetic in GF(p^m).

Elements are integer codes in ``[0, q)`` with ``q = p**m``: the code of an
element with coefficient vector ``(c_0, ..., c_{m-1})`` (coefficient of x^i
at index i) is ``sum(c_i * p**i)``.  The code is the interchange encoding
used by every file format in this package.

Arithmetic has one representation for every p and m: tables of
``exp[k] = g^k``, ``log[g^k] = k`` and the Zech logarithm
``zech[k] = log(1 + g^k)`` (-1 where 1 + g^k = 0) over g, the primitive
element of smallest code (Lidl & Niederreiter, *Finite Fields*, ch. 9).
They hold about 3q int64 entries and are built on the first operation.

A :class:`Field` is immutable after construction and safe to share; all
operations are pure functions of their arguments.
"""

from array import array

import numpy as np


# Miller-Rabin over the 13 primes 2..41 is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Fields of order q >= 2^ORDER_BITS are refused before any modulus search.
# Ben-Or's test takes ~m^3 log p coefficient products, so for a given q it is
# slowest at p = 2, where every m < 82 finds its modulus in under 0.25 s
# (2-vCPU VM).  PRIME_LIMIT < 2^82: every p is_prime decides works with m = 1.
ORDER_BITS = 82


def is_prime(k: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above PRIME_LIMIT,
    where these bases no longer decide primality."""
    if k >= PRIME_LIMIT:
        raise ValueError(f"p = {k} is too large: primality is decided only below {PRIME_LIMIT}")
    if k < 2:
        return False
    for b in _PRIME_BASES:
        if k % b == 0:
            return k == b
    d, s = k - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, k)
        if x == 1 or x == k - 1:
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def _poly_mod(a, mod, p):
    """Remainder of a modulo a monic polynomial, coefficients mod p, as
    deg(mod) coefficients when a has at least that many."""
    r = list(a)
    dm = len(mod) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * mod[i]) % p
        r.pop()
    return r


def _mul_mod(a, b, mod, p):
    """a * b modulo a monic polynomial, coefficients reduced mod p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return [x % p for x in _poly_mod(prod, mod, p)]


def _pow_mod(a, k: int, mod, p):
    """a^k modulo a monic polynomial, k >= 1, by left-to-right squaring."""
    out = a
    for bit in bin(k)[3:]:
        out = _mul_mod(out, out, mod, p)
        if bit == "1":
            out = _mul_mod(out, a, mod, p)
    return out


def _has_common_factor(f, g, p) -> bool:
    """Whether gcd(f, g) over Z_p has positive degree; f is monic."""
    a, b = list(f), list(g)
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _poly_mod(a, b, p)
    return len(a) > 1


def is_irreducible(coeffs, p: int) -> bool:
    """Ben-Or's test: a monic f of degree m is irreducible exactly when
    gcd(f, x^(p^i) - x) = 1 for every i <= m/2, since x^(p^i) - x is the
    product of the monic irreducibles of degree dividing i.  x^(p^i) mod f
    comes from the previous one by one power, so the test takes
    polynomially many steps in m and log p."""
    c = tuple(x % p for x in coeffs)
    deg = len(c) - 1
    if deg < 1 or c[-1] != 1:
        return False
    x = [0, 1] + [0] * (deg - 2)
    h = x
    for _ in range(deg // 2):
        h = _pow_mod(h, p, c, p)
        if _has_common_factor(c, [(a - b) % p for a, b in zip(h, x)], p):
            return False
    return True


def smallest_irreducible(p: int, m: int):
    """Lexicographically smallest monic irreducible of degree m over Z_p.

    Candidates are ordered by their coefficient vector read from the
    constant term upward, so the choice is deterministic across runs.  For
    m >= 2 the scan starts at constant term 1: x divides every candidate
    with constant term 0.
    """
    for k in range(p ** (m - 1) if m > 1 else 0, p**m):
        cand = tuple(k // p**i % p for i in reversed(range(m))) + (1,)
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
        # p >= 2, so m >= ORDER_BITS is refused without forming the power.
        if m >= ORDER_BITS or p**m >> ORDER_BITS:
            raise ValueError(f"q = {p}^{m} is at least 2^{ORDER_BITS}, the field order limit")
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

    def __getattr__(self, name):
        """Build the tables on the first lookup of one of them.  Called only
        while the attribute is missing, so once the tables are plain
        instance attributes later lookups never come here."""
        if name not in ("_exp", "_log", "_zech"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_tables()
        return getattr(self, name)

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

    def elements(self):
        return range(self.q)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        a, b = self.check(a), self.check(b)
        if not a:
            return b
        if not b:
            return a
        # g^i + g^j = g^i * (1 + g^(j - i)); logs lie in [0, q - 1), so an
        # index shifted down by q - 1 wraps through negative indexing.
        log = self._log
        i = log[a]
        z = self._zech[log[b] - i]
        return 0 if z < 0 else self._exp[i + z - (self.q - 1)]

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # -1 has code p - 1

    def mul(self, a: int, b: int) -> int:
        a, b = self.check(a), self.check(b)
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b] - (self.q - 1)]

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[-self._log[a]]

    def pow(self, a: int, k: int) -> int:
        a = self.check(a)
        if not a:
            return self.inv(a) if k < 0 else int(k == 0)  # inv(0) raises
        return self._exp[self._log[a] * k % (self.q - 1)]

    def frobenius(self, a: int, t: int) -> int:
        """a ** (p**t); the automorphisms of GF(p^m) are exactly these maps."""
        if not 0 <= t < self.m:
            raise ValueError(f"Frobenius exponent {t} out of range [0, {self.m})")
        return self.pow(a, self.p**t)

    def automorphism_exponents(self):
        """Exponents t labelling the maps a -> a**(p**t)."""
        return list(range(self.m))

    # -- exp/log/Zech tables: array("q") indexes to Python ints, 8 B each --

    def _fill_powers(self, g: int, codes) -> bool:
        """Write the code of g^k to codes[k] for k in [0, q - 1), doubling k;
        False as soon as g^k = 1 for some 0 < k < q - 1 (g not primitive).

        Multiplying by c is F_p-linear: the coefficient vector of u*c is that
        of u @ M_c mod p, where row i of M_c is x^i * c mod the modulus, and
        M_(c^2) = M_c @ M_c.  g^k .. g^(2k-1) are g^0 .. g^(k-1) times g^k.
        """
        p, m, q = self.p, self.m, self.q
        c = self.coeffs(g)
        step = np.array([_poly_mod((0,) * i + c, self.modulus, p) for i in range(m)])
        weights = p ** np.arange(m, dtype=np.int64)
        vecs = np.zeros((q - 1, m), dtype=np.int64)
        vecs[0, 0] = codes[0] = 1
        k = 1
        while k < q - 1:
            size = min(k, q - 1 - k)
            block = vecs[k : k + size]
            np.matmul(vecs[:size], step, out=block)
            np.remainder(block, p, out=block)
            np.matmul(block, weights, out=codes[k : k + size])
            if (codes[k : k + size] == 1).any():
                return False
            step = step @ step % p
            k += size
        return True

    def _build_tables(self):
        p, q = self.p, self.q
        exp = array("q", [0]) * (q - 1)
        codes = np.frombuffer(exp, dtype=np.int64)
        # g = 1 is primitive only in GF(2), where the group has order 1.
        next(g for g in range(1, q) if self._fill_powers(g, codes))
        log = array("q", [-1]) * q
        np.frombuffer(log, dtype=np.int64)[codes] = np.arange(q - 1)
        # 1 + a changes only a's constant digit: up by one, or p - 1 to 0.
        one_plus = codes + np.where(codes % p == p - 1, 1 - p, 1)
        zech = array("q", [0]) * (q - 1)
        np.take(log, one_plus, out=np.frombuffer(zech, dtype=np.int64))
        self._exp, self._log, self._zech = exp, log, zech


def make_field(p: int, m: int, modulus=None) -> Field:
    """Validated GF(p^m); picks the smallest irreducible modulus when absent."""
    return Field(p, m, modulus)
