"""Square matrices over GF(q).

A matrix is a tuple of n row tuples of element codes; the field is passed
explicitly to every operation.  A left ideal {W X} is the RREF basis of
the row space of X, a tuple of rows (see ``ideal_of``).  Indices are
0-based throughout the API; any 1-based presentation belongs to the
formatting layer.

Vertex numbering: a matrix maps to the integer
``sum(code(entry at row i, col j) * q**(i*n + j))``: row-major, base q,
little-endian.  Every file format relies on this bijection.
"""

import random
from functools import lru_cache, reduce

import numpy as np

from lirg.field import Field

DEFAULT_VERTEX_CAP = 100_000


class VertexCapExceeded(ValueError):
    """Requested enumeration is larger than the configured vertex cap."""


def _check_vertex_cap(p: int, m: int, n: int, cap: int | None):
    """Refuse the q^(n^2) matrices of M_n(F_q), q = p^m, when they number
    above cap.

    q^(n^2) >= 2^(m*n^2) > cap once m*n^2 reaches the bit length of cap, so
    a huge m or n is refused without forming the power, and the message
    names the count as a power of p rather than printing its digits.
    """
    e = m * n * n
    if cap is not None and (e >= cap.bit_length() or p**e > cap):
        raise VertexCapExceeded(
            f"q^(n^2) = {p}^{e} exceeds the vertex cap {cap}; "
            "raise the cap to proceed"
        )


def identity_matrix(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def rank_marker(n: int, r: int):
    """Diagonal matrix with r leading ones; rank exactly r, and rank 0 gives 0."""
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range [0, {n}]")
    return tuple(
        tuple(1 if i == j and i < r else 0 for j in range(n)) for i in range(n)
    )


def first_row_matrix(n: int, a):
    """Row vector a in the first row, all other rows zero."""
    a = tuple(a)
    if len(a) != n:
        raise ValueError(f"row vector length {len(a)} != n = {n}")
    return (a,) + tuple((0,) * n for _ in range(n - 1))


def stacked_matrix(F: Field, n: int, rows):
    """First rows taken from the given independent vectors, the rest zero."""
    rows = [tuple(F.check(c) for c in r) for r in rows]
    if len(rows) > n or any(len(r) != n for r in rows):
        raise ValueError("row set must contain at most n vectors of length n")
    _, rank = row_reduce(F, rows)
    if rank != len(rows):
        raise ValueError("row vectors are linearly dependent")
    return tuple(rows) + tuple((0,) * n for _ in range(n - len(rows)))


def _check_matrix(F: Field, A):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for c in row:
            F.check(c)
    return n


def mat_mul(F: Field, A, B):
    n = len(A)
    if len(B) != n:
        raise ValueError(f"dimension mismatch: {n} vs {len(B)}")
    mul, add = F.mul, F.add
    Bt = tuple(zip(*B))
    out = []
    for arow in A:
        orow = []
        for bcol in Bt:
            s = 0
            for x, y in zip(arow, bcol):
                if x and y:
                    s = add(s, mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def row_reduce(F: Field, rows):
    """Reduced row echelon form of a list of row vectors.

    Pivots are found scanning top-to-bottom, left-to-right, normalized to 1
    and cleared above and below, giving a unique canonical form.  Returns
    (rref rows as tuples, rank); zero rows sink to the bottom.  Rows of
    unequal length are refused.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    width = len(work[0]) if work else 0
    if any(len(r) != width for r in work):
        raise ValueError("rows differ in length")
    mul, add, neg, inv = F.mul, F.add, F.neg, F.inv
    pivot_row = 0
    for col in range(width):
        sel = None
        for r in range(pivot_row, nrows):
            if work[r][col]:
                sel = r
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        row = work[pivot_row]
        factor = inv(row[col])
        if factor != 1:
            for j in range(col, width):
                row[j] = mul(factor, row[j])
        for r in range(nrows):
            if r != pivot_row and work[r][col]:
                f = neg(work[r][col])
                other = work[r]
                for j in range(col, width):
                    if row[j]:
                        other[j] = add(other[j], mul(f, row[j]))
        pivot_row += 1
        if pivot_row == nrows:
            break
    return tuple(tuple(r) for r in work), pivot_row


def ideal_of(F: Field, X):
    """The left ideal {W X} as its canonical form: the RREF basis of the
    row space of X, zero rows trimmed.  Its length is its rank, and two
    ideals are equal exactly when their bases are."""
    reduced, r = row_reduce(F, X)
    return reduced[:r]


def proper_subset(F: Field, A, B) -> bool:
    """[A] properly inside [B], for RREF bases A and B: B has more rows,
    and stacking A's rows under B's leaves B's RREF unchanged."""
    return len(A) < len(B) and ideal_of(F, B + A) == B


def rref_and_rank(F: Field, A):
    """(RREF of A, rank)."""
    _check_matrix(F, A)
    return row_reduce(F, A)


def rank(F: Field, A) -> int:
    return rref_and_rank(F, A)[1]


def is_invertible(F: Field, A) -> bool:
    return rank(F, A) == len(A)


def mat_inverse(F: Field, A):
    n = _check_matrix(F, A)
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced, r = row_reduce(F, aug)
    if any(reduced[i][i] != 1 for i in range(n)) or r != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def vertex_encode(F: Field, A) -> int:
    n = _check_matrix(F, A)
    v = 0
    q = F.q
    for i in reversed(range(n)):
        for j in reversed(range(n)):
            v = v * q + A[i][j]
    return v


def vertex_decode(F: Field, n: int, v: int):
    q = F.q
    if not 0 <= v < q ** (n * n):
        raise ValueError(f"vertex index {v} out of range [0, {q ** (n * n)})")
    entries = []
    for _ in range(n * n):
        v, r = divmod(v, q)
        entries.append(r)
    return tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))


def _span_codes(F: Field, n: int, basis, t: int = 0):
    """Row codes of all q^r F_q-combinations of the r basis rows, each
    coefficient first raised to p^t.

    Entry ``sum(a_k * q**k)`` is the code of ``sum(a_k^(p^t) * basis[k])``;
    for t = 0 that is the span, and for a square matrix P the row map
    u -> u^(p^t) P on row codes.  Row codes add digit-wise mod p, base-p
    digit k*m + i of an entry index is the coefficient of x^i in a_k, and
    a -> a^(p^t) is F_p-linear, so the entries are one product of that
    digit matrix with the digit vectors of the (x^i)^(p^t) * basis[k].
    """
    p, m, r = F.p, F.m, len(basis)
    units = [F.frobenius(p**i, t) for i in range(m)]
    gens = np.array(
        [[F.coeffs(F.mul(u, y)) for y in row] for row in basis for u in units],
        dtype=np.int64,
    ).reshape(r * m, n * m)
    return (_digit_table(p, m, r) @ gens % p) @ p ** np.arange(n * m)


@lru_cache(maxsize=8)
def _digit_table(p: int, m: int, r: int):
    """The base-p digits of 0..q^r - 1, q = p^m, as a read-only q^r × rm
    matrix, lowest digit first.  It depends on the field and rank alone, and
    a graph build makes a span per class: 9,507 of rank 2 for the quotient
    of M_3(F_97)."""
    digits = np.arange(p ** (m * r))[:, None] // p ** np.arange(r * m) % p
    digits.setflags(write=False)
    return digits


def _digit_sum(codes, base: int, k: int):
    """Entry d is ``sum(codes[d_i] * base**i)`` over the k base-len(codes)
    digits d_i of d; with len(codes) == base it lists, in ascending vertex
    order, the image of a map applied digit by digit."""
    return reduce(np.add.outer, [codes * base**i for i in reversed(range(k))]).ravel()


def enumerate_matrices(F: Field, n: int, cap: int | None = DEFAULT_VERTEX_CAP):
    """All q^(n^2) matrices in ascending vertex-index order."""
    _check_vertex_cap(F.p, F.m, n, cap)
    for v in range(F.q ** (n * n)):
        yield vertex_decode(F, n, v)


def random_matrix(F: Field, n: int, rng: random.Random):
    return tuple(
        tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n)
    )


def random_invertible(F: Field, n: int, rng: random.Random):
    """Uniform member of GL(n, q) by rejection sampling; deterministic per seed."""
    while True:
        A = random_matrix(F, n, rng)
        if is_invertible(F, A):
            return A
