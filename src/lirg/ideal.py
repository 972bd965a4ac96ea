"""Left ideals of M_n(F_q) in canonical row-space form.

The left ideal generated by X is the set of all WX; it consists exactly of
the matrices whose row space lies inside the row space of X.  Storing the
unique reduced-row-echelon basis of that row space therefore identifies
the ideal completely: equality and hashing are structural, and a rank-r
ideal has q^(n*r) elements without ever being materialized.
"""

from dataclasses import dataclass

from lirg.field import Field
from lirg.matrix import row_reduce


@dataclass(frozen=True, order=True)
class LeftIdeal:
    n: int
    basis: tuple  # RREF rows spanning the row space, zero rows trimmed

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"LeftIdeal(n={self.n}, rank={self.rank}, basis={self.basis})"


def ideal_from_rows(F: Field, n: int, rows) -> LeftIdeal:
    reduced, r = row_reduce(F, [tuple(row) for row in rows])
    return LeftIdeal(n, reduced[:r])


def ideal_of(F: Field, X) -> LeftIdeal:
    """Canonical form of the left ideal generated by X."""
    return ideal_from_rows(F, len(X), X)


def reduce_against(F: Field, basis, vec):
    """Remainder of a row vector after elimination by an RREF basis."""
    v = list(vec)
    add, mul, neg = F.add, F.mul, F.neg
    for row in basis:
        lead = next(j for j, c in enumerate(row) if c)
        if v[lead]:
            f = neg(v[lead])
            for j in range(lead, len(v)):
                if row[j]:
                    v[j] = add(v[j], mul(f, row[j]))
    return tuple(v)


def contains_row(F: Field, I: LeftIdeal, vec) -> bool:
    return not any(reduce_against(F, I.basis, vec))


def is_subideal(F: Field, I: LeftIdeal, J: LeftIdeal) -> bool:
    """I subseteq J, i.e. row space containment."""
    if I.n != J.n:
        raise ValueError("ideal dimension mismatch")
    if I.rank > J.rank:
        return False
    return all(contains_row(F, J, row) for row in I.basis)


def proper_subset(F: Field, I: LeftIdeal, J: LeftIdeal) -> bool:
    return I.rank < J.rank and is_subideal(F, I, J)
