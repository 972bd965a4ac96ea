"""The left-ideal relation graph on M_n(F_q) and its ideal-class quotient.

Vertices of the full graph are all q^(n^2) matrices; there is a directed
edge X -> Y exactly when the left ideal of X is properly contained in the
left ideal of Y, i.e. when the row space of X sits strictly inside the row
space of Y.  A class is the row space, held as its unique RREF basis: a
tuple of rows, each a tuple of element codes, whose length is its rank.
The undirected variant joins X and Y when either containment holds; a
graph holds the relation once, and its reader picks the orientation.
Since adjacency depends only on row spaces, a graph is the class
containment matrix ``lt``, the only form of the class relation, and the
class sizes, closed forms that degrees and invariants weight ``lt`` by
through one exact array, ``fiber_array``.  Both the full graph and the
quotient are refused above ``CLASS_BOUND`` subspaces, where ``lt`` would
pass 1 GiB, before any subspace is made.  ``lt`` is made on first read,
so a command that never reads it, such as sampling an automorphism, never
makes it.  The one array per vertex, a narrow vertex -> class index, is
made on first read too.  No member list of a class is kept: a reader
compares the index with a class, or indexes a bool row of ``lt`` with it.
The one way edges leave a graph is ``serialize``, which streams them one
source vertex at a time in the orientation it is given.  No query
materializes the (possibly huge) edge set.

Class assignment generates each class's members as the matrices W·B
rather than classifying vertices one by one (see ``_assign_classes``),
and containment between classes is read off the same spans, each made
from its class's basis when it is needed and dropped after.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from lirg.counting import fiber_size, gaussian_binomial
from lirg.field import Field
from lirg.matrix import (
    DEFAULT_VERTEX_CAP,
    VertexCapExceeded,
    _check_vertex_cap,
    _digit_sum,
    _span_codes,
)

# The most subspaces a full or quotient graph is built with, whatever its
# cap: its C x C bool ``lt`` then fits in 1 GiB.  `build-graph --quotient
# --n 2 --p 32749` (C = 32,751) takes 2-3 s at ~1.1 GB peak RSS on a
# 2-vCPU VM.
CLASS_BOUND = 1 << 15


def _subspace_count(q: int, n: int, bound: int | None, limit: str) -> int:
    """Number of subspaces of F_q^n, refused (``limit`` names the bound) at
    the first rank whose running sum passes ``bound``, before the huge middle
    Gaussian binomials of a large n.  Rank 1 alone has at least 2^(n-1)
    subspaces, so an n past the bound's bit length is refused at once."""
    count = 0
    for r in range(n + 1):
        count += gaussian_binomial(n, r, q)
        if bound is not None and (n > bound.bit_length() or count > bound):
            raise VertexCapExceeded(f"subspace count of F_{q}^{n} exceeds {limit} {bound}")
    return count


def subspaces(F: Field, n: int):
    """All subspaces of F_q^n as RREF bases, via RREF enumeration.

    One basis per subspace, the tuple of its RREF rows, each a tuple of
    element codes, ordered by rank (its length), then by the basis itself,
    compared lexicographically from the first entry.  That is not row-code
    order: over GF(3), n = 2, the rank-1 bases (0,1), (1,0), (1,1), (1,2)
    have row codes 3, 1, 4, 7.  Every class index and class line follows
    this order.
    """
    out = []
    for r in range(n + 1):
        for pivots in combinations(range(n), r):
            free_pos = [
                (i, j)
                for i in range(r)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for vals in product(F.elements(), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_pos, vals):
                    rows[i][j] = v
                out.append(tuple(tuple(rw) for rw in rows))
    out.sort(key=lambda basis: (len(basis), basis))
    return out


def _assign_classes(F: Field, n: int, bases):
    """vertex -> class index array for all q^(n^2) vertices.

    The matrices whose rows all lie in span(B) are exactly the W·B, so
    each class writes its index onto the vertex codes of all W·B: the
    n-fold outer sum of the span's row codes, row i shifted by q^(i*n),
    with the span made as its class is visited.  The rank-n class, last in
    order, holds every matrix, so it is the fill value, and the other
    classes are visited in descending index, so from highest rank down.
    Every other class that contains a vertex's row space has higher rank
    and is written earlier, so the last write to a vertex comes from its
    own row space.  The index has the narrowest unsigned type that holds
    the class count.
    """
    q, top = F.q, len(bases) - 1
    vertex_class = np.full(q ** (n * n), top, dtype=np.min_scalar_type(top))
    for c in reversed(range(top)):
        vertex_class[_digit_sum(_span_codes(F, n, bases[c]), q**n, n)] = c
    return vertex_class


def _containment_matrix(F: Field, n: int, bases):
    """lt[a, b]: rank a < rank b and every basis row of a lies in span(b).

    Rank decides every pair but those with 2 <= rank b < n: a class of
    rank 1 contains only the zero class below it, and the rank-n class
    contains every class.  For those columns b, span(b) is made and marked
    in one bool table over the q^n row codes, which every class of lower
    rank (a prefix, since classes ascend by rank) reads its basis row
    codes through; the marks are cleared for the next b.  No such b exists
    for n <= 2, where the table could be huge, so none is then made.
    """
    q = F.q
    ranks = np.array([len(basis) for basis in bases])
    rows = np.zeros((len(bases), n), dtype=np.int64)  # padded with the zero row
    for a, basis in enumerate(bases):
        rows[a, : len(basis)] = [sum(x * q**j for j, x in enumerate(row)) for row in basis]
    lt = ranks[:, None] < ranks[None, :]
    middle = np.flatnonzero((ranks >= 2) & (ranks < n))
    inside = np.zeros(q**n, dtype=bool) if len(middle) else None
    for b in middle:
        below, span = np.searchsorted(ranks, ranks[b]), _span_codes(F, n, bases[b])
        inside[span] = True
        # A class of lower rank has at most rank b - 1 basis rows.
        lt[:below, b] = inside[rows[:below, : ranks[b] - 1]].all(axis=1)
        inside[span] = False
    return lt


@dataclass
class RelationGraph:
    """Built relation graph; immutable after construction, queries read-only."""

    kind: str  # 'full' | 'quotient'
    n: int
    field: Field
    class_ideals: tuple  # the RREF basis of each class, in class order
    fiber_sizes: tuple  # vertices per class, exact ints

    @property
    def vertex_count(self) -> int:
        return sum(self.fiber_sizes)

    @property
    def class_count(self) -> int:
        return len(self.class_ideals)

    @cached_property
    def class_rank(self):
        return tuple(len(basis) for basis in self.class_ideals)

    @cached_property
    def lt(self) -> np.ndarray:
        """lt[c, d]: class c properly contained in class d."""
        return _containment_matrix(self.field, self.n, self.class_ideals)

    @cached_property
    def vertex_class(self) -> np.ndarray:
        """vertex -> class index: the narrowest unsigned type over a full
        graph's q^(n^2) vertices, the identity on a quotient's classes."""
        if self.kind == "quotient":
            return np.arange(self.class_count, dtype=np.int64)
        return _assign_classes(self.field, self.n, self.class_ideals)

    @cached_property
    def fiber_array(self) -> np.ndarray:
        """``fiber_sizes`` as an int64 array, or as an object array of exact
        ints once the vertex count passes int64, which numpy would
        otherwise turn into rounded floats."""
        return np.array(self.fiber_sizes, dtype=np.int64 if self.vertex_count < 2**63 else object)

    def edge_count(self) -> int:
        """Directed edge count; the undirected graph has the same number of
        (unordered) edges because containment between distinct classes is
        one-directional."""
        # Out-weights summed under the mask of lt: no C x C copy is made.
        fib = np.broadcast_to(self.fiber_array, self.lt.shape)
        out = fib.sum(axis=1, where=self.lt, initial=0).tolist()
        return sum(f * w for f, w in zip(self.fiber_sizes, out))


def build_full_graph(F: Field, n: int, cap: int | None = DEFAULT_VERTEX_CAP) -> RelationGraph:
    """Relation graph on all matrices, bucketed by RREF basis; refused
    above ``cap`` vertices or CLASS_BOUND classes (see ``_subspace_count``)."""
    _check_vertex_cap(F.p, F.m, n, cap)
    _subspace_count(F.q, n, CLASS_BOUND, "the class bound")
    bases = tuple(subspaces(F, n))
    return RelationGraph(
        kind="full",
        n=n,
        field=F,
        class_ideals=bases,
        fiber_sizes=tuple(fiber_size(n, len(basis), F.q) for basis in bases),
    )


def build_quotient_graph(F: Field, n: int, cap: int | None = DEFAULT_VERTEX_CAP) -> RelationGraph:
    """Graph on ideal classes themselves: the subspace lattice of F_q^n,
    refused above ``cap`` or CLASS_BOUND subspaces (see
    ``_subspace_count``)."""
    if cap is not None:
        _subspace_count(F.q, n, cap, "the vertex cap")
    count = _subspace_count(F.q, n, CLASS_BOUND, "the class bound")
    bases = tuple(subspaces(F, n))
    assert len(bases) == count
    return RelationGraph(
        kind="quotient",
        n=n,
        field=F,
        class_ideals=bases,
        fiber_sizes=(1,) * count,
    )
