"""The left-ideal relation graph on M_n(F_q) and its ideal-class quotient.

Vertices of the full graph are all q^(n^2) matrices; there is a directed
edge X -> Y exactly when the left ideal of X is properly contained in the
left ideal of Y, i.e. when the row space of X sits strictly inside the row
space of Y.  The undirected variant joins X and Y when either containment
holds.  Since adjacency depends only on row spaces, the graph is stored as
an ideal-class structure: the class containment matrix ``lt``, the only
form of the class relation, plus one narrow vertex -> class index.
Degrees and edge counts read rows and columns of ``lt`` weighted by the
class sizes, which are counted from the index without sorting it.
Member lists per class are built on demand; the one way edges leave a
graph is ``serialize``, which streams them one source vertex at a time
from the members of the classes in each class's row of ``lt`` (or row
and column, undirected).  No query materializes the (possibly huge)
edge set.

Class assignment generates each class's members as the matrices W·B
rather than classifying vertices one by one (see ``_assign_classes``),
and containment between classes is read off the same spans.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from lirg.counting import gaussian_binomial
from lirg.field import Field
from lirg.ideal import LeftIdeal
from lirg.matrix import (
    DEFAULT_VERTEX_CAP,
    VertexCapExceeded,
    _check_vertex_cap,
    _digit_sum,
    _span_codes,
)

_COUNT_SLICE = 1 << 16


def subspaces(F: Field, n: int):
    """All subspaces of F_q^n as canonical ideals, via RREF enumeration.

    Ordered by (rank, basis row codes); one matrix in reduced row echelon
    form per subspace.
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
                out.append(LeftIdeal(n, tuple(tuple(rw) for rw in rows)))
    out.sort(key=lambda ideal: (ideal.rank, ideal.basis))
    return out


def _class_spans(F: Field, n: int, ideals, min_rank: int = 0):
    """Row codes of the span of every class of rank min_rank to n - 1, by
    class index.  The rank-n class spans all of F_q^n."""
    return {
        c: _span_codes(F, n, ideal.basis)
        for c, ideal in enumerate(ideals)
        if min_rank <= ideal.rank < n
    }


def _assign_classes(q: int, n: int, ideals, spans):
    """vertex -> class index array for all q^(n^2) vertices.

    The matrices whose rows all lie in span(B) are exactly the W·B, so
    each class writes its index onto the vertex codes of all W·B: the
    n-fold outer sum of the span's row codes, row i shifted by q^(i*n).
    The rank-n class, last in order, holds every matrix, so it is the fill
    value, and the other classes are visited from highest rank down.
    Every other class that contains a vertex's row space has higher rank
    and is written earlier, so the last write to a vertex comes from its
    own row space.  The index has the narrowest unsigned type that holds
    the class count.
    """
    top = len(ideals) - 1
    vertex_class = np.full(q ** (n * n), top, dtype=np.min_scalar_type(top))
    for c in sorted(spans, key=lambda c: -ideals[c].rank):
        vertex_class[_digit_sum(spans[c], q**n, n)] = c
    return vertex_class


def _containment_matrix(q: int, n: int, ideals, spans):
    """lt[a, b]: rank a < rank b and every basis row of a lies in span(b).

    Rank decides every pair but those with 2 <= rank b < n: a class of
    rank 1 contains only the zero class below it, and the rank-n class
    contains every class.  Those columns come from one membership test of
    all basis row codes in span(b).
    """
    ranks = np.array([ideal.rank for ideal in ideals])
    rows = np.zeros((len(ideals), n), dtype=np.int64)  # padded with the zero row
    for a, ideal in enumerate(ideals):
        rows[a, : ideal.rank] = [
            sum(x * q**j for j, x in enumerate(row)) for row in ideal.basis
        ]
    lt = ranks[:, None] < ranks[None, :]
    for b, span in spans.items():
        if ranks[b] >= 2:
            lt[:, b] &= np.isin(rows, span).all(axis=1)
    return lt


@dataclass
class RelationGraph:
    """Built relation graph; immutable after construction, queries read-only."""

    kind: str  # 'full' | 'quotient'
    directed: bool
    n: int
    field: Field
    class_ideals: tuple
    vertex_class: np.ndarray  # narrowest unsigned type for full graphs
    lt: np.ndarray  # lt[c, d]: class c properly contained in class d

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_class)

    @property
    def class_count(self) -> int:
        return len(self.class_ideals)

    @cached_property
    def class_rank(self):
        return tuple(ideal.rank for ideal in self.class_ideals)

    @cached_property
    def fiber_sizes(self):
        # Counted in fixed slices: one bincount would copy the whole index
        # to intp first.
        counts = np.zeros(self.class_count, dtype=np.int64)
        for start in range(0, self.vertex_count, _COUNT_SLICE):
            part = self.vertex_class[start : start + _COUNT_SLICE]
            counts += np.bincount(part, minlength=self.class_count)
        return tuple(counts.tolist())

    def first_member(self, c: int) -> int:
        """The smallest vertex of class c, found in fixed slices: comparing
        the whole index at once would make an N-byte mask."""
        for start in range(0, self.vertex_count, _COUNT_SLICE):
            hits = self.vertex_class[start : start + _COUNT_SLICE] == c
            if hits.any():
                return start + int(np.argmax(hits))
        raise ValueError(f"class {c} has no member")

    @cached_property
    def class_vertices(self):
        """Member vertices of each class, ascending: views of one stable
        argsort, which numpy runs as a radix sort on 16-bit or narrower
        keys."""
        order = np.argsort(self.vertex_class, kind="stable")
        return tuple(np.split(order, np.cumsum(self.fiber_sizes)[:-1]))

    # -- vertex queries ---------------------------------------------------

    def class_of(self, v: int) -> int:
        return int(self.vertex_class[v])

    def rank_of_vertex(self, v: int) -> int:
        return self.class_rank[self.class_of(v)]

    def ideal_of_vertex(self, v: int) -> LeftIdeal:
        return self.class_ideals[self.class_of(v)]

    def degrees(self, v: int):
        """(d_i, d_o) on the directed graph, a single degree otherwise."""
        c = self.class_of(v)
        fib = np.array(self.fiber_sizes)
        d_i, d_o = int(fib[self.lt[:, c]].sum()), int(fib[self.lt[c]].sum())
        return (d_i, d_o) if self.directed else d_i + d_o

    def _members(self, classes) -> np.ndarray:
        """Sorted member vertices of the given classes."""
        parts = [self.class_vertices[d] for d in classes]
        return np.sort(np.concatenate([np.empty(0, np.int64), *parts]))

    def edge_count(self) -> int:
        """Directed edge count; the undirected graph has the same number of
        (unordered) edges because containment between distinct classes is
        one-directional."""
        # Out-weights summed under the mask of lt: no C x C copy is made.
        fib = np.broadcast_to(np.array(self.fiber_sizes), self.lt.shape)
        out = fib.sum(axis=1, where=self.lt).tolist()
        return sum(f * w for f, w in zip(self.fiber_sizes, out))


def build_full_graph(
    F: Field, n: int, directed: bool = True, cap: int | None = DEFAULT_VERTEX_CAP
) -> RelationGraph:
    """Relation graph on all matrices, bucketed by canonical ideal."""
    _check_vertex_cap(F.p, F.m, n, cap)
    ideals = tuple(subspaces(F, n))
    spans = _class_spans(F, n, ideals)
    return RelationGraph(
        kind="full",
        directed=directed,
        n=n,
        field=F,
        class_ideals=ideals,
        vertex_class=_assign_classes(F.q, n, ideals, spans),
        lt=_containment_matrix(F.q, n, ideals, spans),
    )


def build_quotient_graph(
    F: Field, n: int, cap: int | None = DEFAULT_VERTEX_CAP, directed: bool = True
) -> RelationGraph:
    """Graph on ideal classes themselves: the subspace lattice of F_q^n.

    The subspace count is summed rank by rank and refused at the first rank
    that passes ``cap``, before the huge middle Gaussian binomials of a
    large n.  Rank 1 alone has at least 2^(n-1) subspaces, so an n beyond
    the bit length of cap is refused before any power of q is formed.
    """
    count = 0
    for r in range(n + 1):
        count += gaussian_binomial(n, r, F.q)
        if cap is not None and (n > cap.bit_length() or count > cap):
            raise VertexCapExceeded(
                f"subspace count of F_{F.q}^{n} exceeds the vertex cap {cap}"
            )
    ideals = tuple(subspaces(F, n))
    assert len(ideals) == count
    return RelationGraph(
        kind="quotient",
        directed=directed,
        n=n,
        field=F,
        class_ideals=ideals,
        vertex_class=np.arange(count, dtype=np.int64),
        lt=_containment_matrix(F.q, n, ideals, _class_spans(F, n, ideals, 2)),
    )
