"""Graph invariants of the undirected relation graph, with closed forms.

Adjacency is comparability of ideals, so every invariant reduces to the
class containment matrix ``G.lt`` and the fiber sizes, and the cost
follows the class count, not the vertex count.  The zero class lies
below every other class, so every distance is 1 or 2, and
``compute_report`` reads each invariant straight off ``lt``: its
fiber-weighted row and column sums (the degrees), whether two nonzero
classes are comparable (the girth), and ``_longest_chain``, which gives
the clique number, since cliques are chains of nested row spaces.  The
strong metric dimension follows from the clique number: at diameter 2 no
two vertices have equal closed neighborhoods.  No class adjacency
``lt | lt.T``, distance matrix or generic clique search is made.
"""

from dataclasses import dataclass

import numpy as np

from lirg.counting import matrix_space_size, predicted_degree
from lirg.field import Field
from lirg.graph import RelationGraph
from lirg.matrix import (
    first_row_matrix,
    ideal_of,
    identity_matrix,
    proper_subset,
    rank_marker,
    stacked_matrix,
    vertex_encode,
)

ACYCLIC = "acyclic"

# Rows of ``lt`` read at once by ``_longest_chain``: 64 MB at the class bound.
_ROW_BLOCK = 2048


@dataclass(frozen=True)
class InvariantReport:
    n: int
    q: int
    clique_number: int
    chromatic_number: int
    girth: object  # int or ACYCLIC
    girth_witness: object  # triangle vertex triple, or None
    diameter: int
    radius: int
    eccentricity_by_rank: tuple  # (rank, ecc) pairs
    domination_number: int
    strong_metric_dimension: object  # int, or None when diameter != 2
    eulerian: bool
    odd_degree_witness: object  # vertex index or None
    planarity_witness: object  # ((three vertices), (three vertices)) or None


def _require_full(G: RelationGraph):
    if G.kind != "full":
        raise ValueError("invariants are defined on the full matrix graph")


def _longest_chain(lt) -> int:
    """Number of nodes in a longest chain of the strict order ``lt``.

    The walk goes one chain length at a time: ``ends`` marks the nodes
    that end a chain of ``length`` nodes, and a node ends a longer one
    when some end lies below it.  Rows of ``lt`` are read in blocks of
    ``_ROW_BLOCK``, and only a block with some rows left out is copied.
    """
    ends = np.ones(len(lt), dtype=bool)
    length = 0
    while ends.any():
        length += 1
        above = np.zeros(len(lt), dtype=bool)
        for r in range(0, len(lt), _ROW_BLOCK):
            rows, block = ends[r : r + _ROW_BLOCK], lt[r : r + _ROW_BLOCK]
            if rows.all():
                above |= block.any(axis=0)
            elif rows.any():
                above |= block[rows].any(axis=0)
        ends = above
    return length


def triangle_witness(F: Field, n: int):
    """Vertices of the 3-cycle on the rank markers 0, 1 and n (n >= 2)."""
    if n < 2:
        raise ValueError("triangle witness requires n >= 2")
    return tuple(vertex_encode(F, rank_marker(n, r)) for r in (0, 1, n))


def k33_witness(F: Field, n: int):
    """Two triples of matrices inducing a complete bipartite K_{3,3}.

    One side holds rank-1 matrices spanning the lines of e1, e2 and
    e1 + e2; the other holds three distinct matrices with row space
    spanned by {e1, e2}.  All nine cross containments are checked, so the
    graph is non-planar for n >= 2.
    """
    if n < 2:
        raise ValueError("K_{3,3} witness requires n >= 2")
    e1, e2 = identity_matrix(n)[:2]
    e11 = (1, 1) + (0,) * (n - 2)
    side1 = (
        first_row_matrix(n, e1),
        first_row_matrix(n, e2),
        first_row_matrix(n, e11),
    )
    side2 = (
        stacked_matrix(F, n, [e1, e2]),
        stacked_matrix(F, n, [e2, e1]),
        stacked_matrix(F, n, [e11, e1]),
    )
    if len(set(side1 + side2)) != 6:
        raise AssertionError("witness vertices are not distinct")
    for X in side1:
        for Y in side2:
            if not proper_subset(F, ideal_of(F, X), ideal_of(F, Y)):
                raise AssertionError("missing K_{3,3} cross edge")
    return side1, side2


def compute_report(G: RelationGraph) -> InvariantReport:
    """Every invariant, read off the containment matrix ``lt``.

    The zero class, class 0, lies below every other class (checked), so
    the zero matrix is adjacent to every other vertex: the domination
    number is 1 and no two vertices are more than 2 apart.

    Clique and chromatic number: the longest chain of nested classes.  The
    rank coloring (one color per rank) is proper because equal-rank
    vertices are never adjacent, so with the chain lower bound it pins the
    chromatic number without search.

    Degrees: a vertex's in- and out-degree are the sizes of the classes
    below and above its own, checked against
    ``counting.predicted_degree``.

    Girth: two comparable nonzero classes close a triangle with the zero
    class.  With none, no two vertices of one class being adjacent, every
    nonzero vertex is adjacent to the zero matrix alone: a star, with no
    cycle.  So the girth is 3 for n >= 2, where a line lies inside the
    top class, and acyclic for n = 1.

    Eccentricity: 1 for a vertex of degree |V| - 1, adjacent to every
    other one; 2 for every other vertex.
    Strong metric dimension, defined only at diameter 2: |V| minus the
    clique number of the reduced graph, which merges vertices with equal
    closed neighborhoods.  Class-mates are non-adjacent twins, so only
    single-member classes can merge.  A class of rank r >= 1 has at least
    q^n - 1 members, so at diameter 2 (not q = 2, n = 1) class 0 is the
    only single-member class (checked): nothing merges, and the dimension
    is |V| minus the clique number.

    Euler parity: for even q the zero matrix has odd degree q^(n^2) - 1;
    for odd q each full-rank vertex has odd degree q^(n^2) - |GL(n, q)|,
    and the first is the anti-diagonal, since a vertex code's last row
    holds its top digits.
    """
    _require_full(G)
    F, n, lt = G.field, G.n, G.lt
    if G.class_rank[0] != 0:
        raise AssertionError("class 0 is not the zero class")
    if not lt[0, 1:].all():
        raise AssertionError("zero matrix fails to dominate")

    omega = _longest_chain(lt)
    if omega > len(set(G.class_rank)):
        raise AssertionError("chain longer than the number of rank colors")

    # Fiber-weighted sums under the mask of lt: no C x C copy is made.
    fib = G.fiber_array
    below = np.broadcast_to(fib[:, None], lt.shape).sum(axis=0, where=lt, initial=0)
    above = np.broadcast_to(fib, lt.shape).sum(axis=1, where=lt, initial=0)
    predicted = [predicted_degree(n, r, F.q)[:2] for r in range(n + 1)]
    if list(zip(below.tolist(), above.tolist())) != [predicted[r] for r in G.class_rank]:
        raise AssertionError("class degrees differ from counting.predicted_degree")
    degree = below + above

    g = 3 if lt[1:, 1:].any() else ACYCLIC

    ecc = np.where(degree == G.vertex_count - 1, 1, 2).tolist()
    by_rank = {}
    for c, r in enumerate(G.class_rank):
        by_rank[r] = max(by_rank.get(r, 0), ecc[c])
    diameter = max(ecc)
    if diameter == 2 and not (fib[1:] > 1).all():
        raise AssertionError("a nonzero class has a single member")

    odd = degree % 2 == 1
    witness = None
    if odd.any():
        even = F.q % 2 == 0
        if not odd[0 if even else -1]:  # the witness's class, of rank 0 or n
            raise AssertionError("odd-degree witness has even degree")
        # the zero matrix, or the anti-diagonal: the identity's rows reversed
        witness = 0 if even else vertex_encode(F, rank_marker(n, n)[::-1])

    planarity = None
    if n >= 2:
        side1, side2 = k33_witness(F, n)
        planarity = (
            tuple(vertex_encode(F, X) for X in side1),
            tuple(vertex_encode(F, X) for X in side2),
        )
    return InvariantReport(
        n=n,
        q=F.q,
        clique_number=omega,
        chromatic_number=omega,
        girth=g,
        girth_witness=triangle_witness(F, n) if n >= 2 and g == 3 else None,
        diameter=diameter,
        radius=min(ecc),
        eccentricity_by_rank=tuple(sorted(by_rank.items())),
        domination_number=1,
        strong_metric_dimension=G.vertex_count - omega if diameter == 2 else None,
        eulerian=witness is None,
        odd_degree_witness=witness,
        planarity_witness=planarity,
    )


def predicted_invariants(n: int, q: int):
    """Closed-form predictions; entries are None where n = 1 falls outside
    the formulas."""
    preds = {
        "clique_number": n + 1,
        "chromatic_number": n + 1,
        "domination_number": 1,
        "eulerian": False,
    }
    if n >= 2:
        preds.update(
            girth=3,
            diameter=2,
            radius=1,
            strong_metric_dimension=matrix_space_size(n, q) - n - 1,
        )
    else:
        preds.update(girth=None, diameter=None, radius=None, strong_metric_dimension=None)
    return preds
