"""Graph invariants of the undirected relation graph, with closed forms.

Adjacency is comparability of ideals, so every invariant reduces to the
class containment matrix ``G.lt`` and the fiber sizes, and the cost
follows the class count, not the vertex count.  ``compute_report``
derives every invariant in one pass: it forms the class adjacency
``lt | lt.T`` and the fiber-size array once, and runs ``_class_bfs``
once, one breadth-first search from every class at once, for the
distances between all classes and the shortest cycle.
``_longest_chain`` gives the clique number and the reduced clique number
behind the strong metric dimension, since cliques are chains of nested
row spaces; there is no generic clique search.

Functions in this module treat their input graph as undirected regardless
of the flag it was built with.
"""

from dataclasses import dataclass

import numpy as np

from lirg.counting import matrix_space_size
from lirg.field import Field
from lirg.graph import RelationGraph
from lirg.ideal import ideal_of, proper_subset
from lirg.matrix import first_row_matrix, identity_matrix, rank_marker, stacked_matrix, vertex_encode

ACYCLIC = "acyclic"


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

    ``lt`` must be strictly upper triangular (``lt[a, b]`` only for a < b),
    as a containment matrix over rank-sorted classes is, so the longest
    chain ending at b extends one ending at a smaller index.
    """
    depth = np.zeros(len(lt), dtype=np.int64)
    for b in range(len(lt)):
        depth[b] = 1 + depth[:b][lt[:b, b]].max(initial=0)
    return int(depth.max(initial=0))


def _class_bfs(A):
    """(distance matrix, shortest cycle) of the symmetric adjacency ``A``.

    One breadth-first search from every node at once (Itai and Rodeh,
    Finding a minimum circuit in a graph, 1978): ``front[s]`` is level k of
    source s, and ``nbrs[s, v]`` counts v's neighbours in it.  An edge
    inside level k closes a cycle of at most 2k + 1, and a level-(k+1)
    node with two neighbours in level k one of at most 2k + 2.  No level
    below (g - 1) // 2 shows either for a girth g, and that level shows
    one from every node of a shortest cycle, so the first cycle found is
    the girth.  Distances are -1 for unreachable pairs, in the narrowest
    signed type that holds ``len(A)``; the cycle is None for a forest.
    Counts stay below 2^24, so the float32 product is exact.
    """
    adj = A.astype(np.float32)
    front = np.eye(len(A), dtype=bool)
    seen = front.copy()
    dist = np.full(A.shape, -1, dtype=np.min_scalar_type(-len(A) - 1))
    np.fill_diagonal(dist, 0)
    cycle = None
    k = 0
    # Once the cycle is known and every pair is seen, no level can change
    # either, so the search stops without forming the empty level.
    while front.any() and not (cycle is not None and seen.all()):
        nbrs = front.astype(np.float32) @ adj
        nxt = (nbrs > 0) & ~seen
        if cycle is None and (front & (nbrs > 0)).any():
            cycle = 2 * k + 1
        elif cycle is None and (nxt & (nbrs > 1)).any():
            cycle = 2 * k + 2
        k += 1
        dist[nxt] = k
        seen |= nxt
        front = nxt
    return dist, cycle


def triangle_witness(F: Field, n: int):
    """Vertices of the 3-cycle on the rank markers 0, 1 and n (n >= 2)."""
    if n < 2:
        raise ValueError("triangle witness requires n >= 2")
    return tuple(vertex_encode(F, rank_marker(n, r)) for r in (0, 1, n))


def _reduced_clique_number(G: RelationGraph, A) -> int:
    """Clique number of the reduced graph, which merges vertices with equal
    closed neighborhoods.

    A vertex's closed neighborhood holds none of its class-mates, so only
    vertices of single-member classes merge, and they merge exactly when
    their classes have equal closed neighborhoods, rows of ``A | I`` for the
    class adjacency ``A = lt | lt.T``.  The reduced graph is then the
    subgraph induced on one representative class per group: the members of
    a larger class are pairwise non-adjacent, so a clique uses at most one
    of them.
    """
    closed = A | np.eye(G.class_count, dtype=bool)
    groups = {}
    for c, size in enumerate(G.fiber_sizes):
        key = closed[c].tobytes() if size == 1 else c
        groups.setdefault(key, c)
    reps = list(groups.values())
    return _longest_chain(G.lt[np.ix_(reps, reps)])


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
    """Every invariant, from one class adjacency and one breadth-first search.

    Clique and chromatic number: the longest chain of nested classes.  The
    rank coloring (one color per rank) is proper because equal-rank
    vertices are never adjacent, so with the chain lower bound it pins the
    chromatic number without search.

    Girth: a cycle either passes through three or more classes (the
    shortest one on the class graph) or bounces between two members of one
    class and two comparable outside vertices, a 4-cycle.

    Distances factor through classes: vertices in distinct classes are as
    far apart as their classes, and two members of one class are at
    distance 2 through any comparable vertex.  A disconnected graph, which
    would signal a construction bug, raises.

    Domination number: always 1, since the zero class, class 0, sits below
    every other class.  Strong metric dimension: |V| minus the reduced
    clique number, defined only at diameter 2.

    Euler parity: a vertex's degree is the size of the classes comparable
    to its own.  For even q the zero matrix has odd degree q^(n^2) - 1; for
    odd q each full-rank vertex has odd degree q^(n^2) - |GL(n, q)|, and the
    first is the anti-diagonal, since a vertex code's last row holds its
    top digits.
    """
    _require_full(G)
    F, n = G.field, G.n
    A = G.lt | G.lt.T
    fib = np.array(G.fiber_sizes)
    dist, cycle = _class_bfs(A)

    omega = _longest_chain(G.lt)
    if omega > len(set(G.class_rank)):
        raise AssertionError("chain longer than the number of rank colors")

    shared = fib >= 2
    candidates = [] if cycle is None else [cycle]
    if (shared & (A @ fib >= 2)).any():
        candidates.append(4)
    g = min(candidates, default=ACYCLIC)

    if (dist < 0).any() or (shared & ~A.any(axis=1)).any():
        raise ValueError("relation graph is disconnected")
    ecc = dist.max(axis=1)
    # two members of one class are at distance 2, through any neighbor
    ecc[shared] = np.maximum(ecc[shared], 2)
    ecc = ecc.tolist()
    by_rank = {}
    for c, r in enumerate(G.class_rank):
        by_rank[r] = max(by_rank.get(r, 0), ecc[c])
    diameter = max(ecc)

    if G.class_rank[0] != 0:
        raise AssertionError("class 0 is not the zero class")
    if not G.lt[0, 1:].all():
        raise AssertionError("zero matrix fails to dominate")

    odd = A @ (fib % 2) % 2
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
        strong_metric_dimension=(
            G.vertex_count - _reduced_clique_number(G, A) if diameter == 2 else None
        ),
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
