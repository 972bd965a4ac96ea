"""Graph invariants of the undirected relation graph, with closed forms.

Adjacency is comparability of ideals, so every invariant reduces to the
class containment matrix ``G.lt`` and the fiber sizes, which keeps the
19683-vertex cases instant.  Two routines do the class-level work.
``_longest_chain`` gives the clique number and the reduced clique number
behind the strong metric dimension, since cliques are chains of nested
row spaces; there is no generic clique search.  ``_class_bfs`` gives the
distances between all classes and the shortest cycle, by one
breadth-first search from every class at once.

Functions in this module treat their input graph as undirected regardless
of the flag it was built with.
"""

from dataclasses import dataclass

import numpy as np

from lirg.counting import matrix_space_size
from lirg.field import Field
from lirg.graph import RelationGraph
from lirg.ideal import ideal_of, proper_subset
from lirg.matrix import first_row_matrix, rank_marker, stacked_matrix, unit_vector, vertex_encode

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


def clique_and_chromatic(G: RelationGraph):
    """(clique number, chromatic number).

    The clique number is the longest chain of nested ideal classes.  The
    rank coloring (one color per rank, n+1 colors available) is proper
    because equal-rank vertices are never adjacent; together with the
    chain lower bound this pins the chromatic number without search.
    """
    _require_full(G)
    omega = _longest_chain(G.lt)
    ranks_used = len(set(G.class_rank))
    if not omega <= ranks_used:
        raise AssertionError("chain longer than the number of rank colors")
    chi = omega  # rank coloring meets the clique lower bound
    return omega, chi


def _class_bfs(A):
    """(distance matrix, shortest cycle) of the symmetric adjacency ``A``.

    One breadth-first search from every node at once (Itai and Rodeh,
    Finding a minimum circuit in a graph, 1978): ``front[s]`` is level k of
    source s, and ``nbrs[s, v]`` counts v's neighbours in it.  An edge
    inside level k closes a cycle of at most 2k + 1, and a level-(k+1)
    node with two neighbours in level k one of at most 2k + 2.  No level
    below (g - 1) // 2 shows either for a girth g, and that level shows
    one from every node of a shortest cycle, so the first cycle found is
    the girth.  Distances are -1 for unreachable pairs; the cycle is None
    for a forest.  Counts stay below 2^24, so the float32 product is exact.
    """
    adj = A.astype(np.float32)
    front = np.eye(len(A), dtype=bool)
    seen = front.copy()
    dist = np.where(front, 0, -1)
    cycle = None
    k = 0
    while front.any():
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


def girth(G: RelationGraph):
    """Length of the shortest cycle, or the ACYCLIC token.

    A cycle either passes through three or more distinct ideal classes
    (shortest such found on the small class graph) or bounces between two
    vertices of one class and two comparable outside vertices, giving a
    4-cycle whenever some class has two members and two comparable
    vertices in total.
    """
    _require_full(G)
    A = G.lt | G.lt.T
    _, cycle = _class_bfs(A)
    candidates = [] if cycle is None else [cycle]
    fib = np.array(G.fiber_sizes)
    if ((fib >= 2) & (A @ fib >= 2)).any():
        candidates.append(4)
    return min(candidates) if candidates else ACYCLIC


def triangle_witness(F: Field, n: int):
    """Vertices of the 3-cycle on the rank markers 0, 1 and n (n >= 2)."""
    if n < 2:
        raise ValueError("triangle witness requires n >= 2")
    return tuple(vertex_encode(F, rank_marker(n, r)) for r in (0, 1, n))


def metric(G: RelationGraph):
    """(diameter, radius, eccentricity per rank class).

    Distances factor through ideal classes: vertices in distinct classes
    are as far apart as their classes in the comparability graph, and two
    distinct vertices of one class are at distance 2 through any
    comparable vertex.  Raises on a disconnected graph, which would signal
    a construction bug.
    """
    _require_full(G)
    A = G.lt | G.lt.T
    dist, _ = _class_bfs(A)
    shared = np.array(G.fiber_sizes) >= 2
    if (dist < 0).any() or (shared & ~A.any(axis=1)).any():
        raise ValueError("relation graph is disconnected")
    ecc = dist.max(axis=1)
    # two members of one class are at distance 2, through any neighbor
    ecc[shared] = np.maximum(ecc[shared], 2)
    ecc = ecc.tolist()
    by_rank = {}
    for c, r in enumerate(G.class_rank):
        by_rank[r] = max(by_rank.get(r, 0), ecc[c])
    return max(ecc), min(ecc), tuple(sorted(by_rank.items()))


def domination_number(G: RelationGraph) -> int:
    """Always 1: the zero matrix is adjacent to every other vertex.

    Verified structurally (the zero class, class 0, sits below every other
    class) rather than by search.
    """
    _require_full(G)
    if G.class_rank[0] != 0:
        raise AssertionError("class 0 is not the zero class")
    if not G.lt[0, 1:].all():
        raise AssertionError("zero matrix fails to dominate")
    return 1


def _reduced_clique_number(G: RelationGraph) -> int:
    """Clique number of the reduced graph, which merges vertices with equal
    closed neighborhoods.

    A vertex's closed neighborhood holds none of its class-mates, so only
    vertices of single-member classes merge, and they merge exactly when
    their classes have equal closed neighborhoods, rows of ``lt | lt.T | I``.
    The reduced graph is then the subgraph induced on one representative
    class per group: the members of a larger class are pairwise
    non-adjacent, so a clique uses at most one of them.
    """
    closed = G.lt | G.lt.T | np.eye(G.class_count, dtype=bool)
    groups = {}
    for c, size in enumerate(G.fiber_sizes):
        key = closed[c].tobytes() if size == 1 else c
        groups.setdefault(key, c)
    reps = list(groups.values())
    return _longest_chain(G.lt[np.ix_(reps, reps)])


def strong_metric_dimension(G: RelationGraph, diameter=None) -> int:
    """|V| minus the clique number of the reduced graph; needs diameter 2,
    computed unless given."""
    _require_full(G)
    diameter = metric(G)[0] if diameter is None else diameter
    if diameter != 2:
        raise ValueError(
            f"strong metric dimension formula requires diameter 2, got {diameter}"
        )
    return G.vertex_count - _reduced_clique_number(G)


def eulerian_check(G: RelationGraph):
    """(False, odd-degree witness vertex): the graph is never Eulerian.

    For even q the zero matrix has odd degree q^(n^2) - 1; for odd q each
    full-rank vertex has odd degree q^(n^2) - |GL(n, q)|, and the first is
    the anti-diagonal, since a vertex code's last row holds its top digits.
    Eulerian-ness itself is decided from the parities of all class degrees.
    """
    _require_full(G)
    odd = ((G.lt | G.lt.T) @ [f % 2 for f in G.fiber_sizes] % 2).tolist()
    if not any(odd):
        return True, None
    even = G.field.q % 2 == 0
    assert odd[0 if even else -1]  # the witness's class, of rank 0 or n
    # the zero matrix, or the anti-diagonal: the identity's rows reversed
    return False, 0 if even else vertex_encode(G.field, rank_marker(G.n, G.n)[::-1])


def k33_witness(F: Field, n: int):
    """Two triples of matrices inducing a complete bipartite K_{3,3}.

    One side holds rank-1 matrices spanning the lines of e1, e2 and
    e1 + e2; the other holds three distinct matrices with row space
    spanned by {e1, e2}.  All nine cross containments are checked, so the
    graph is non-planar for n >= 2.
    """
    if n < 2:
        raise ValueError("K_{3,3} witness requires n >= 2")
    e1, e2 = unit_vector(n, 0), unit_vector(n, 1)
    e11 = tuple(F.add(a, b) for a, b in zip(e1, e2))
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
    _require_full(G)
    F, n = G.field, G.n
    omega, chi = clique_and_chromatic(G)
    g = girth(G)
    diameter, radius, ecc = metric(G)
    gamma = domination_number(G)
    sdim = strong_metric_dimension(G, diameter) if diameter == 2 else None
    eulerian, witness = eulerian_check(G)
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
        chromatic_number=chi,
        girth=g,
        girth_witness=triangle_witness(F, n) if n >= 2 and g == 3 else None,
        diameter=diameter,
        radius=radius,
        eccentricity_by_rank=ecc,
        domination_number=gamma,
        strong_metric_dimension=sdim,
        eulerian=eulerian,
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
