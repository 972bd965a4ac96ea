"""Graph invariants of the undirected relation graph, with closed forms.

Adjacency is comparability of ideals, so every invariant reduces to the
class containment matrix ``G.lt``, the class comparability lists and the
fiber sizes, which keeps the 19683-vertex cases instant.  Two routines do
the class-level work.  ``_longest_chain`` gives the clique number and the
reduced clique number behind the strong metric dimension, since cliques
are chains of nested row spaces; there is no generic clique search.
``_bfs`` gives the distances and the shortest cycle from one class.

Functions in this module treat their input graph as undirected regardless
of the flag it was built with.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from lirg.counting import matrix_space_size, predicted_degree
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


def _bfs(adj, s):
    """(distances from s, shortest cycle met) by BFS on adjacency lists.

    Distances are a list with None for unreached nodes.  The cycle is the
    shortest closed by a non-tree edge during the search, or None; its
    minimum over all start nodes is the girth.
    """
    dist = [None] * len(adj)
    parent = [None] * len(adj)
    dist[s] = 0
    cycle = None
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
            elif parent[u] != w and parent[w] != u:
                length = dist[u] + dist[w] + 1
                if cycle is None or length < cycle:
                    cycle = length
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
    adj = G.comparable_classes
    cycles = (_bfs(adj, s)[1] for s in range(G.class_count))
    candidates = [c for c in cycles if c is not None]
    fib = G.fiber_sizes
    for c in range(G.class_count):
        if fib[c] >= 2 and sum(fib[d] for d in adj[c]) >= 2:
            candidates.append(4)
            break
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
    adj = G.comparable_classes
    fib = G.fiber_sizes
    ecc = []
    for c in range(G.class_count):
        dist, _ = _bfs(adj, c)
        if None in dist or (fib[c] >= 2 and not adj[c]):
            raise ValueError("relation graph is disconnected")
        # two members of one class are at distance 2, through any neighbor
        ecc.append(max(dist) if fib[c] == 1 else max(max(dist), 2))
    by_rank = {}
    for c, r in enumerate(G.class_rank):
        by_rank[r] = max(by_rank.get(r, 0), ecc[c])
    return max(ecc), min(ecc), tuple(sorted(by_rank.items()))


def domination_number(G: RelationGraph) -> int:
    """Always 1: the zero matrix is adjacent to every other vertex.

    Verified structurally (the zero class sits below every other class)
    rather than by search.
    """
    _require_full(G)
    zero_class = G.class_of(0)
    if G.class_rank[zero_class] != 0:
        raise AssertionError("vertex 0 is not the zero matrix")
    comparable = set(G.comparable_classes[zero_class])
    if comparable != set(range(G.class_count)) - {zero_class}:
        raise AssertionError("zero matrix fails to dominate")
    return 1


def _reduced_clique_number(G: RelationGraph) -> int:
    """Clique number of the reduced graph, which merges vertices with equal
    closed neighborhoods.

    A vertex's closed neighborhood holds none of its class-mates, so only
    vertices of single-member classes merge, and they merge exactly when
    their classes have equal closed neighborhoods ``comparable | {c}``.
    The reduced graph is then the subgraph induced on one representative
    class per group: the members of a larger class are pairwise
    non-adjacent, so a clique uses at most one of them.
    """
    groups = {}
    for c, comparable in enumerate(G.comparable_classes):
        key = frozenset(comparable + (c,)) if G.fiber_sizes[c] == 1 else c
        groups.setdefault(key, c)
    reps = list(groups.values())
    return _longest_chain(G.lt[np.ix_(reps, reps)])


def strong_metric_dimension(G: RelationGraph) -> int:
    """|V| minus the clique number of the reduced graph; needs diameter 2."""
    _require_full(G)
    diameter, _, _ = metric(G)
    if diameter != 2:
        raise ValueError(
            f"strong metric dimension formula requires diameter 2, got {diameter}"
        )
    return G.vertex_count - _reduced_clique_number(G)


def eulerian_check(G: RelationGraph):
    """(False, odd-degree witness vertex): the graph is never Eulerian.

    For even q the zero matrix has odd degree q^(n^2) - 1; for odd q any
    full-rank vertex has odd degree q^(n^2) - |GL(n, q)|.  The parity of
    the witness is checked exactly, and Eulerian-ness itself is decided
    from all class degrees.
    """
    _require_full(G)
    degrees = [
        G.class_in_weight[c] + G.class_out_weight[c] for c in range(G.class_count)
    ]
    eulerian = all(d % 2 == 0 for d in degrees)
    if eulerian:
        return True, None
    q = G.field.q
    if q % 2 == 0:
        witness = 0  # the zero matrix
    else:
        full_rank = max(range(G.class_count), key=lambda c: G.class_rank[c])
        witness = int(np.argmax(G.vertex_class == full_rank))
    wc = G.class_of(witness)
    if degrees[wc] % 2 == 0:
        # fall back to any odd-degree vertex
        wc = next(c for c in range(G.class_count) if degrees[c] % 2 == 1)
        witness = int(np.argmax(G.vertex_class == wc))
    assert degrees[wc] % 2 == 1
    return False, witness


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
    sdim = G.vertex_count - _reduced_clique_number(G) if diameter == 2 else None
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


def degree_check(G: RelationGraph):
    """Per-class degrees against the closed-form prediction; raises on any
    mismatch."""
    _require_full(G)
    q = G.field.q
    for c in range(G.class_count):
        r = G.class_rank[c]
        d_i, d_o, und = predicted_degree(G.n, r, q)
        got = (G.class_in_weight[c], G.class_out_weight[c])
        if got != (d_i, d_o):
            raise AssertionError(
                f"class {c} (rank {r}): degrees {got} != predicted {(d_i, d_o)}"
            )
    return True
