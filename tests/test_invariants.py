"""Invariants against vertex-level BFS oracles and brute-force cliques."""

import math
import random
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest

from conftest import brute_ideal_sets, exported_edges, vertex_degrees
from lirg.field import make_field
from lirg.graph import RelationGraph, build_full_graph, build_quotient_graph
from lirg.counting import predicted_degree
from lirg.invariants import (
    ACYCLIC,
    _require_full,
    compute_report,
    k33_witness,
    predicted_invariants,
    triangle_witness,
)
from lirg.matrix import vertex_encode

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)


def oracle_adjacency(F, n):
    """Undirected adjacency sets from literal ideal-set inclusion."""
    sets = brute_ideal_sets(F, n)
    N = len(sets)
    adj = [set() for _ in range(N)]
    for u in range(N):
        for v in range(N):
            if u != v and (sets[u] < sets[v] or sets[v] < sets[u]):
                adj[u].add(v)
    return adj


def oracle_eccentricities(adj):
    N = len(adj)
    ecc = []
    for s in range(N):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        assert len(dist) == N, "oracle graph disconnected"
        ecc.append(max(dist.values()))
    return ecc


def oracle_girth(adj):
    """Shortest cycle by BFS from every vertex."""
    N = len(adj)
    best = None
    for s in range(N):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return ACYCLIC if best is None else best


def oracle_reduced_sdim(adj):
    """Strong metric dimension via explicit closed-neighborhood merging and
    a brute-force maximum clique on the reduced graph."""
    N = len(adj)
    closed = [frozenset(adj[u] | {u}) for u in range(N)]
    reps = {}
    for u in range(N):
        reps.setdefault(closed[u], u)
    rep_list = list(reps.values())
    H = nx.Graph()
    H.add_nodes_from(rep_list)
    for i, u in enumerate(rep_list):
        for v in rep_list[i + 1 :]:
            if v in adj[u]:
                H.add_edge(u, v)
    omega_hat = max(len(c) for c in nx.find_cliques(H))
    return N - omega_hat


def class_bfs(A):
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
    Counts stay below 2^24, so the float32 product is exact.  It assumes
    nothing of the graph, so it is the oracle for the report's distances
    and girth, which are read off the zero class.
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


def report(F, n):
    return compute_report(build_full_graph(F, n))


def test_clique_and_chromatic_examples():
    for F, n, expected in [(F2, 2, (3, 3)), (F2, 3, (4, 4)), (F3, 1, (2, 2))]:
        rep = report(F, n)
        assert (rep.clique_number, rep.chromatic_number) == expected


@pytest.mark.parametrize("F,n", [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F2, 1)])
def test_clique_number_matches_brute_force_on_quotient(F, n):
    Q = build_quotient_graph(F, n)
    H = nx.Graph()
    H.add_nodes_from(range(Q.class_count))
    for c in range(Q.class_count):
        for d in np.flatnonzero(Q.lt[c]).tolist():
            H.add_edge(c, d)
    brute = max(len(c) for c in nx.find_cliques(H))
    assert report(F, n).clique_number == brute


def test_girth_examples():
    assert report(F2, 2).girth == 3
    assert report(F2, 1).girth == ACYCLIC
    assert report(F5, 1).girth == ACYCLIC


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F2, 1), (F3, 1), (F5, 1)])
def test_girth_matches_vertex_level_oracle(F, n):
    assert report(F, n).girth == oracle_girth(oracle_adjacency(F, n))


def assert_class_bfs_matches_networkx(H):
    """``class_bfs`` on H's adjacency against networkx: distances from
    ``all_pairs_shortest_path_length`` (-1 where unreachable), and the cycle
    from ``girth`` (inf for a forest, where ``class_bfs`` gives None)."""
    N = H.number_of_nodes()
    A = nx.to_numpy_array(H, nodelist=range(N), dtype=bool)
    dist, cycle = class_bfs(A)
    expected = np.full((N, N), -1)
    for s, lengths in nx.all_pairs_shortest_path_length(H):
        for t, d in lengths.items():
            expected[s, t] = d
    assert np.array_equal(dist, expected)
    g = nx.girth(H)
    assert cycle == (None if g == math.inf else g)


@pytest.mark.parametrize(
    "H, g",
    [(nx.cycle_graph(k), k) for k in range(4, 8)]
    + [
        (nx.petersen_graph(), 5),
        (nx.convert_node_labels_to_integers(nx.hypercube_graph(3)), 4),
    ],
    ids=["C4", "C5", "C6", "C7", "petersen", "3-cube"],
)
def test_class_bfs_matches_networkx_on_cycles_petersen_and_cube(H, g):
    # Even girths, and odd girths past level 1: the relation graphs only
    # ever have girth 3 or no cycle.
    assert nx.girth(H) == g
    assert_class_bfs_matches_networkx(H)


def test_class_bfs_matches_networkx_on_random_graphs_and_forests():
    rng = random.Random(1978)
    for _ in range(150):
        N = rng.randrange(1, 16)
        H = nx.gnp_random_graph(N, rng.random() * 0.4, seed=rng.getrandbits(32))
        assert_class_bfs_matches_networkx(H)
        forest = nx.random_labeled_tree(N, seed=rng.getrandbits(32))
        cut = rng.randrange(N)  # a tree on N nodes has N - 1 edges
        forest.remove_edges_from(rng.sample(sorted(forest.edges), cut))
        assert_class_bfs_matches_networkx(forest)


def test_class_bfs_stops_after_its_last_useful_level():
    # Over M_3(F_3) the triangle is found, and every class pair seen, at the
    # second level: a third product could only find an empty level.
    class Counted(np.ndarray):
        products = 0

        def __rmatmul__(self, other):
            Counted.products += 1
            return np.asarray(other) @ np.asarray(self)

    lt = build_quotient_graph(F3, 3).lt
    dist, cycle = class_bfs((lt | lt.T).view(Counted))
    assert (Counted.products, cycle, dist.max()) == (2, 3, 2)


def folded_from_class_bfs(G):
    """(eccentricity by rank, girth) as the report folded them from
    ``class_bfs(lt | lt.T)`` before it read them off the zero class."""
    A = G.lt | G.lt.T
    fib = np.array(G.fiber_sizes)
    dist, cycle = class_bfs(A)
    shared = fib >= 2
    candidates = [] if cycle is None else [cycle]
    if (shared & (A @ fib >= 2)).any():
        candidates.append(4)
    assert (dist >= 0).all()
    ecc = dist.max(axis=1)
    ecc[shared] = np.maximum(ecc[shared], 2)
    by_rank = {}
    for c, r in enumerate(G.class_rank):
        by_rank[r] = max(by_rank.get(r, 0), int(ecc[c]))
    return tuple(sorted(by_rank.items())), min(candidates, default=ACYCLIC)


@pytest.mark.parametrize(
    "p, m, n",
    [(2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2),
     (5, 1, 2), (7, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (2, 1, 4),
     (3, 1, 4), (2, 1, 5), (3, 1, 5), (2, 1, 6)],
)
def test_report_matches_class_bfs(p, m, n):
    G = build_full_graph(make_field(p, m), n, cap=None)
    rep = compute_report(G)
    by_rank, girth = folded_from_class_bfs(G)
    assert (rep.eccentricity_by_rank, rep.girth) == (by_rank, girth)
    ecc = [e for _, e in by_rank]
    assert (rep.diameter, rep.radius) == (max(ecc), min(ecc))


def test_triangle_witness_is_a_triangle():
    for F, n in [(F2, 2), (F2, 3), (F3, 2)]:
        G = build_full_graph(F, n)
        a, b, c = sorted(triangle_witness(F, n))
        assert len({a, b, c}) == 3
        edges = set(exported_edges(G, directed=False))
        assert (a, b) in edges and (b, c) in edges and (a, c) in edges
    with pytest.raises(ValueError):
        triangle_witness(F2, 1)


def test_metric_examples():
    rep = report(F2, 2)
    assert (rep.diameter, rep.radius) == (2, 1)
    assert dict(rep.eccentricity_by_rank) == {0: 1, 1: 2, 2: 2}
    rep = report(F2, 1)
    assert (rep.diameter, rep.radius) == (1, 1)


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F2, 1), (F3, 1), (F5, 1)])
def test_metric_matches_vertex_level_oracle(F, n):
    ecc_oracle = oracle_eccentricities(oracle_adjacency(F, n))
    G = build_full_graph(F, n)
    rep = compute_report(G)
    assert rep.diameter == max(ecc_oracle)
    assert rep.radius == min(ecc_oracle)
    per_rank = {}
    for v, e in enumerate(ecc_oracle):
        r = G.class_rank[G.vertex_class[v]]
        per_rank[r] = max(per_rank.get(r, 0), e)
    assert dict(rep.eccentricity_by_rank) == per_rank


def test_domination_number():
    for F, n in [(F2, 2), (F2, 3), (F2, 1)]:
        assert report(F, n).domination_number == 1
    G = build_full_graph(F2, 2)
    # 0 is the smallest vertex, so the stream lists each of its edges as (0, v)
    assert [v for u, v in exported_edges(G, directed=False) if 0 in (u, v)] == list(range(1, 16))


def test_sdim_examples():
    assert report(F2, 2).strong_metric_dimension == 13
    assert report(F3, 2).strong_metric_dimension == 78
    assert report(F2, 3).strong_metric_dimension == 508
    # diameter 1: the formula does not apply
    assert report(F2, 1).strong_metric_dimension is None


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F3, 1), (F5, 1)])
def test_sdim_matches_reduced_graph_oracle(F, n):
    expected = oracle_reduced_sdim(oracle_adjacency(F, n))
    assert report(F, n).strong_metric_dimension == expected


def test_twin_merge_on_gf2_n1():
    """The only ring whose reduced graph merges vertices is GF(2), n = 1,
    where the zero and identity classes share the closed neighborhood
    {0, 1}; its diameter is 1, so it has no strong metric dimension.
    Elsewhere class 0 is the only single-member class and nothing merges."""
    G = build_full_graph(F2, 1)
    assert G.vertex_count - 1 == oracle_reduced_sdim(oracle_adjacency(F2, 1))
    assert compute_report(G).strong_metric_dimension is None
    for F, n in [(F2, 2), (F3, 1), (F3, 2)]:
        H = build_full_graph(F, n)
        assert (H.fiber_array[1:] > 1).all()
        rep = compute_report(H)
        assert rep.strong_metric_dimension == H.vertex_count - rep.clique_number


def test_sdim_star_without_closed_form():
    # n = 1, q >= 3: star graph; the reduced-graph method still applies
    assert report(F3, 1).strong_metric_dimension == 1
    assert report(F5, 1).strong_metric_dimension == 3


def test_eulerian_check():
    G = build_full_graph(F2, 2)
    rep = compute_report(G)
    assert not rep.eulerian and rep.odd_degree_witness == 0
    assert sum(vertex_degrees(G, 0)) == 15

    G3 = build_full_graph(F3, 2)
    rep = compute_report(G3)
    assert not rep.eulerian
    assert G3.class_rank[G3.vertex_class[rep.odd_degree_witness]] == 2
    assert sum(vertex_degrees(G3, rep.odd_degree_witness)) == 81 - 48 == 33  # M(2,2,2,3) = (9-1)(9-3)

    G1 = build_full_graph(F2, 1)
    rep = compute_report(G1)
    assert not rep.eulerian and sum(vertex_degrees(G1, rep.odd_degree_witness)) == 1


def test_eulerian_witness_degree_is_odd_everywhere():
    for F, n in [(F2, 2), (F3, 2), (F2, 3), (F2, 1), (F3, 1)]:
        G = build_full_graph(F, n)
        rep = compute_report(G)
        assert not rep.eulerian
        assert sum(vertex_degrees(G, rep.odd_degree_witness)) % 2 == 1


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_first_member_matches_argmax(p, m):
    # q = 3, 5, 7 and 9 at n = 2: the odd-degree witness, the anti-diagonal,
    # is the first full-rank vertex that np.argmax finds over the index.
    G = build_full_graph(make_field(p, m), 2)
    full_rank = G.class_rank.index(2)
    rep = compute_report(G)
    assert (rep.eulerian, rep.odd_degree_witness) == (
        False,
        int(np.argmax(G.vertex_class == full_rank)),
    )


def test_eulerian_check_memory_follows_slices():
    # 1,953,125 vertices: the witness is a closed form, so the report holds
    # no N-byte mask (1.9 MB) and no class index.
    G = build_full_graph(F5, 3, cap=None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert compute_report(G).eulerian is False
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 0.25


def test_k33_witness():
    for F, n in [(F2, 2), (F2, 3), (F3, 2), (F3, 3)]:
        side1, side2 = k33_witness(F, n)
        assert len(set(side1 + side2)) == 6
    with pytest.raises(ValueError):
        k33_witness(F2, 1)
    # cross edges visible in the built graph
    G = build_full_graph(F2, 2)
    edges = set(exported_edges(G, directed=False))
    side1, side2 = k33_witness(F2, 2)
    for X in side1:
        for Y in side2:
            u, v = vertex_encode(F2, X), vertex_encode(F2, Y)
            assert (min(u, v), max(u, v)) in edges


def test_compute_report_memory_below_lt():
    # M_2(F_4493), C = 4,496: the report reads lt in place and copies at most
    # a block of its rows, where a C x C adjacency and search took ~386 MB.
    G = build_full_graph(make_field(4493, 1), 2, cap=None)
    G.lt  # made on first read: the span measured is the report's alone
    tracemalloc.start()
    try:
        rep = compute_report(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.strong_metric_dimension == predicted_invariants(2, 4493)["strong_metric_dimension"]
    assert peak < G.lt.nbytes


def test_report_refuses_degrees_off_the_closed_form():
    G = build_full_graph(F2, 3)
    lt = G.lt.copy()
    a, b = np.argwhere(lt[1:-1, 1:-1])[0] + 1  # two comparable middle classes
    lt[a, b] = False
    G.lt = lt
    with pytest.raises(AssertionError, match="predicted_degree"):
        compute_report(G)


def test_compute_report_builds_no_member_lists():
    # invariants need class sizes and witnesses, never the sorted members
    G = build_full_graph(F5, 3, cap=None)
    rep = compute_report(G)
    # the first full-rank vertex: the anti-diagonal has the lowest high digits
    anti_diagonal = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert rep.odd_degree_witness == vertex_encode(F5, anti_diagonal)


def test_compute_report_coherence():
    for F, n in [(F2, 2), (F3, 2), (F2, 1)]:
        rep = compute_report(build_full_graph(F, n))
        assert rep.clique_number <= rep.chromatic_number
        assert rep.radius <= rep.diameter


def test_predicted_invariants_shape():
    preds = predicted_invariants(2, 4)
    assert preds["strong_metric_dimension"] == 4**4 - 3
    preds1 = predicted_invariants(1, 2)
    assert preds1["girth"] is None
    assert preds1["clique_number"] == 2


def degree_check(G: RelationGraph):
    """Per-class degrees against the closed-form prediction; raises on any
    mismatch."""
    _require_full(G)
    q = G.field.q
    fib = np.array(G.fiber_sizes)
    for c in range(G.class_count):
        r = G.class_rank[c]
        d_i, d_o, und = predicted_degree(G.n, r, q)
        got = (int(fib[G.lt[:, c]].sum()), int(fib[G.lt[c]].sum()))
        if got != (d_i, d_o):
            raise AssertionError(
                f"class {c} (rank {r}): degrees {got} != predicted {(d_i, d_o)}"
            )
    return True


def test_degree_check_passes():
    for F, n in [(F2, 2), (F3, 2), (F2, 3)]:
        assert degree_check(build_full_graph(F, n))
