"""Invariants against vertex-level BFS oracles and brute-force cliques."""

import math
import random
import tracemalloc
from collections import deque

import networkx as nx
import numpy as np
import pytest

from conftest import brute_ideal_sets, exported_edges
from lirg.field import make_field
from lirg.graph import RelationGraph, build_full_graph, build_quotient_graph
from lirg import graph, invariants
from lirg.counting import predicted_degree
from lirg.invariants import (
    ACYCLIC,
    _reduced_clique_number,
    _require_full,
    clique_and_chromatic,
    compute_report,
    domination_number,
    eulerian_check,
    girth,
    k33_witness,
    metric,
    predicted_invariants,
    strong_metric_dimension,
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


def test_clique_and_chromatic_examples():
    assert clique_and_chromatic(build_full_graph(F2, 2)) == (3, 3)
    assert clique_and_chromatic(build_full_graph(F2, 3)) == (4, 4)
    assert clique_and_chromatic(build_full_graph(F3, 1)) == (2, 2)


@pytest.mark.parametrize("F,n", [(F2, 2), (F2, 3), (F3, 2), (F3, 3), (F2, 1)])
def test_clique_number_matches_brute_force_on_quotient(F, n):
    Q = build_quotient_graph(F, n)
    H = nx.Graph()
    H.add_nodes_from(range(Q.class_count))
    for c in range(Q.class_count):
        for d in np.flatnonzero(Q.lt[c]).tolist():
            H.add_edge(c, d)
    brute = max(len(c) for c in nx.find_cliques(H))
    assert clique_and_chromatic(build_full_graph(F, n))[0] == brute


def test_girth_examples():
    assert girth(build_full_graph(F2, 2)) == 3
    assert girth(build_full_graph(F2, 1)) == ACYCLIC
    assert girth(build_full_graph(F5, 1)) == ACYCLIC


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F2, 1), (F3, 1), (F5, 1)])
def test_girth_matches_vertex_level_oracle(F, n):
    assert girth(build_full_graph(F, n)) == oracle_girth(oracle_adjacency(F, n))


def assert_class_bfs_matches_networkx(H):
    """``_class_bfs`` on H's adjacency against networkx: distances from
    ``all_pairs_shortest_path_length`` (-1 where unreachable), and the cycle
    from ``girth`` (inf for a forest, where ``_class_bfs`` gives None)."""
    N = H.number_of_nodes()
    A = nx.to_numpy_array(H, nodelist=range(N), dtype=bool)
    dist, cycle = invariants._class_bfs(A)
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


def test_triangle_witness_is_a_triangle():
    for F, n in [(F2, 2), (F2, 3), (F3, 2)]:
        G = build_full_graph(F, n, directed=False)
        a, b, c = sorted(triangle_witness(F, n))
        assert len({a, b, c}) == 3
        edges = set(exported_edges(G))
        assert (a, b) in edges and (b, c) in edges and (a, c) in edges
    with pytest.raises(ValueError):
        triangle_witness(F2, 1)


def test_metric_examples():
    diameter, radius, ecc = metric(build_full_graph(F2, 2))
    assert (diameter, radius) == (2, 1)
    assert dict(ecc) == {0: 1, 1: 2, 2: 2}
    diameter, radius, _ = metric(build_full_graph(F2, 1))
    assert (diameter, radius) == (1, 1)


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F2, 1), (F3, 1), (F5, 1)])
def test_metric_matches_vertex_level_oracle(F, n):
    ecc_oracle = oracle_eccentricities(oracle_adjacency(F, n))
    diameter, radius, by_rank = metric(build_full_graph(F, n))
    assert diameter == max(ecc_oracle)
    assert radius == min(ecc_oracle)
    G = build_full_graph(F, n)
    per_rank = {}
    for v, e in enumerate(ecc_oracle):
        r = G.rank_of_vertex(v)
        per_rank[r] = max(per_rank.get(r, 0), e)
    assert dict(by_rank) == per_rank


def test_domination_number():
    for F, n in [(F2, 2), (F2, 3), (F2, 1)]:
        assert domination_number(build_full_graph(F, n)) == 1
    G = build_full_graph(F2, 2, directed=False)
    # 0 is the smallest vertex, so the stream lists each of its edges as (0, v)
    assert [v for u, v in exported_edges(G) if 0 in (u, v)] == list(range(1, 16))


def test_sdim_examples():
    assert strong_metric_dimension(build_full_graph(F2, 2)) == 13
    assert strong_metric_dimension(build_full_graph(F3, 2)) == 78
    assert strong_metric_dimension(build_full_graph(F2, 3)) == 508
    with pytest.raises(ValueError, match="diameter"):
        strong_metric_dimension(build_full_graph(F2, 1))


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F3, 1), (F5, 1)])
def test_sdim_matches_reduced_graph_oracle(F, n):
    expected = oracle_reduced_sdim(oracle_adjacency(F, n))
    assert strong_metric_dimension(build_full_graph(F, n)) == expected


def test_twin_merge_on_gf2_n1():
    """The only ring whose reduced graph merges vertices: over GF(2), n = 1,
    the zero and identity classes share the closed neighborhood {0, 1}."""
    G = build_full_graph(F2, 1)
    assert _reduced_clique_number(G) == 1
    assert G.vertex_count - 1 == oracle_reduced_sdim(oracle_adjacency(F2, 1))
    for F, n in [(F2, 2), (F3, 1), (F3, 2)]:
        H = build_full_graph(F, n)
        assert _reduced_clique_number(H) == clique_and_chromatic(H)[0]


def test_sdim_star_without_closed_form():
    # n = 1, q >= 3: star graph; the reduced-graph method still applies
    assert strong_metric_dimension(build_full_graph(F3, 1)) == 1
    assert strong_metric_dimension(build_full_graph(F5, 1)) == 3


def test_eulerian_check():
    G = build_full_graph(F2, 2, directed=False)
    ok, witness = eulerian_check(G)
    assert not ok and witness == 0
    assert G.degrees(0) == 15

    G3 = build_full_graph(F3, 2, directed=False)
    ok, witness = eulerian_check(G3)
    assert not ok
    assert G3.rank_of_vertex(witness) == 2
    assert G3.degrees(witness) == 81 - 48 == 33  # M(2,2,2,3) = (9-1)(9-3)

    G1 = build_full_graph(F2, 1, directed=False)
    ok, witness = eulerian_check(G1)
    assert not ok and G1.degrees(witness) == 1


def test_eulerian_witness_degree_is_odd_everywhere():
    for F, n in [(F2, 2), (F3, 2), (F2, 3), (F2, 1), (F3, 1)]:
        G = build_full_graph(F, n, directed=False)
        ok, witness = eulerian_check(G)
        assert not ok
        assert G.degrees(witness) % 2 == 1


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_first_member_matches_argmax(monkeypatch, p, m):
    # q = 3, 5, 7 and 9 at n = 2, scanned in slices of 7 vertices: the first
    # member of every class, and the odd-degree witness (the first
    # full-rank vertex), are those np.argmax finds over the whole index.
    monkeypatch.setattr(graph, "_COUNT_SLICE", 7)
    G = build_full_graph(make_field(p, m), 2, directed=False)
    for c in range(G.class_count):
        assert G.first_member(c) == int(np.argmax(G.vertex_class == c))
    full_rank = G.class_rank.index(2)
    assert eulerian_check(G) == (False, int(np.argmax(G.vertex_class == full_rank)))


def test_eulerian_check_memory_follows_slices():
    # 1,953,125 vertices: the witness search holds one slice of the class
    # index, not an N-byte mask (1.9 MB).  Measured peak: 0.07 MB.
    G = build_full_graph(F5, 3, directed=False, cap=None)
    G.fiber_sizes  # cached outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert eulerian_check(G)[0] is False
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
    G = build_full_graph(F2, 2, directed=False)
    edges = set(exported_edges(G))
    side1, side2 = k33_witness(F2, 2)
    for X in side1:
        for Y in side2:
            u, v = vertex_encode(F2, X), vertex_encode(F2, Y)
            assert (min(u, v), max(u, v)) in edges


def test_compute_report_runs_metric_once(monkeypatch):
    calls = []
    real = invariants.metric

    def counted(G):
        calls.append(G)
        return real(G)

    monkeypatch.setattr(invariants, "metric", counted)
    for F, n in [(F2, 2), (F2, 1)]:
        calls.clear()
        rep = compute_report(build_full_graph(F, n, directed=False))
        assert len(calls) == 1
        assert rep.strong_metric_dimension == (13 if n == 2 else None)


def test_compute_report_builds_no_member_lists():
    # invariants need class sizes and witnesses, never the sorted members
    G = build_full_graph(F5, 3, directed=False, cap=None)
    rep = compute_report(G)
    # the first full-rank vertex: the anti-diagonal has the lowest high digits
    anti_diagonal = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert rep.odd_degree_witness == vertex_encode(F5, anti_diagonal)
    assert "class_vertices" not in G.__dict__


def test_compute_report_coherence():
    for F, n in [(F2, 2), (F3, 2), (F2, 1)]:
        rep = compute_report(build_full_graph(F, n, directed=False))
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
