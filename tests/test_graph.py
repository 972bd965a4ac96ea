"""Relation graph construction against brute-force pairwise containment."""

import numpy as np
import pytest

from conftest import brute_ideal_sets, exported_degrees, exported_edges
from lirg.counting import fiber_size, gaussian_binomial, predicted_degree
from lirg.field import make_field
from lirg.graph import _subspace_count, build_full_graph, build_quotient_graph, subspaces
from lirg.matrix import VertexCapExceeded, ideal_of, row_reduce, rref_and_rank, vertex_decode
from lirg.serialize import graph_chunks

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def brute_edges(F, n):
    """Directed edges by literal set inclusion of the brute ideal sets."""
    sets = brute_ideal_sets(F, n)
    N = len(sets)
    return {(u, v) for u in range(N) for v in range(N) if sets[u] < sets[v]}


def containment_by_row_reduction(F, bases):
    """lt by one scalar row reduction per class pair: a lies in b when
    stacking a's rows under b's leaves the rank at len(b)."""
    return np.array(
        [[len(a) < len(b) and row_reduce(F, b + a)[1] == len(b) for b in bases] for a in bases]
    )


def test_trivial_ring_graph():
    G = build_full_graph(F2, 1)
    assert G.vertex_count == 2
    assert exported_edges(G) == [(0, 1)]


def test_full_graph_n2_q2_against_brute_force():
    G = build_full_graph(F2, 2)
    expected = brute_edges(F2, 2)
    assert G.vertex_count == 16
    assert G.edge_count() == len(expected) == 69
    edges = exported_edges(G)
    assert edges == sorted(expected)
    for u in range(16):
        for v in range(16):
            assert ((u, v) in edges) == ((u, v) in expected)


def test_no_edges_within_a_rank_level():
    G = build_full_graph(F2, 2)
    rank1 = np.flatnonzero(np.array(G.class_rank)[G.vertex_class] == 1).tolist()
    assert len(rank1) == 9
    edges = set(exported_edges(G))
    assert not any((u, v) in edges for u in rank1 for v in rank1)


def test_undirected_graph_edges():
    G = build_full_graph(F2, 2)
    expected = {(min(u, v), max(u, v)) for u, v in brute_edges(F2, 2)}
    edges = exported_edges(G, directed=False)
    assert edges == sorted(expected)
    assert all(u < v for u, v in edges)


def test_quotient_counts():
    assert build_quotient_graph(F2, 2).vertex_count == 5
    assert build_quotient_graph(F2, 3).vertex_count == 16
    assert build_quotient_graph(F2, 1).vertex_count == 2
    assert build_quotient_graph(F3, 3).vertex_count == 28


def test_subspace_enumeration_is_canonical():
    for F, n in [(F2, 2), (F2, 3), (F3, 2), (F4, 2)]:
        bases = subspaces(F, n)
        by_rank = {}
        for basis in bases:
            by_rank[len(basis)] = by_rank.get(len(basis), 0) + 1
            rows = basis + ((0,) * n,) * (n - len(basis))
            reduced, r = rref_and_rank(F, rows)
            assert reduced[:r] == basis
        for r in range(n + 1):
            assert by_rank[r] == gaussian_binomial(n, r, F.q)
        assert len(set(bases)) == len(bases)
        assert bases == sorted(bases, key=lambda basis: (len(basis), basis))
    # Basis tuples, not row codes, order each rank: the rank-1 row codes of
    # GF(3), n = 2 come as 3, 1, 4, 7.
    rank1 = [basis for basis in subspaces(F3, 2) if len(basis) == 1]
    assert [row[0] + 3 * row[1] for (row,) in rank1] == [3, 1, 4, 7]


@pytest.mark.parametrize(
    "F,n",
    [
        (F2, 2),
        (F3, 2),
        (F4, 2),
        (F2, 3),
        (make_field(5, 1), 1),
        (F4, 1),
        (make_field(4099, 1), 1),
        (make_field(2, 3), 2),
        (F3, 3),
        (F2, 4),
    ],
)
def test_class_assignment_matches_per_vertex_reduction(F, n):
    G = build_full_graph(F, n, cap=None)
    assert G.vertex_class.dtype == np.min_scalar_type(G.class_count - 1)
    assert G.vertex_class.dtype.kind == "u"
    for v in range(G.vertex_count):
        assert G.class_ideals[int(G.vertex_class[v])] == ideal_of(F, vertex_decode(F, n, v))
    counts = np.bincount(G.vertex_class.astype(np.int64), minlength=G.class_count)
    assert G.fiber_sizes == tuple(counts.tolist())
    assert np.array_equal(G.lt, containment_by_row_reduction(F, G.class_ideals))
    # classes sorted by rank: every containment goes up in index
    assert not np.tril(G.lt).any()


def test_class_index_widens_past_256_classes():
    # GF(2)^5 has 374 subspaces: the first ring whose index needs 16 bits.
    G = build_full_graph(F2, 5, cap=None)
    assert G.class_count == 374 and G.vertex_class.dtype == np.uint16
    assert G.fiber_sizes == tuple(
        fiber_size(5, r, 2) for r in G.class_rank
    )


def test_fiber_size_law():
    for F, n in [(F2, 2), (F3, 2), (F2, 3)]:
        G = build_full_graph(F, n)
        for c in range(G.class_count):
            assert G.fiber_sizes[c] == fiber_size(n, G.class_rank[c], F.q)


@pytest.mark.parametrize("p, m", [(2, 64), (3, 40)])
def test_edge_count_exact_past_int64(p, m):
    # n = 1: the q - 1 nonzero matrices each lie above the zero matrix.  Past
    # 2^63 the class sizes are exact ints, not rounded floats.
    G = build_full_graph(make_field(p, m), 1, cap=None)
    assert G.fiber_array.dtype == object
    assert G.edge_count() == p**m - 1
    assert build_full_graph(make_field(p, m // 2), 1, cap=None).fiber_array.dtype == np.int64


def test_degrees_against_examples():
    G = build_full_graph(F2, 2)
    degrees, ranks = exported_degrees(G), np.array(G.class_rank)[G.vertex_class]
    assert degrees[0] == (0, 15)
    rank2 = int(np.argmax(ranks == 2))
    assert sum(exported_degrees(G, directed=False)[rank2]) == 10
    rank1 = int(np.argmax(ranks == 1))
    assert degrees[rank1] == (1, 6)


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F2, 3)])
def test_degree_laws_exhaustive(F, n):
    """Degrees constant on rank levels, strictly monotone across them, and
    equal to the closed-form prediction."""
    G = build_full_graph(F, n)
    per_rank = {}
    for v, d in enumerate(exported_degrees(G)):
        r = G.class_rank[G.vertex_class[v]]
        per_rank.setdefault(r, set()).add(d)
        assert d == predicted_degree(n, r, F.q)[:2]
    for r, degs in per_rank.items():
        assert len(degs) == 1
    ranks = sorted(per_rank)
    for a, b in zip(ranks, ranks[1:]):
        (dia, doa), (dib, dob) = next(iter(per_rank[a])), next(iter(per_rank[b]))
        assert dia < dib and doa > dob


def test_rank_monotonicity_of_edges():
    for F, n in [(F2, 2), (F3, 2), (F2, 3)]:
        G = build_full_graph(F, n)
        ranks = np.array(G.class_rank)[G.vertex_class]
        assert all(ranks[u] < ranks[v] for u, v in exported_edges(G))


def test_quotient_containment_against_row_reduction():
    for F, n in [(F2, 2), (F2, 4), (F3, 3), (make_field(2, 3), 3), (make_field(31, 1), 2)]:
        G = build_quotient_graph(F, n, cap=None)
        assert np.array_equal(G.lt, containment_by_row_reduction(F, G.class_ideals))
        assert G.fiber_sizes == (1,) * G.class_count


def test_quotient_consistency():
    for F, n in [(F2, 2), (F3, 2), (F2, 3), (F3, 3)]:
        full = build_full_graph(F, n)
        quot = build_quotient_graph(F, n)
        assert not np.tril(full.lt).any() and not np.tril(quot.lt).any()
        assert full.class_ideals == quot.class_ideals
        assert np.array_equal(full.lt, quot.lt)
        if F.q ** (n * n) <= 512:  # the full stream of M_3(F_3) has ~10^8 edges
            # each full edge is a quotient edge between the two classes
            cls = full.vertex_class.tolist()
            contracted = {(cls[u], cls[v]) for u, v in exported_edges(full)}
            assert contracted == set(exported_edges(quot))


def test_neighbor_lists():
    G = build_full_graph(F2, 2)
    brute = brute_edges(F2, 2)
    edges, und_edges = exported_edges(G), exported_edges(G, directed=False)

    def out_neighbors(v):
        return [b for a, b in edges if a == v]

    def in_neighbors(v):
        return [a for a, b in edges if b == v]

    for v in range(16):
        assert out_neighbors(v) == sorted(b for a, b in brute if a == v)
        assert in_neighbors(v) == sorted(a for a, b in brute if b == v)
        both = sorted(b if a == v else a for a, b in und_edges if v in (a, b))
        assert both == sorted(in_neighbors(v) + out_neighbors(v))
    assert out_neighbors(0) == list(range(1, 16))
    assert in_neighbors(0) == []
    rank1 = int(np.argmax(np.array(G.class_rank)[G.vertex_class] == 1))
    assert in_neighbors(rank1) == [0]
    assert len(out_neighbors(rank1)) == 6


def test_graph_chunks_by_format():
    G = build_full_graph(F2, 1)
    assert b"".join(graph_chunks(G, "edges", True)).decode().splitlines()[1] == "0 1"
    assert b"".join(graph_chunks(G, "dot", True)).decode().startswith("digraph")
    assert b"".join(graph_chunks(G, "dot", False)).decode().startswith("graph")


def test_vertex_cap():
    with pytest.raises(VertexCapExceeded, match="100000"):
        build_full_graph(F3, 4)
    big = sum(gaussian_binomial(5, r, 2) for r in range(6))
    with pytest.raises(VertexCapExceeded):
        build_quotient_graph(F2, 5, cap=big - 1)


@pytest.mark.parametrize("p, m, n, count", [(2, 1, 3, 16), (3, 1, 2, 6), (2, 2, 3, 44)])
def test_subspace_count_at_its_exact_bound(p, m, n, count):
    assert _subspace_count(p**m, n, count, "the test limit") == count
    with pytest.raises(VertexCapExceeded, match=f"exceeds the test limit {count - 1}$"):
        _subspace_count(p**m, n, count - 1, "the test limit")
