"""Relation graph construction against brute-force pairwise containment."""

import numpy as np
import pytest

from conftest import brute_ideal_sets
from lirg.counting import fiber_size, gaussian_binomial, predicted_degree
from lirg.field import make_field
from lirg.graph import (
    build_full_graph,
    build_quotient_graph,
    contract_to_quotient,
    subspaces,
)
from lirg.ideal import ideal_of, is_subideal
from lirg.matrix import VertexCapExceeded, rref_and_rank, vertex_decode

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def brute_edges(F, n):
    """Directed edges by literal set inclusion of the brute ideal sets."""
    sets = brute_ideal_sets(F, n)
    N = len(sets)
    return {(u, v) for u in range(N) for v in range(N) if sets[u] < sets[v]}


def containment_by_row_reduction(F, ideals):
    """lt by one scalar row reduction per class pair."""
    return np.array(
        [[a.rank < b.rank and is_subideal(F, a, b) for b in ideals] for a in ideals]
    )


def test_trivial_ring_graph():
    G = build_full_graph(F2, 1)
    assert G.vertex_count == 2
    assert list(G.iter_edges()) == [(0, 1)]


def test_full_graph_n2_q2_against_brute_force():
    G = build_full_graph(F2, 2)
    expected = brute_edges(F2, 2)
    assert G.vertex_count == 16
    assert G.edge_count() == len(expected) == 69
    assert set(G.iter_edges()) == expected
    for u in range(16):
        for v in range(16):
            assert G.has_edge(u, v) == ((u, v) in expected)


def test_no_edges_within_a_rank_level():
    G = build_full_graph(F2, 2)
    rank1 = [v for v in range(16) if G.rank_of_vertex(v) == 1]
    assert len(rank1) == 9
    assert not any(G.has_edge(u, v) for u in rank1 for v in rank1)


def test_undirected_graph_edges():
    G = build_full_graph(F2, 2, directed=False)
    expected = {(min(u, v), max(u, v)) for u, v in brute_edges(F2, 2)}
    assert set(G.iter_edges()) == expected
    assert all(u < v for u, v in G.iter_edges())


def test_quotient_counts():
    assert build_quotient_graph(F2, 2).vertex_count == 5
    assert build_quotient_graph(F2, 3).vertex_count == 16
    assert build_quotient_graph(F2, 1).vertex_count == 2
    assert build_quotient_graph(F3, 3).vertex_count == 28


def test_subspace_enumeration_is_canonical():
    for F, n in [(F2, 2), (F2, 3), (F3, 2), (F4, 2)]:
        ideals = subspaces(F, n)
        by_rank = {}
        for ideal in ideals:
            by_rank[ideal.rank] = by_rank.get(ideal.rank, 0) + 1
            rows = ideal.basis + ((0,) * n,) * (n - ideal.rank)
            reduced, r = rref_and_rank(F, rows)
            assert reduced[:r] == ideal.basis
        for r in range(n + 1):
            assert by_rank[r] == gaussian_binomial(n, r, F.q)
        assert len(set(ideals)) == len(ideals)


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
        assert G.ideal_of_vertex(v) == ideal_of(F, vertex_decode(F, n, v))
    counts = np.bincount(G.vertex_class.astype(np.int64), minlength=G.class_count)
    assert G.fiber_sizes == tuple(counts.tolist())
    members = np.concatenate(G.class_vertices)
    assert np.array_equal(np.sort(members), np.arange(G.vertex_count))
    assert all(np.all(np.diff(part) > 0) for part in G.class_vertices)
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


def test_degrees_against_examples():
    G = build_full_graph(F2, 2)
    assert G.degrees(0) == (0, 15)
    rank2 = next(v for v in range(16) if G.rank_of_vertex(v) == 2)
    und = build_full_graph(F2, 2, directed=False)
    assert und.degrees(rank2) == 10
    rank1 = next(v for v in range(16) if G.rank_of_vertex(v) == 1)
    assert G.degrees(rank1) == (1, 6)


@pytest.mark.parametrize("F,n", [(F2, 2), (F3, 2), (F2, 3)])
def test_degree_laws_exhaustive(F, n):
    """Degrees constant on rank levels, strictly monotone across them, and
    equal to the closed-form prediction."""
    G = build_full_graph(F, n)
    per_rank = {}
    for v in range(G.vertex_count):
        r = G.rank_of_vertex(v)
        d = G.degrees(v)
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
        assert all(
            G.rank_of_vertex(u) < G.rank_of_vertex(v) for u, v in G.iter_edges()
        )


def test_quotient_containment_against_row_reduction():
    for F, n in [(F2, 2), (F2, 4), (F3, 3), (make_field(2, 3), 3), (make_field(31, 1), 2)]:
        G = build_quotient_graph(F, n, cap=None)
        assert np.array_equal(G.lt, containment_by_row_reduction(F, G.class_ideals))
        assert G.fiber_sizes == (1,) * G.class_count
        assert [part.tolist() for part in G.class_vertices] == [[c] for c in range(G.class_count)]


def test_quotient_consistency():
    for F, n in [(F2, 2), (F3, 2), (F2, 3), (F3, 3)]:
        full = build_full_graph(F, n)
        quot = build_quotient_graph(F, n)
        contracted = contract_to_quotient(full)
        assert not np.tril(full.lt).any() and not np.tril(quot.lt).any()
        assert contracted.class_ideals == quot.class_ideals
        assert np.array_equal(contracted.lt, quot.lt)
        assert set(contracted.iter_edges()) == set(quot.iter_edges())


def test_neighbor_lists():
    G = build_full_graph(F2, 2)
    assert G.out_neighbors(0) == list(range(1, 16))
    assert G.in_neighbors(0) == []
    rank1 = next(v for v in range(16) if G.rank_of_vertex(v) == 1)
    assert G.in_neighbors(rank1) == [0]
    assert len(G.out_neighbors(rank1)) == 6
    und = build_full_graph(F2, 2, directed=False)
    assert und.neighbors(rank1) == sorted([0] + G.out_neighbors(rank1))


def test_export_method_delegates():
    G = build_full_graph(F2, 1)
    assert G.export("edges").splitlines()[1] == "0 1"
    assert G.export("dot").startswith("digraph")


def test_vertex_cap():
    with pytest.raises(VertexCapExceeded, match="100000"):
        build_full_graph(F3, 4)
    big = sum(gaussian_binomial(5, r, 2) for r in range(6))
    with pytest.raises(VertexCapExceeded):
        build_quotient_graph(F2, 5, cap=big - 1)
