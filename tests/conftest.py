"""Shared fixtures and brute-force oracles.

The oracles here recompute expected values from first principles (set
arithmetic over explicitly enumerated matrices) and stay independent of
the canonical-form code paths they check.
"""

import random

import numpy as np
import pytest

from lirg import aut
from lirg.aut import Automorphism, right_mul_automorphism
from lirg.field import make_field
from lirg.graph import build_full_graph
from lirg.matrix import (
    enumerate_matrices,
    mat_mul,
    random_invertible,
    vertex_decode,
    vertex_encode,
)
from lirg.serialize import edge_list_chunks


@pytest.fixture(scope="session")
def graphs():
    """Memoized full-graph builder keyed by (p, m, n, directed)."""
    cache = {}

    def get(p, m, n, directed=True, cap=None):
        key = (p, m, n, directed)
        if key not in cache:
            F = make_field(p, m)
            cache[key] = build_full_graph(F, n, directed=directed, cap=cap)
        return cache[key]

    return get


def unit_matrix(n, s, t):
    """Single 1 in row s, column t."""
    return tuple(tuple(1 if (i, j) == (s, t) else 0 for j in range(n)) for i in range(n))


def from_coeffs(F, coeffs):
    """The element code of a coefficient vector, low to high; the inverse of
    ``F.coeffs``."""
    assert len(coeffs) == F.m
    return sum(int(c) % F.p * F.p**i for i, c in enumerate(coeffs))


def copied(f):
    """A copy of automorphism f: ``decompose`` and ``recompose`` rewrite
    their input's array into their result's."""
    return Automorphism(f.n, f.field, f.perm.copy())


def random_triple(G, seed):
    """Seeded (P, t, sigma), drawn as ``aut sample`` draws them, and their
    composition."""
    dec = aut.random_decomposition(G, seed)
    sigma = copied(dec.sigma)
    return dec.P, dec.t, sigma, aut.recompose(G, dec)


def apply_matrix(f, X):
    """The image of matrix X under the automorphism f."""
    F = f.field
    return vertex_decode(F, f.n, int(f.perm[vertex_encode(F, X)]))


def brute_ideal_set(F, n, X, all_matrices=None):
    """The left ideal of X as the literal set {encode(W X) : all W}."""
    if all_matrices is None:
        all_matrices = list(enumerate_matrices(F, n, cap=None))
    return frozenset(vertex_encode(F, mat_mul(F, W, X)) for W in all_matrices)


def brute_ideal_sets(F, n):
    """Vertex index -> brute-force ideal set, for every matrix."""
    all_matrices = list(enumerate_matrices(F, n, cap=None))
    return [brute_ideal_set(F, n, X, all_matrices) for X in all_matrices]


def random_right_mul(G, seed):
    """X -> X P for a P drawn from GL(n, q) by random.Random(seed)."""
    return right_mul_automorphism(G, random_invertible(G.field, G.n, random.Random(seed)))


def exported_edges(G):
    """The (u, v) lines of G's edge-list stream, in stream order."""
    lines = "".join(edge_list_chunks(G)).splitlines()[1:]
    return [tuple(map(int, line.split())) for line in lines]


def exported_neighbors(G):
    """Out- and in-neighbour sets of every vertex, read off the edge-list
    stream of a directed graph."""
    outs = [set() for _ in range(G.vertex_count)]
    ins = [set() for _ in range(G.vertex_count)]
    for u, v in exported_edges(G):
        outs[u].add(v)
        ins[v].add(u)
    return outs, ins


def adjacency(out_sets):
    """The bool adjacency matrix (``A[u, v]``: edge u -> v) of the digraph
    with these out-neighbour sets."""
    A = np.zeros((len(out_sets), len(out_sets)), dtype=bool)
    for u, targets in enumerate(out_sets):
        A[u, list(targets)] = True
    return A


def exported_adjacency(G):
    """The bool adjacency matrix read off the edge-list stream of a directed
    graph."""
    return adjacency(exported_neighbors(G)[0])


def enumerate_digraph_auts(out_sets, in_sets, colors=None, limit=200_000):
    """All automorphisms of a small digraph by plain backtracking; an
    oracle for ``digraph_aut_order`` that shares none of its code."""
    nverts = len(out_sets)
    out_sets = [set(s) for s in out_sets]
    in_sets = [set(s) for s in in_sets]
    if colors is None:
        colors = [0] * nverts
    sig = [(colors[v], len(out_sets[v]), len(in_sets[v])) for v in range(nverts)]
    cand = [[w for w in range(nverts) if sig[w] == sig[v]] for v in range(nverts)]
    order = sorted(range(nverts), key=lambda v: len(cand[v]))
    found = []

    def rec(pos, mapping, used):
        if len(found) > limit:
            raise ValueError("too many automorphisms to enumerate")
        if pos == nverts:
            found.append(dict(mapping))
            return
        v = order[pos]
        for w in cand[v]:
            if used[w]:
                continue
            if all(
                ((v in out_sets[u]) == (w in out_sets[mu]))
                and ((v in in_sets[u]) == (w in in_sets[mu]))
                for u, mu in mapping.items()
            ):
                mapping[v] = w
                used[w] = True
                rec(pos + 1, mapping, used)
                del mapping[v]
                used[w] = False

    rec(0, {}, [False] * nverts)
    return found
