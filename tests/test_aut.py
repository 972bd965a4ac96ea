"""Automorphism constructors, verification, decomposition, group orders."""

import math
import random

import numpy as np
import pytest

from conftest import (
    adjacency,
    apply_matrix,
    copied,
    enumerate_digraph_auts,
    exported_adjacency,
    exported_edges,
    exported_neighbors,
    random_right_mul,
    random_triple,
)
from lirg import aut
from lirg.counting import fiber_size, gl_order
from lirg.field import make_field
from lirg.graph import build_full_graph
from lirg.ideal import ideal_of
from lirg.matrix import (
    _digit_sum,
    _span_codes,
    column_swap_matrix,
    enumerate_matrices,
    identity_matrix,
    is_invertible,
    mat_inverse,
    mat_mul,
    random_invertible,
    vertex_decode,
    vertex_encode,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


# -- constructors pass verification -----------------------------------------


def test_right_mul_all_of_gl22(graphs):
    G = graphs(2, 1, 2)
    for P in enumerate_matrices(F2, 2):
        if not is_invertible(F2, P):
            continue
        f = aut.right_mul_automorphism(G, P)
        assert aut.verify(G, f) == (True, None)
        assert int(f.perm[0]) == 0  # zero matrix fixed
        assert aut.preserves_rank(G, f)


def test_right_mul_matches_matrix_action(graphs):
    for p, m, n in [(2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 1, 2), (2, 1, 3), (4099, 1, 1)]:
        G = graphs(p, m, n)
        F = G.field
        P = random_invertible(F, n, random.Random(7))
        f = aut.right_mul_automorphism(G, P)
        for v, X in enumerate(enumerate_matrices(F, n, cap=None)):
            XP = mat_mul(F, X, P)
            assert f(v) == vertex_encode(F, XP), (p, m, n, v)
            assert apply_matrix(f, X) == XP
        undo = aut.right_mul_automorphism(G, mat_inverse(F, P))
        assert aut.compose(undo, f) == aut.identity_automorphism(G)


def test_right_mul_rejects_singular(graphs):
    G = graphs(2, 1, 2)
    with pytest.raises(ValueError, match="invertible"):
        aut.right_mul_automorphism(G, ((1, 1), (1, 1)))


def test_frobenius_automorphism(graphs):
    for p, m, n, exponents in [
        (2, 2, 2, range(2)),
        (2, 3, 2, range(3)),
        (2, 12, 1, (1, 11)),
    ]:
        G = graphs(p, m, n)
        F = G.field
        for t in exponents:
            f = aut.frobenius_automorphism(G, t)
            image = [F.frobenius(a, t) for a in F.elements()]
            for v, X in enumerate(enumerate_matrices(F, n, cap=None)):
                expected = tuple(tuple(image[a] for a in row) for row in X)
                assert vertex_decode(F, n, f(v)) == expected, (p, m, n, t, v)
        with pytest.raises(ValueError):
            aut.frobenius_automorphism(G, m)
    G = graphs(2, 2, 2)
    assert aut.frobenius_automorphism(G, 0) == aut.identity_automorphism(G)
    assert aut.verify(G, aut.frobenius_automorphism(G, 1)) == (True, None)


def test_prime_field_has_only_trivial_frobenius(graphs):
    G = graphs(2, 1, 2)
    assert F2.automorphism_exponents() == [0]
    assert aut.frobenius_automorphism(G, 0) == aut.identity_automorphism(G)


def test_class_permutation(graphs):
    G = graphs(2, 1, 2)
    ident = aut.class_permutation_automorphism(G, {})
    assert ident == aut.identity_automorphism(G)
    # swap two matrices sharing the row space span{(1, 0)}
    target = ideal_of(F2, ((1, 0), (0, 0)))
    c = G.class_ideals.index(target)
    verts = [int(v) for v in G.class_vertices[c]]
    assert len(verts) == 3
    f = aut.class_permutation_automorphism(
        G, {target: {verts[0]: verts[1], verts[1]: verts[0]}}
    )
    assert aut.verify(G, f) == (True, None)
    assert aut.compose(f, f) == aut.identity_automorphism(G)


def test_class_permutation_rejects_wrong_class(graphs):
    G = graphs(2, 1, 2)
    target = ideal_of(F2, ((1, 0), (0, 0)))
    with pytest.raises(ValueError, match="wrong class"):
        aut.class_permutation_automorphism(G, {target: {0: 0}})
    zero_ideal = ideal_of(F2, ((0, 0), (0, 0)))
    assert aut.class_permutation_automorphism(G, {zero_ideal: {0: 0}}) == \
        aut.identity_automorphism(G)


def test_rank_class_permutation_mixes_row_spaces(graphs):
    G = graphs(2, 1, 2)
    # two rank-1 vertices with different row spaces: a legal swap for n = 2
    # that is not a class permutation
    r1 = [v for v in range(16) if G.rank_of_vertex(v) == 1]
    u = r1[0]
    v = next(w for w in r1 if G.class_of(w) != G.class_of(u))
    f = aut.rank_class_automorphism(G, {1: {u: v, v: u}})
    assert aut.verify(G, f) == (True, None)
    assert G.class_of(int(f.perm[u])) != G.class_of(u)


def test_rank_class_permutation_guards(graphs):
    G3 = graphs(2, 1, 3)
    with pytest.raises(ValueError, match="n = 2"):
        aut.rank_class_automorphism(G3, {})
    G = graphs(2, 1, 2)
    with pytest.raises(ValueError, match="wrong rank class"):
        aut.rank_class_automorphism(G, {1: {0: 0}})


def test_sampled_rank_class_permutations_verify(graphs):
    G = graphs(2, 1, 2)
    for seed in range(1, 11):
        f = aut.random_rank_class_permutation(G, random.Random(seed))
        assert aut.verify(G, f) == (True, None)


# -- group structure ---------------------------------------------------------


def test_shuffle_within_matches_random_shuffle(graphs):
    # Every group size 0..300 under 20 seeds: the in-place array shuffle
    # draws what random.Random.shuffle draws on a list, and leaves the
    # generator in the same state for the calls after it.
    G = graphs(2, 1, 3)
    for seed in range(20):
        for size in range(301):
            # Two groups: a run, then another after it, as bool masks.
            first, second = np.arange(size), np.arange(size, size + 5)
            masks = [np.isin(np.arange(G.vertex_count), verts) for verts in (first, second)]
            rng, ref = random.Random(seed), random.Random(seed)
            perm = aut._shuffle_within(G, masks, rng).perm
            for verts in (first, second):
                shuffled = verts.tolist()
                ref.shuffle(shuffled)
                assert perm[verts].tolist() == shuffled
            assert rng.random() == ref.random()


def test_random_draws_unchanged(graphs):
    # random_triple draws P, t and sigma in that order from one generator;
    # sigma equals each class shuffled as a list in ascending class order.
    G = graphs(2, 2, 2)
    P, t, sigma, f = random_triple(G, 11)
    rng = random.Random(11)
    assert random_invertible(G.field, G.n, rng) == P and rng.randrange(G.field.m) == t
    expected = np.arange(G.vertex_count)
    for verts in G.class_vertices:
        shuffled = verts.tolist()
        rng.shuffle(shuffled)
        expected[verts] = shuffled
    assert np.array_equal(sigma.perm, expected)
    phi, ups = aut.right_mul_automorphism(G, P), aut.frobenius_automorphism(G, t)
    assert f == aut.compose(phi, aut.compose(ups, sigma))
    # Rank classes of n = 2 are shuffled as lists too, rank 0 first.
    G = graphs(3, 1, 2)
    ranks = np.array(G.class_rank)[G.vertex_class]
    for seed in range(5):
        rng = random.Random(seed)
        expected = np.arange(G.vertex_count)
        for r in range(3):
            shuffled = np.flatnonzero(ranks == r).tolist()
            rng.shuffle(shuffled)
            expected[ranks == r] = shuffled
        assert np.array_equal(aut.random_rank_class_permutation(G, random.Random(seed)).perm, expected)


def test_compose_inverse_identity(graphs):
    G = graphs(2, 1, 2)
    f = random_right_mul(G, 5)
    assert aut.compose(f, aut.inverse(f)) == aut.identity_automorphism(G)
    assert aut.compose(aut.identity_automorphism(G), f) == f


def test_right_mul_homomorphism_exhaustive(graphs):
    """compose(phi_P, phi_Q) equals phi_{QP}: apply Q first, then P."""
    G = graphs(2, 1, 2)
    gl = [X for X in enumerate_matrices(F2, 2) if is_invertible(F2, X)]
    cache = {P: aut.right_mul_automorphism(G, P) for P in gl}
    for P in gl:
        for Q in gl:
            assert aut.compose(cache[P], cache[Q]) == cache[mat_mul(F2, Q, P)]


def test_compose_context_mismatch(graphs):
    f = aut.identity_automorphism(graphs(2, 1, 2))
    g = aut.identity_automorphism(graphs(3, 1, 2))
    with pytest.raises(ValueError, match="mismatch"):
        aut.compose(f, g)


def test_frobenius_commutation_with_right_mul():
    """phi_P after Frobenius equals Frobenius after phi with the entrywise
    preimage of P, pointwise on all of M_3(F_4)."""
    F = F4
    G = build_full_graph(F, 3, cap=None)
    rng = random.Random(11)
    t = 1
    t_inv = (F.m - t) % F.m
    for _ in range(3):
        P = random_invertible(F, 3, rng)
        P_pre = tuple(tuple(F.frobenius(a, t_inv) for a in row) for row in P)
        lhs = aut.compose(aut.right_mul_automorphism(G, P), aut.frobenius_automorphism(G, t))
        rhs = aut.compose(aut.frobenius_automorphism(G, t), aut.right_mul_automorphism(G, P_pre))
        assert lhs == rhs


def _right_mul_by_digit_sums(G, P):
    """Oracle: X -> X P built on its own, the row map of P applied to each
    of the n rows by one digit sum over all vertices."""
    return aut.Automorphism(G.n, G.field, _digit_sum(_span_codes(G.field, G.n, P), G.field.q**G.n, G.n))


def _frobenius_by_digit_sums(G, t):
    """Oracle: the entrywise Frobenius power t built on its own, the map on
    the q element codes applied to each of the n^2 entries."""
    F = G.field
    powers = F.p ** np.arange(F.m, dtype=np.int64)
    digits = np.arange(F.q, dtype=np.int64)[:, None] // powers % F.p
    unit_images = digits[[F.frobenius(int(u), t) for u in powers]]
    image = (digits @ unit_images % F.p) @ powers
    return aut.Automorphism(G.n, F, _digit_sum(image, F.q, G.n * G.n))


@pytest.mark.parametrize("p, m, n", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_row_table_matches_factor_composition(graphs, p, m, n):
    # sigma, then the Frobenius power t, then X -> X P, applied as one row
    # table in place, equals composing the three factor permutations; and
    # each factor built from the table equals its digit-sum construction.
    G = graphs(p, m, n, cap=None)
    F = G.field
    for t in range(F.m):
        ups = _frobenius_by_digit_sums(G, t)
        assert aut.frobenius_automorphism(G, t) == ups
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            P = random_invertible(F, n, rng)
            sigma = aut.random_class_permutation(G, rng)
            phi = _right_mul_by_digit_sums(G, P)
            assert aut.right_mul_automorphism(G, P) == phi
            expected = aut.compose(phi, aut.compose(ups, sigma))
            assert aut.recompose(G, aut.Decomposition(P, t, copied(sigma))) == expected


# -- verification ------------------------------------------------------------


def test_verify_rejects_cross_rank_transposition(graphs):
    G = graphs(2, 1, 2)
    bad = np.arange(16, dtype=np.int64)
    bad[0], bad[1] = 1, 0  # zero matrix (out-degree 15) with a rank-1 vertex
    ok, witness = aut.verify(G, aut.Automorphism(2, F2, bad))
    assert not ok and witness is not None
    u, v = witness
    edges = set(exported_edges(G))
    assert ((u, v) in edges) != ((int(bad[u]), int(bad[v])) in edges)


def test_verify_rejects_non_bijection(graphs):
    G = graphs(2, 1, 2)
    with pytest.raises(ValueError, match="bijection"):
        aut.verify(G, aut.Automorphism(2, F2, np.zeros(16, dtype=np.int64)))
    with pytest.raises(ValueError, match="length"):
        aut.verify(G, aut.Automorphism(2, F2, np.arange(5)))


def test_rank_preservation_of_verified_automorphisms(graphs):
    G = graphs(2, 1, 2)
    for seed in range(1, 6):
        for f in (
            random_right_mul(G, seed),
            aut.random_class_permutation(G, random.Random(seed)),
            aut.random_rank_class_permutation(G, random.Random(seed)),
        ):
            assert aut.verify(G, f) == (True, None)
            assert aut.preserves_rank(G, f)


# -- decomposition ------------------------------------------------------------


def test_decompose_identity(graphs):
    G = graphs(2, 1, 3)
    dec = aut.decompose(G, aut.identity_automorphism(G))
    assert dec.P == identity_matrix(3)
    assert dec.t == 0
    assert dec.sigma == aut.identity_automorphism(G)


def test_decompose_requires_n_at_least_3(graphs):
    G = graphs(2, 1, 2)
    with pytest.raises(ValueError, match="n >= 3"):
        aut.decompose(G, aut.identity_automorphism(G))


def test_decompose_right_mul_swap(graphs):
    G = graphs(2, 1, 3)
    f = aut.right_mul_automorphism(G, column_swap_matrix(3, 0, 1))
    dec = aut.decompose(G, copied(f))
    assert dec.t == 0
    assert aut.recompose(G, dec) == f


def test_decompose_roundtrip_n3_q2(graphs):
    G = graphs(2, 1, 3)
    for seed in range(1, 21):
        _, _, _, f = random_triple(G, seed)
        assert aut.verify(G, f) == (True, None)
        dec = aut.decompose(G, copied(f))
        assert aut.recompose(G, dec) == f


def test_decompose_rejects_non_automorphism(graphs):
    G = graphs(2, 1, 3)
    bad = np.arange(512, dtype=np.int64)
    bad[0], bad[1] = 1, 0  # swaps rank 0 with rank 1
    with pytest.raises(aut.DecompositionError):
        aut.decompose(G, aut.Automorphism(3, F2, bad))


def test_decompose_sigma_fixes_classes(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = random_triple(G, 3)
    dec = aut.decompose(G, f)
    assert np.array_equal(G.vertex_class[dec.sigma.perm], G.vertex_class)


def test_decompose_rank_classes(graphs):
    G = graphs(2, 1, 2)
    ident = aut.identity_automorphism(G)
    assert aut.decompose_rank_classes(G, ident) == {0: {}, 1: {}, 2: {}}
    for seed in range(1, 6):
        f = random_right_mul(G, seed)
        assignment = aut.decompose_rank_classes(G, f)
        assert aut.rank_class_automorphism(G, assignment) == f
        rho = aut.random_rank_class_permutation(G, random.Random(seed))
        assignment = aut.decompose_rank_classes(G, rho)
        assert aut.rank_class_automorphism(G, assignment) == rho
    G3 = graphs(2, 1, 3)
    with pytest.raises(ValueError, match="n = 2"):
        aut.decompose_rank_classes(G3, aut.identity_automorphism(G3))


# -- group orders -------------------------------------------------------------


def test_quotient_aut_orders():
    assert aut.quotient_aut_order(F2, 2) == 6
    assert aut.quotient_aut_order(F3, 2) == 24
    assert aut.quotient_aut_order(F2, 3) == 168
    # cross-check: |PGL(3, 2)| * m with m = 1
    assert aut.quotient_aut_order(F2, 3) == gl_order(3, 2) // (2 - 1) * 1
    with pytest.raises(ValueError, match="cap"):
        aut.quotient_aut_order(F4, 3)  # 44 subspaces


@pytest.mark.parametrize(
    "p, m, n, cap, expected",
    [
        (3, 1, 3, 40, 5616),
        (2, 2, 3, 44, 120960),
        (2, 1, 4, 67, 20160),
        (5, 1, 3, 64, 372000),
    ],
    ids=["q3-n3", "q4-n3", "q2-n4", "q5-n3"],
)
def test_quotient_aut_order_is_projective_semilinear(p, m, n, cap, expected):
    """For n >= 3 the subspace lattice has |PGammaL(n, q)| automorphisms."""
    F = make_field(p, m)
    assert expected == gl_order(n, F.q) * m // (F.q - 1)
    assert aut.quotient_aut_order(F, n, cap=cap) == expected


def test_quotient_aut_order_every_default_cap_input():
    """Every n in {2, 3} whose quotient fits the default cap of 40."""
    prime_powers = [
        (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
        (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
        (2, 5), (37, 1),
    ]
    assert [p**m for p, m in prime_powers] == sorted(p**m for p, m in prime_powers)
    for p, m in prime_powers:
        assert aut.quotient_aut_order(make_field(p, m), 2) == math.factorial(p**m + 1)
    for p in (2, 3):
        assert aut.quotient_aut_order(make_field(p, 1), 3) == gl_order(3, p) // (p - 1)
    with pytest.raises(ValueError, match="cap"):
        aut.quotient_aut_order(make_field(41, 1), 2)  # 44 subspaces


def test_digraph_aut_order_vertex_level_gf2_n3(graphs):
    G = graphs(2, 1, 3)
    A = exported_adjacency(G)
    assert aut.digraph_aut_order(A) == aut.full_aut_order(F2, 3).value


def test_quotient_aut_order_matches_enumeration():
    from lirg.graph import build_quotient_graph

    for F, n in [(F2, 2), (F3, 2), (F2, 3), (F2, 1)]:
        Q = build_quotient_graph(F, n)
        out_sets = [set(np.flatnonzero(row).tolist()) for row in Q.lt]
        in_sets = [set(np.flatnonzero(col).tolist()) for col in Q.lt.T]
        colors = list(Q.class_rank)
        enumerated = enumerate_digraph_auts(out_sets, in_sets, colors)
        assert aut.quotient_aut_order(F, n) == len(enumerated)


def test_full_aut_order_small_cases():
    assert aut.full_aut_order(F2, 1).value == 1
    assert aut.full_aut_order(F3, 1).value == 2
    fo = aut.full_aut_order(F2, 3)
    assert fo.quotient_order == 168
    assert dict(fo.factorial_terms) == {
        1: 1,
        fiber_size(3, 1, 2): 7,
        fiber_size(3, 2, 2): 7,
        fiber_size(3, 3, 2): 1,
    }


def test_full_aut_order_n1_q3_matches_enumeration(graphs):
    G = graphs(3, 1, 1)
    out_sets, in_sets = exported_neighbors(G)
    assert len(enumerate_digraph_auts(out_sets, in_sets)) == 2
    assert aut.full_aut_order(F3, 1).value == 2


def test_full_aut_order_n2_q2_counts_rank_class_permutations(graphs):
    """For n = 2 every within-rank-class permutation is an automorphism and
    every automorphism is one, so the order is the product of rank-class
    factorials; the orbit-counting search over the 16-vertex digraph must
    agree."""
    G = graphs(2, 1, 2)
    brute = aut.digraph_aut_order(exported_adjacency(G))
    expected = math.factorial(1) * math.factorial(9) * math.factorial(6)
    assert brute == expected == 261273600
    assert aut.full_aut_order(F2, 2).value == expected


def test_digraph_aut_order_against_enumeration():
    # directed 4-cycle: cyclic group of order 4
    out_sets = [{1}, {2}, {3}, {0}]
    in_sets = [{3}, {0}, {1}, {2}]
    assert aut.digraph_aut_order(adjacency(out_sets)) == 4
    assert len(enumerate_digraph_auts(out_sets, in_sets)) == 4
    # two isolated vertices plus an edge
    out_sets = [set(), set(), {3}, set()]
    assert aut.digraph_aut_order(adjacency(out_sets)) == 2
    # rigid, but refinement reaches leaves that are not automorphisms
    out_sets = [{2, 3}, {0}, {4}, {4, 5}, {0, 1}, {3}]
    in_sets = [{1, 4}, {4}, {0}, {0, 5}, {2, 3}, {3}]
    assert aut.digraph_aut_order(adjacency(out_sets)) == 1
    assert len(enumerate_digraph_auts(out_sets, in_sets)) == 1


def random_digraph(rng):
    """A random loop-free digraph on 1 to 8 vertices as (out-sets, in-sets).

    One in four is the union of one or two random permutations (loops
    dropped): nearly regular, so colour refinement splits little and the
    search reaches leaves that are not automorphisms.  Up to two pairs of
    vertices are then made twins (equal out- and in-sets).
    """
    nverts = rng.randint(1, 8)
    if rng.random() < 0.25:
        A = np.zeros((nverts, nverts), dtype=bool)
        for _ in range(rng.randint(1, 2)):
            A[range(nverts), rng.sample(range(nverts), nverts)] = True
        np.fill_diagonal(A, False)
    else:
        density = rng.random()
        A = np.array(
            [[u != v and rng.random() < density for v in range(nverts)] for u in range(nverts)]
        )
    for _ in range(rng.randint(0, 2) if nverts > 2 else 0):
        a, b = rng.sample(range(nverts), 2)
        A[b], A[:, b] = A[a], A[:, a]
        A[a, b] = A[b, a] = A[b, b] = False
    out_sets = [set(np.flatnonzero(row).tolist()) for row in A]
    in_sets = [set(np.flatnonzero(col).tolist()) for col in A.T]
    return out_sets, in_sets


def test_digraph_aut_order_matches_enumeration_on_random_digraphs():
    """200 seeded random digraphs, half of them coloured with 2 or 3
    colours, against the backtracking oracle."""
    twins = 0
    for seed in range(200):
        rng = random.Random(seed)
        out_sets, in_sets = random_digraph(rng)
        nverts = len(out_sets)
        colors = None
        if seed % 2:
            ncolors = rng.randint(2, 3)
            colors = [rng.randrange(ncolors) for _ in range(nverts)]
        A = adjacency(out_sets)
        twins += len({(A[v].tobytes(), A[:, v].tobytes()) for v in range(nverts)}) < nverts
        expected = len(enumerate_digraph_auts(out_sets, in_sets, colors))
        assert aut.digraph_aut_order(A, colors) == expected, seed
    assert twins >= 50
