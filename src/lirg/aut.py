"""Automorphisms of the directed relation graph.

Four standard families are constructed directly: right multiplication by
an invertible matrix, the entrywise Frobenius maps, permutations acting
inside each ideal class, and (for n = 2) permutations acting inside each
rank class.  Arbitrary vertex permutations can be verified exactly, and
every verified automorphism decomposes constructively: for n >= 3 into a
class-fixing permutation followed by an entrywise Frobenius map followed
by right multiplication; for n = 2 into per-rank-class permutations.

Permutations are dense int64 arrays indexed by vertex; composition is
"right factor acts first": compose(f, g) applies g, then f.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from lirg.counting import fiber_size
from lirg.field import Field
from lirg.graph import RelationGraph, build_quotient_graph
from lirg.ideal import LeftIdeal, ideal_of, line_vector
from lirg.matrix import (
    _digit_sum,
    _span_codes,
    all_one_row_matrix,
    column_scale_matrix,
    column_swap_matrix,
    first_row_matrix,
    identity_matrix,
    is_invertible,
    mat_inverse,
    mat_mul,
    random_invertible,
    unit_vector,
    vertex_decode,
    vertex_encode,
)


class DecompositionError(RuntimeError):
    """The input permutation does not factor; it is not an automorphism
    (or signals an implementation fault)."""


@dataclass(eq=False)
class Automorphism:
    n: int
    field: Field
    perm: np.ndarray

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.n == other.n
            and self.field == other.field
            and np.array_equal(self.perm, other.perm)
        )

    def __call__(self, v: int) -> int:
        return int(self.perm[v])

    def apply_matrix(self, X):
        F = self.field
        return vertex_decode(F, self.n, int(self.perm[vertex_encode(F, X)]))

    @property
    def size(self) -> int:
        return len(self.perm)


def _check_context(G: RelationGraph):
    if G.kind != "full" or not G.directed:
        raise ValueError("automorphisms are defined on the directed full graph")


def _check_same(f: Automorphism, g: Automorphism):
    if f.n != g.n or f.field != g.field:
        raise ValueError("automorphism context mismatch")


def identity_automorphism(G: RelationGraph) -> Automorphism:
    _check_context(G)
    return Automorphism(G.n, G.field, np.arange(G.vertex_count, dtype=np.int64))


def right_mul_automorphism(G: RelationGraph, P) -> Automorphism:
    """X -> X P for invertible P; an automorphism by construction.

    Each row of X maps on its own, u -> uP, so the permutation is built
    from that map on the q^n row codes (the span codes of P's rows).
    """
    _check_context(G)
    F, n = G.field, G.n
    if not is_invertible(F, P):
        raise ValueError("right multiplication requires an invertible matrix")
    return Automorphism(n, F, _digit_sum(_span_codes(F, n, P), F.q**n, n))


def frobenius_automorphism(G: RelationGraph, t: int) -> Automorphism:
    """Entrywise a -> a^(p^t) on every matrix, built from that map on the
    q element codes.

    The map is F_p-linear on the base-p digits of a code, so only the m
    digit units p^i are raised to p^t; the other images are digit sums.
    """
    _check_context(G)
    F, n, p = G.field, G.n, G.field.p
    if not 0 <= t < F.m:
        raise ValueError(f"Frobenius exponent {t} out of range [0, {F.m})")
    powers = p ** np.arange(F.m, dtype=np.int64)
    digits = np.arange(F.q, dtype=np.int64)[:, None] // powers % p
    unit_images = digits[[F.frobenius(int(u), t) for u in powers]]
    image = (digits @ unit_images % p) @ powers
    return Automorphism(n, F, _digit_sum(image, F.q, n * n))


def _perm_from_blocks(G: RelationGraph, blocks):
    """Permutation acting inside the given vertex blocks, identity elsewhere.

    ``blocks`` yields (vertex array, mapping dict old -> new)."""
    perm = np.arange(G.vertex_count, dtype=np.int64)
    for verts, mapping in blocks:
        vert_set = set(int(v) for v in verts)
        if set(mapping) - vert_set or set(mapping.values()) - vert_set:
            raise ValueError("permutation leaves its block")
        if sorted(mapping) != sorted(mapping.values()):
            raise ValueError("block mapping is not a permutation")
        for old, new in mapping.items():
            perm[old] = new
    return perm


def class_permutation_automorphism(G: RelationGraph, assignment) -> Automorphism:
    """Permute vertices inside ideal classes; identity on unnamed classes.

    ``assignment`` maps a class (by canonical ideal or by class index) to a
    dict sending each member vertex to its image within the same class.
    """
    _check_context(G)
    ideal_index = {ideal: i for i, ideal in enumerate(G.class_ideals)}

    def resolve(key):
        if isinstance(key, LeftIdeal):
            if key not in ideal_index:
                raise ValueError(f"unknown ideal class {key}")
            return ideal_index[key]
        return int(key)

    blocks = [
        (G.class_vertices[resolve(key)], mapping)
        for key, mapping in assignment.items()
    ]
    try:
        perm = _perm_from_blocks(G, blocks)
    except ValueError as exc:
        raise ValueError(f"vertex listed in wrong class: {exc}") from exc
    return Automorphism(G.n, G.field, perm)


def rank_class_automorphism(G: RelationGraph, assignment) -> Automorphism:
    """Permute vertices inside rank classes (n = 2 only).

    For n = 2 adjacency depends only on rank, so any such permutation is
    an automorphism; for larger n it generally is not, hence the guard.
    """
    _check_context(G)
    if G.n != 2:
        raise ValueError("rank class permutations require n = 2")
    rank_vertices = {}
    for c in range(G.class_count):
        rank_vertices.setdefault(G.class_rank[c], []).extend(
            G.class_vertices[c].tolist()
        )
    blocks = []
    for r, mapping in assignment.items():
        if r not in rank_vertices:
            raise ValueError(f"no rank class {r}")
        blocks.append((rank_vertices[r], mapping))
    try:
        perm = _perm_from_blocks(G, blocks)
    except ValueError as exc:
        raise ValueError(f"vertex listed in wrong rank class: {exc}") from exc
    return Automorphism(G.n, G.field, perm)


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """f after g: the right factor acts first."""
    _check_same(f, g)
    return Automorphism(f.n, f.field, f.perm[g.perm])


def inverse(f: Automorphism) -> Automorphism:
    inv = np.empty_like(f.perm)
    inv[f.perm] = np.arange(len(f.perm), dtype=np.int64)
    return Automorphism(f.n, f.field, inv)


def verify(G: RelationGraph, f: Automorphism) -> tuple:
    """(True, None) if f preserves the edge relation both ways, else
    (False, (u, v)) with a violating pair.

    Adjacency depends only on ideal classes, so it suffices to compare the
    containment bits over the distinct (source class, image class) pairs:
    exact, and linear in the vertex count.
    """
    _check_context(G)
    if f.n != G.n or f.field != G.field:
        raise ValueError("automorphism context mismatch")
    perm = f.perm
    N = G.vertex_count
    if len(perm) != N:
        raise ValueError(f"permutation length {len(perm)} != vertex count {N}")
    if len(perm) == 0 or perm.min() < 0 or perm.max() >= N:
        raise ValueError("not a bijection on the vertex set")
    if np.bincount(perm, minlength=N).max() != 1:
        raise ValueError("not a bijection on the vertex set")
    # The class index may be as narrow as uint8; pair codes need int64.
    src = G.vertex_class.astype(np.int64)
    dst = G.vertex_class[perm]
    pair_codes = src * G.class_count + dst
    uniq = np.unique(pair_codes)
    cs, ds = np.divmod(uniq, G.class_count)
    lt = G.lt
    before = lt[np.ix_(cs, cs)]
    after = lt[np.ix_(ds, ds)]
    bad = np.argwhere(before != after)
    if len(bad) == 0:
        return True, None
    # lt has a False diagonal, so before and after agree where a == b: the
    # two pair codes differ, and so do the vertices carrying them.
    a, b = bad[0]
    u = int(np.flatnonzero(pair_codes == uniq[a])[0])
    v = int(np.flatnonzero(pair_codes == uniq[b])[0])
    return False, (u, v)


def preserves_rank(G: RelationGraph, f: Automorphism) -> bool:
    ranks = np.array(G.class_rank)[G.vertex_class]
    return bool(np.array_equal(ranks, ranks[f.perm]))


# -- constructive decomposition ------------------------------------------


@dataclass(eq=False)
class Decomposition:
    """(P, t, sigma) with the source permutation equal to: sigma first,
    then the entrywise Frobenius power t, then X -> X P."""

    P: tuple
    t: int
    sigma: Automorphism


def _normalizer(F: Field, n: int, a, i: int, l: int):
    """Invertible matrix sending the line of a to the line of e_i, fixing
    the lines of e_0 .. e_{i-1}; l is the chosen nonzero coordinate."""
    inv_al = F.inv(a[l])
    M1 = [list(row) for row in identity_matrix(n)]
    for j in range(n):
        if j != l and a[j]:
            M1[l][j] = F.neg(F.mul(inv_al, a[j]))
    M1 = tuple(tuple(row) for row in M1)
    M2 = column_scale_matrix(F, n, l, inv_al)
    M3 = column_swap_matrix(n, i, l)
    return mat_mul(F, mat_mul(F, M1, M2), M3)


def _probe_line(G: RelationGraph, f: Automorphism, P_acc, X):
    """Canonical spanning vector of the ideal of f(X) P_acc for rank-1 X."""
    F, n = G.field, G.n
    v = vertex_encode(F, X)
    image = vertex_decode(F, n, int(f.perm[v]))
    moved = mat_mul(F, image, P_acc)
    ideal = ideal_of(F, moved)
    if ideal.rank != 1:
        raise DecompositionError(
            f"image of a rank-1 vertex has rank {ideal.rank}; input is not an "
            "automorphism"
        )
    return line_vector(ideal)


def decompose(G: RelationGraph, f: Automorphism) -> Decomposition:
    """Factor a verified automorphism (n >= 3) into (P, t, sigma).

    Normalizes the images of the coordinate lines one at a time with
    explicit invertible matrices, then the all-one line with a diagonal
    matrix; reads the induced field map off the lines through e_0 + a e_1
    and matches it to a Frobenius exponent; the residual must fix every
    ideal class and becomes sigma.  Only composition equality is
    guaranteed, not uniqueness of the triple.
    """
    _check_context(G)
    F, n = G.field, G.n
    if n < 3:
        raise ValueError("decomposition by normalization requires n >= 3")
    if f.n != n or f.field != F:
        raise ValueError("automorphism context mismatch")

    P_acc = identity_matrix(n)
    for i in range(n):
        a = _probe_line(G, f, P_acc, first_row_matrix(n, unit_vector(n, i)))
        l = next((j for j in range(i, n) if a[j]), None)
        if l is None:
            raise DecompositionError(
                f"line image at step {i} has no usable coordinate; input is "
                "not an automorphism"
            )
        P_acc = mat_mul(F, P_acc, _normalizer(F, n, a, i, l))

    b = _probe_line(G, f, P_acc, all_one_row_matrix(n))
    if not all(b):
        raise DecompositionError(
            "all-one line maps to a line with a zero coordinate; input is "
            "not an automorphism"
        )
    diag = tuple(
        tuple(F.inv(b[i]) if i == j else 0 for j in range(n)) for i in range(n)
    )
    P_acc = mat_mul(F, P_acc, diag)

    field_map = {}
    e0, e1 = unit_vector(n, 0), unit_vector(n, 1)
    for a in F.elements():
        row = tuple(F.add(x, F.mul(a, y)) for x, y in zip(e0, e1))
        c = _probe_line(G, f, P_acc, first_row_matrix(n, row))
        if c[0] != 1 or any(c[j] for j in range(2, n)):
            raise DecompositionError(
                f"line through e0 + {a}*e1 maps outside the e0,e1 plane; "
                "input is not an automorphism"
            )
        field_map[a] = c[1]
    t = next(
        (
            t
            for t in F.automorphism_exponents()
            if all(field_map[a] == F.frobenius(a, t) for a in F.elements())
        ),
        None,
    )
    if t is None:
        raise DecompositionError(
            f"induced field map {field_map} matches no Frobenius power"
        )

    phi_acc = right_mul_automorphism(G, P_acc)
    upsilon = frobenius_automorphism(G, t)
    sigma = compose(inverse(upsilon), compose(phi_acc, f))
    fixed = G.vertex_class[sigma.perm] == G.vertex_class
    if not fixed.all():
        v = int(np.flatnonzero(~fixed)[0])
        raise DecompositionError(
            f"residual moves vertex {v} across ideal classes; input is not "
            "an automorphism (or an implementation fault)"
        )
    return Decomposition(P=mat_inverse(F, P_acc), t=t, sigma=sigma)


def recompose(G: RelationGraph, dec: Decomposition) -> Automorphism:
    """sigma first, then the Frobenius power, then right multiplication."""
    phi = right_mul_automorphism(G, dec.P)
    upsilon = frobenius_automorphism(G, dec.t)
    return compose(phi, compose(upsilon, dec.sigma))


def decompose_rank_classes(G: RelationGraph, f: Automorphism):
    """Split an n = 2 automorphism into per-rank-class permutations."""
    _check_context(G)
    if G.n != 2:
        raise ValueError("rank class decomposition is the n = 2 form")
    if not preserves_rank(G, f):
        raise DecompositionError("permutation does not preserve rank classes")
    ranks = np.array(G.class_rank)[G.vertex_class]
    assignment = {}
    for r in range(G.n + 1):
        verts = np.flatnonzero(ranks == r)
        assignment[r] = {int(v): int(f.perm[v]) for v in verts if f.perm[v] != v}
    return assignment


# -- random sampling -------------------------------------------------------


def _shuffle_within(G: RelationGraph, groups, rng) -> Automorphism:
    """A random permutation inside each vertex group, identity elsewhere."""
    perm = np.arange(G.vertex_count, dtype=np.int64)
    for verts in groups:
        shuffled = verts.tolist()
        rng.shuffle(shuffled)
        perm[verts] = np.array(shuffled, dtype=np.int64)
    return Automorphism(G.n, G.field, perm)


def random_class_permutation(G: RelationGraph, rng) -> Automorphism:
    return _shuffle_within(G, G.class_vertices, rng)


def random_rank_class_permutation(G: RelationGraph, rng) -> Automorphism:
    if G.n != 2:
        raise ValueError("rank class permutations require n = 2")
    ranks = np.array(G.class_rank)[G.vertex_class]
    return _shuffle_within(G, [np.flatnonzero(ranks == r) for r in range(3)], rng)


def random_triple(G: RelationGraph, seed: int):
    """Seeded (P, t, sigma) and their composition, for sampling and tests."""
    rng = random.Random(seed)
    P = random_invertible(G.field, G.n, rng)
    t = rng.randrange(G.field.m)
    sigma = random_class_permutation(G, rng)
    f = compose(
        right_mul_automorphism(G, P),
        compose(frobenius_automorphism(G, t), sigma),
    )
    return P, t, sigma, f


# -- exact automorphism group orders ---------------------------------------


def _twin_blocks(out_sets, in_sets, colors):
    """Twins (equal colour, out-set and in-set) as blocks of vertices,
    with the out- and in-sets of the merged digraph on block indices."""
    groups = {}
    for v in range(len(out_sets)):
        key = (colors[v], frozenset(out_sets[v]), frozenset(in_sets[v]))
        groups.setdefault(key, []).append(v)
    blocks = list(groups.values())
    block_of = {v: b for b, members in enumerate(blocks) for v in members}
    out_b = [{block_of[w] for w in out_sets[members[0]]} for members in blocks]
    in_b = [{block_of[w] for w in in_sets[members[0]]} for members in blocks]
    return blocks, out_b, in_b


def _refine(outs, ins, cells, v=None):
    """Coarsest equitable colouring finer than ``cells`` (vertex -> cell),
    with v (if given) first split off the front of its cell.

    A vertex's label is its cell plus the sorted cells of its out-
    neighbours and (as ~cell) in-neighbours; cells are renumbered in label
    order until their count stops growing.  Labels never mention vertex
    numbers, so an isomorphism of the inputs maps the results cell index
    to cell index.
    """
    cells = [2 * c + (u != v) for u, c in enumerate(cells)]
    while True:
        labels = [
            (c, tuple(sorted([cells[w] for w in outs[x]] + [~cells[w] for w in ins[x]])))
            for x, c in enumerate(cells)
        ]
        index = {lab: i for i, lab in enumerate(sorted(set(labels)))}
        if len(index) == len(set(cells)):
            return [index[lab] for lab in labels]
        cells = [index[lab] for lab in labels]


def _search(out_sets, in_sets, colors) -> int:
    """Automorphism group order by individualization-refinement.

    The base individualizes the first vertex of the first non-singleton
    cell until the colouring is discrete.  From the deepest level up, the
    order gains the orbit of each base point under the stabilizer of the
    points before it: each candidate of its cell outside the orbit so far
    is individualized in its place, and the search below it looks for a
    leaf whose map from the first leaf sends out-sets onto out-sets.
    """
    nverts = len(out_sets)
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    path = [_refine(out_sets, in_sets, [rank[c] for c in colors])]
    base = []
    while len(set(path[-1])) < nverts:
        cells = path[-1]
        base.append(cells.index(min(c for c in cells if cells.count(c) > 1)))
        path.append(_refine(out_sets, in_sets, cells, base[-1]))

    def extend(cells, level, w):
        """An automorphism fixing base[:level] and sending base[level] to
        w, or None."""
        cells = _refine(out_sets, in_sets, cells, w)
        if sorted(cells) != sorted(path[level + 1]):
            return None
        if level + 1 < len(base):
            found = (
                extend(cells, level + 1, u)
                for u in range(nverts)
                if cells[u] == path[level + 1][base[level + 1]]
            )
            return next((g for g in found if g is not None), None)
        at = {c: u for u, c in enumerate(cells)}
        g = [at[c] for c in path[-1]]
        ok = all({g[u] for u in out_sets[v]} == out_sets[g[v]] for v in range(nverts))
        return g if ok else None

    gens, total = [], 1
    for level in reversed(range(len(base))):
        orbit = {base[level]}
        for w in range(nverts):
            if path[level][w] == path[level][base[level]] and w not in orbit:
                g = extend(path[level], level, w)
                if g is not None:
                    gens.append(g)
                    while not orbit >= (grown := {h[x] for h in gens for x in orbit}):
                        orbit |= grown
        total *= len(orbit)
    return total


def digraph_aut_order(out_sets, in_sets, colors=None) -> int:
    """Exact order of the colour-preserving automorphism group of a digraph.

    Twins (equal colour, out-set and in-set) merge into blocks, each
    contributing (block size)!; the merged digraph, coloured by (colour,
    block size), is searched by individualization-refinement (McKay and
    Piperno, Practical graph isomorphism II, 2014): the order is the
    product of the orbit sizes along a base, with orbits grown from
    automorphisms that are checked edge by edge.
    """
    if colors is None:
        colors = [0] * len(out_sets)
    blocks, out_b, in_b = _twin_blocks(out_sets, in_sets, colors)
    order = _search(out_b, in_b, [(colors[b[0]], len(b)) for b in blocks])
    return order * math.prod(math.factorial(len(b)) for b in blocks)


def _quotient_sets(F: Field, n: int, cap: int):
    """Up-sets, down-sets and ranks of the quotient's classes, refused
    above ``cap`` subspaces before anything is built."""
    Q = build_quotient_graph(F, n, cap=cap)
    return Q.super_classes, Q.sub_classes, Q.class_rank


def quotient_aut_order(F: Field, n: int, cap: int = 40) -> int:
    """Exact order of the automorphism group of the directed quotient graph
    (the subspace lattice of F_q^n), coloured by rank: one
    ``digraph_aut_order`` search over the containment relation."""
    return digraph_aut_order(*_quotient_sets(F, n, cap))


@dataclass(frozen=True)
class FactoredGroupOrder:
    """Group order as (structure automorphisms) x (product of factorials)."""

    quotient_order: int
    factorial_terms: tuple  # (block size, multiplicity) pairs

    @property
    def value(self) -> int:
        terms = (math.factorial(size) ** mult for size, mult in self.factorial_terms)
        return self.quotient_order * math.prod(terms)

    def __str__(self):
        parts = [str(self.quotient_order)]
        for size, mult in self.factorial_terms:
            parts.append(f"{size}!" if mult == 1 else f"({size}!)^{mult}")
        return " * ".join(parts)


def full_aut_order(F: Field, n: int, cap: int = 40) -> FactoredGroupOrder:
    """Exact order of the automorphism group of the directed full graph.

    Twin classes (identical up-sets and down-sets) have mutually twin
    members, so they merge into one block; every automorphism permutes
    blocks compatibly with the merged containment relation and acts
    freely inside each block.  The order is therefore (automorphisms of
    the merged structure, respecting block sizes) times the product of
    (block size)!.

    For n >= 3 no two classes are twins and this is the quotient-graph
    automorphism count times the product of fiber-size factorials; for
    n = 2 all rank-1 classes merge, giving the product of rank-class-size
    factorials.
    """
    up, down, ranks = _quotient_sets(F, n, cap)
    fib = [fiber_size(n, r, F.q) for r in ranks]
    blocks, out_b, in_b = _twin_blocks(up, down, fib)
    sizes = [fib[members[0]] * len(members) for members in blocks]
    return FactoredGroupOrder(
        quotient_order=digraph_aut_order(out_b, in_b, sizes),
        factorial_terms=tuple(sorted(Counter(sizes).items())),
    )
