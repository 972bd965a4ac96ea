"""Automorphisms of the directed relation graph.

Four standard families are constructed directly: right multiplication by
an invertible matrix, the entrywise Frobenius maps, permutations acting
inside each ideal class, and (for n = 2) permutations acting inside each
rank class.  Arbitrary vertex permutations can be verified exactly, and
every verified automorphism decomposes constructively: for n >= 3 into a
class-fixing permutation followed by an entrywise Frobenius map followed
by right multiplication; for n = 2 into per-rank-class permutations.

Permutations are dense int64 arrays indexed by vertex; composition is
"right factor acts first": compose(f, g) applies g, then f.  Right
multiplication and the entrywise Frobenius power act on each row of a
matrix alone, so together they are one table on the q^n row codes (see
``_row_table``).  Sampling, decomposition and recomposition apply that
table to the images of sigma, or its inverse to those of f, in place and
a block of vertices at a time: ``decompose`` rewrites f's array into
sigma's and ``recompose`` rewrites sigma's into the composition, so one
permutation of the vertex set is held at once (pass a copy to keep the
input).  Random class permutations shuffle each class's member array in
place with exactly the draws of ``random.Random.shuffle``, so a seed gives
the same permutation, and leaves the generator in the same state, as
shuffling Python lists.

Group orders come from one search over a bool adjacency matrix, the class
containment matrix ``lt`` for the quotient and full graphs alike (see
``digraph_aut_order``).
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


# Vertices per block when a permutation is checked or rewritten in place.
_BLOCK = 1 << 14


def _row_table(G: RelationGraph, P, t: int):
    """The map u -> (u^(p^t)) P on the q^n row codes: the entrywise
    Frobenius power t, then right multiplication by P.

    Both act on each row of a matrix alone, so a vertex maps row by row
    through this table.  The field map is F_p-linear on the base-p digits
    of an element code, so only the m digit units p^i are raised to p^t;
    the other images are digit sums.  Row u's image is then the span code
    of P's rows at the Frobenius image of u.
    """
    _check_context(G)
    F, n, p = G.field, G.n, G.field.p
    if not 0 <= t < F.m:
        raise ValueError(f"Frobenius exponent {t} out of range [0, {F.m})")
    if not is_invertible(F, P):
        raise ValueError("right multiplication requires an invertible matrix")
    powers = p ** np.arange(F.m, dtype=np.int64)
    digits = np.arange(F.q, dtype=np.int64)[:, None] // powers % p
    unit_images = digits[[F.frobenius(int(u), t) for u in powers]]
    image = (digits @ unit_images % p) @ powers
    return _span_codes(F, n, P)[_digit_sum(image, F.q, n)]


def _map_rows(G: RelationGraph, perm, table):
    """Send every image perm[v] through ``table`` row by row, in place, a
    block of _BLOCK vertices at a time; yields (first vertex, block) as
    each block is done."""
    Q = len(table)
    for lo in range(0, len(perm), _BLOCK):
        block = perm[lo : lo + _BLOCK]
        rest, image = block, np.zeros_like(block)
        for i in range(G.n):
            rest, row = np.divmod(rest, Q)
            image += table[row] * Q**i
        block[:] = image
        yield lo, block


def right_mul_automorphism(G: RelationGraph, P) -> Automorphism:
    """X -> X P for invertible P; an automorphism by construction, built
    from its row table."""
    F, n = G.field, G.n
    return Automorphism(n, F, _digit_sum(_row_table(G, P, 0), F.q**n, n))


def frobenius_automorphism(G: RelationGraph, t: int) -> Automorphism:
    """Entrywise a -> a^(p^t) on every matrix, built from its row table."""
    F, n = G.field, G.n
    return Automorphism(n, F, _digit_sum(_row_table(G, identity_matrix(n), t), F.q**n, n))


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
    exact, and linear in the vertex count.  Images and pairs are read a
    block of _BLOCK vertices at a time.
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
    C = G.class_count

    def pair_codes():
        # The class index may be as narrow as uint8; pair codes need int64.
        for lo in range(0, N, _BLOCK):
            images = perm[lo : lo + _BLOCK]
            codes = G.vertex_class[lo : lo + _BLOCK].astype(np.int64)
            codes *= C
            codes += G.vertex_class[images]
            yield lo, images, codes

    # N images in range hit every vertex exactly when f is a bijection.
    hit = np.zeros(N, dtype=bool)
    seen = np.zeros(C * C, dtype=bool)
    for _, images, codes in pair_codes():
        hit[images] = True
        seen[codes] = True
    if not hit.all():
        raise ValueError("not a bijection on the vertex set")
    del hit
    uniq = np.flatnonzero(seen)  # the distinct pair codes, ascending
    cs, ds = np.divmod(uniq, C)
    lt = G.lt
    before = lt[np.ix_(cs, cs)]
    after = lt[np.ix_(ds, ds)]
    bad = np.argwhere(before != after)
    if len(bad) == 0:
        return True, None
    # lt has a False diagonal, so before and after agree where a == b: the
    # two pair codes differ, and so do the vertices carrying them.
    a, b = bad[0]

    def first_carrier(code):
        return next(lo + int(np.argmax(c == code)) for lo, _, c in pair_codes() if (c == code).any())

    return False, (first_carrier(uniq[a]), first_carrier(uniq[b]))


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
    guaranteed, not uniqueness of the triple.  f's array is rewritten into
    sigma's: f is not to be used afterwards.
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

    # sigma = (row table of (P, t))^-1 applied to f's images, in place.
    P = mat_inverse(F, P_acc)
    table = _row_table(G, P, t)
    inverse = np.empty_like(table)
    inverse[table] = np.arange(len(table))
    for lo, block in _map_rows(G, f.perm, inverse):
        moved = G.vertex_class[block] != G.vertex_class[lo : lo + len(block)]
        if moved.any():
            v = lo + int(np.argmax(moved))
            raise DecompositionError(
                f"residual moves vertex {v} across ideal classes; input is not "
                "an automorphism (or an implementation fault)"
            )
    return Decomposition(P=P, t=t, sigma=Automorphism(n, F, f.perm))


def recompose(G: RelationGraph, dec: Decomposition) -> Automorphism:
    """sigma first, then the Frobenius power, then right multiplication:
    the row table of (P, t) applied to sigma's images, in sigma's array."""
    perm = dec.sigma.perm
    for _ in _map_rows(G, perm, _row_table(G, dec.P, dec.t)):
        pass
    return Automorphism(G.n, G.field, perm)


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


def _shuffle_within(G: RelationGraph, masks, rng) -> Automorphism:
    """A random permutation inside each vertex group, given as a bool mask,
    identity elsewhere.

    Each group's member array is shuffled in place, through a memoryview,
    by the swaps and ``getrandbits`` calls of ``random.Random.shuffle``: the
    result, and the state rng is left in, are those of shuffling a list of
    the group's vertices, but no Python int is held per vertex.
    """
    perm = np.arange(G.vertex_count, dtype=np.int64)
    getrandbits = rng.getrandbits
    for mask in masks:
        members = np.flatnonzero(mask)
        items = memoryview(members)
        for i in range(len(items) - 1, 0, -1):
            # random.Random._randbelow(i + 1), inlined.
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        perm[mask] = members
    return Automorphism(G.n, G.field, perm)


def random_class_permutation(G: RelationGraph, rng) -> Automorphism:
    # Each class's mask is made as it is shuffled, so no member list of
    # every vertex is held (or cached on G).
    masks = (G.vertex_class == c for c in range(G.class_count))
    return _shuffle_within(G, masks, rng)


def random_rank_class_permutation(G: RelationGraph, rng) -> Automorphism:
    if G.n != 2:
        raise ValueError("rank class permutations require n = 2")
    ranks = np.array(G.class_rank)[G.vertex_class]
    return _shuffle_within(G, (ranks == r for r in range(3)), rng)


def random_decomposition(G: RelationGraph, seed: int) -> Decomposition:
    """Seeded (P, t, sigma), drawn in that order from one generator."""
    rng = random.Random(seed)
    P = random_invertible(G.field, G.n, rng)
    t = rng.randrange(G.field.m)
    return Decomposition(P=P, t=t, sigma=random_class_permutation(G, rng))


# -- exact automorphism group orders ---------------------------------------


def _twin_blocks(A, colors):
    """Twins (equal colour, out-row and in-column of the adjacency ``A``) as
    blocks of vertices, in order of their first members."""
    groups = {}
    for v in range(len(A)):
        key = (colors[v], A[v].tobytes(), A[:, v].tobytes())
        groups.setdefault(key, []).append(v)
    return list(groups.values())


def _refine(adj, cells, v=None):
    """Coarsest equitable colouring finer than ``cells`` (vertex -> cell),
    with v (if given) first split off the front of its cell.

    A vertex's label is its cell plus its out- and in-neighbour counts in
    every cell, the rows of ``adj @ onehot`` and ``adj.T @ onehot`` (float32
    products of the adjacency ``adj``, exact below 2^24); one ``np.lexsort``
    of the labels renumbers the cells in label order, until their count
    stops growing.  Labels never mention vertex numbers, so an isomorphism
    of the inputs maps the results cell index to cell index.
    """
    if v is not None:
        cells = cells + (cells >= cells[v])
        cells[v] -= 1
    while True:
        count = np.count_nonzero(np.bincount(cells))
        onehot = (cells[:, None] == np.arange(cells.max(initial=0) + 1)).astype(np.float32)
        labels = np.column_stack((cells.astype(np.float32), adj @ onehot, adj.T @ onehot))
        order = np.lexsort(labels.T[::-1])
        ranked = labels[order]
        starts = np.ones(len(cells), dtype=bool)
        starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        cells = (np.cumsum(starts) - 1)[np.argsort(order)]
        if starts.sum() == count:
            return cells


def _search(A, colors) -> int:
    """Automorphism group order by individualization-refinement.

    The base individualizes the first vertex of the first non-singleton
    cell until the colouring is discrete.  From the deepest level up, the
    order gains the orbit of each base point under the stabilizer of the
    points before it: each candidate of its cell outside the orbit so far
    is individualized in its place, and the search below it looks for a
    leaf whose map g from the first leaf keeps ``A``: ``A[g][:, g] == A``.
    """
    nverts = len(A)
    adj = A.astype(np.float32)
    rank = {c: i for i, c in enumerate(sorted(set(colors)))}
    path = [_refine(adj, np.array([rank[c] for c in colors], dtype=np.intp))]
    base = []
    while (sizes := np.bincount(path[-1])).size < nverts:
        base.append(int(np.argmax(path[-1] == np.argmax(sizes > 1))))
        path.append(_refine(adj, path[-1], base[-1]))

    def extend(cells, level, w):
        """An automorphism fixing base[:level] and sending base[level] to
        w, or None."""
        cells = _refine(adj, cells, w)
        if not np.array_equal(np.bincount(cells), np.bincount(path[level + 1])):
            return None
        if level + 1 < len(base):
            target = path[level + 1][base[level + 1]]
            found = (extend(cells, level + 1, u) for u in np.flatnonzero(cells == target))
            return next((g for g in found if g is not None), None)
        g = np.argsort(cells)[path[-1]]
        return g if np.array_equal(A[np.ix_(g, g)], A) else None

    gens, total = [], 1
    for level in reversed(range(len(base))):
        orbit = np.arange(nverts) == base[level]
        for w in np.flatnonzero(path[level] == path[level][base[level]]):
            if not orbit[w] and (g := extend(path[level], level, w)) is not None:
                gens.append(g)
                size = 0
                while size < (size := int(orbit.sum())):  # until no generator grows it
                    for h in gens:
                        orbit[h[orbit]] = True
        total *= int(orbit.sum())
    return total


def digraph_aut_order(A, colors=None) -> int:
    """Exact order of the colour-preserving automorphism group of the
    loop-free digraph with bool adjacency matrix ``A`` (``A[u, v]``: edge
    u -> v).

    Twins (equal colour, out-row and in-column) merge into blocks, each
    contributing (block size)!.  Twins of a loop-free digraph are never
    adjacent, so the merged digraph is the one induced on a representative
    per block.  Coloured by (colour, block size), it is searched by
    individualization-refinement (McKay and Piperno, Practical graph
    isomorphism II, 2014): the order is the product of the orbit sizes
    along a base, with orbits grown from automorphisms that are checked
    edge by edge.
    """
    if colors is None:
        colors = [0] * len(A)
    blocks = _twin_blocks(A, colors)
    reps = [b[0] for b in blocks]
    order = _search(A[np.ix_(reps, reps)], [(colors[b[0]], len(b)) for b in blocks])
    return order * math.prod(math.factorial(len(b)) for b in blocks)


def quotient_aut_order(F: Field, n: int, cap: int = 40) -> int:
    """Exact order of the automorphism group of the directed quotient graph
    (the subspace lattice of F_q^n), coloured by rank: one
    ``digraph_aut_order`` search over the containment matrix ``lt``,
    refused above ``cap`` subspaces before anything is built."""
    Q = build_quotient_graph(F, n, cap=cap)
    return digraph_aut_order(Q.lt, Q.class_rank)


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

    Twin classes (of equal fiber size, with equal rows and columns of
    ``lt``) have mutually twin members, so they merge into one block;
    every automorphism permutes blocks compatibly with the merged
    containment relation and acts freely inside each block.  The order is therefore (automorphisms of
    the merged structure, respecting block sizes) times the product of
    (block size)!.

    For n >= 3 no two classes are twins and this is the quotient-graph
    automorphism count times the product of fiber-size factorials; for
    n = 2 all rank-1 classes merge, giving the product of rank-class-size
    factorials.
    """
    Q = build_quotient_graph(F, n, cap=cap)
    fib = [fiber_size(n, r, F.q) for r in Q.class_rank]
    blocks = _twin_blocks(Q.lt, fib)
    reps = [members[0] for members in blocks]
    sizes = [fib[c] * len(members) for c, members in zip(reps, blocks)]
    return FactoredGroupOrder(
        quotient_order=digraph_aut_order(Q.lt[np.ix_(reps, reps)], sizes),
        factorial_terms=tuple(sorted(Counter(sizes).items())),
    )
