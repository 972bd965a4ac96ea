"""Deterministic text formats: graphs, permutations, decompositions.

Every header carries the field spec as p, m and the modulus coefficients
low-to-high, so any consumer can reconstruct the exact arithmetic.  All
writers emit byte-identical output for identical inputs; all machine
formats round-trip through the parsers here.
"""

from array import array

import numpy as np

from lirg.aut import Automorphism, Decomposition
from lirg.field import Field, make_field
from lirg.graph import RelationGraph
from lirg.ideal import LeftIdeal


def _lines_of(text: str, kind: str):
    lines = text.strip("\n").split("\n")
    if not lines or not lines[0]:
        raise ValueError(f"empty {kind} file")
    return lines


def field_tokens(n: int, F: Field, directed=None) -> str:
    mod = ",".join(str(c) for c in F.modulus)
    out = f"n={n} p={F.p} m={F.m} modulus={mod}"
    if directed is not None:
        out += f" directed={1 if directed else 0}"
    return out


def _parse_tokens(tokens):
    out = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        out[key] = val
    return out


def parse_field_tokens(parts, ring=None):
    """(n, field, directed) from header tokens.

    With ``ring = (n, F)`` the header's n, p, m and modulus must equal the
    ring's, compared as integers before any field is built, and F itself is
    returned: an untrusted header never drives the primality and
    irreducibility tests of ``make_field``.
    """
    vals = _parse_tokens(parts)
    try:
        n, p, m = (int(vals[key]) for key in ("n", "p", "m"))
        modulus = tuple(int(c) for c in vals["modulus"].split(","))
    except KeyError as exc:
        raise ValueError(f"header has no {exc.args[0]}= token") from exc
    if ring is None:
        F = make_field(p, m, modulus)
    else:
        F = ring[1]
        if (n, p, m, modulus) != (ring[0], F.p, F.m, F.modulus):
            raise ValueError(
                "file header does not match the requested ring "
                + field_tokens(ring[0], F)
            )
    directed = bool(int(vals["directed"])) if "directed" in vals else None
    return n, F, directed


# -- graphs -----------------------------------------------------------------


def _edge_chunks(G: RelationGraph, prefix: str, sep: str, end: str):
    """One chunk per source vertex u with edges: ``{prefix}{u}{sep}{v}{end}``
    for each target v, ascending.

    Every member of a class shares the class's target list, so each
    target's string is built once per class.  Undirected edges are
    written once, from their smaller end.
    """
    strs = [[str(v) for v in arr.tolist()] for arr in G.class_targets]
    for u, c in enumerate(G.vertex_class.tolist()):
        targets = strs[c]
        if not G.directed:
            targets = targets[np.searchsorted(G.class_targets[c], u, side="right") :]
        if targets:
            head = f"{prefix}{u}{sep}"
            yield head + (end + head).join(targets) + end


def edge_list_chunks(G: RelationGraph):
    """The edge list as text chunks: the header line, then the edges of one
    source vertex per chunk."""
    yield (
        f"graph kind={G.kind} "
        + field_tokens(G.n, G.field, G.directed)
        + f" vertices={G.vertex_count} edges={G.edge_count()}\n"
    )
    yield from _edge_chunks(G, "", " ", "\n")


def render_edge_list(G: RelationGraph) -> str:
    return "".join(edge_list_chunks(G))


def parse_edge_list(text: str):
    lines = _lines_of(text, "edge list")
    head = lines[0].split()
    if head[0] != "graph":
        raise ValueError("not an edge list file")
    vals = _parse_tokens(head[1:])
    n, F, directed = parse_field_tokens(head[1:])
    edges = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    meta = {
        "kind": vals["kind"],
        "n": n,
        "field": F,
        "directed": directed,
        "vertices": int(vals["vertices"]),
        "edges": int(vals["edges"]),
    }
    if len(edges) != meta["edges"]:
        raise ValueError(f"edge count {len(edges)} does not match header")
    return meta, edges


def dot_chunks(G: RelationGraph):
    """The DOT text as chunks: one per vertex label, then the edges of one
    source vertex per chunk."""
    arrow = "->" if G.directed else "--"
    yield f"{'digraph' if G.directed else 'graph'} lirg {{\n"
    rank = G.class_rank
    for v, c in enumerate(G.vertex_class.tolist()):
        yield f'  v{v} [label="v{v}:r{rank[c]}"];\n'
    yield from _edge_chunks(G, "  v", f" {arrow} v", ";\n")
    yield "}\n"


def render_dot(G: RelationGraph) -> str:
    return "".join(dot_chunks(G))


def graph_chunks(G: RelationGraph, fmt: str):
    """Text chunks of G in ``fmt`` ('edges' or 'dot'); an unknown format
    raises here, before any chunk is produced."""
    if fmt == "edges":
        return edge_list_chunks(G)
    if fmt == "dot":
        return dot_chunks(G)
    raise ValueError(f"unknown graph format {fmt!r}")


def render_graph(G: RelationGraph, fmt: str) -> str:
    return "".join(graph_chunks(G, fmt))


# -- matrices ---------------------------------------------------------------


def matrix_block(A) -> str:
    """n on one line, then n rows of element codes."""
    n = len(A)
    lines = [str(n)]
    for row in A:
        lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines)


def parse_matrix_block(lines, start: int):
    n = int(lines[start])
    rows = []
    for i in range(n):
        rows.append(tuple(int(c) for c in lines[start + 1 + i].split()))
        if len(rows[-1]) != n:
            raise ValueError("matrix row has wrong length")
    return tuple(rows), start + 1 + n


# -- permutations -----------------------------------------------------------


def render_permutation(n: int, F: Field, perm) -> str:
    lines = ["perm " + field_tokens(n, F, True)]
    for v, image in enumerate(perm):
        lines.append(f"{v} {int(image)}")
    return "\n".join(lines) + "\n"


def parse_permutation(text: str, ring=None):
    """(n, field, perm) from a permutation file; ``ring = (n, F)``, when
    given, must match the header (see ``parse_field_tokens``)."""
    lines = _lines_of(text, "permutation")
    head = lines[0].split()
    if head[0] != "perm":
        raise ValueError("not a permutation file")
    n, F, directed = parse_field_tokens(head[1:], ring)
    count = len(lines) - 1
    # q >= 2, so q^(n^2) > count once n^2 exceeds count's bit length; the
    # header alone never sizes a power or an array beyond the file read.
    if n * n > count.bit_length() or F.q ** (n * n) != count:
        raise ValueError(f"expected {F.q}^{n * n} mapping lines, got {count}")
    perm = np.empty(count, dtype=np.int64)
    for idx, line in enumerate(lines[1:]):
        v, image = line.split()
        if int(v) != idx:
            raise ValueError(f"mapping lines out of order at {v}")
        perm[idx] = int(image)
    return n, F, perm


# -- decompositions ----------------------------------------------------------


def _sigma_cycles(G: RelationGraph, sigma: Automorphism):
    """Per-class cycle lists; classes with trivial action are omitted.

    Cycles start at their smallest vertex and are sorted by it.
    """
    out = []
    for c in range(G.class_count):
        verts = [int(v) for v in G.class_vertices[c]]
        seen = set()
        cycles = []
        for v in verts:
            if v in seen or int(sigma.perm[v]) == v:
                continue
            cycle = [v]
            seen.add(v)
            w = int(sigma.perm[v])
            while w != v:
                cycle.append(w)
                seen.add(w)
                w = int(sigma.perm[w])
            cycles.append(cycle)
        if cycles:
            out.append((c, sorted(cycles)))
    return out


def render_decomposition(G: RelationGraph, dec: Decomposition) -> str:
    lines = ["decomposition " + field_tokens(G.n, G.field)]
    lines.append("P")
    lines.append(matrix_block(dec.P))
    lines.append(f"t {dec.t}")
    lines.append("sigma")
    for c, cycles in _sigma_cycles(G, dec.sigma):
        ideal = G.class_ideals[c]
        basis = ";".join(",".join(str(x) for x in row) for row in ideal.basis)
        cyc = "".join("(" + " ".join(str(v) for v in cy) + ")" for cy in cycles)
        lines.append(f"class rank={ideal.rank} basis={basis} cycles={cyc}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_decomposition(G: RelationGraph, text: str) -> Decomposition:
    lines = _lines_of(text, "decomposition")
    head = lines[0].split()
    if head[0] != "decomposition":
        raise ValueError("not a decomposition file")
    parse_field_tokens(head[1:], (G.n, G.field))
    if len(lines) < 3 or lines[1] != "P":
        raise ValueError("missing P block")
    try:
        P, pos = parse_matrix_block(lines, 2)
    except IndexError as exc:
        raise ValueError("truncated P block") from exc
    if len(P) != G.n:
        raise ValueError(f"P block is {len(P)}x{len(P)}, expected {G.n}x{G.n}")
    if pos >= len(lines):
        raise ValueError("truncated decomposition file")
    if not lines[pos].startswith("t "):
        raise ValueError("missing t line")
    t = int(lines[pos][2:])
    pos += 1
    if pos >= len(lines) or lines[pos] != "sigma":
        raise ValueError("missing sigma block")
    pos += 1
    perm = np.arange(G.vertex_count, dtype=np.int64)
    ideal_index = {ideal: i for i, ideal in enumerate(G.class_ideals)}
    verts = array("q")
    while True:
        if pos >= len(lines):
            raise ValueError("decomposition file missing end marker")
        if lines[pos] == "end":
            break
        head_text, _, cyc_text = lines[pos].partition(" cycles=")
        if not cyc_text:
            raise ValueError(f"malformed sigma line: {lines[pos]!r}")
        vals = _parse_tokens(head_text.split()[1:])
        basis = tuple(
            tuple(int(x) for x in row.split(","))
            for row in vals["basis"].split(";")
            if row
        )
        ideal = LeftIdeal(G.n, basis)
        if ideal not in ideal_index:
            raise ValueError(f"unknown ideal class in sigma block: {ideal}")
        cycles = [[int(x) for x in c.split()] for c in cyc_text.strip("()").split(")(")]
        flat = [v for cycle in cycles for v in cycle]
        # Range first: the class gather would wrap -1 and raise on N.
        bad = min(flat, default=0) < 0 or max(flat, default=0) >= G.vertex_count
        if bad or (G.vertex_class[flat] != ideal_index[ideal]).any():
            raise ValueError("cycle leaves its ideal class")
        perm[flat] = [w for cycle in cycles for w in cycle[1:] + cycle[:1]]
        verts.extend(flat)
        pos += 1
    counts = np.bincount(np.frombuffer(verts, dtype=np.int64), minlength=G.vertex_count)
    if counts.max() > 1:
        raise ValueError(f"vertex {int(counts.argmax())} appears twice in the sigma cycles")
    sigma = Automorphism(G.n, G.field, perm)
    return Decomposition(P=P, t=t, sigma=sigma)
