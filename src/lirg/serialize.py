"""Deterministic text formats: graphs, permutations, decompositions.

Every header carries the field spec as p, m and the modulus coefficients
low-to-high, so any consumer can reconstruct the exact arithmetic.  All
writers emit byte-identical output for identical inputs; all machine
formats round-trip through the parsers here.
"""

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


def parse_field_tokens(parts):
    vals = _parse_tokens(parts)
    n = int(vals["n"])
    modulus = tuple(int(c) for c in vals["modulus"].split(","))
    F = make_field(int(vals["p"]), int(vals["m"]), modulus)
    directed = bool(int(vals["directed"])) if "directed" in vals else None
    return n, F, directed


# -- graphs -----------------------------------------------------------------


def edge_list_lines(G: RelationGraph):
    header = (
        f"graph kind={G.kind} "
        + field_tokens(G.n, G.field, G.directed)
        + f" vertices={G.vertex_count} edges={G.edge_count()}"
    )
    yield header
    for u, v in G.iter_edges():
        yield f"{u} {v}"


def render_edge_list(G: RelationGraph) -> str:
    return "\n".join(edge_list_lines(G)) + "\n"


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


def render_dot(G: RelationGraph) -> str:
    name = "digraph" if G.directed else "graph"
    arrow = "->" if G.directed else "--"
    lines = [f"{name} lirg {{"]
    for v in range(G.vertex_count):
        lines.append(f'  v{v} [label="v{v}:r{G.rank_of_vertex(v)}"];')
    for u, v in G.iter_edges():
        lines.append(f"  v{u} {arrow} v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_graph(G: RelationGraph, fmt: str) -> str:
    if fmt == "edges":
        return render_edge_list(G)
    if fmt == "dot":
        return render_dot(G)
    raise ValueError(f"unknown graph format {fmt!r}")


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


def parse_permutation(text: str):
    lines = _lines_of(text, "permutation")
    head = lines[0].split()
    if head[0] != "perm":
        raise ValueError("not a permutation file")
    n, F, directed = parse_field_tokens(head[1:])
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
    n, F, _ = parse_field_tokens(head[1:])
    if n != G.n or F != G.field:
        raise ValueError("decomposition file does not match the graph context")
    if len(lines) < 3 or lines[1] != "P":
        raise ValueError("missing P block")
    try:
        P, pos = parse_matrix_block(lines, 2)
    except IndexError as exc:
        raise ValueError("truncated P block") from exc
    if pos >= len(lines):
        raise ValueError("truncated decomposition file")
    if not lines[pos].startswith("t "):
        raise ValueError("missing t line")
    t = int(lines[pos].split()[1])
    pos += 1
    if lines[pos] != "sigma":
        raise ValueError("missing sigma block")
    pos += 1
    perm = np.arange(G.vertex_count, dtype=np.int64)
    ideal_index = {ideal: i for i, ideal in enumerate(G.class_ideals)}
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
        members = set(int(v) for v in G.class_vertices[ideal_index[ideal]])
        for chunk in cyc_text.strip("()").split(")("):
            cycle = [int(x) for x in chunk.split()]
            if set(cycle) - members:
                raise ValueError("cycle leaves its ideal class")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
        pos += 1
    sigma = Automorphism(G.n, G.field, perm)
    return Decomposition(P=P, t=t, sigma=sigma)
