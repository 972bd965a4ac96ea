"""Round trips and determinism of the text formats."""

import functools
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from conftest import exported_edges, random_triple
from lirg import aut, serialize
from lirg.field import make_field
from lirg.graph import RelationGraph, build_full_graph, build_quotient_graph
from test_cli import GRAPH_SHA256
from test_graph import brute_edges, containment_by_row_reduction

F2 = make_field(2, 1)
F4 = make_field(2, 2)

# Brute-force edges of M_2(F_4): 256 vertices, about a second to compute.
brute_edges_gf4_n2 = functools.cache(lambda: brute_edges(F4, 2))


def dot_edges(G, directed):
    """The (u, v) edge lines of G's DOT stream, directed or not, in stream
    order."""
    lines = b"".join(serialize.dot_chunks(G, directed)).decode().splitlines()
    return [tuple(map(int, re.findall(r"v(\d+)", line))) for line in lines if " -" in line]


def test_field_tokens_roundtrip():
    tokens = serialize.field_tokens(3, F4, True).split()
    assert tokens[-1] == "directed=1"
    serialize.parse_field_tokens(tokens, (3, F4))
    F8, F8_other = make_field(2, 3), make_field(2, 3, (1, 1, 0, 1))
    for parts, ring in [(tokens, (2, F4)), (tokens, (3, F2)),
                        (serialize.field_tokens(3, F8).split(), (3, F8_other))]:
        with pytest.raises(ValueError, match="does not match the requested ring"):
            serialize.parse_field_tokens(parts, ring)


def test_edge_list_against_brute_force(graphs):
    G = graphs(2, 1, 2)
    header = b"".join(serialize.edge_list_chunks(G, True)).decode().split("\n")[0]
    assert header == (
        "graph kind=full n=2 p=2 m=1 modulus=0,1 directed=1 vertices=16 edges=69"
    )
    edges = exported_edges(G)
    assert len(edges) == 69
    assert edges == sorted(brute_edges(F2, 2))


def test_edge_list_chunks_one_source_each(graphs):
    for G, directed in ((graphs(2, 1, 2), True), (build_full_graph(F4, 2), False)):
        chunks = [bytes(chunk).decode() for chunk in serialize.edge_list_chunks(G, directed)]
        assert "".join(chunks) == b"".join(serialize.graph_chunks(G, "edges", directed)).decode()
        assert chunks[0].startswith("graph ") and chunks[0].count("\n") == 1
        sources = []
        for chunk in chunks[1:]:
            edges = [tuple(map(int, line.split())) for line in chunk.splitlines()]
            assert chunk.endswith("\n") and edges
            assert {u for u, _ in edges} == {edges[0][0]}
            sources.append(edges[0][0])
        assert sources == sorted(set(sources))
        brute = brute_edges(F2, 2) if directed else brute_edges_gf4_n2()
        assert sources == sorted({e[0] if directed else min(e) for e in brute})


@pytest.mark.parametrize("directed", [True, False])
def test_edge_stream_memory_follows_vertices_and_pairs(directed):
    # GF(3), n = 3: 19,683 vertices in 28 classes.  Templates are built as
    # sources need them and dropped after their last source of a name
    # width, so the whole stream is traced.  Measured: 1.8 MB directed, 3.3 MB undirected;
    # a str per (class, target) pair took 23.6 and 24.4 MB.
    G = build_full_graph(make_field(3, 1), 3)
    related = G.lt if directed else G.lt | G.lt.T
    pairs = int((related @ np.array(G.fiber_sizes)).sum())
    assert pairs == (344_162 if directed else 353_991)
    tracemalloc.start()
    try:
        for _ in serialize.edge_list_chunks(G, directed):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * G.vertex_count + 16 * pairs + 2**20


def test_edge_list_deterministic():
    a = b"".join(serialize.edge_list_chunks(build_full_graph(F2, 2), True))
    b = b"".join(serialize.edge_list_chunks(build_full_graph(F2, 2), True))
    assert a == b


def test_dot_output(graphs):
    G = graphs(2, 1, 2)
    dot = b"".join(serialize.dot_chunks(G, True)).decode()
    assert dot.startswith("digraph lirg {")
    assert 'v0 [label="v0:r0"];' in dot
    assert "v0 -> v1;" in dot
    dot_u = b"".join(serialize.dot_chunks(G, False)).decode()
    assert dot_u.startswith("graph lirg {") and "--" in dot_u


def test_dot_edges_against_brute_force():
    brute = brute_edges_gf4_n2()
    G = build_full_graph(F4, 2)
    assert dot_edges(G, True) == sorted(brute)
    assert dot_edges(G, False) == sorted({(min(e), max(e)) for e in brute})
    Q = build_quotient_graph(F2, 3)
    lt = containment_by_row_reduction(F2, Q.class_ideals)
    assert dot_edges(Q, True) == sorted(zip(*map(np.ndarray.tolist, np.nonzero(lt))))


# -- the str-join renderer, kept as a second oracle for the byte templates --


def str_vertex_names(G):
    return [str(v) for v in range(G.vertex_count)]


def str_class_targets(G, directed, names):
    """Per class, its sorted target names; for undirected graphs also cut:
    cut[u] counts the targets of u's class that are at most u."""
    cut = None if directed else [0] * G.vertex_count
    targets = []
    for c in range(G.class_count):
        related = G.lt[c] if directed else G.lt[c] | G.lt[:, c]
        members = np.flatnonzero(related[G.vertex_class])
        targets.append([names[v] for v in members.tolist()])
        if cut is not None:
            own = np.flatnonzero(G.vertex_class == c)
            for u, k in zip(own.tolist(), np.searchsorted(members, own, side="right").tolist()):
                cut[u] = k
    return targets, cut


def str_edge_chunks(G, directed, names, prefix, sep, end):
    targets, cut = str_class_targets(G, directed, names)
    for u, c in enumerate(G.vertex_class.tolist()):
        row = targets[c] if cut is None else targets[c][cut[u] :]
        if row:
            head = f"{prefix}{names[u]}{sep}"
            yield head + (end + head).join(row) + end


def str_edge_list_chunks(G, directed):
    yield (
        f"graph kind={G.kind} "
        + serialize.field_tokens(G.n, G.field, directed)
        + f" vertices={G.vertex_count} edges={G.edge_count()}\n"
    )
    yield from str_edge_chunks(G, directed, str_vertex_names(G), "", " ", "\n")


def str_dot_chunks(G, directed):
    arrow = "->" if directed else "--"
    yield f"{'digraph' if directed else 'graph'} lirg {{\n"
    names = str_vertex_names(G)
    for name, c in zip(names, G.vertex_class.tolist()):
        yield f'  v{name} [label="v{name}:r{G.class_rank[c]}"];\n'
    yield from str_edge_chunks(G, directed, names, "  v", f" {arrow} v", ";\n")
    yield "}\n"


def same_bytes(chunks, text_chunks):
    """Whether byte chunks and str chunks spell the same bytes, compared as
    both are made, so neither stream is held whole."""
    chunks, text_chunks = iter(chunks), iter(text_chunks)
    a = b = memoryview(b"")
    while True:
        if not a:
            a = next(chunks, None)
            a = None if a is None else memoryview(bytes(a))
        if not b:
            b = next(text_chunks, None)
            b = None if b is None else memoryview(b.encode())
        if a is None or b is None:
            return a is None and b is None
        k = min(len(a), len(b))
        if a[:k].tobytes() != b[:k].tobytes():
            return False
        a, b = a[k:], b[k:]


@pytest.mark.parametrize(
    "p, m, n, quotient",
    [(2, 1, 3, False), (3, 1, 2, False), (2, 2, 2, False), (3, 1, 3, False), (3, 1, 3, True)],
    ids=["GF2-n3", "GF3-n2", "GF4-n2", "GF3-n3", "GF3-n3-quotient"],
)
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_graph_bytes_match_str_renderer(graphs, p, m, n, quotient, directed):
    # A full graph is built once and rendered in both orientations; where
    # `build-graph` pins the bytes of a ring, format and orientation, the
    # stream matches that pin too.
    G = build_quotient_graph(make_field(p, m), n) if quotient else graphs(p, m, n)
    ring = f"--n {n} --p {p}" + (f" --m {m}" if m > 1 else "")
    for fmt, chunks, text_chunks in [
        ("edges", serialize.edge_list_chunks, str_edge_list_chunks),
        ("dot", serialize.dot_chunks, str_dot_chunks),
    ]:
        assert same_bytes(chunks(G, directed), text_chunks(G, directed))
        digest = GRAPH_SHA256.get((ring, fmt, "--directed" if directed else "--undirected"))
        if digest is not None and not quotient:
            assert hashlib.sha256(b"".join(chunks(G, directed))).hexdigest() == digest


def test_undirected_cut_on_name_width_boundary():
    # In the undirected GF(2), n = 2 graph, the targets of vertex 9's class
    # up to 9, and of 10's class up to 10, all have one digit and the next
    # target two: both chunks start on the first line of a template's
    # two-digit segment.
    G = build_full_graph(F2, 2)
    names = str_vertex_names(G)
    targets, cut = str_class_targets(G, False, names)
    on_boundary = [
        u
        for u, c in enumerate(G.vertex_class.tolist())
        if 0 < cut[u] < len(targets[c]) and len(targets[c][cut[u] - 1]) < len(targets[c][cut[u]])
    ]
    assert on_boundary == [9, 10]
    chunks = {int(bytes(chunk).split()[0]): bytes(chunk) for chunk in list(serialize.edge_list_chunks(G, False))[1:]}
    for u in on_boundary:
        assert chunks[u].decode() == "".join(f"{u} {v}\n" for v in targets[G.vertex_class[u]][cut[u] :])


def test_unknown_format(graphs):
    with pytest.raises(ValueError, match="unknown graph format"):
        serialize.graph_chunks(graphs(2, 1, 2), "csv", True)


def test_matrix_block_roundtrip():
    A = ((0, 1, 2), (3, 0, 1), (2, 2, 0))
    lines = iter(serialize.matrix_block(A).split("\n"))
    assert serialize.parse_matrix_block(lines) == A
    assert next(lines, None) is None


def test_permutation_roundtrip(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = random_triple(G, 5)
    text = b"".join(serialize.render_permutation(3, F2, f))
    perm = serialize.parse_permutation(text, (3, F2))
    assert np.array_equal(perm, f)
    assert b"".join(serialize.render_permutation(3, F2, perm)) == text


def _render_permutation_by_line(n, F, perm):
    """The per-line rendering that ``render_permutation`` must match byte for byte."""
    head = "perm " + serialize.field_tokens(n, F, True) + "\n"
    return (head + "".join(f"{v} {int(image)}\n" for v, image in enumerate(perm))).encode()


@pytest.mark.parametrize("n, p", [(1, 2), (1, 11), (1, 101), (1, 1009), (2, 3)])
def test_render_permutation_matches_per_line_rendering(n, p):
    # Vertex counts 2, 11, 101, 1009 and 81 put the last vertex one digit
    # past the widths of the others, or at the widest width.
    F = make_field(p, 1)
    N = p ** (n * n)
    rng = np.random.default_rng(N)
    for perm in (np.arange(N), rng.permutation(N), np.arange(N)[::-1]):
        text = b"".join(serialize.render_permutation(n, F, perm))
        assert text == _render_permutation_by_line(n, F, perm)
        assert np.array_equal(serialize.parse_permutation(text, (n, F)), perm)


def test_permutation_parse_errors():
    ring = (1, F2)
    with pytest.raises(ValueError, match="not a permutation"):
        serialize.parse_permutation(b"graph kind=full\n0 0\n", ring)
    head = ("perm " + serialize.field_tokens(1, F2, True)).encode()
    with pytest.raises(ValueError, match="mapping lines"):
        serialize.parse_permutation(head + b"\n0 0\n", ring)
    with pytest.raises(ValueError, match="out of order"):
        serialize.parse_permutation(head + b"\n1 1\n0 0\n", ring)
    # 2^36 slots from the header alone: refused before any allocation
    with pytest.raises(ValueError, match="mapping lines"):
        serialize.parse_permutation(b"perm n=6 p=2 m=1 modulus=0,1 directed=1\n0 0\n", (6, F2))
    with pytest.raises(ValueError, match="empty"):
        serialize.parse_permutation(b"", ring)
    with pytest.raises(ValueError, match="not a permutation"):
        serialize.parse_permutation(b"  \n0 0\n", ring)
    with pytest.raises(ValueError, match="no n= token"):
        serialize.parse_permutation(b"perm p=2 m=1 modulus=0,1\n0 0\n", ring)
    with pytest.raises(ValueError, match="does not match the requested ring"):
        serialize.parse_permutation(head + b"\n0 0\n1 1\n", (1, F4))


@pytest.mark.parametrize("p, m, n", [(2, 1, 1), (2, 1, 3), (3, 2, 2), (2, 2, 3)])
def test_rendered_length_is_exact(graphs, p, m, n):
    # N = 2, 512, 6,561 and 262,144: names of one and two four-digit limbs.
    G = graphs(p, m, n, cap=None)
    P, t, sigma, f = random_triple(G, 1)
    for blocks in (
        serialize.render_permutation(n, G.field, f),
        serialize.render_decomposition(G, aut.Decomposition(P, t, sigma)),
    ):
        assert len(blocks) == len(b"".join(blocks))


def _cycles_by_class(G, perm):
    """Oracle: per class, ascending, the cycles of perm that start (at their
    smallest vertex) in it, ascending by start."""
    seen, out = set(), {}
    for v in range(len(perm)):
        if v in seen or perm[v] == v:
            continue
        cycle, w = [v], int(perm[v])
        while w != v:
            cycle.append(w)
            w = int(perm[w])
        seen.update(cycle)
        out.setdefault(int(G.vertex_class[v]), []).append(cycle)
    return sorted(out.items())


@pytest.mark.parametrize("classes", [40, 256, 300])
def test_class_cycles_match_oracle(monkeypatch, classes):
    # Class indexes whose marks take one byte, two bytes because the class
    # count itself needs them (256), and two bytes (300); chunks of 5
    # vertices split cycles, and a class's cycles are read chunk by chunk.
    monkeypatch.setattr(serialize, "_RENDER_ROWS", 5)
    rng = np.random.default_rng(classes)
    vertex_class = rng.integers(0, classes, 3000).astype(np.min_scalar_type(classes - 1))
    perm = np.arange(3000)
    for c in range(classes):
        members = np.flatnonzero(vertex_class == c)
        perm[members] = rng.permutation(members) if c % 3 else members[::-1]
    fiber_sizes = tuple(np.bincount(vertex_class, minlength=classes).tolist())
    G = RelationGraph("full", 1, F2, tuple(range(classes)), fiber_sizes)
    G.vertex_class = vertex_class
    got = []
    for c, chunks in serialize._class_cycles(G, perm):
        cycles, closed = [], 0
        for verts, opens, closes in chunks:
            # A cycle closes where the next one opens or at the chunk's end.
            assert all(k in opens for k in closes if k < len(verts))
            assert all(k in closes for k in opens if k > 0)
            closed += len(closes)
            for i, v in enumerate(verts):
                if i in opens:
                    cycles.append([])
                cycles[-1].append(v)
        assert closed == len(cycles)
        got.append((c, cycles))
    assert got == _cycles_by_class(G, perm)


def test_truncated_decomposition_rejected(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = random_triple(G, 1)
    text = b"".join(serialize.render_decomposition(G, aut.decompose(G, f))).decode()
    lines = text.strip("\n").split("\n")
    with pytest.raises(ValueError):
        serialize.parse_decomposition(G, ("\n".join(lines[:2]) + "\n").encode())
    with pytest.raises(ValueError, match="end marker"):
        serialize.parse_decomposition(G, ("\n".join(lines[:-1]) + "\n").encode())
    t_line = next(i for i, line in enumerate(lines) if line.startswith("t "))
    with pytest.raises(ValueError, match="missing sigma block"):
        serialize.parse_decomposition(G, ("\n".join(lines[: t_line + 1]) + "\n").encode())
    lines[t_line] = "t "
    with pytest.raises(ValueError, match="invalid literal"):
        serialize.parse_decomposition(G, ("\n".join(lines) + "\n").encode())


def test_decomposition_roundtrip(graphs):
    G = graphs(2, 1, 3)
    for seed in (1, 4, 9):
        _, _, _, f = random_triple(G, seed)
        dec = aut.decompose(G, f.copy())
        text = b"".join(serialize.render_decomposition(G, dec))
        parsed = serialize.parse_decomposition(G, text)
        assert parsed.P == dec.P
        assert parsed.t == dec.t
        assert np.array_equal(parsed.sigma, dec.sigma)
        assert b"".join(serialize.render_decomposition(G, parsed)) == text
        assert np.array_equal(aut.recompose(G, parsed), f)


def test_decomposition_rejects_foreign_context(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = random_triple(G, 2)
    text = serialize.render_decomposition(G, aut.decompose(G, f))
    other = graphs(3, 1, 2)
    with pytest.raises(ValueError, match="does not match"):
        serialize.parse_decomposition(other, text)


# -- block-wise parsing -------------------------------------------------------


def _outcome(parse, data):
    """What a parser makes of data: its result, or its refusal message."""
    try:
        return parse(data)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 20])
def test_permutation_blocks_parse_as_one(monkeypatch, block):
    # Blocks of about `block` bytes, cut at line ends, give what one block
    # of the whole file gives: the same permutation or the same refusal.
    F = make_field(101, 1)
    perm = np.random.default_rng(101).permutation(101)
    text = b"".join(serialize.render_permutation(1, F, perm))
    lines = text.split(b"\n")
    late = list(lines)
    late[91] = b"x 1"
    blank = list(lines)
    blank[51] = b" \t"
    swapped = list(lines)
    swapped[81], swapped[82] = lines[82], lines[81]
    cases = {
        text: perm,
        text.replace(b"\n", b"\r\n"): perm,
        b"\n\t".join(lines[:-1]).replace(b" ", b"\t \t") + b"\n": perm,
        b"\n".join(late): "mapping line 91 is not two integers: 'x 1'",
        b"\n".join(blank): "mapping line 51 is not two integers: ' \\t'",
        b"\n".join(swapped): "mapping lines out of order at 81",
    }
    monkeypatch.setattr(serialize, "_PARSE_BYTES", block)
    for data, expected in cases.items():
        got = _outcome(lambda d: serialize.parse_permutation(d, (1, F)), data)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert np.array_equal(got, expected)


def _sigma_outcome(G, data):
    dec = _outcome(lambda d: serialize.parse_decomposition(G, d), data)
    return dec if isinstance(dec, str) else dec.sigma.tolist()


def test_decomposition_blocks_parse_as_one(graphs, monkeypatch):
    # Pieces of 1, 5 or 64 bytes give what one piece of the whole line
    # gives, for well-formed lines and refused ones alike; a line whose
    # spacing alone is changed, to Unicode whitespace too, gives the
    # unedited sigma.  A lone CR ends a line, so it is not spacing.
    G = graphs(2, 1, 3)
    f = random_triple(G, 3)[3]
    text = b"".join(serialize.render_decomposition(G, aut.decompose(G, f.copy())))
    sigma = aut.decompose(G, f).sigma.tolist()
    big = max(text.split(b"\n"), key=len)
    head, cycles = big.split(b"cycles=")
    numbers = cycles.replace(b"(", b" ").replace(b")", b" ").split()
    spacings = [
        lambda c: c,
        lambda c: c.replace(b" ", b"\t  "),
        *(
            lambda c, space=space: c.replace(b" ", space.encode(), 7)
            for space in ["\u2003", "\u00a0", "\u3000", "\u0085", "\u2028"]
        ),
    ]
    edits = [
        lambda c: c.replace(b" ", b"\r"),
        lambda c: c.replace(b")(", b")()("),
        lambda c: b"()" + c + b"()",
        lambda c: c.replace(b")(", b") ("),
        lambda c: c.replace(b" " + numbers[-3] + b" ", b" x" + numbers[-3] + b" "),
        lambda c: c.replace(b" " + numbers[9] + b" ", b" 99999999999999999999 "),
        lambda c: b"(" + c,
        lambda c: c.replace(b" " + numbers[10] + b" ", b" " + numbers[11] + b" "),
    ]
    for edit in spacings + edits:
        data = text.replace(big, head + b"cycles=" + edit(cycles))
        outcomes = set()
        for window in [1, 5, 64, 1 << 20]:
            monkeypatch.setattr(serialize, "_PARSE_BYTES", window)
            outcomes.add(repr(_sigma_outcome(G, data)))
        assert len(outcomes) == 1, outcomes
        if edit in spacings:
            assert outcomes == {repr(sigma)}
    assert _sigma_outcome(G, text) == sigma


@pytest.mark.parametrize("window", [1, 7, 1 << 20])
def test_line_ends_parse_alike(graphs, monkeypatch, window):
    # LF, CR LF and a lone CR end a line alike in both formats, also where
    # a block boundary falls between the CR and the LF.
    G = graphs(2, 1, 3)
    f = random_triple(G, 3)[3]
    dec = aut.decompose(G, f.copy())
    perm_text = b"".join(serialize.render_permutation(3, F2, f))
    dec_text = b"".join(serialize.render_decomposition(G, dec))
    monkeypatch.setattr(serialize, "_PARSE_BYTES", window)
    for end in [b"\n", b"\r\n", b"\r"]:
        perm = serialize.parse_permutation(perm_text.replace(b"\n", end), (3, F2))
        assert np.array_equal(perm, f)
        got = serialize.parse_decomposition(G, dec_text.replace(b"\n", end))
        assert (got.P, got.t) == (dec.P, dec.t) and np.array_equal(got.sigma, dec.sigma)


def test_text_layer_traced_peaks(graphs):
    # GF(4), n = 3 (262,144 vertices): each renderer, read to its end, holds
    # block buffers; each parser its result and block buffers.  Measured
    # peaks: render_permutation 1.2 MB, parse_permutation 2.6 MB (a 2 MB
    # result), render_decomposition 1.1 MB, parse_decomposition 3.5 MB (2 MB);
    # with whole texts held they were 4.9, 2.3, 5.2 and 4.9 MB.
    G = graphs(2, 2, 3, cap=262144)
    f = random_triple(G, 1)[3]
    dec = aut.decompose(G, f.copy())

    def peak_mb(fn, *args):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        try:
            result = fn(*args)
            return result, (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    def read(blocks):
        return sum(map(len, blocks))

    size, peak = peak_mb(lambda: read(serialize.render_permutation(3, F4, f)))
    assert peak < 1.6
    text = b"".join(serialize.render_permutation(3, F4, f))
    assert len(text) == size
    _, peak = peak_mb(serialize.parse_permutation, text, (3, F4))
    assert peak < 3.2
    size, peak = peak_mb(lambda: read(serialize.render_decomposition(G, dec)))
    assert peak < 1.5
    text = b"".join(serialize.render_decomposition(G, dec))
    assert len(text) == size
    _, peak = peak_mb(serialize.parse_decomposition, G, text)
    assert peak < 4.5


@pytest.mark.parametrize("limbs", [1, 2, 3, 5])
def test_decimal_digits_match_str(limbs):
    # Every group count, with values at each power of ten and its
    # neighbours, against str().
    top = min(10 ** (4 * limbs), 2**63)  # int64 vertex numbers need 5 at most
    edges = [p + d for p in (10**k for k in range(4 * limbs)) for d in (-1, 0, 1) if p + d < top]
    rng = np.random.default_rng(limbs)
    values = np.array(sorted({0, top - 1, *edges, *rng.integers(0, top, 200).tolist()}), dtype=np.int64)
    digits, keep = serialize._decimal(values, limbs)
    rows = [bytes(d[k]).decode() for d, k in zip(digits, keep)]
    assert rows == [str(v) for v in values.tolist()]
