"""Round trips and determinism of the text formats."""

import functools
import re

import numpy as np
import pytest

from conftest import exported_edges
from lirg import aut, serialize
from lirg.field import make_field
from lirg.graph import build_full_graph, build_quotient_graph
from test_graph import brute_edges, containment_by_row_reduction

F2 = make_field(2, 1)
F4 = make_field(2, 2)

# Brute-force edges of M_2(F_4): 256 vertices, about a second to compute.
brute_edges_gf4_n2 = functools.cache(lambda: brute_edges(F4, 2))


def dot_edges(G):
    """The (u, v) edge lines of G's DOT stream, in stream order."""
    lines = "".join(serialize.dot_chunks(G)).splitlines()
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
    header = "".join(serialize.edge_list_chunks(G)).split("\n")[0]
    assert header == (
        "graph kind=full n=2 p=2 m=1 modulus=0,1 directed=1 vertices=16 edges=69"
    )
    edges = exported_edges(G)
    assert len(edges) == 69
    assert edges == sorted(brute_edges(F2, 2))


def test_edge_list_chunks_one_source_each(graphs):
    for G in (graphs(2, 1, 2), build_full_graph(F4, 2, directed=False)):
        chunks = list(serialize.edge_list_chunks(G))
        assert "".join(chunks) == "".join(serialize.graph_chunks(G, "edges"))
        assert chunks[0].startswith("graph ") and chunks[0].count("\n") == 1
        sources = []
        for chunk in chunks[1:]:
            edges = [tuple(map(int, line.split())) for line in chunk.splitlines()]
            assert chunk.endswith("\n") and edges
            assert {u for u, _ in edges} == {edges[0][0]}
            sources.append(edges[0][0])
        assert sources == sorted(set(sources))
        brute = brute_edges(F2, 2) if G.directed else brute_edges_gf4_n2()
        assert sources == sorted({e[0] if G.directed else min(e) for e in brute})


def test_edge_list_deterministic():
    a = "".join(serialize.edge_list_chunks(build_full_graph(F2, 2)))
    b = "".join(serialize.edge_list_chunks(build_full_graph(F2, 2)))
    assert a == b


def test_dot_output(graphs):
    G = graphs(2, 1, 2)
    dot = "".join(serialize.dot_chunks(G))
    assert dot.startswith("digraph lirg {")
    assert 'v0 [label="v0:r0"];' in dot
    assert "v0 -> v1;" in dot
    und = build_full_graph(F2, 2, directed=False)
    dot_u = "".join(serialize.dot_chunks(und))
    assert dot_u.startswith("graph lirg {") and "--" in dot_u


def test_dot_edges_against_brute_force():
    brute = brute_edges_gf4_n2()
    G = build_full_graph(F4, 2)
    und = build_full_graph(F4, 2, directed=False)
    assert dot_edges(G) == sorted(brute)
    assert dot_edges(und) == sorted({(min(e), max(e)) for e in brute})
    Q = build_quotient_graph(F2, 3)
    lt = containment_by_row_reduction(F2, Q.class_ideals)
    assert dot_edges(Q) == sorted(zip(*map(np.ndarray.tolist, np.nonzero(lt))))


def test_unknown_format(graphs):
    with pytest.raises(ValueError, match="unknown graph format"):
        serialize.graph_chunks(graphs(2, 1, 2), "csv")


def test_matrix_block_roundtrip():
    A = ((0, 1, 2), (3, 0, 1), (2, 2, 0))
    lines = serialize.matrix_block(A).split("\n")
    parsed, end = serialize.parse_matrix_block(lines, 0)
    assert parsed == A and end == len(lines)


def test_permutation_roundtrip(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = aut.random_triple(G, 5)
    text = serialize.render_permutation(3, F2, f.perm)
    perm = serialize.parse_permutation(text, (3, F2))
    assert np.array_equal(perm, f.perm)
    assert serialize.render_permutation(3, F2, perm) == text


def _render_permutation_by_line(n, F, perm):
    """The per-line rendering that ``render_permutation`` must match byte for byte."""
    head = "perm " + serialize.field_tokens(n, F, True) + "\n"
    return head + "".join(f"{v} {int(image)}\n" for v, image in enumerate(perm))


@pytest.mark.parametrize("n, p", [(1, 2), (1, 11), (1, 101), (1, 1009), (2, 3)])
def test_render_permutation_matches_per_line_rendering(n, p):
    # Vertex counts 2, 11, 101, 1009 and 81 put the last vertex one digit
    # past the widths of the others, or at the widest width.
    F = make_field(p, 1)
    N = p ** (n * n)
    rng = np.random.default_rng(N)
    for perm in (np.arange(N), rng.permutation(N), np.arange(N)[::-1]):
        text = serialize.render_permutation(n, F, perm)
        assert text == _render_permutation_by_line(n, F, perm)
        assert np.array_equal(serialize.parse_permutation(text, (n, F)), perm)


def test_permutation_parse_errors():
    ring = (1, F2)
    with pytest.raises(ValueError, match="not a permutation"):
        serialize.parse_permutation("graph kind=full\n0 0\n", ring)
    head = "perm " + serialize.field_tokens(1, F2, True)
    with pytest.raises(ValueError, match="mapping lines"):
        serialize.parse_permutation(head + "\n0 0\n", ring)
    with pytest.raises(ValueError, match="out of order"):
        serialize.parse_permutation(head + "\n1 1\n0 0\n", ring)
    # 2^36 slots from the header alone: refused before any allocation
    with pytest.raises(ValueError, match="mapping lines"):
        serialize.parse_permutation("perm n=6 p=2 m=1 modulus=0,1 directed=1\n0 0\n", (6, F2))
    with pytest.raises(ValueError, match="empty"):
        serialize.parse_permutation("", ring)
    with pytest.raises(ValueError, match="not a permutation"):
        serialize.parse_permutation("  \n0 0\n", ring)
    with pytest.raises(ValueError, match="no n= token"):
        serialize.parse_permutation("perm p=2 m=1 modulus=0,1\n0 0\n", ring)
    with pytest.raises(ValueError, match="does not match the requested ring"):
        serialize.parse_permutation(head + "\n0 0\n1 1\n", (1, F4))


def test_truncated_decomposition_rejected(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = aut.random_triple(G, 1)
    text = serialize.render_decomposition(G, aut.decompose(G, f))
    lines = text.strip("\n").split("\n")
    with pytest.raises(ValueError):
        serialize.parse_decomposition(G, "\n".join(lines[:2]) + "\n")
    with pytest.raises(ValueError, match="end marker"):
        serialize.parse_decomposition(G, "\n".join(lines[:-1]) + "\n")
    t_line = next(i for i, line in enumerate(lines) if line.startswith("t "))
    with pytest.raises(ValueError, match="missing sigma block"):
        serialize.parse_decomposition(G, "\n".join(lines[: t_line + 1]) + "\n")
    lines[t_line] = "t "
    with pytest.raises(ValueError, match="invalid literal"):
        serialize.parse_decomposition(G, "\n".join(lines) + "\n")


def test_decomposition_roundtrip(graphs):
    G = graphs(2, 1, 3)
    for seed in (1, 4, 9):
        _, _, _, f = aut.random_triple(G, seed)
        dec = aut.decompose(G, f)
        text = serialize.render_decomposition(G, dec)
        parsed = serialize.parse_decomposition(G, text)
        assert parsed.P == dec.P
        assert parsed.t == dec.t
        assert parsed.sigma == dec.sigma
        assert serialize.render_decomposition(G, parsed) == text
        assert aut.recompose(G, parsed) == f


def test_decomposition_rejects_foreign_context(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = aut.random_triple(G, 2)
    text = serialize.render_decomposition(G, aut.decompose(G, f))
    other = graphs(3, 1, 2)
    with pytest.raises(ValueError, match="does not match"):
        serialize.parse_decomposition(other, text)
