"""Round trips and determinism of the text formats."""

import numpy as np
import pytest

from lirg import aut, serialize
from lirg.field import make_field
from lirg.graph import build_full_graph

F2 = make_field(2, 1)
F4 = make_field(2, 2)


def test_field_tokens_roundtrip():
    tokens = serialize.field_tokens(3, F4, True).split()
    n, F, directed = serialize.parse_field_tokens(tokens)
    assert (n, F, directed) == (3, F4, True)


def test_edge_list_roundtrip(graphs):
    G = graphs(2, 1, 2)
    text = serialize.render_edge_list(G)
    meta, edges = serialize.parse_edge_list(text)
    assert meta["kind"] == "full" and meta["vertices"] == 16
    assert meta["field"] == F2 and meta["directed"] is True
    assert len(edges) == 69
    assert edges == sorted(set(G.iter_edges()))


def test_edge_list_chunks_one_source_each(graphs):
    for G in (graphs(2, 1, 2), build_full_graph(F4, 2, directed=False)):
        chunks = list(serialize.edge_list_chunks(G))
        assert "".join(chunks) == serialize.render_edge_list(G)
        assert chunks[0].startswith("graph ") and chunks[0].count("\n") == 1
        sources = []
        for chunk in chunks[1:]:
            edges = [tuple(map(int, line.split())) for line in chunk.splitlines()]
            assert chunk.endswith("\n") and edges
            assert {u for u, _ in edges} == {edges[0][0]}
            sources.append(edges[0][0])
        assert sources == sorted(set(sources))
        assert sources == sorted({u for u, _ in G.iter_edges()})


def test_edge_list_deterministic():
    a = serialize.render_edge_list(build_full_graph(F2, 2))
    b = serialize.render_edge_list(build_full_graph(F2, 2))
    assert a == b


def test_dot_output(graphs):
    G = graphs(2, 1, 2)
    dot = serialize.render_dot(G)
    assert dot.startswith("digraph lirg {")
    assert 'v0 [label="v0:r0"];' in dot
    assert "v0 -> v1;" in dot
    und = build_full_graph(F2, 2, directed=False)
    dot_u = serialize.render_dot(und)
    assert dot_u.startswith("graph lirg {") and "--" in dot_u


def test_unknown_format(graphs):
    with pytest.raises(ValueError, match="unknown graph format"):
        serialize.render_graph(graphs(2, 1, 2), "csv")


def test_matrix_block_roundtrip():
    A = ((0, 1, 2), (3, 0, 1), (2, 2, 0))
    lines = serialize.matrix_block(A).split("\n")
    parsed, end = serialize.parse_matrix_block(lines, 0)
    assert parsed == A and end == len(lines)


def test_permutation_roundtrip(graphs):
    G = graphs(2, 1, 3)
    _, _, _, f = aut.random_triple(G, 5)
    text = serialize.render_permutation(3, F2, f.perm)
    n, F, perm = serialize.parse_permutation(text)
    assert (n, F) == (3, F2)
    assert np.array_equal(perm, f.perm)
    assert serialize.render_permutation(n, F, perm) == text


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
        assert np.array_equal(serialize.parse_permutation(text)[2], perm)


def test_permutation_parse_errors():
    with pytest.raises(ValueError, match="not a permutation"):
        serialize.parse_permutation("graph kind=full\n0 0\n")
    head = "perm " + serialize.field_tokens(1, F2, True)
    with pytest.raises(ValueError, match="mapping lines"):
        serialize.parse_permutation(head + "\n0 0\n")
    with pytest.raises(ValueError, match="out of order"):
        serialize.parse_permutation(head + "\n1 1\n0 0\n")
    # 2^36 slots from the header alone: refused before any allocation
    with pytest.raises(ValueError, match="mapping lines"):
        serialize.parse_permutation("perm n=6 p=2 m=1 modulus=0,1 directed=1\n0 0\n")
    with pytest.raises(ValueError, match="empty"):
        serialize.parse_permutation("")
    with pytest.raises(ValueError, match="not a permutation"):
        serialize.parse_permutation("  \n0 0\n")
    with pytest.raises(ValueError, match="no n= token"):
        serialize.parse_permutation("perm p=2 m=1 modulus=0,1\n0 0\n")
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
