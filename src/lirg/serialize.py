"""Deterministic text formats: graphs, permutations, decompositions.

Every header carries the field spec as p, m and the modulus coefficients
low-to-high, so any consumer can reconstruct the exact arithmetic.  All
writers emit byte-identical output for identical inputs.  Graphs stream
out as text chunks, one source vertex per chunk, and are not read back;
permutation and decomposition files round-trip through the parsers here,
which check each header against the requested ring.
"""

import io
import re
from array import array

import numpy as np

from lirg.aut import Automorphism, Decomposition
from lirg.field import Field
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


def parse_field_tokens(parts, ring):
    """Check header tokens against ``ring = (n, F)``: the header's n, p, m
    and modulus must equal the ring's, compared as integers, so an
    untrusted header never builds a field."""
    vals = _parse_tokens(parts)
    try:
        n, p, m = (int(vals[key]) for key in ("n", "p", "m"))
        modulus = tuple(int(c) for c in vals["modulus"].split(","))
    except KeyError as exc:
        raise ValueError(f"header has no {exc.args[0]}= token") from exc
    ring_n, F = ring
    if (n, p, m, modulus) != (ring_n, F.p, F.m, F.modulus):
        raise ValueError(
            "file header does not match the requested ring " + field_tokens(ring_n, F)
        )


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


def graph_chunks(G: RelationGraph, fmt: str):
    """Text chunks of G in ``fmt`` ('edges' or 'dot'); an unknown format
    raises here, before any chunk is produced."""
    if fmt == "edges":
        return edge_list_chunks(G)
    if fmt == "dot":
        return dot_chunks(G)
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

# Rows per block when rendering a permutation: block buffers stay ~1 MB.
_RENDER_ROWS = 1 << 16


def _digit_table(N: int):
    """The ASCII decimal digits of 0..N-1, right-aligned in an (N, D) uint8
    matrix, and the (N, D) mask that keeps all but their leading zeros."""
    width = len(str(N - 1))
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.empty((N, width), dtype=np.uint8)
    kept = np.ones((N, width), dtype=bool)
    for j in range(width):
        # Column j counts 0..9 over and over, each digit held for `run`
        # numbers; below `run`, it and every column left of it are zeros.
        run = 10 ** (width - 1 - j)
        cycle = np.repeat(ascii[: -(-N // run)], run)
        digits[:, j] = np.tile(cycle, -(-N // len(cycle)))[:N]
        if j < width - 1:
            kept[:run, j] = False
    return digits, kept


def render_permutation(n: int, F: Field, perm) -> str:
    perm = np.asarray(perm)
    N = len(perm)
    if perm.min() < 0 or perm.max() >= N:
        raise ValueError(f"permutation image out of range [0, {N})")
    digits, kept = _digit_table(N)
    width = digits.shape[1]
    # One row per line: "{v} {image}\n" with v and image zero-padded,
    # compressed by the mask that drops the padding.
    chars = np.empty((min(N, _RENDER_ROWS), 2 * width + 2), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[:, width], chars[:, -1] = ord(" "), ord("\n")
    text = bytearray(("perm " + field_tokens(n, F, True) + "\n").encode())
    for lo in range(0, N, _RENDER_ROWS):
        hi = min(lo + _RENDER_ROWS, N)
        rows, image = hi - lo, perm[lo:hi]
        chars[:rows, :width], keep[:rows, :width] = digits[lo:hi], kept[lo:hi]
        chars[:rows, width + 1 : -1] = np.take(digits, image, axis=0)
        keep[:rows, width + 1 : -1] = np.take(kept, image, axis=0)
        text += chars[:rows][keep[:rows]].data
    return text.decode("ascii")


def _bad_mapping_line(body: str) -> str:
    """The refusal message naming the first line of body that is not two
    integers within int64."""
    for number, line in enumerate(body.split("\n"), 1):
        fields = line.split()
        if len(fields) != 2 or not all(
            re.fullmatch(r"[+-]?[0-9]+", f) and -(2**63) <= int(f) < 2**63 for f in fields
        ):
            return f"mapping line {number} is not two integers: {line[:60]!r}"
    return "mapping lines are not pairs of integers"


def parse_permutation(text: str, ring):
    """The permutation of a file whose header matches ``ring = (n, F)``
    (see ``parse_field_tokens``).

    Each mapping line holds two integers separated by any whitespace; a
    line with any other number of fields is refused.
    """
    header, newline, body = text.strip("\n").partition("\n")
    if not header:
        raise ValueError("empty permutation file")
    head = header.split()
    if head[:1] != ["perm"]:
        raise ValueError("not a permutation file")
    parse_field_tokens(head[1:], ring)
    n, F = ring
    count = body.count("\n") + 1 if newline else 0
    # q >= 2, so q^(n^2) > count once n^2 exceeds count's bit length; the
    # header alone never sizes a power or an array beyond the file read.
    if n * n > count.bit_length() or F.q ** (n * n) != count:
        raise ValueError(f"expected {F.q}^{n * n} mapping lines, got {count}")
    # A lone \r is whitespace inside a line here, but a line break to loadtxt.
    if "\r" in body:
        body = body.replace("\r", " ")
    try:
        # loadtxt skips blank lines and refuses a change in field count; the
        # shape check then refuses blank lines and a uniform wrong count.
        pairs = None if body.isspace() else np.loadtxt(
            io.BytesIO(body.encode()), dtype=np.int64, comments=None, ndmin=2, encoding="utf-8"
        )
    except ValueError:
        pairs = None
    if pairs is None or pairs.shape != (count, 2):
        raise ValueError(_bad_mapping_line(body))
    disorder = np.flatnonzero(pairs[:, 0] != np.arange(count))
    if disorder.size:
        raise ValueError(f"mapping lines out of order at {pairs[disorder[0], 0]}")
    return np.ascontiguousarray(pairs[:, 1])


# -- decompositions ----------------------------------------------------------


def _sigma_cycles(G: RelationGraph, sigma: Automorphism):
    """(class, vertices, ends) per class with nontrivial action, ascending by
    class: the class's cycles laid end to end in ``vertices``, cycle k ending
    before ``ends[k]``.

    Each cycle starts at its smallest vertex and the cycles ascend by it,
    because they are traced from the moved vertices in ascending order.
    """
    # memoryviews hand out Python ints one at a time and array("q") stores
    # them unboxed: no list of N int objects is ever held.
    succ = memoryview(sigma.perm)
    moved = np.flatnonzero(sigma.perm != np.arange(G.vertex_count))
    seen = bytearray(G.vertex_count)
    walks = {}
    for v, c in zip(memoryview(moved), memoryview(G.vertex_class[moved])):
        if seen[v]:
            continue
        verts, ends = walks.setdefault(c, (array("q"), []))
        while not seen[v]:
            seen[v] = 1
            verts.append(v)
            v = succ[v]
        ends.append(len(verts))
    return [
        (c, np.frombuffer(verts, dtype=np.int64), np.array(ends))
        for c, (verts, ends) in sorted(walks.items())
    ]


def _cycle_text(digits, kept, verts, ends) -> str:
    """'(a b c)(d e)' for cycles laid end to end, from ``_digit_table``."""
    width = digits.shape[1]
    # One row per vertex: "(" or " ", the zero-padded number, then ")"
    # kept only at a cycle's end.
    chars = np.empty((len(verts), width + 2), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[:, 0], chars[:, -1] = ord(" "), ord(")")
    chars[np.r_[0, ends[:-1]], 0] = ord("(")
    chars[:, 1:-1] = np.take(digits, verts, axis=0)
    keep[:, 1:-1] = np.take(kept, verts, axis=0)
    keep[:, -1] = False
    keep[ends - 1, -1] = True
    return chars[keep].tobytes().decode("ascii")


def render_decomposition(G: RelationGraph, dec: Decomposition) -> str:
    lines = ["decomposition " + field_tokens(G.n, G.field)]
    lines.append("P")
    lines.append(matrix_block(dec.P))
    lines.append(f"t {dec.t}")
    lines.append("sigma")
    digits, kept = _digit_table(G.vertex_count)
    for c, verts, ends in _sigma_cycles(G, dec.sigma):
        ideal = G.class_ideals[c]
        basis = ";".join(",".join(str(x) for x in row) for row in ideal.basis)
        cyc = _cycle_text(digits, kept, verts, ends)
        lines.append(f"class rank={ideal.rank} basis={basis} cycles={cyc}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# Numbers per loadtxt row when parsing sigma cycles.
_CYCLE_ROW = 1024
# The ASCII characters that str.split() splits on.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _parse_cycles(text: str):
    """(vertices, ends) from '(a b c)(d e)', as ``_sigma_cycles`` lays them
    out; cycles are split at ')(' and their numbers at any whitespace."""
    body = text.strip("()")
    if not body.isascii():
        body = " ".join(body.split())  # Unicode whitespace to spaces
    chars = np.frombuffer(body.encode(), dtype=np.uint8).copy()
    breaks = np.flatnonzero((chars[:-1] == ord(")")) & (chars[1:] == ord("(")))
    chars[breaks] = chars[breaks + 1] = ord(" ")
    space = _SPACE[chars]
    chars[space] = ord(" ")  # a lone \r would end a line for loadtxt
    starts = np.flatnonzero(~space & np.r_[True, space[:-1]])
    ends = np.r_[np.searchsorted(starts, breaks), len(starts)]
    ends = np.unique(ends[ends > 0])  # empty cycles "()" hold nothing
    if not len(starts):
        return np.empty(0, dtype=np.int64), ends
    # loadtxt holds ~64 bytes per field of a row, so the numbers go to it in
    # rows of _CYCLE_ROW, the last row padded with zeros.
    chars[starts[_CYCLE_ROW::_CYCLE_ROW] - 1] = ord("\n")
    pad = b" 0" * (-len(starts) % _CYCLE_ROW)
    verts = np.loadtxt(
        io.BytesIO(chars.tobytes() + pad), dtype=np.int64, comments=None, encoding="utf-8"
    )
    return verts.reshape(-1)[: len(starts)], ends


def parse_decomposition(G: RelationGraph, text: str) -> Decomposition:
    lines = _lines_of(text, "decomposition")
    head = lines[0].split()
    if head[:1] != ["decomposition"]:
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
    cycle_verts = []
    while True:
        if pos >= len(lines):
            raise ValueError("decomposition file missing end marker")
        if lines[pos] == "end":
            break
        head_text, _, cyc_text = lines[pos].partition(" cycles=")
        vals = _parse_tokens(head_text.split()[1:])
        if not cyc_text or "basis" not in vals:
            # Quote only the start: a sigma line can run to megabytes.
            raise ValueError(f"malformed sigma line: {lines[pos][:60]!r}")
        basis = tuple(
            tuple(int(x) for x in row.split(","))
            for row in vals["basis"].split(";")
            if row
        )
        ideal = LeftIdeal(G.n, basis)
        if ideal not in ideal_index:
            raise ValueError(f"unknown ideal class in sigma block: {ideal}")
        verts, ends = _parse_cycles(cyc_text)
        # Range first: the class gather would wrap -1 and raise on N.
        bad = len(verts) and (verts.min() < 0 or verts.max() >= G.vertex_count)
        if bad or (G.vertex_class[verts] != ideal_index[ideal]).any():
            raise ValueError("cycle leaves its ideal class")
        # Each vertex maps to the next one of its cycle, the last to the first.
        images = np.roll(verts, -1)
        images[ends - 1] = verts[np.r_[0, ends[:-1]]]
        perm[verts] = images
        cycle_verts.append(verts)
        pos += 1
    verts = np.concatenate([np.empty(0, dtype=np.int64), *cycle_verts])
    counts = np.bincount(verts, minlength=G.vertex_count)
    if counts.max() > 1:
        raise ValueError(f"vertex {int(counts.argmax())} appears twice in the sigma cycles")
    sigma = Automorphism(G.n, G.field, perm)
    return Decomposition(P=P, t=t, sigma=sigma)
