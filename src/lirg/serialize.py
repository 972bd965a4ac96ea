"""Deterministic text formats: graphs, permutations, decompositions.

Every header carries the field spec as p, m and the modulus coefficients
low-to-high, so any consumer can reconstruct the exact arithmetic.  All
writers emit byte-identical output for identical inputs.  Graphs stream
out as text chunks, one source vertex per chunk, and are not read back;
permutation and decomposition files round-trip through the parsers here,
which check each header against the requested ring.

Permutation and decomposition files go in and out as ASCII bytes, and each
is held once.  A renderer writes blocks of _RENDER_ROWS rows into one
bytearray of the largest size the text can have, then cuts it to length.
A parser reads a ``bytes`` object in place: it finds lines one at a time,
hands loadtxt blocks of about _PARSE_BYTES (whole mapping lines, or whole
rows of cycle numbers) and writes each block's numbers into one int64
array, so no per-vertex Python object and no second copy of the text is
made.  The block sizes change nothing but memory: every result and every
refusal message is the one a single block would give.
"""

import collections
import functools
import io
import itertools
import re
from array import array

import numpy as np

from lirg.aut import Automorphism, Decomposition
from lirg.field import Field
from lirg.graph import RelationGraph
from lirg.ideal import LeftIdeal


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


def _vertex_names(G: RelationGraph):
    """The decimal name of every vertex, made class by class.  A target list
    is whole classes' members, so made this way their names lie together in
    memory and are read in order; with names made in vertex order, streaming
    the edges of ``--n 4 --p 2`` took 10-25% more CPU time."""
    names = [None] * G.vertex_count
    for members in G.class_vertices:
        for v in memoryview(members):
            names[v] = str(v)
    return names


def _class_targets(G: RelationGraph, names):
    """Per class, its sorted edge targets as references into ``names``: the
    vertices of the classes in its row of ``lt`` when directed, in its row
    or column when undirected.  Classes related to the same classes share
    one list (every rank n-1 class of a digraph has only the top class
    above it), and each list's integer targets are dropped once it is
    built.  Undirected graphs also get ``cut``: cut[u] counts the targets
    of u's class that are at most u, read through a memoryview of the
    narrowest unsigned type."""
    N = G.vertex_count
    cut = None if G.directed else np.empty(N, dtype=np.min_scalar_type(N - 1))
    shared = {}  # one list per distinct set of related classes
    targets = []
    for c in range(G.class_count):
        rel = np.flatnonzero(G.lt[c] if G.directed else G.lt[c] | G.lt[:, c])
        key = rel.tobytes()
        fresh = key not in shared
        if fresh or cut is not None:
            members = G._members(rel)
        if fresh:
            shared[key] = [names[v] for v in members.tolist()]
        if cut is not None:
            own = G.class_vertices[c]
            cut[own] = np.searchsorted(members, own, side="right")
        targets.append(shared[key])
    return targets, cut if cut is None else memoryview(cut)


def _edge_chunks(G: RelationGraph, names, prefix: str, sep: str, end: str):
    """One chunk per source vertex u with edges: ``{prefix}{u}{sep}{v}{end}``
    for each target v, ascending.

    ``names[v]`` is the decimal name of vertex v, built once per vertex, and
    every member of a class shares the class's list of target names (see
    ``_class_targets``), so memory follows the vertex count plus one pointer
    per entry of each distinct target list.  Undirected edges are written
    once, from their smaller end.
    """
    targets, cut = _class_targets(G, names)
    for u, c in enumerate(G.vertex_class.tolist()):
        row = targets[c] if cut is None else targets[c][cut[u] :]
        if row:
            head = f"{prefix}{names[u]}{sep}"
            yield head + (end + head).join(row) + end


def edge_list_chunks(G: RelationGraph):
    """The edge list as text chunks: the header line, then the edges of one
    source vertex per chunk."""
    yield (
        f"graph kind={G.kind} "
        + field_tokens(G.n, G.field, G.directed)
        + f" vertices={G.vertex_count} edges={G.edge_count()}\n"
    )
    yield from _edge_chunks(G, _vertex_names(G), "", " ", "\n")


def dot_chunks(G: RelationGraph):
    """The DOT text as chunks: one per vertex label, then the edges of one
    source vertex per chunk; both take the vertex names from one table."""
    arrow = "->" if G.directed else "--"
    yield f"{'digraph' if G.directed else 'graph'} lirg {{\n"
    names = _vertex_names(G)
    rank = G.class_rank
    for name, c in zip(names, G.vertex_class.tolist()):
        yield f'  v{name} [label="v{name}:r{rank[c]}"];\n'
    yield from _edge_chunks(G, names, "  v", f" {arrow} v", ";\n")
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


def parse_matrix_block(lines):
    """The matrix of ``matrix_block`` from an iterator of text lines;
    StopIteration if they end first."""
    n = int(next(lines))
    rows = []
    for _ in range(n):
        rows.append(tuple(int(c) for c in next(lines).split()))
        if len(rows[-1]) != n:
            raise ValueError("matrix row has wrong length")
    return tuple(rows)


# -- bytes ------------------------------------------------------------------

# Rows per block when rendering: block buffers stay ~300 KB.
_RENDER_ROWS = 1 << 14
# Bytes per block when parsing, before the cut at the next line end.
_PARSE_BYTES = 1 << 16


@functools.cache
def _quad_tables():
    """The ASCII digits of 0..9999, zero-padded to four, as uint32 words;
    and two keep masks (one byte per digit): from the first nonzero digit,
    and the same but keeping the last digit of 0.  Built on first use, so
    that commands which render no permutation do not pay for them."""
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
    lead = np.maximum.accumulate(digits != 0, axis=1).view(np.uint8)
    last = lead.copy()
    last[0, 3] = 1
    return tuple(a.view(np.uint32).ravel() for a in (digits + ord("0"), lead, last))


_QUAD_ALL = np.uint32(0x01010101)


def _limbs(N: int) -> int:
    """Four-digit groups needed for the numbers 0..N-1."""
    return -(-len(str(N - 1)) // 4)


def _decimal(values, limbs: int):
    """The ASCII decimal digits of non-negative ``values`` below
    10^(4 limbs): an (r, 4 limbs) uint8 matrix, zero-padded on the left, and
    the mask that keeps all but the leading zeros."""
    groups = []
    for _ in range(limbs - 1):
        values, low = np.divmod(values, 10000)
        groups.append(low)
    groups.append(values)
    quad_digits, quad_lead, quad_last = _quad_tables()
    digits = np.empty((len(values), limbs), dtype=np.uint32)
    keep = np.empty_like(digits)
    started = np.zeros(len(values), dtype=bool)  # a nonzero group to the left
    for k, group in enumerate(reversed(groups)):
        digits[:, k] = quad_digits[group]
        kept = (quad_last if k == limbs - 1 else quad_lead)[group]
        keep[:, k] = np.where(started, _QUAD_ALL, kept)
        started |= group > 0
    return digits.view(np.uint8), keep.view(bool)


def _stripped(data: bytes):
    """The bounds of data without its leading and trailing newlines."""
    lo, hi = 0, len(data)
    while lo < hi and data[lo] == 10:
        lo += 1
    while hi > lo and data[hi - 1] == 10:
        hi -= 1
    return lo, hi


def _line_spans(data: bytes, lo: int, hi: int, size: int):
    """(start, end) of consecutive blocks of whole lines of data[lo:hi], found
    as they are read: each runs to the first line end at least ``size``
    bytes on, so size 0 gives single lines.  The newline at each end is in
    neither block."""
    while lo < hi:
        end = data.find(b"\n", min(lo + size, hi), hi)
        end = hi if end < 0 else end
        yield lo, end
        lo = end + 1


# -- permutations -----------------------------------------------------------


def _joined(size: int, parts) -> bytearray:
    """The parts (bytes or uint8 arrays) end to end, written into one buffer
    of ``size`` bytes, at least their total, that is then cut to length."""
    text = bytearray(size)
    view = np.frombuffer(text, dtype=np.uint8)
    pos = 0
    for part in parts:
        part = np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part
        view[pos : pos + len(part)] = part
        pos += len(part)
    del view  # a buffer with a view on it cannot shrink
    del text[pos:]
    return text


def render_permutation(n: int, F: Field, perm) -> bytearray:
    """The permutation file of ``perm``, held once: blocks of _RENDER_ROWS
    lines are written into one buffer of the largest possible size."""
    perm = np.asarray(perm)
    N = len(perm)
    if perm.min() < 0 or perm.max() >= N:
        raise ValueError(f"permutation image out of range [0, {N})")
    head = ("perm " + field_tokens(n, F, True) + "\n").encode()
    limbs = _limbs(N)
    width = 4 * limbs

    def blocks():
        yield head
        for lo in range(0, N, _RENDER_ROWS):
            hi = min(lo + _RENDER_ROWS, N)
            # One row per line: "{v} {image}\n" with v and image zero-padded,
            # compressed by the mask that drops the padding.
            chars = np.empty((hi - lo, 2 * width + 2), dtype=np.uint8)
            keep = np.ones(chars.shape, dtype=bool)
            chars[:, width], chars[:, -1] = ord(" "), ord("\n")
            chars[:, :width], keep[:, :width] = _decimal(np.arange(lo, hi), limbs)
            chars[:, width + 1 : -1], keep[:, width + 1 : -1] = _decimal(perm[lo:hi], limbs)
            yield chars[keep]

    # A line holds two numbers below N, a space and a newline.
    return _joined(len(head) + N * (2 * len(str(N - 1)) + 2), blocks())


def _mapping_text(data: bytes, lo: int, hi: int) -> bytes:
    # A lone \r is whitespace inside a line here, but a line break to loadtxt.
    block = data[lo:hi]
    return block.replace(b"\r", b" ") if b"\r" in block else block


def _bad_mapping_line(data: bytes, lo: int, hi: int) -> str:
    """The refusal message naming the first line of data[lo:hi] that is not
    two integers within int64."""
    number = 0
    for start, end in _line_spans(data, lo, hi, _PARSE_BYTES):
        for line in _mapping_text(data, start, end).decode().split("\n"):
            number += 1
            fields = line.split()
            if len(fields) != 2 or not all(
                re.fullmatch(r"[+-]?[0-9]+", f) and -(2**63) <= int(f) < 2**63 for f in fields
            ):
                return f"mapping line {number} is not two integers: {line[:60]!r}"
    return "mapping lines are not pairs of integers"


def parse_permutation(data: bytes, ring):
    """The permutation of a file whose header matches ``ring = (n, F)``
    (see ``parse_field_tokens``).

    Each mapping line holds two integers separated by any whitespace; a
    line with any other number of fields is refused.  The lines are parsed
    in blocks of about _PARSE_BYTES straight into the result.
    """
    lo, hi = _stripped(data)
    eol = data.find(b"\n", lo, hi)
    header = data[lo : hi if eol < 0 else eol].decode()
    if not header:
        raise ValueError("empty permutation file")
    head = header.split()
    if head[:1] != ["perm"]:
        raise ValueError("not a permutation file")
    parse_field_tokens(head[1:], ring)
    n, F = ring
    start = eol + 1
    count = data.count(b"\n", start, hi) + 1 if eol >= 0 else 0
    # q >= 2, so q^(n^2) > count once n^2 exceeds count's bit length; the
    # header alone never sizes a power or an array beyond the file read.
    if n * n > count.bit_length() or F.q ** (n * n) != count:
        raise ValueError(f"expected {F.q}^{n * n} mapping lines, got {count}")
    perm = np.empty(count, dtype=np.int64)
    row, disorder = 0, None
    for lo, end in _line_spans(data, start, hi, _PARSE_BYTES):
        block = _mapping_text(data, lo, end)
        rows = block.count(b"\n") + 1
        try:
            # loadtxt skips blank lines and refuses a change in field count;
            # the shape check then refuses blank lines and a uniform wrong count.
            pairs = None if block.decode().isspace() else np.loadtxt(
                io.BytesIO(block), dtype=np.int64, comments=None, ndmin=2, encoding="utf-8"
            )
        except ValueError:
            pairs = None
        if pairs is None or pairs.shape != (rows, 2):
            raise ValueError(_bad_mapping_line(data, start, hi))
        wrong = np.flatnonzero(pairs[:, 0] != np.arange(row, row + rows))
        if wrong.size and disorder is None:
            disorder = pairs[wrong[0], 0]
        perm[row : row + rows] = pairs[:, 1]
        row += rows
    if disorder is not None:
        raise ValueError(f"mapping lines out of order at {disorder}")
    return perm


# -- decompositions ----------------------------------------------------------


def _sigma_cycles(G: RelationGraph, sigma: Automorphism):
    """(class, vertices, ends) per class with nontrivial action, ascending by
    class: the class's cycles laid end to end in ``vertices``, cycle k ending
    before ``ends[k]``.

    Each cycle starts at its smallest vertex and the cycles ascend by it:
    ``done`` marks fixed points and traced cycles, and the next cycle
    starts at the first unmarked vertex past the last start.  Each cycle is
    walked start to start, then marked, through numpy when it is long.
    """
    # memoryviews hand out Python ints one at a time and array("q") stores
    # them unboxed: no list of N int objects is ever held.
    perm, N = sigma.perm, G.vertex_count
    succ, classes = memoryview(perm), memoryview(G.vertex_class)
    done = bytearray(N)
    mark = np.frombuffer(done, dtype=bool)
    for lo in range(0, N, _RENDER_ROWS):
        hi = min(lo + _RENDER_ROWS, N)
        np.equal(perm[lo:hi], np.arange(lo, hi), out=mark[lo:hi])
    walks = collections.defaultdict(lambda: (array("q"), []))
    start = done.find(0)
    while start >= 0:
        verts, ends = walks[classes[start]]
        first = len(verts)
        verts.append(start)
        v = succ[start]
        while v != start:
            verts.append(v)
            v = succ[v]
        ends.append(len(verts))
        # One numpy call costs about as much as marking 30 vertices here.
        if len(verts) - first > 32:
            mark[np.frombuffer(verts, dtype=np.int64)[first:]] = True
        else:
            for v in verts[first + 1 :]:
                done[v] = 1
        start = done.find(0, start + 1)
    return [
        (c, np.frombuffer(verts, dtype=np.int64), np.array(ends))
        for c, (verts, ends) in sorted(walks.items())
    ]


def _cycle_blocks(verts, ends, limbs: int):
    """'(a b c)(d e)' for cycles laid end to end, in blocks of _RENDER_ROWS
    vertices."""
    width = 4 * limbs
    starts = np.r_[0, ends[:-1]]
    for lo in range(0, len(verts), _RENDER_ROWS):
        hi = min(lo + _RENDER_ROWS, len(verts))
        # One row per vertex: "(" or " ", the zero-padded number, then ")"
        # kept only at a cycle's end.
        chars = np.empty((hi - lo, width + 2), dtype=np.uint8)
        keep = np.ones(chars.shape, dtype=bool)
        chars[:, 0], chars[:, -1] = ord(" "), ord(")")
        chars[:, 1:-1], keep[:, 1:-1] = _decimal(verts[lo:hi], limbs)
        opening = starts[np.searchsorted(starts, lo) : np.searchsorted(starts, hi)]
        closing = ends[np.searchsorted(ends, lo, "right") : np.searchsorted(ends, hi, "right")]
        chars[opening - lo, 0] = ord("(")
        keep[:, -1] = False
        keep[closing - 1 - lo, -1] = True
        yield chars[keep]


def render_decomposition(G: RelationGraph, dec: Decomposition) -> bytearray:
    """The decomposition file of ``dec``, held once like a permutation's."""
    head = ["decomposition " + field_tokens(G.n, G.field), "P", matrix_block(dec.P)]
    head = "\n".join([*head, f"t {dec.t}", "sigma", ""]).encode()
    classes = []
    for c, verts, ends in _sigma_cycles(G, dec.sigma):
        ideal = G.class_ideals[c]
        basis = ";".join(",".join(str(x) for x in row) for row in ideal.basis)
        classes.append((f"class rank={ideal.rank} basis={basis} cycles=".encode(), verts, ends))
    limbs = _limbs(G.vertex_count)

    def parts():
        yield head
        for line, verts, ends in classes:
            yield line
            yield from _cycle_blocks(verts, ends, limbs)
            yield b"\n"
        yield b"end\n"

    # A cycle takes at most a separator, a number below N and ")" per vertex.
    width = len(str(G.vertex_count - 1)) + 2
    size = len(head) + sum(len(line) + len(verts) * width + 1 for line, verts, _ in classes) + 4
    return _joined(size, parts())


# Numbers per loadtxt row when parsing sigma cycles, and rows per block.
_CYCLE_ROW = 1024
_CYCLE_BLOCK = 16
# The ASCII characters that str.split() splits on.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _separators(data: bytes, lo: int, hi: int, a: int, b: int):
    """The separator mask of data[a - 1 : b] inside the cycles text
    data[lo:hi] (str.split() whitespace and both characters of each ')(';
    the position before lo counts as one), and the positions of the ')('
    pairs that start in [a, b)."""
    # Whether a - 1 is a separator can depend on a - 2, and b - 1 on b.
    left, right = max(a - 2, lo), min(b + 1, hi)
    window = np.frombuffer(data, dtype=np.uint8, count=right - left, offset=left)
    breaks = (window[:-1] == ord(")")) & (window[1:] == ord("("))
    sep = _SPACE[window]
    sep[:-1] |= breaks
    sep[1:] |= breaks
    sep = sep[max(a - 1, lo) - left : b - left]
    return np.r_[True, sep] if a == lo else sep, a + np.flatnonzero(breaks[a - left :])


def _parse_cycles(data: bytes, lo: int, hi: int):
    """(vertices, ends) from the cycles text '(a b c)(d e)' in data[lo:hi],
    as ``_sigma_cycles`` lays them out; cycles are split at ')(' and their
    numbers at any whitespace.

    A first pass over blocks of _PARSE_BYTES counts the numbers, finds the
    cycle ends and the start of every row of _CYCLE_ROW numbers; loadtxt
    then reads those rows, with every separator made a space, into one
    array of that size.
    """
    # One parenthesis off each end: a doubled one is left in a number.
    lo += data.startswith(b"(", lo, hi)
    hi -= data.endswith(b")", lo, hi)
    if np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo).max(initial=0) > 127:
        text = " ".join(data[lo:hi].decode().split()).encode()  # Unicode whitespace to spaces
        data, lo, hi = text, 0, len(text)
    count, row_starts, ends = 0, [], []
    for a in range(lo, hi, _PARSE_BYTES):
        sep, breaks = _separators(data, lo, hi, a, min(a + _PARSE_BYTES, hi))
        starts = a + np.flatnonzero(sep[:-1] & ~sep[1:])
        ends.append(count + np.searchsorted(starts, breaks))
        row_starts.append(starts[-count % _CYCLE_ROW :: _CYCLE_ROW])
        count += len(starts)
    ends = np.concatenate([*ends, [count]]).astype(np.int64)
    # ends does not decrease; an empty cycle "()" repeats its predecessor's.
    ends = ends[np.diff(ends, prepend=0) > 0]
    if not count:
        return np.empty(0, dtype=np.int64), ends
    row_starts = np.r_[np.concatenate(row_starts), hi]
    last = len(row_starts) - 2

    def rows():
        # The rows as lines, a block of _CYCLE_BLOCK rows at a time; the
        # last is padded with zeros to the full row length.
        for r in range(0, last + 1, _CYCLE_BLOCK):
            cuts = row_starts[r : r + _CYCLE_BLOCK + 1]
            a, b = cuts[0], cuts[-1]
            sep = _separators(data, lo, hi, a, b)[0][1:]
            chars = np.where(sep, np.uint8(32), np.frombuffer(data, np.uint8, b - a, a))
            for k, (i, j) in enumerate(zip(cuts[:-1] - a, cuts[1:] - a), r):
                yield chars[i:j].tobytes() + (b" 0" * (-count % _CYCLE_ROW) if k == last else b"")

    verts = np.loadtxt(rows(), dtype=np.int64, comments=None, encoding="utf-8", max_rows=last + 1)
    return verts.reshape(-1)[:count], ends


def parse_decomposition(G: RelationGraph, data: bytes) -> Decomposition:
    """The decomposition of a file whose header matches G's ring.

    Lines are found one at a time and each class's cycles are parsed in
    blocks (see ``_parse_cycles``), so no line is split into Python objects.
    """
    lo, hi = _stripped(data)
    lines = _line_spans(data, lo, hi, 0)

    def text(span):
        return data[span[0] : span[1]].decode()

    first = next(lines, None)
    if first is None:
        raise ValueError("empty decomposition file")
    head = text(first).split()
    if head[:1] != ["decomposition"]:
        raise ValueError("not a decomposition file")
    parse_field_tokens(head[1:], (G.n, G.field))
    label, size = next(lines, None), next(lines, None)
    if size is None or data[label[0] : label[1]] != b"P":
        raise ValueError("missing P block")
    try:
        P = parse_matrix_block(map(text, itertools.chain([size], lines)))
    except StopIteration as exc:
        raise ValueError("truncated P block") from exc
    if len(P) != G.n:
        raise ValueError(f"P block is {len(P)}x{len(P)}, expected {G.n}x{G.n}")
    span = next(lines, None)
    if span is None:
        raise ValueError("truncated decomposition file")
    line = text(span)
    if not line.startswith("t "):
        raise ValueError("missing t line")
    t = int(line[2:])
    span = next(lines, None)
    if span is None or data[span[0] : span[1]] != b"sigma":
        raise ValueError("missing sigma block")
    N = G.vertex_count
    perm = np.arange(N, dtype=np.int64)
    # Times each vertex is listed; no count can exceed the file's length.
    listed = np.zeros(N, dtype=np.min_scalar_type(len(data)))
    ideal_index = {ideal: i for i, ideal in enumerate(G.class_ideals)}
    while True:
        span = next(lines, None)
        if span is None:
            raise ValueError("decomposition file missing end marker")
        start, end = span
        if end - start == 3 and data.startswith(b"end", start):
            break
        cut = data.find(b" cycles=", start, end)
        head = text((start, end if cut < 0 else cut)).split()
        vals = _parse_tokens(head[1:])
        well_formed = head[:1] == ["class"] and {"rank", "basis"} <= vals.keys()
        if cut < 0 or cut + 8 == end or not well_formed:
            # Quote only the start: a sigma line can run to megabytes.
            raise ValueError(f"malformed sigma line: {text(span)[:60]!r}")
        rows = vals["basis"].split(";") if vals["basis"] else []
        if not all(rows):
            raise ValueError(f"empty row in class basis {vals['basis']!r}")
        ideal = LeftIdeal(G.n, tuple(tuple(int(x) for x in row.split(",")) for row in rows))
        if ideal not in ideal_index:
            raise ValueError(f"unknown ideal class in sigma block: {ideal}")
        if int(vals["rank"]) != ideal.rank:
            raise ValueError(f"class rank={vals['rank']} but its basis has rank {ideal.rank}")
        verts, ends = _parse_cycles(data, cut + 8, end)
        # Range first: the class gather would wrap -1 and raise on N.
        bad = len(verts) and (verts.min() < 0 or verts.max() >= N)
        if bad or (G.vertex_class[verts] != ideal_index[ideal]).any():
            raise ValueError("cycle leaves its ideal class")
        np.add.at(listed, verts, listed.dtype.type(1))  # one dtype: numpy's fast path
        # Each vertex maps to the next one of its cycle, the last to the first.
        perm[verts[:-1]] = verts[1:]
        if len(ends):
            perm[verts[ends - 1]] = verts[np.r_[0, ends[:-1]]]
    if listed.max() > 1:
        raise ValueError(f"vertex {int(listed.argmax())} appears twice in the sigma cycles")
    sigma = Automorphism(G.n, G.field, perm)
    return Decomposition(P=P, t=t, sigma=sigma)
