"""Deterministic text formats: graphs, permutations, decompositions.

Every header carries the field spec as p, m and the modulus coefficients
low-to-high, so any consumer can reconstruct the exact arithmetic.  All
writers emit byte-identical output for identical inputs.  Graphs stream
out as ASCII byte chunks, one source vertex's edges per chunk, rendered
with numpy from per-class line templates (see ``_edge_chunks``), and are
not read back; permutation and decomposition files round-trip through the
parsers here, which check each header against the requested ring.

Permutation and decomposition files go in and out as ASCII bytes, a block
at a time, and neither is ever held whole.  A renderer returns a ``Blocks``
object: iterating it renders _RENDER_ROWS rows (or cycle vertices) per
block, and its ``len()`` is the byte count of the whole text.  A parser
takes bytes or an iterable of byte blocks (a file as it is read) and finds
lines as it needs them: it hands loadtxt blocks of about _PARSE_BYTES
(whole mapping lines, or a piece of a line of cycles cut after a
separator) and writes each block's numbers into the one result, a
permutation of ``aut._vertex_dtype``, so no per-vertex Python object and no
copy of the text is made.  The block sizes change nothing but memory:
every result and every refusal message is the one a single block would
give.
"""

import codecs
import functools
import io
import itertools
import re
from array import array

import numpy as np

from lirg.aut import Decomposition, _vertex_dtype
from lirg.field import Field
from lirg.graph import RelationGraph


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


def _edge_chunks(G: RelationGraph, directed: bool, prefix: bytes, sep: bytes, end: bytes):
    """One bytearray per source vertex u with edges: ``{prefix}{u}{sep}{v}{end}``
    for each target v, ascending.  Undirected edges are written once, from
    their smaller end.

    Adjacency is a relation between classes, so every member of a class
    writes the same lines but for its own name.  Classes related to the same
    classes (every rank n-1 class of a digraph has only the top class above
    it) share one template: their lines rendered once, with h zero bytes in
    place of the source name, h being the width of the current source's
    name.  The template is one uint8 array cut into one segment per
    target-name width, each a run of lines of one length, and a source's
    chunk is each segment ORed with the source's name at the same place in
    every line.  A template holds every byte of its lines, so it lives only
    while it is needed: names widen as u ascends, so a template serves the
    sources of one name width and is dropped after the last of them.  It is
    built from the class index and one bool row, and no name table or
    target list is kept.  Undirected graphs also get ``cut``: cut[u] counts
    the targets of u's class that are at most u, so u's chunk starts at
    that line.
    """
    N = G.vertex_count
    cut = None if directed else np.empty(N, dtype=np.min_scalar_type(N - 1))
    related = (lambda c: G.lt[c]) if directed else (lambda c: G.lt[c] | G.lt[:, c])
    shared, template_of = {}, []  # one template id per distinct related set
    for c in range(G.class_count):
        row = related(c)
        template_of.append(shared.setdefault(np.flatnonzero(row).tobytes(), c))
        if cut is not None:
            own = np.flatnonzero(G.vertex_class == c)
            cut[own] = np.searchsorted(np.flatnonzero(row[G.vertex_class]), own, side="right")
    cut = cut if cut is None else memoryview(cut)
    P, head = len(prefix), len(prefix) + len(sep)
    powers = 10 ** np.arange(len(str(N - 1)))

    def template(c, h):
        """(lines, [(first line, first byte, end byte, line length)] per
        target-name width) of class c.  Digits are written a column at a
        time, so building holds little beyond the template itself."""
        targets = np.flatnonzero(related(c)[G.vertex_class])
        # Targets ascend, so each width's names are one run of lines.
        ends = [*np.searchsorted(targets, powers[1:]).tolist(), len(targets)]
        segments, lo, first = [], 0, 0
        for w, hi in enumerate(ends, 1):
            if hi > lo:
                line = head + h + w + len(end)
                segments.append((lo, first, first + (hi - lo) * line, line))
                lo, first = hi, first + (hi - lo) * line
        lines = np.empty(first, dtype=np.uint8)
        for lo, first, last, line in segments:
            block, w = lines[first:last].reshape(-1, line), line - head - h - len(end)
            block[:, : head + h] = np.frombuffer(prefix + bytes(h) + sep, dtype=np.uint8)
            block[:, line - len(end) :] = np.frombuffer(end, dtype=np.uint8)
            names = targets[lo : lo + len(block)]
            for k in range(w):
                block[:, head + h + k] = names // powers[w - 1 - k] % 10 + ord("0")
        return lines, segments

    def sources(lo, hi):
        """Per template id, its sources among the vertices lo..hi-1."""
        ids, counts = np.array(template_of), np.zeros(G.class_count, dtype=np.int64)
        for a in range(lo, hi, _RENDER_ROWS):
            part = G.vertex_class[a : min(a + _RENDER_ROWS, hi)]
            counts += np.bincount(ids[part], minlength=G.class_count)
        return counts.tolist()

    templates, h = {}, 0
    for u, c in enumerate(G.vertex_class.tolist()):
        name = b"%d" % u
        if len(name) > h:
            h = len(name)
            templates, left = {}, sources(u, min(10**h, N))
        t = template_of[c]
        if t not in templates:
            templates[t] = template(t, h)
        left[t] -= 1
        lines, segments = templates[t] if left[t] else templates.pop(t)
        skip = 0  # bytes of the template before u's first line
        if cut is not None:
            skip = len(lines)
            for lo, first, last, line in segments:
                if cut[u] < lo + (last - first) // line:
                    skip = first + (cut[u] - lo) * line
                    break
        if skip == len(lines):
            continue
        chunk = bytearray(len(lines) - skip)
        out = np.frombuffer(chunk, dtype=np.uint8)
        for lo, first, last, line in segments:
            if last > skip:
                first = max(first, skip)
                mask = (bytes(P) + name + bytes(line - P - h)) * ((last - first) // line)
                np.bitwise_or(
                    lines[first:last],
                    np.frombuffer(mask, dtype=np.uint8),
                    out=out[first - skip : last - skip],
                )
        yield chunk


def edge_list_chunks(G: RelationGraph, directed: bool):
    """The edge list of G, directed or not, as byte chunks: the header line,
    then the edges of one source vertex per chunk."""
    yield (
        f"graph kind={G.kind} "
        + field_tokens(G.n, G.field, directed)
        + f" vertices={G.vertex_count} edges={G.edge_count()}\n"
    ).encode()
    yield from _edge_chunks(G, directed, b"", b" ", b"\n")


def dot_chunks(G: RelationGraph, directed: bool):
    """The DOT text as byte chunks: the vertex labels in blocks of
    _RENDER_ROWS lines, then the edges of one source vertex per chunk."""
    arrow = b"->" if directed else b"--"
    yield b"digraph lirg {\n" if directed else b"graph lirg {\n"
    N, ranks = G.vertex_count, np.array(G.class_rank)
    limbs, rank_limbs = _limbs(N), _limbs(G.n + 1)
    for lo in range(0, N, _RENDER_ROWS):
        hi = min(lo + _RENDER_ROWS, N)
        name = _decimal(np.arange(lo, hi), limbs)
        rank = _decimal(ranks[G.vertex_class[lo:hi]], rank_limbs)
        yield _text_rows(hi - lo, [b"  v", name, b' [label="v', name, b":r", rank, b'"];\n'])
    yield from _edge_chunks(G, directed, b"  v", b" " + arrow + b" v", b";\n")
    yield b"}\n"


def graph_chunks(G: RelationGraph, fmt: str, directed: bool):
    """Byte chunks of G in ``fmt`` ('edges' or 'dot'); an unknown format, or
    a vertex index that cannot be made, raises here, before any chunk."""
    G.vertex_class
    if fmt == "edges":
        return edge_list_chunks(G, directed)
    if fmt == "dot":
        return dot_chunks(G, directed)
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


class Blocks:
    """Byte blocks made as they are iterated, anew on each pass.  ``len()``
    is their total length, counted by making them once more."""

    def __init__(self, make):
        self._make = make

    def __iter__(self):
        return iter(self._make())

    @functools.cached_property
    def _size(self):
        return sum(map(len, self._make()))

    def __len__(self):
        return self._size


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


def _text_rows(count: int, parts):
    """The bytes of ``count`` lines laid out column by column from
    ``parts``: each a bytes constant, the same on every line, or a
    (digits, keep) pair from ``_decimal``, whose padding is dropped."""
    widths = [len(part) if isinstance(part, bytes) else part[0].shape[1] for part in parts]
    chars = np.empty((count, sum(widths)), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    at = 0
    for part, width in zip(parts, widths):
        if isinstance(part, bytes):
            chars[:, at : at + width] = np.frombuffer(part, dtype=np.uint8)
        else:
            chars[:, at : at + width], keep[:, at : at + width] = part
        at += width
    return chars[keep]


def _unpadded(data):
    """The bytes of ``data`` (bytes, or an iterable of bytes-like blocks),
    in blocks, with CR LF and a lone CR read as LF, and without the newlines
    before the first other byte and after the last: a run of newlines
    ending a block is held back until other bytes follow.  Bytes are cut
    into blocks of _PARSE_BYTES."""
    if isinstance(data, (bytes, bytearray)):
        view = memoryview(data)
        data = (view[lo : lo + _PARSE_BYTES] for lo in range(0, len(view), _PARSE_BYTES))
    held, started, cr = 0, False, b""  # newlines held back
    for block in data:
        # A CR that ends a block may start a CR LF.
        block, cr = cr + bytes(block), b""
        if block.endswith(b"\r"):
            block, cr = block[:-1], b"\r"
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        body = block.rstrip(b"\n")
        if not body:
            held += len(block)
            continue
        if not started:
            body, held, started = body.lstrip(b"\n"), 0, True
        if held:
            yield b"\n" * held
        yield body
        held = len(block) - len(block.rstrip(b"\n"))


class _Reader:
    """The lines of a byte stream (see ``_unpadded``), read as they are
    needed: whole lines, blocks of lines, or a long line piece by piece."""

    def __init__(self, data):
        self._blocks = _unpadded(data)
        self._buf = bytearray()

    def _more(self) -> bool:
        block = next(self._blocks, None)
        if block is not None:
            self._buf += block
        return block is not None

    def _take(self, size: int, skip: int = 0) -> bytes:
        out = bytes(self._buf[:size])
        del self._buf[: size + skip]
        return out

    def lines(self, size: int = 0):
        """The lines from the next one to the first line end at least
        ``size`` bytes on, joined by newlines; None after the last line.
        Size 0 gives one line."""
        start = size
        while (end := self._buf.find(b"\n", start)) < 0:
            start = max(start, len(self._buf))
            if not self._more():
                return self._take(len(self._buf)) if self._buf else None
        return self._take(end, 1)

    def until(self, marker: bytes):
        """(the next line up to the first ``marker`` in it, True), leaving
        the rest of the line to ``piece``; (the whole line, False) if it
        holds no marker; None after the last line."""
        start = 0
        while True:
            eol = self._buf.find(b"\n", start)
            at = self._buf.find(marker, max(start - len(marker), 0), len(self._buf) if eol < 0 else eol)
            if at >= 0:
                return self._take(at, len(marker)), True
            if eol >= 0:
                return self._take(eol, 1), False
            start = len(self._buf)
            if not self._more():
                return (self._take(start), False) if start else None

    def piece(self, size: int):
        """(up to ``size`` bytes of the rest of the current line, whether
        they end it); its newline is read with the last piece."""
        while (end := self._buf.find(b"\n", 0, size)) < 0 and len(self._buf) < size:
            if not self._more():
                return self._take(len(self._buf)), True
        if end >= 0:
            return self._take(end, 1), True
        return self._take(size), False


# -- permutations -----------------------------------------------------------


def render_permutation(n: int, F: Field, perm) -> Blocks:
    """The permutation file of ``perm`` as blocks of _RENDER_ROWS lines,
    rendered as they are read."""
    perm = np.asarray(perm)
    N = len(perm)
    if perm.min() < 0 or perm.max() >= N:
        raise ValueError(f"permutation image out of range [0, {N})")
    head = ("perm " + field_tokens(n, F, True) + "\n").encode()
    limbs = _limbs(N)

    def blocks():
        yield head
        for lo in range(0, N, _RENDER_ROWS):
            hi = min(lo + _RENDER_ROWS, N)
            v, image = _decimal(np.arange(lo, hi), limbs), _decimal(perm[lo:hi], limbs)
            yield _text_rows(hi - lo, [v, b" ", image, b"\n"])

    return Blocks(blocks)


def _bad_mapping_line(block: bytes, row: int):
    """The refusal message naming the first line of ``block`` (whose first
    line is mapping line row + 1) that is not two integers within int64, or
    None."""
    for number, line in enumerate(block.decode().split("\n"), row + 1):
        fields = line.split()
        if len(fields) != 2 or not all(
            re.fullmatch(r"[+-]?[0-9]+", f) and -(2**63) <= int(f) < 2**63 for f in fields
        ):
            return f"mapping line {number} is not two integers: {line[:60]!r}"
    return None


def parse_permutation(data, ring):
    """The permutation of a file whose header matches ``ring = (n, F)``
    (see ``parse_field_tokens``); ``data`` is its bytes, or an iterable of
    byte blocks read once, in order.

    Each mapping line holds two integers separated by any whitespace; a
    line with any other number of fields is refused.  The lines are parsed
    in blocks of about _PARSE_BYTES as they are read.  The q^(n^2) slots of
    the result are made only once the file has shown 1/64 of that many
    lines, so the header never sizes an array much beyond the file read.
    Refusals come in this order, whatever the blocks: a wrong line count,
    the first line that is not two integers, then the first line out of
    order.  The result has the dtype of ``_vertex_dtype``; an image outside
    [0, N) is read as -1 before it is narrowed to that, so it never wraps
    onto a vertex, and ``aut.verify`` refuses it.
    """
    reader = _Reader(data)
    header = reader.lines()
    if header is None:
        raise ValueError("empty permutation file")
    head = header.decode().split()
    if head[:1] != ["perm"]:
        raise ValueError("not a permutation file")
    parse_field_tokens(head[1:], ring)
    n, F = ring
    # An int64 array holds fewer than 2^63 slots, and q >= 2.
    N = F.q ** (n * n) if n * n < 63 else None
    perm, held = None, []
    row, disorder, failed, message = 0, None, False, None
    while (block := reader.lines(_PARSE_BYTES)) is not None:
        rows = block.count(b"\n") + 1
        if failed:
            message = message or _bad_mapping_line(block, row)
            row += rows
            continue
        try:
            # loadtxt skips blank lines and refuses a change in field count;
            # the shape check then refuses blank lines and a uniform wrong count.
            pairs = None if block.decode().isspace() else np.loadtxt(
                io.BytesIO(block), dtype=np.int64, comments=None, ndmin=2, encoding="utf-8"
            )
        except ValueError:
            pairs = None
        if pairs is None or pairs.shape != (rows, 2):
            failed, message = True, _bad_mapping_line(block, row)
            row += rows
            continue
        wrong = np.flatnonzero(pairs[:, 0] != np.arange(row, row + rows))
        if wrong.size and disorder is None:
            disorder = pairs[wrong[0], 0]
        images = pairs[:, 1]
        if N is not None:
            images[(images < 0) | (images >= N)] = -1
        if perm is None:
            held.append(images)
            if N is not None and (row + rows) * 64 >= N:
                perm = np.empty(N, dtype=_vertex_dtype(N))
                images = np.concatenate(held)[:N]
                perm[: len(images)] = images
                held = None
        elif row + rows <= N:
            perm[row : row + rows] = images
        row += rows
    if N != row:
        raise ValueError(f"expected {F.q}^{n * n} mapping lines, got {row}")
    if failed:
        raise ValueError(message or "mapping lines are not pairs of integers")
    if disorder is not None:
        raise ValueError(f"mapping lines out of order at {disorder}")
    return perm


# -- decompositions ----------------------------------------------------------


def _class_cycles(G: RelationGraph, perm):
    """(class, chunks of its cycles) per class with nontrivial action,
    ascending by class, for a permutation perm that fixes every class.  The
    chunks hold the class's cycles laid end to end, at most _RENDER_ROWS
    vertices each: (vertices, where cycles open, where they close), a close
    being the offset just past a cycle's last vertex.  A class's chunks are
    to be read before the next class is asked for.

    Each cycle starts at its smallest vertex and the cycles ascend by it.
    ``key`` is a copy of the class index in which fixed points and walked
    vertices are overwritten with the class count, so the next cycle of
    class c starts at the first c in it past the last start, which
    bytearray.find locates.
    """
    # memoryviews hand out Python ints one at a time and array("q") stores
    # them unboxed: no list of N int objects is ever held.
    N, C = G.vertex_count, G.class_count
    succ = memoryview(perm)
    dtype = np.min_scalar_type(C)  # C itself fits: it is the mark
    key = bytearray(N * dtype.itemsize)
    marks = np.frombuffer(key, dtype=dtype)
    marks[:] = G.vertex_class
    done = memoryview(key).cast(dtype.char)
    for lo in range(0, N, _RENDER_ROWS):
        hi = min(lo + _RENDER_ROWS, N)
        marks[lo:hi][perm[lo:hi] == np.arange(lo, hi)] = C

    def start_from(c: int, v: int) -> int:
        """The first unmarked vertex of class c from v on, or -1."""
        code = dtype.type(c).tobytes()
        at = key.find(code, v * dtype.itemsize)
        while at >= 0 and at % dtype.itemsize:  # a match across two entries
            at = key.find(code, at + 1)
        return at // dtype.itemsize if at >= 0 else -1

    def mark(verts, first: int):
        # One numpy call costs about as much as marking 30 vertices here.
        if len(verts) - first > 32:
            marks[np.frombuffer(verts, dtype=np.int64)[first:]] = C
        else:
            for v in verts[first:]:
                done[v] = C

    def chunks(c: int, s: int):
        verts, opens, closes = array("q"), [], []
        while s >= 0:
            if len(verts) == _RENDER_ROWS:
                yield verts, opens, closes
                verts, opens, closes = array("q"), [], []
            first = len(verts)
            opens.append(first)
            v = s
            while True:
                for _ in itertools.repeat(None, _RENDER_ROWS - len(verts)):
                    verts.append(v)
                    v = succ[v]
                    if v == s:
                        break
                else:  # the chunk is full inside this cycle
                    mark(verts, first)
                    yield verts, opens, closes
                    verts, opens, closes, first = array("q"), [], [], 0
                    continue
                break
            closes.append(len(verts))
            mark(verts, first)
            s = start_from(c, s + 1)
        if verts:
            yield verts, opens, closes

    for c in range(C):
        s = start_from(c, 0)
        if s >= 0:
            yield c, chunks(c, s)


def _cycle_text(verts, opens, closes, limbs: int):
    """'(a b c)(d e' for a chunk of ``_class_cycles``."""
    width = 4 * limbs
    # One row per vertex: "(" or " ", the zero-padded number, then ")"
    # kept only at a cycle's end.
    chars = np.empty((len(verts), width + 2), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[:, 0], chars[:, -1] = ord(" "), ord(")")
    chars[:, 1:-1], keep[:, 1:-1] = _decimal(np.frombuffer(verts, dtype=np.int64), limbs)
    chars[opens, 0] = ord("(")
    keep[:, -1] = False
    keep[np.array(closes, dtype=np.intp) - 1, -1] = True
    return chars[keep]


def _basis_text(basis) -> str:
    """A class basis as the decomposition file writes it: rows joined by
    ``;``, entries by ``,``."""
    return ";".join(",".join(str(x) for x in row) for row in basis)


def render_decomposition(G: RelationGraph, dec: Decomposition) -> Blocks:
    """The decomposition file of ``dec`` as blocks, rendered as they are
    read: each class's cycles are walked a chunk at a time (see
    ``_class_cycles``)."""
    head = ["decomposition " + field_tokens(G.n, G.field), "P", matrix_block(dec.P)]
    head = "\n".join([*head, f"t {dec.t}", "sigma", ""]).encode()
    limbs = _limbs(G.vertex_count)

    def blocks():
        yield head
        for c, chunks in _class_cycles(G, dec.sigma):
            basis = G.class_ideals[c]
            yield f"class rank={len(basis)} basis={_basis_text(basis)} cycles=".encode()
            for chunk in chunks:
                yield _cycle_text(*chunk, limbs)
            yield b"\n"
        yield b"end\n"

    return Blocks(blocks)


# The ASCII characters that str.split() splits on, but CR, read as a line end.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 28, 29, 30, 31, 32]] = True
# Any whitespace character, Unicode ones too.
_WHITESPACE = re.compile(r"\s")
# Where loadtxt's refusals place the field they could not read.
_LOADTXT_PLACE = re.compile(r" at row \d+, column (\d+)")


def _cycle_numbers(reader: _Reader, piece):
    """(numbers, before) per chunk of a class line's cycles text
    '(a b c)(d e)', from its first ``piece`` on: the chunk's int64 numbers,
    and for each ')(' in it how many of them come before it.

    One parenthesis comes off each end of the text (a doubled one is left
    in a number), numbers are split at any whitespace and cycles at ')('.
    A chunk ends after the last separator read, so no number or ')(' is cut
    in two; loadtxt reads its numbers, with every separator made a space.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry, (piece, last), read = b"", piece, 0
    piece = piece[piece.startswith(b"(") :]
    while True:
        if not piece.isascii() or decoder.getstate()[0]:
            # Unicode whitespace becomes spaces; other characters stay.
            piece = _WHITESPACE.sub(" ", decoder.decode(piece, last)).encode()
        text = carry + piece
        if last:
            text = text[: len(text) - text.endswith(b")")]
        chars = np.frombuffer(text, dtype=np.uint8)
        breaks = (chars[:-1] == ord(")")) & (chars[1:] == ord("("))
        sep = _SPACE[chars]
        sep[:-1] |= breaks
        sep[1:] |= breaks
        cut = len(text) if last else int(np.flatnonzero(sep)[-1]) + 1 if sep.any() else 0
        carry = text[cut:]
        sep = sep[:cut]
        starts = np.flatnonzero(~sep & np.r_[True, sep[:-1]])
        numbers = np.empty(0, dtype=np.int64)
        if len(starts):
            line = np.where(sep, np.uint8(32), chars[:cut]).tobytes()
            try:
                numbers = np.loadtxt([line], dtype=np.int64, comments=None, encoding="utf-8", ndmin=1)
            except ValueError as exc:
                # loadtxt places the number in this chunk; place it in the line.
                place = lambda m: f" at number {read + int(m[1])} of the cycles"
                raise ValueError(_LOADTXT_PLACE.sub(place, str(exc))) from None
        read += len(numbers)
        yield numbers, np.searchsorted(starts, np.flatnonzero(breaks[:cut]))
        if last:
            return
        piece, last = reader.piece(_PARSE_BYTES)


def parse_decomposition(G: RelationGraph, data) -> Decomposition:
    """The decomposition of a file whose header matches G's ring; ``data``
    is its bytes, or an iterable of byte blocks read once, in order.

    Lines are read as they are needed, and each class's cycles are parsed
    and linked a chunk at a time (see ``_cycle_numbers``), so neither a
    line nor a class's vertex list is held whole.  A class's numbers are
    all read before any of them is checked, as if it were read whole.
    """
    reader = _Reader(data)
    header = reader.lines()
    if header is None:
        raise ValueError("empty decomposition file")
    head = header.decode().split()
    if head[:1] != ["decomposition"]:
        raise ValueError("not a decomposition file")
    parse_field_tokens(head[1:], (G.n, G.field))
    label, size = reader.lines(), reader.lines()
    if size is None or label != b"P":
        raise ValueError("missing P block")

    def text_lines():
        yield size.decode()
        while (line := reader.lines()) is not None:
            yield line.decode()

    try:
        P = parse_matrix_block(text_lines())
    except StopIteration as exc:
        raise ValueError("truncated P block") from exc
    if len(P) != G.n:
        raise ValueError(f"P block is {len(P)}x{len(P)}, expected {G.n}x{G.n}")
    line = reader.lines()
    if line is None:
        raise ValueError("truncated decomposition file")
    line = line.decode()
    if not line.startswith("t "):
        raise ValueError("missing t line")
    t = int(line[2:])
    if reader.lines() != b"sigma":
        raise ValueError("missing sigma block")
    N = G.vertex_count
    perm = np.arange(N, dtype=_vertex_dtype(N))
    # Whether each vertex is listed; counts from the first vertex listed twice.
    listed = np.zeros(N, dtype=bool)
    class_index = {basis: i for i, basis in enumerate(G.class_ideals)}
    while True:
        found = reader.until(b" cycles=")
        if found is None:
            raise ValueError("decomposition file missing end marker")
        prefix, has_cycles = found
        if prefix == b"end" and not has_cycles:
            break
        head = prefix.decode().split()
        vals = _parse_tokens(head[1:])
        well_formed = head[:1] == ["class"] and {"rank", "basis"} <= vals.keys()
        piece = reader.piece(_PARSE_BYTES) if has_cycles else (b"", True)
        if not (has_cycles and well_formed and piece[0]):
            # Quote only the start: a sigma line can run to megabytes.
            start = prefix + b" cycles=" + piece[0][:240] if has_cycles else prefix
            start = codecs.getincrementaldecoder("utf-8")().decode(start)
            raise ValueError(f"malformed sigma line: {start[:60]!r}")
        rows = vals["basis"].split(";") if vals["basis"] else []
        if not all(rows):
            raise ValueError(f"empty row in class basis {vals['basis']!r}")
        basis = tuple(tuple(int(x) for x in row.split(",")) for row in rows)
        if basis not in class_index:
            raise ValueError(f"unknown ideal class in sigma block: basis={_basis_text(basis)}")
        if int(vals["rank"]) != len(basis):
            raise ValueError(f"class rank={vals['rank']} but its basis has rank {len(basis)}")
        c = class_index[basis]
        # Each vertex maps to the next one of its cycle, the last to the
        # first; a cycle may span chunks.  count numbers are read, the
        # cycles closed so far end at closed, and the open one starts with
        # vertex first; prev is the last vertex read.
        leaves, count, closed, first, prev = False, 0, 0, None, None
        for numbers, before in _cycle_numbers(reader, piece):
            k = len(numbers)
            # Range first: the class gather would wrap -1 and raise on N.
            leaves = leaves or k and (
                numbers.min() < 0 or numbers.max() >= N or (G.vertex_class[numbers] != c).any()
            )
            if leaves:
                continue  # refused once the whole line has been read
            if listed.dtype == bool and (listed[numbers].any() or (np.diff(np.sort(numbers)) == 0).any()):
                listed = listed.astype(np.int64)
            if listed.dtype == bool:
                listed[numbers] = True
            else:
                np.add.at(listed, numbers, 1)
            if k:
                perm[numbers[:-1]] = numbers[1:]
                if count > closed:
                    perm[prev] = numbers[0]
            ends = count + before
            ends = ends[np.diff(ends, prepend=closed) > 0]  # "()" closes nothing
            if len(ends):
                starts = np.r_[closed, ends[:-1]]
                # Offsets into [first or prev, numbers...]: 0 is the vertex before this chunk.
                perm[np.r_[prev or 0, numbers][ends - count]] = np.r_[first or 0, numbers][
                    np.maximum(starts - count + 1, 0)
                ]
                closed = int(ends[-1])
            if count <= closed < count + k:
                first = int(numbers[closed - count])
            if k:
                prev = int(numbers[-1])
            count += k
        if leaves:
            raise ValueError("cycle leaves its ideal class")
        if count > closed:
            perm[prev] = first
    if listed.dtype != bool:
        raise ValueError(f"vertex {int(listed.argmax())} appears twice in the sigma cycles")
    return Decomposition(P=P, t=t, sigma=perm)
