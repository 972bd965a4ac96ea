"""Command line interface.

Exit codes: 0 on success, 1 on a verification failure or a
predicted-vs-computed mismatch, 2 on a usage error (including an exceeded
vertex cap).  Identical configuration and seed give byte-identical output;
all randomness flows from the --seed value through Python's Mersenne
Twister (random.Random).
"""

import argparse
import codecs
import json
import math
import os
import stat
import sys
import tempfile

from lirg import aut, counting, invariants, serialize
from lirg.field import make_field
from lirg.graph import build_full_graph, build_quotient_graph
from lirg.matrix import DEFAULT_VERTEX_CAP


class UsageError(Exception):
    pass


def _field(args):
    """The field of --p, --m and --modulus; ``make_field`` checks each."""
    try:
        modulus = tuple(int(c) for c in args.modulus.split(",")) if args.modulus else None
    except ValueError as exc:
        raise UsageError(f"bad modulus {args.modulus!r}: {exc}") from exc
    return make_field(args.p, args.m, modulus)


def _printable_table(args):
    """Refuse a ring-info table whose largest entry, q^(n^2), has more
    decimal digits than Python converts to text.  Only a size near that
    limit by the logarithm forms the power."""
    limit = sys.get_int_max_str_digits()
    e = args.m * args.n * args.n
    if limit and (e * math.log10(args.p) > limit + 1 or args.p**e >= 10**limit):
        raise UsageError(
            f"q^(n^2) = {args.p}^{e} has more than {limit} decimal digits, "
            "the most Python prints"
        )


# An input file for a ring of N vertices may hold 4(w + 2) characters per
# vertex plus INPUT_SLACK, w being the width of N - 1.  A permutation file
# needs 2w + 2 per vertex and a decomposition's cycles w + 2, so the rest is
# room for other spacing, CRLF line ends, class lines and headers.
INPUT_SLACK = 1 << 16
# Bytes per read of an input file.
_READ_BYTES = 1 << 16


def _utf8_error(exc, offset):
    """UnicodeDecodeError's message for exc, raised at ``offset`` bytes into
    a stream, as decoding the whole stream at once would word it."""
    pos, last = offset + exc.start, offset + exc.end - 1
    if pos == last:
        return f"'utf-8' codec can't decode byte 0x{exc.object[exc.start]:02x} in position {pos}: {exc.reason}"
    return f"'utf-8' codec can't decode bytes in position {pos}-{last}: {exc.reason}"


def _read_input(path, vertex_count):
    """The bytes of an input file for a ring of ``vertex_count`` vertices,
    in blocks as they are read.  A file longer than such a file can be is
    refused as soon as it is, before the rest is read; one that is not
    UTF-8 once it has been read to its end, so the length is checked first."""
    limit = vertex_count * 4 * (len(str(vertex_count - 1)) + 2) + INPUT_SLACK
    decoder = codecs.getincrementaldecoder("utf-8")()
    size, error = 0, None
    with open(path, "rb") as fh:
        while block := fh.read(_READ_BYTES):
            size += len(block)
            if size > limit:
                raise UsageError(
                    f"{path} is longer than {limit} characters, the most an input for this ring may hold"
                )
            if error is None and not (block.isascii() and not decoder.getstate()[0]):
                pending = len(decoder.getstate()[0])
                try:
                    decoder.decode(block)
                except UnicodeDecodeError as exc:
                    error = _utf8_error(exc, size - len(block) - pending)
            yield block
    if error is None:
        try:
            decoder.decode(b"", True)
        except UnicodeDecodeError as exc:
            error = _utf8_error(exc, size - len(exc.object))
    if error is not None:
        raise UsageError(error)


def _parse_input(parse, path, vertex_count):
    """``parse`` of the blocks of an input file (see ``_read_input``).  The
    file is read to its end whatever parse does, so a file too long or not
    UTF-8 is refused first, as if it had been read whole before parsing."""
    blocks = _read_input(path, vertex_count)
    try:
        return parse(blocks)
    finally:
        for _ in blocks:
            pass


def _write_output(chunks, out_path):
    """Write an iterable of byte blocks, in order, each block as it is made.

    A regular file (a symlink's target) is replaced by a temp file, with its
    mode, once every block is written, so a failure leaves it intact; any
    other path that exists, such as a FIFO, is written in place; without a
    path the blocks go to stdout's binary stream.
    """
    if out_path is None:
        sys.stdout.flush()  # the bytes follow anything written as text
        sys.stdout.buffer.writelines(chunks)
        return
    target = os.path.realpath(out_path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(target, "wb") as fh:
            fh.writelines(chunks)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".lirg-")
    try:
        with open(fd, "wb") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_ring(sub):
    sub.add_argument("--n", type=positive_int, required=True, help="matrix dimension")
    sub.add_argument("--p", type=int, required=True, help="field characteristic")
    sub.add_argument("--m", type=int, default=1, help="extension degree")
    sub.add_argument(
        "--modulus",
        default=None,
        help="comma separated modulus coefficients, low to high",
    )
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def _add_common(sub):
    _add_ring(sub)
    sub.add_argument("--cap", type=positive_int, default=DEFAULT_VERTEX_CAP, help="vertex cap")


def cmd_ring_info(args) -> int:
    F = _field(args)
    _printable_table(args)
    rep = counting.count_report(args.n, F.q)
    lines = [f"ring-info {serialize.field_tokens(args.n, F)}"]
    lines.append(
        f"{'rank':>4} {'subspaces':>12} {'fiber':>14} {'matrices':>16}"
    )
    for r in range(args.n + 1):
        lines.append(
            f"{r:>4} {rep.subspace_counts[r]:>12} {rep.fiber_sizes[r]:>14} "
            f"{rep.rank_class_sizes[r]:>16}"
        )
    lines.append(f"total matrices: {rep.total}")
    lines.append(f"|GL(n, q)|: {rep.gl_order}")
    preds = invariants.predicted_invariants(args.n, F.q)
    for key in sorted(preds):
        value = preds[key]
        lines.append(f"predicted {key}: {'n/a (n<2)' if value is None else value}")
    _write_output([("\n".join(lines) + "\n").encode()], args.out)
    return 0


def cmd_build_graph(args) -> int:
    F = _field(args)
    builder = build_quotient_graph if args.quotient else build_full_graph
    G = builder(F, args.n, cap=args.cap)
    _write_output(serialize.graph_chunks(G, args.format, args.directed), args.out)
    return 0


def cmd_invariants(args) -> int:
    F = _field(args)
    G = build_full_graph(F, args.n, cap=args.cap)
    report = invariants.compute_report(G)
    preds = invariants.predicted_invariants(args.n, F.q)
    rows = []
    mismatch = False
    for key in [
        "clique_number",
        "chromatic_number",
        "girth",
        "diameter",
        "radius",
        "domination_number",
        "strong_metric_dimension",
        "eulerian",
    ]:
        computed = getattr(report, key)
        predicted = preds.get(key)
        if predicted is None:
            status = "n/a (n<2)"
        elif computed == predicted:
            status = "match"
        else:
            status = "MISMATCH"
            mismatch = True
        rows.append((key, predicted, computed, status))

    if args.format == "json-kv":
        doc = {
            "n": report.n,
            "q": report.q,
            "p": F.p,
            "m": F.m,
            "modulus": list(F.modulus),
            "eccentricity_by_rank": list(report.eccentricity_by_rank),
            "girth_witness": report.girth_witness,
            "odd_degree_witness": report.odd_degree_witness,
            "planarity_witness": report.planarity_witness,
            "match": not mismatch,
        }
        for key, predicted, computed, status in rows:
            doc[f"{key}_computed"] = computed
            doc[f"{key}_predicted"] = predicted
            doc[f"{key}_status"] = status
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"invariants {serialize.field_tokens(args.n, F)}"]
        lines.append(f"{'invariant':<26} {'predicted':>12} {'computed':>12} status")
        for key, predicted, computed, status in rows:
            pred_text = "n/a" if predicted is None else str(predicted)
            lines.append(f"{key:<26} {pred_text:>12} {str(computed):>12} {status}")
        lines.append(f"eccentricity by rank: {report.eccentricity_by_rank}")
        if report.girth_witness:
            lines.append(f"triangle witness vertices: {report.girth_witness}")
        lines.append(f"odd degree witness vertex: {report.odd_degree_witness}")
        if report.planarity_witness:
            lines.append(f"K_3,3 witness vertices: {report.planarity_witness}")
        text = "\n".join(lines) + "\n"
    _write_output([text.encode()], args.out)
    return 1 if mismatch else 0


def cmd_aut(args) -> int:
    F = _field(args)
    config = serialize.field_tokens(args.n, F)
    if args.sub == "count-quotient":
        order = aut.quotient_aut_order(F, args.n)
        text = f"count-quotient {config}\nquotient automorphism group order: {order}\n"
        _write_output([text.encode()], args.out)
        return 0

    if args.sub == "sample":
        # Only the composed map outlives the sampling: the graph is freed
        # before the text is rendered.
        G = build_full_graph(F, args.n, cap=args.cap)
        f = aut.recompose(G, aut.random_decomposition(G, args.seed))
        del G
        _write_output(serialize.render_permutation(args.n, F, f), args.out)
        return 0

    G = build_full_graph(F, args.n, cap=args.cap)

    ring = (args.n, F)
    f = _parse_input(lambda data: serialize.parse_permutation(data, ring), args.perm, G.vertex_count)

    ok, witness = aut.verify(G, f)
    if not ok:
        u, v = witness
        text = f"verify {config}\nverification failed: edge relation broken at pair ({u}, {v})\n"
        _write_output([text.encode()], args.out)
        return 1
    if args.sub == "verify":
        _write_output([f"verify {config}\nautomorphism verified\n".encode()], args.out)
        return 0

    try:
        dec = aut.decompose(G, f)  # f's array becomes sigma's
    except aut.DecompositionError as exc:
        _write_output([f"decomposition failed: {exc}\n".encode()], args.out)
        return 1
    _write_output(serialize.render_decomposition(G, dec), args.out)
    return 0


def cmd_aut_recompose(args) -> int:
    F = _field(args)
    G = build_full_graph(F, args.n, cap=args.cap)
    parse = lambda data: serialize.parse_decomposition(G, data)
    dec = _parse_input(parse, args.report, G.vertex_count)
    f = aut.recompose(G, dec)  # sigma's array becomes f's
    del G, dec  # neither is needed to render f
    _write_output(serialize.render_permutation(args.n, F, f), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lirg",
        description=(
            "Left-ideal relation graphs of M_n(F_q): counting tables, graph "
            "construction, invariants and automorphisms."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("ring-info", help="counting tables and predictions")
    _add_ring(s)
    s.set_defaults(func=cmd_ring_info)

    s = subs.add_parser("build-graph", help="emit the relation graph")
    _add_common(s)
    s.add_argument("--format", choices=["dot", "edges"], default="edges")
    s.add_argument("--quotient", action="store_true", help="ideal-class quotient")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--directed", dest="directed", action="store_true", default=True)
    group.add_argument("--undirected", dest="directed", action="store_false")
    s.set_defaults(func=cmd_build_graph)

    s = subs.add_parser("invariants", help="predicted vs computed invariants")
    _add_common(s)
    s.add_argument("--format", choices=["text", "json-kv"], default="text")
    s.set_defaults(func=cmd_invariants)

    s = subs.add_parser("aut", help="automorphism operations")
    aut_subs = s.add_subparsers(dest="sub", required=True)

    sample = aut_subs.add_parser("sample", help="seeded random automorphism")
    _add_common(sample)
    sample.add_argument("--seed", type=int, default=0, help="PRNG seed")
    sample.set_defaults(func=cmd_aut)

    for name in ["verify", "decompose"]:
        p = aut_subs.add_parser(name)
        _add_common(p)
        p.add_argument("--perm", required=True, help="permutation file")
        p.set_defaults(func=cmd_aut)

    rec = aut_subs.add_parser("recompose", help="rebuild a permutation file")
    _add_common(rec)
    rec.add_argument("--report", required=True, help="decomposition file")
    rec.set_defaults(func=cmd_aut_recompose)

    cq = aut_subs.add_parser("count-quotient", help="exact quotient group order")
    _add_ring(cq)
    cq.set_defaults(func=cmd_aut)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:  # VertexCapExceeded too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the allocation that failed.
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
