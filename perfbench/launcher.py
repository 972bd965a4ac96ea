"""Run the lirg CLI once with span recorders around its layers.

Usage: ``python3 perfbench/launcher.py OP_ID CLI_ARGS...`` with ``src`` on
``PYTHONPATH`` and a writable file descriptor named by the environment
variable ``PERFBENCH_TRACE_FD``.  Exit code, stdout and output files are
those of ``lirg.cli.main(CLI_ARGS)``.  When the CLI returns, one JSON
document goes to that descriptor:

    {"spans": [[name, start, end, parent, op], ...], "counters": {...}}

Every public function defined in ``lirg.field``, ``graph``, ``invariants``,
``aut``, ``serialize`` and ``cli`` is wrapped in a recorder named
``<module>.<function>``, and every module of the package that imported one of
them by name (``from lirg.graph import build_full_graph``) gets the wrapped
one too.  Generator functions are left alone: their work lands in the
span of whoever consumes them.  ``Field.add/mul/neg/inv`` are counted, not
spanned, because they run per element.  The import of ``lirg.cli`` is
the span ``cli.import``.
"""

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("field", "graph", "invariants", "aut", "serialize", "cli")
SCALAR_OPS = ("add", "mul", "neg", "inv")


class Recorder:
    def __init__(self, op):
        self.op = op
        self.spans = []
        self.stack = []
        self.scalar_ops = [0]
        self.graphs = []
        self.rendered_graphs = []
        self.rendered_bytes = 0

    def span(self, name, fn, observe=None):
        spans, stack, op, clock = self.spans, self.stack, self.op, time.perf_counter

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return recorded

    def count(self, fn):
        cell = self.scalar_ops

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def _observer(self, name):
        if name in ("graph.build_full_graph", "graph.build_quotient_graph"):
            return lambda args, G: self.graphs.append(G)
        if name == "serialize.render_graph":
            return self._rendered_graph
        if name.startswith("serialize.render_"):
            return self._rendered
        return None

    def _rendered(self, args, text):
        # Only the outermost renderer counts: render_graph returns the text
        # that render_edge_list made.
        if not any(self.spans[i][0].startswith("serialize.render_") for i in self.stack):
            self.rendered_bytes += len(text)

    def _rendered_graph(self, args, text):
        self.rendered_graphs.append(args[0])
        self._rendered(args, text)

    def instrument(self):
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"lirg.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.span(name, fn, self._observer(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lirg" and not mod_name.startswith("lirg."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        field_cls = sys.modules["lirg.field"].Field
        for meth in SCALAR_OPS:
            setattr(field_cls, meth, self.count(getattr(field_cls, meth)))

    def document(self):
        return {
            "spans": self.spans,
            "counters": {
                "field.scalar_ops": self.scalar_ops[0],
                "graph.vertices": sum(G.vertex_count for G in self.graphs),
                "graph.classes": sum(G.class_count for G in self.graphs),
                "graph.edges": sum(G.edge_count() for G in self.rendered_graphs),
                "serialize.bytes": self.rendered_bytes,
            },
        }


def main():
    op = int(sys.argv[1])
    out = os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "w")
    start = time.perf_counter()
    import lirg.cli

    rec = Recorder(op)
    rec.spans.append(["cli.import", start, time.perf_counter(), None, op])
    rec.instrument()
    try:
        code = lirg.cli.main(sys.argv[2:])
    finally:
        with out:
            json.dump(rec.document(), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
