"""Run a lirg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere in a lirg checkout; the CLI children import ``lirg``
from the checkout's ``src``.  ``--workload all`` runs every workload in turn.

Each workload is a closed loop with one client: an op starts only after the
previous one has ended, and an op runs one CLI child at a time.  Ops start
until ``--seconds`` have passed; every output is checked.  A human-readable
table goes to stderr; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured on plain
CLI children.  With ``--trace 1`` each op runs twice, plainly and then
through ``launcher.py``, which records spans around the layers; the metrics
are then the per-layer ones, as medians per op, plus the tracing overhead.
"""

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from statistics import median

from harness import OpRecord, Spawner, self_by_name, total_by_name
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"
CLI_MAIN = "import sys; from lirg.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
# An op that starts before the deadline is killed this long after it.
GRACE_S = 90.0

# End-to-end metrics, from the plain CLI children:
#   setup_s      median fresh-interpreter ``import lirg.cli``, plus preparing
#                the expected values
#   op_s_p50     median op wall time over successful ops
#   cpu_s_p50    median child user+sys CPU per op; it separates a change in
#                parallelism from a cut in work
#   ops_per_s    correct ops per timed wall-second
#   peak_rss_mb  largest child ru_maxrss of the run; in aut-roundtrip the peak
#                depends on the sampled permutation, so a median over ops
#                would flip between levels with the mix of cases
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "cpu_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = (
    "invariants",
    "sample",
    "verify",
    "decompose",
    "recompose",
    "build_graph",
    "count_quotient",
)
SELF_SPANS = (
    "graph.build_full_graph",
    "aut.random_triple",
    "aut.right_mul_automorphism",
    "aut.frobenius_automorphism",
    "aut.verify",
    "aut.decompose",
    "aut.recompose",
    "serialize.render_permutation",
    "serialize.parse_permutation",
    "serialize.render_decomposition",
    "serialize.parse_decomposition",
)
TOTAL_SPANS = (
    "field.make_field",
    "graph.subspaces",
    "graph.build_quotient_graph",
    "invariants.compute_report",
    "aut.quotient_aut_order",
    "serialize.render_graph",
)
COUNTERS = {
    "field.scalar_ops": "count",
    "graph.vertices": "count",
    "graph.classes": "count",
    "graph.edges": "count",
    "serialize.bytes": "B",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.cmd.self_s": "s",
    "cli.bytes_out": "B",
    **{
        f"cli.{cmd}.{kind}": unit
        for cmd in CLI_COMMANDS
        for kind, unit in (("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB"))
    },
    **{f"{name}.self_s": "s" for name in SELF_SPANS},
    **{f"{name}.total_s": "s" for name in TOTAL_SPANS},
    **COUNTERS,
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
}


def layer_values(plain, traced):
    """Per-layer values of one op: child accounting from its plain run,
    spans and counters from its traced run."""
    v = dict.fromkeys(PER_LAYER, 0.0)
    for cmd, child in plain.children:
        v[f"cli.{cmd}.wall_s"] += child.wall_s
        v[f"cli.{cmd}.cpu_s"] += child.cpu_s
        v[f"cli.{cmd}.rss_mb"] = max(v[f"cli.{cmd}.rss_mb"], child.rss_mb)
        v["cli.bytes_out"] += child.out_bytes
    selfs = {}
    for _, child in traced.children:
        doc = json.loads(child.trace)
        spans = doc["spans"]
        self_s, total_s = self_by_name(spans), total_by_name(spans)
        for name, s in self_s.items():
            selfs[name] = selfs.get(name, 0.0) + s
        for name in SELF_SPANS:
            v[f"{name}.self_s"] += self_s.get(name, 0.0)
        for name in TOTAL_SPANS:
            v[f"{name}.total_s"] += total_s.get(name, 0.0)
        v["cli.import_s"] += total_s["cli.import"]
        v["cli.cmd.self_s"] += sum(
            s for name, s in self_s.items() if name.startswith("cli.") and name != "cli.import"
        )
        spanned = total_s["cli.import"] + total_s.get("cli.main", 0.0)
        v["trace.unspanned_s"] += child.wall_s - spanned
        for name, count in doc["counters"].items():
            v[name] += count
    return v, selfs


class Loop:
    """One closed-loop client driving one workload."""

    def __init__(self, workload, seed, seconds, traced):
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.rng = random.Random(seed)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.hard_stop = float("inf")
        self.op_id = 0

    def child(self, argv, timeout, stdin=b"", traced=False):
        return self.spawner.run(argv, env=self.env, cwd=ROOT, timeout=timeout, stdin=stdin, traced=traced)

    def setup(self):
        """Byte-compile the sources, as an install would, so that every child
        loads the same bytecode whether or not the environment lets Python
        write its caches; then time fresh-interpreter imports of ``lirg.cli``
        (the median of several) and prepare the expected values."""
        compiled = self.child([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "lirg")], 120.0)
        if compiled.returncode != 0:
            raise RuntimeError(f"cannot compile lirg: {compiled.stdout.decode(errors='replace')}")
        imports = []
        for _ in range(SETUP_REPEATS):
            probe = self.child([sys.executable, "-c", "import lirg.cli"], 120.0)
            if probe.returncode != 0:
                raise RuntimeError(f"cannot import lirg.cli: {probe.stderr.decode(errors='replace')}")
            imports.append(probe.wall_s)
        start = time.perf_counter()
        self.expected = self.workload.prepare()
        return median(imports) + (time.perf_counter() - start)

    def cli(self, record, traced):
        def run(label, args, stdin=b""):
            timeout = min(self.workload.step_timeout, self.hard_stop - time.perf_counter())
            if traced:
                argv = [sys.executable, str(LAUNCHER), str(self.op_id), *args]
            else:
                argv = [sys.executable, "-c", CLI_MAIN, *args]
            child = self.child(argv, max(timeout, 0.0), stdin, traced)
            record.children.append((label, child))
            return child

        return run

    def op(self, case, traced):
        record = OpRecord()
        record.error = self.workload.run(self.cli(record, traced), case, self.expected)
        for _, child in record.children:
            child.stdout = b""  # checked; only its size is kept
        return record

    def run(self):
        with Spawner() as self.spawner:
            return self._run()

    def _run(self):
        setup_s = self.setup()
        cases = self.workload.cases(self.rng)
        start = time.perf_counter()
        deadline = start + self.seconds
        self.hard_stop = deadline + GRACE_S
        ops = []
        while True:
            case = next(cases)
            plain = self.op(case, False)
            traced = self.op(case, True) if self.traced else None
            ops.append((plain, traced))
            self.op_id += 1
            if time.perf_counter() >= deadline:
                break
        return setup_s, time.perf_counter() - start, ops


def summarize(setup_s, elapsed, ops, traced):
    records = [r for pair in ops for r in pair if r is not None]
    errors = [r.error for r in records if r.error is not None]
    plain_ok = [p for p, _ in ops if p.error is None] or [p for p, _ in ops]
    if not traced:
        values = {
            "setup_s": setup_s,
            "op_s_p50": median([r.wall_s for r in plain_ok]),
            "cpu_s_p50": median([r.cpu_s for r in plain_ok]),
            "ops_per_s": sum(p.error is None for p, _ in ops) / elapsed,
            "peak_rss_mb": max(r.rss_mb for r in plain_ok),
        }
        units, spans = END_TO_END, {}
    else:
        pairs = [(p, t) for p, t in ops if p.error is None and t.error is None]
        per_op = [layer_values(p, t) for p, t in pairs]
        values = {name: median([v[name] for v, _ in per_op]) if per_op else 0.0 for name in PER_LAYER}
        if pairs:
            values["trace.overhead_s"] = median([t.wall_s for _, t in pairs]) - median(
                [p.wall_s for p, _ in pairs]
            )
        names = {name for _, selfs in per_op for name in selfs}
        spans = {name: median([selfs.get(name, 0.0) for _, selfs in per_op]) for name in names}
        units = PER_LAYER
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, errors, spans


def report(name, result, errors, spans, out):
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}: {attempted} ops, {failed} failed, fail_ratio {failed / attempted:.4g}", file=out)
    for reason in errors[:5]:
        print(f"  failed: {reason}", file=out)
    for metric, m in result["metrics"].items():
        print(f"  {metric:<36} {m['value']:>16.6g} {m['unit']}", file=out)
    if spans:
        print("  self time per op by span (median), largest first:", file=out)
        for span, s in sorted(spans.items(), key=lambda kv: -kv[1])[:10]:
            print(f"    {span:<34} {s:>16.6g} s", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "lirg" / "cli.py").is_file():
        print(f"error: no lirg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        loop = Loop(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        try:
            setup_s, elapsed, ops = loop.run()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result, errors, spans = summarize(setup_s, elapsed, ops, bool(args.trace))
        report(name, result, errors, spans, sys.stderr)
        line = result if args.workload != "all" else {"workload": name, **result}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
