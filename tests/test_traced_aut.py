"""The aut round trip under ``perfbench/launcher.py``, the benchmark's tracer.

The launcher wraps every public non-generator function of the lirg layers
in a span and counts ``len()`` of every ``serialize.render_*`` result, so a
renderer that became a generator would drop out of the per-layer numbers,
and one returning an unsized value would crash the traced run.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "perfbench" / "launcher.py"
RING = ["--n", "3", "--p", "2"]
CLI_MAIN = "import sys; from lirg.cli import main; sys.exit(main())"


def _run(argv, stdin, traced):
    """(exit code, stdout, trace document or None) of one CLI child."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if not traced:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *argv], input=stdin, capture_output=True, env=env
        )
        return proc.returncode, proc.stdout, None
    with tempfile.TemporaryFile() as trace:
        env["PERFBENCH_TRACE_FD"] = str(trace.fileno())
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), "0", *argv],
            input=stdin,
            capture_output=True,
            env=env,
            pass_fds=(trace.fileno(),),
        )
        trace.seek(0)
        return proc.returncode, proc.stdout, json.loads(trace.read() or b"null")


def test_aut_round_trip_through_the_launcher():
    steps = [
        ("sample", ["--seed", "3"], None, "serialize.render_permutation"),
        ("verify", ["--perm", "/dev/stdin"], "sample", "serialize.parse_permutation"),
        ("decompose", ["--perm", "/dev/stdin"], "sample", "serialize.render_decomposition"),
        ("recompose", ["--report", "/dev/stdin"], "decompose", "serialize.parse_decomposition"),
    ]
    outputs = {}
    for sub, extra, source, span in steps:
        argv = ["aut", sub, *RING, *extra]
        stdin = outputs.get(source, b"")
        plain_code, plain_out, _ = _run(argv, stdin, traced=False)
        code, out, doc = _run(argv, stdin, traced=True)
        assert (code, plain_code) == (0, 0), sub
        assert out == plain_out, sub
        names = {s[0] for s in doc["spans"]}
        assert span in names, (sub, sorted(names))
        if sub in ("sample", "decompose", "recompose"):
            # The renderer's result is sized in bytes: exactly the output.
            assert doc["counters"]["serialize.bytes"] == len(out), sub
        outputs[sub] = out
    assert outputs["recompose"] == outputs["sample"]
    assert "serialize.render_permutation" in names  # recompose renders too
