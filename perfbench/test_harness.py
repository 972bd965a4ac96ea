"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``.

They sit outside the repository's tier-1 suite (``testpaths = tests``).
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from harness import Child, Spawner, quartiles, self_by_name, self_times, spread, total_by_name

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}


@pytest.fixture
def run_child():
    with Spawner() as spawner:
        yield spawner.run


# -- statistics --------------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_quartiles_of_one_value():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0


# -- spans ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["graph.a", 1.0, 4.0, 0, 0],
        ["aut.b", 5.0, 9.0, 0, 0],
        ["field.c", 6.0, 7.0, 2, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["p", 0.0, 10.0, None, 0],
        ["x", 1.0, 4.0, 0, 0],
        ["y", 3.0, 6.0, 0, 0],
        ["z", 8.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_totals_do_not_double_count_recursion():
    spans = [
        ["f", 0.0, 10.0, None, 0],
        ["f", 2.0, 5.0, 0, 0],
        ["g", 6.0, 8.0, 0, 0],
        ["f", 6.5, 7.5, 2, 0],
    ]
    assert total_by_name(spans) == pytest.approx({"f": 10.0, "g": 2.0})
    assert self_by_name(spans) == pytest.approx({"f": 5.0 + 3.0 + 1.0, "g": 1.0})


# -- closed forms and checks ----------------------------------------------------------


def test_closed_forms_pinned_values():
    assert workloads.full_edge_count(2, 9) == 4_614_560
    assert workloads.quotient_aut_order(3, 2, 1) == 168
    assert workloads.quotient_aut_order(3, 3, 1) == 5616
    assert workloads.quotient_aut_order(3, 2, 2) == 120960
    assert workloads.quotient_aut_order(2, 37, 1) == math.factorial(38)
    assert workloads.gl_order(3, 2) == 168
    assert [workloads.gaussian_binomial(4, r, 2) for r in range(5)] == [1, 15, 35, 15, 1]


def test_closed_forms_agree_with_lirg_counting():
    sys.path.insert(0, str(SRC))
    try:
        from lirg import counting
    finally:
        sys.path.remove(str(SRC))
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            assert workloads.gl_order(n, q) == counting.gl_order(n, q)
            for r in range(n + 1):
                assert workloads.gaussian_binomial(n, r, q) == counting.gaussian_binomial(n, r, q)
                assert workloads.fiber_size(n, r, q) == counting.fiber_size(n, r, q)


def test_full_edge_count_by_hand():
    # n = 2, q = 2: 1 zero class, 3 lines with 3 matrices each, 6 invertible.
    lines, fib_line, fib_full = 3, 3, 6
    expected = lines * fib_line + fib_full + lines * fib_line * fib_full
    assert workloads.full_edge_count(2, 2) == expected


def test_check_group_order():
    expected = {(3, 2, 1): 168}
    good = b"count-quotient n=3 p=2 m=1 modulus=0,1\nquotient automorphism group order: 168\n"
    assert workloads.check_group_order(good, (3, 2, 1), expected) is None
    bad = good.replace(b"168", b"167")
    assert "168" in workloads.check_group_order(bad, (3, 2, 1), expected)
    assert workloads.check_group_order(b"", (3, 2, 1), expected) is not None


def test_check_classify():
    expected = {"ring": (3, 5)}
    assert workloads.check_classify(b'{"n": 3, "q": 5, "match": true}', expected) is None
    assert workloads.check_classify(b'{"n": 3, "q": 5, "match": false}', expected) is not None
    assert workloads.check_classify(b'{"n": 2, "q": 5, "match": true}', expected) is not None
    assert workloads.check_classify(b"not json", expected) is not None


def test_check_export_header_and_hash():
    expected = {"edges": 4_614_560}
    head = b"graph kind=full n=2 p=3 m=2 modulus=1,0,1 directed=1 vertices=6561 edges=4614560\n"
    assert "sha256" in workloads.check_export(head + b"0 1\n", "1,0,1", expected)
    wrong = head.replace(b"edges=4614560", b"edges=4614559")
    assert "edges=4614560" in workloads.check_export(wrong, "1,0,1", expected)


def test_exit_error():
    ok = Child(0, b"", b"", 0.1, 0.1, 1.0, False)
    assert workloads.exit_error(ok, "x") is None
    assert "timed out" in workloads.exit_error(Child(-9, b"", b"", 1, 1, 1, True), "x")
    assert "exited 2" in workloads.exit_error(Child(2, b"", b"boom", 1, 1, 1, False), "x")


# -- children ----------------------------------------------------------------------------


def test_run_child_accounts_each_child_alone(run_child):
    big = run_child([sys.executable, "-c", "b = bytearray(80_000_000); b[::4096] = b'x' * len(b[::4096])"], env=ENV, cwd=ROOT, timeout=30)
    small = run_child([sys.executable, "-c", "pass"], env=ENV, cwd=ROOT, timeout=30)
    assert big.returncode == small.returncode == 0
    assert big.rss_mb > 80
    assert small.rss_mb < 40
    assert small.wall_s > 0 and small.cpu_s > 0


def test_run_child_pipes_stdin_to_stdout(run_child):
    data = bytes(range(256)) * 20_000  # larger than a pipe buffer
    child = run_child(
        [sys.executable, "-c", "import sys; sys.stdout.buffer.write(sys.stdin.buffer.read())"],
        env=ENV, cwd=ROOT, timeout=30, stdin=data,
    )
    assert child.returncode == 0 and child.stdout == data


def test_run_child_kills_on_timeout(run_child):
    child = run_child([sys.executable, "-c", "import time; time.sleep(30)"], env=ENV, cwd=ROOT, timeout=0.5)
    assert child.timed_out
    assert child.returncode != 0
    assert child.wall_s < 10


def test_launcher_spans_cover_the_cli_layers(run_child):
    child = run_child(
        [sys.executable, str(run.LAUNCHER), "3", "aut", "count-quotient", "--n", "3", "--p", "2"],
        env=ENV, cwd=ROOT, timeout=60, traced=True,
    )
    assert child.returncode == 0
    assert child.stdout.endswith(b"quotient automorphism group order: 168\n")
    doc = json.loads(child.trace)
    names = [s[0] for s in doc["spans"]]
    assert names[0] == "cli.import"
    # build_quotient_graph is reached through aut's own ``from ... import``.
    for name in ("cli.main", "cli.cmd_aut", "field.make_field", "aut.quotient_aut_order", "graph.build_quotient_graph"):
        assert name in names
    assert {s[4] for s in doc["spans"]} == {3}
    main = doc["spans"][names.index("cli.main")]
    quotient = doc["spans"][names.index("graph.build_quotient_graph")]
    assert main[1] <= quotient[1] <= quotient[2] <= main[2]
    assert doc["counters"]["graph.classes"] == 16
    assert doc["counters"]["field.scalar_ops"] > 0


# -- the benchmark's declared metrics ---------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    plan = json.loads((Path(__file__).parent / "plan.json").read_text())
    assert set(plan["workloads"]) == set(workloads.WORKLOADS)
    predicted = {row["layer_metric"] for row in plan["predictions"]}
    assert predicted <= set(run.PER_LAYER)


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
