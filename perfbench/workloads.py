"""The lirg benchmark workloads: their inputs, drawn from the seed, and the
checks every op's output must pass.

An op is one closed-loop unit of work: one client, one CLI child at a time.
``run(cli, case, expected)`` performs it through ``cli(label, args, stdin)``,
which starts one child and returns its ``harness.Child``, and returns
``None`` when every output is right, else the reason it is not.

The expected values are closed forms computed here, independently of the
``lirg`` sources, so that they check the program rather than repeat it.
"""

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

# -- closed forms -----------------------------------------------------------------


def gaussian_binomial(n, r, q):
    """Number of r-dimensional subspaces of F_q^n."""
    if not 0 <= r <= n:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(n, q):
    return math.prod(q**n - q**i for i in range(n))


def fiber_size(n, r, q):
    """Number of n x n matrices whose row space is one given r-space."""
    return math.prod(q**n - q**i for i in range(r))


def full_edge_count(n, q):
    """Directed edges of the full graph: pairs of matrices whose row spaces
    are properly nested, counted as (r-space, s-space above it) pairs."""
    return sum(
        gaussian_binomial(n, r, q)
        * gaussian_binomial(n - r, s - r, q)
        * fiber_size(n, r, q)
        * fiber_size(n, s, q)
        for r in range(n + 1)
        for s in range(r + 1, n + 1)
    )


def quotient_aut_order(n, p, m):
    """Automorphism group order of the directed subspace lattice of GF(p^m)^n.

    For n = 2 the q + 1 lines are permuted freely; for n >= 3 the group is
    PGammaL(n, q) by the fundamental theorem of projective geometry.
    """
    q = p**m
    if n == 2:
        return math.factorial(q + 1)
    return gl_order(n, q) * m // (q - 1)


# -- checks -------------------------------------------------------------------------


def exit_error(child, label):
    if child.timed_out:
        return f"{label} timed out"
    if child.returncode != 0:
        tail = child.stderr.decode(errors="replace").strip()[-200:]
        return f"{label} exited {child.returncode}: {tail}"
    return None


def check_classify(stdout, expected):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "invariants output is not JSON"
    if (doc.get("n"), doc.get("q")) != expected["ring"]:
        return f"invariants reported ring {(doc.get('n'), doc.get('q'))}"
    if doc.get("match") is not True:
        return "invariants reported a predicted-vs-computed mismatch"
    return None


def check_export(stdout, modulus, expected):
    head = stdout[: stdout.find(b"\n")].decode(errors="replace")
    found = re.search(r" edges=(\d+)$", head)
    if found is None or int(found.group(1)) != expected["edges"]:
        return f"edge list header {head!r} does not give edges={expected['edges']}"
    if hashlib.sha256(stdout).hexdigest() != EXPORT_SHA256[modulus]:
        return f"edge list for modulus {modulus} differs from its pinned sha256"
    return None


def check_group_order(stdout, case, expected):
    n, p, m = case
    text = stdout.decode(errors="replace")
    if not text.startswith(f"count-quotient n={n} p={p} m={m} "):
        return f"count-quotient header is {text[:60]!r}"
    found = re.search(r"^quotient automorphism group order: (\d+)$", text, re.M)
    if found is None or int(found.group(1)) != expected[case]:
        return f"count-quotient {case} did not report order {expected[case]}"
    return None


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # () -> expected values
    cases: Callable  # (random.Random) -> endless iterator of op inputs
    run: Callable  # (cli, case, expected) -> failure reason or None
    step_timeout: float  # seconds one child may run before it counts as failed


def _shuffled_cycle(cases, rng):
    order = list(cases)
    rng.shuffle(order)
    return itertools.cycle(order)


# classify: the largest rung of the size ladder, 5^9 = 1,953,125 vertices in
# 64 classes; class assignment is most of the op.  The input is fixed.
CLASSIFY_ARGS = ["invariants", "--n", "3", "--p", "5", "--cap", "2000000", "--format", "json-kv"]


def classify_run(cli, _case, expected):
    child = cli("invariants", CLASSIFY_ARGS)
    return exit_error(child, "invariants") or check_classify(child.stdout, expected)


CLASSIFY = Workload(
    name="classify",
    prepare=lambda: {"ring": (3, 5)},
    cases=lambda rng: itertools.repeat(None),
    run=classify_run,
    step_timeout=60.0,
)


# aut-roundtrip: sample -> verify -> decompose -> recompose over GF(4), n = 3,
# 262,144 vertices; each step is its own process and rebuilds the graph.
# Files travel through pipes (``/dev/stdin``), never through a disk.  The
# sample seeds are a fixed list, cycled in an order drawn from the seed:
# peak RSS depends on the sampled permutation (recompose of seeds 2, 3 and 6
# peaks at 93 MB, of the others at 83 MB, of some seeds outside the list at
# 101 MB), so a run must cover the same seeds for its peak to be comparable.
AUT_SAMPLE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
AUT_RING = ["--n", "3", "--p", "2", "--m", "2", "--cap", "300000"]
AUT_CONFIG = "n=3 p=2 m=2 modulus=1,1,1"


def aut_roundtrip_run(cli, seed, expected):
    sample = cli("sample", ["aut", "sample", *AUT_RING, "--seed", str(seed)])
    if err := exit_error(sample, "sample"):
        return err
    verify = cli("verify", ["aut", "verify", *AUT_RING, "--perm", "/dev/stdin"], sample.stdout)
    if err := exit_error(verify, "verify"):
        return err
    if verify.stdout != expected["verified"]:
        return f"verify printed {verify.stdout[:80]!r}"
    dec = cli("decompose", ["aut", "decompose", *AUT_RING, "--perm", "/dev/stdin"], sample.stdout)
    if err := exit_error(dec, "decompose"):
        return err
    rec = cli("recompose", ["aut", "recompose", *AUT_RING, "--report", "/dev/stdin"], dec.stdout)
    if err := exit_error(rec, "recompose"):
        return err
    if rec.stdout != sample.stdout:
        return f"recompose of sample seed {seed} is not byte-equal to the sample"
    return None


AUT_ROUNDTRIP = Workload(
    name="aut-roundtrip",
    prepare=lambda: {"verified": f"verify {AUT_CONFIG}\nautomorphism verified\n".encode()},
    cases=lambda rng: _shuffled_cycle(AUT_SAMPLE_SEEDS, rng),
    run=aut_roundtrip_run,
    step_timeout=60.0,
)


# export: 4,614,560 edges (43.8 MB) on only 6,561 vertices in 12 classes,
# streamed through a pipe.  The ops cycle through the three monic irreducible
# quadratics over GF(3) as moduli, in an order drawn from the seed; each
# output is pinned by its sha256.
EXPORT_SHA256 = {
    "1,0,1": "9b9c91f51522c4a0f536589ec5a0b2f7b425af54ed0dde2805481ffd4348f1aa",
    "2,1,1": "7e14a23b4ec452c6aeffdc05539955fd5338c2e09915145f11d05cbb0f78ed61",
    "2,2,1": "06e139e990988bb120b19ebaad9b7b009934097cf293f2a981d34ea1f85289a1",
}


def export_run(cli, modulus, expected):
    args = ["build-graph", "--n", "2", "--p", "3", "--m", "2", "--modulus", modulus, "--format", "edges"]
    child = cli("build_graph", args)
    return exit_error(child, "build-graph") or check_export(child.stdout, modulus, expected)


EXPORT = Workload(
    name="export",
    prepare=lambda: {"edges": full_edge_count(2, 9)},
    cases=lambda rng: _shuffled_cycle(sorted(EXPORT_SHA256), rng),
    run=export_run,
    step_timeout=60.0,
)


# group-order: one count-quotient process per case, cycling through the cases
# in an order drawn from the seed.  Only this workload reaches the
# automorphism search; each op is short, so interpreter start and import are
# a large share of it.  (3, 3, 1) is under the default cap but gives no
# answer within 40 s; every op of a workload must succeed, so it joins the
# list once the search can finish it.
GROUP_ORDER_CASES = ((2, 37, 1), (2, 2, 5), (3, 2, 1), (2, 3, 3))


def group_order_run(cli, case, expected):
    n, p, m = case
    args = ["aut", "count-quotient", "--n", str(n), "--p", str(p), "--m", str(m)]
    child = cli("count_quotient", args)
    return exit_error(child, "count-quotient") or check_group_order(child.stdout, case, expected)


GROUP_ORDER = Workload(
    name="group-order",
    prepare=lambda: {case: quotient_aut_order(*case) for case in GROUP_ORDER_CASES},
    cases=lambda rng: _shuffled_cycle(GROUP_ORDER_CASES, rng),
    run=group_order_run,
    step_timeout=20.0,
)


WORKLOADS = {w.name: w for w in (CLASSIFY, AUT_ROUNDTRIP, EXPORT, GROUP_ORDER)}
