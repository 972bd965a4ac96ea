"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 9 asserts a stated constant that the brute-force count refutes;
it is expected to fail and the printed line carries both numbers.
"""

import math
import random
import time

from conftest import brute_ideal_sets, copied, exported_adjacency, random_right_mul, random_triple
from lirg import aut
from lirg.counting import (
    fiber_size,
    gaussian_binomial,
    gl_order,
    matrix_space_size,
    predicted_degree,
)
from lirg.field import make_field
from lirg.graph import build_full_graph
from lirg.ideal import ideal_of, proper_subset
from lirg.invariants import (
    clique_and_chromatic,
    eulerian_check,
    girth,
    k33_witness,
    metric,
    domination_number,
    strong_metric_dimension,
)
from lirg.matrix import enumerate_matrices

REGRESSION_CASES = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)]


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")
    return ok


def test_criterion_01_invariant_regression(graphs):
    start = time.perf_counter()
    failures = []
    for p, m, n in REGRESSION_CASES:
        G = graphs(p, m, n)
        q = G.field.q
        computed = (
            *clique_and_chromatic(G),
            girth(G),
            metric(G)[0],
            metric(G)[1],
            domination_number(G),
            strong_metric_dimension(G),
        )
        expected = (n + 1, n + 1, 3, 2, 1, 1, q ** (n * n) - n - 1)
        if computed != expected:
            failures.append((n, q, computed, expected))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(
        1,
        ok,
        f"(omega, chi, girth, diam, radius, gamma, sdim) exact on all "
        f"{len(REGRESSION_CASES)} cases in {elapsed:.1f}s (< 60s); "
        f"failures={failures}",
    )


def test_criterion_02_eulerian(graphs):
    failures = []
    for p, m, n in REGRESSION_CASES:
        G = graphs(p, m, n)
        is_eulerian, witness = eulerian_check(G)
        d_i, d_o = G.degrees(witness)
        if is_eulerian or (d_i + d_o) % 2 == 0:
            failures.append((n, G.field.q, witness))
    assert report(
        2,
        not failures,
        f"not Eulerian with an odd-degree witness on all cases; failures={failures}",
    )


def test_criterion_03_k33_witness():
    failures = []
    for p in (2, 3):
        F = make_field(p, 1)
        for n in (2, 3):
            try:
                side1, side2 = k33_witness(F, n)
            except (AssertionError, ValueError) as exc:
                failures.append((n, p, str(exc)))
                continue
            if len(set(side1 + side2)) != 6:
                failures.append((n, p, "vertices not distinct"))
            for X in side1:
                for Y in side2:
                    if not proper_subset(F, ideal_of(F, X), ideal_of(F, Y)):
                        failures.append((n, p, "missing cross edge"))
    assert report(
        3,
        not failures,
        f"K_3,3 witness: 9 cross edges, 6 distinct vertices for "
        f"n in {{2,3}}, q in {{2,3}}; failures={failures}",
    )


def test_criterion_04_ideal_oracle_equivalence():
    start = time.perf_counter()
    F = make_field(2, 1)
    sets = brute_ideal_sets(F, 2)
    ideals = [ideal_of(F, X) for X in enumerate_matrices(F, 2)]
    mismatches = 0
    for i in range(16):
        for j in range(16):
            if (ideals[i] == ideals[j]) != (sets[i] == sets[j]):
                mismatches += 1
            if proper_subset(F, ideals[i], ideals[j]) != (sets[i] < sets[j]):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    assert report(
        4,
        ok,
        f"canonical containment/equality agrees with brute-force sets on all "
        f"256 pairs in {elapsed:.2f}s (< 5s); mismatches={mismatches}",
    )


def test_criterion_05_degree_laws(graphs):
    failures = []
    for p, m, n in [(2, 1, 2), (3, 1, 2), (2, 1, 3)]:
        G = graphs(p, m, n)
        q = G.field.q
        per_rank = {}
        for v in range(G.vertex_count):
            r = G.rank_of_vertex(v)
            d = G.degrees(v)
            per_rank.setdefault(r, set()).add(d)
            if d != predicted_degree(n, r, q)[:2]:
                failures.append((n, q, v, d))
                break
        if any(len(degs) != 1 for degs in per_rank.values()):
            failures.append((n, q, "degrees not constant on a rank class"))
        ranks = sorted(per_rank)
        for a, b in zip(ranks, ranks[1:]):
            (dia, doa) = next(iter(per_rank[a]))
            (dib, dob) = next(iter(per_rank[b]))
            if not (dia < dib and doa > dob):
                failures.append((n, q, "monotonicity broken"))
    assert report(
        5,
        not failures,
        f"per-vertex degrees constant on rank classes, strictly monotone, "
        f"equal to predictions (exhaustive); failures={failures}",
    )


def test_criterion_06_standard_automorphisms(graphs):
    failures = []
    checked = 0

    # 50 seeded right multiplications across the exhaustive-scale graphs
    phi_targets = [(2, 1, 2)] * 17 + [(3, 1, 2)] * 17 + [(2, 1, 3)] * 16
    for seed, (p, m, n) in enumerate(phi_targets, start=1):
        G = graphs(p, m, n)
        f = random_right_mul(G, seed)
        ok, witness = aut.verify(G, f)
        checked += 1
        if not ok:
            failures.append(("phi", p, m, n, seed, witness))

    # every Frobenius exponent of GF(4), on two graph sizes
    for p, m, n in [(2, 2, 2), (2, 2, 3)]:
        G = graphs(p, m, n, cap=None)
        for t in G.field.automorphism_exponents():
            f = aut.frobenius_automorphism(G, t)
            ok, witness = aut.verify(G, f)
            checked += 1
            if not ok:
                failures.append(("frobenius", p, m, n, t, witness))

    # 20 seeded class permutations
    G = graphs(2, 1, 3)
    for seed in range(1, 21):
        f = aut.random_class_permutation(G, random.Random(seed))
        ok, witness = aut.verify(G, f)
        checked += 1
        if not ok:
            failures.append(("sigma", seed, witness))

    # 20 seeded rank-class permutations at n = 2
    for seed in range(1, 11):
        for p in (2, 3):
            G = graphs(p, 1, 2)
            f = aut.random_rank_class_permutation(G, random.Random(seed))
            ok, witness = aut.verify(G, f)
            checked += 1
            if not ok:
                failures.append(("rho", p, seed, witness))

    assert report(
        6,
        not failures,
        f"{checked} standard automorphisms (50 phi, all Frobenius over GF(4), "
        f"20 sigma, 20 rho) pass verification; failures={failures}",
    )


def test_criterion_07_decomposition_roundtrip():
    start = time.perf_counter()
    failures = []
    for p, m in [(2, 1), (2, 2)]:
        F = make_field(p, m)
        G = build_full_graph(F, 3, directed=True, cap=None)
        for seed in range(1, 21):
            _, _, _, f = random_triple(G, seed)
            dec = aut.decompose(G, copied(f))
            if aut.recompose(G, dec) != f:
                failures.append((F.q, seed))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    assert report(
        7,
        ok,
        f"compose -> decompose -> recompose pointwise equal on all q^9 "
        f"vertices, n=3, q in {{2,4}}, 20 seeds each, in {elapsed:.1f}s "
        f"(< 120s); failures={failures}",
    )


def test_criterion_08_quotient_aut_counts():
    got = (
        aut.quotient_aut_order(make_field(2, 1), 2),
        aut.quotient_aut_order(make_field(3, 1), 2),
        aut.quotient_aut_order(make_field(2, 1), 3),
    )
    formula = gl_order(3, 2) // (2 - 1) * 1
    ok = got == (6, 24, 168) and got[2] == formula
    assert report(
        8,
        ok,
        f"quotient automorphism orders {got} == (6, 24, 168); "
        f"|GL(3,2)|/(q-1)*m = {formula}",
    )


def test_criterion_09_full_group_order(graphs):
    """Stated: the brute-force automorphism count of the 16-vertex graph
    equals 6*(3!)^3*6! = 933120.  The count is 1!*9!*6! = 261273600: for
    n = 2 the three line classes are mutual twins (identical in- and
    out-neighborhoods), so automorphisms mix them freely and the
    class-respecting product undercounts.  Expected to fail on the stated
    constant; the structural order agrees with the brute force."""
    G = graphs(2, 1, 2)
    ranks = [G.rank_of_vertex(v) for v in range(16)]
    brute = aut.digraph_aut_order(exported_adjacency(G), ranks)
    structural = aut.full_aut_order(make_field(2, 1), 2)
    stated = 6 * math.factorial(3) ** 3 * math.factorial(6)
    ok = brute == structural.value == stated
    assert report(
        9,
        ok,
        f"brute-force count {brute}, structural order {structural} = "
        f"{structural.value}, stated constant 6*(3!)^3*6! = {stated}",
    )


def test_criterion_10_counting_identities():
    failures = []
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            total = sum(
                gaussian_binomial(n, r, q) * fiber_size(n, r, q)
                for r in range(n + 1)
            )
            if total != matrix_space_size(n, q):
                failures.append((n, q))
    assert report(
        10,
        not failures,
        f"sum over r of [n r]_q * prod_j (q^n - q^j) = q^(n^2) for n <= 4, "
        f"q <= 5; failures={failures}",
    )
