"""End-to-end CLI behavior: formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import lirg
from lirg import serialize
from lirg.cli import INPUT_SLACK, UsageError, _printable_table, _read_input, _write_output, main
from lirg.field import PRIME_LIMIT, Field, make_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_info_table(capsys):
    code, out, _ = run(capsys, "ring-info", "--n", "2", "--p", "2")
    assert code == 0
    assert "total matrices: 16" in out
    assert "|GL(n, q)|: 6" in out
    rows = [line.split() for line in out.splitlines()]
    assert ["1", "3", "3", "9"] in rows
    assert ["2", "1", "6", "6"] in rows


def test_ring_info_trivial_ring(capsys):
    code, out, _ = run(capsys, "ring-info", "--n", "1", "--p", "2")
    assert code == 0
    rows = [l.split() for l in out.splitlines()]
    assert ["0", "1", "1", "1"] in rows
    assert ["1", "1", "1", "1"] in rows


def test_ring_info_n3(capsys):
    code, out, _ = run(capsys, "ring-info", "--n", "3", "--p", "2")
    assert code == 0
    rows = [l.split() for l in out.splitlines()]
    assert ["0", "1", "1", "1"] in rows
    assert ["1", "7", "7", "49"] in rows
    assert ["2", "7", "42", "294"] in rows
    assert ["3", "1", "168", "168"] in rows


def test_ring_info_large_prime_is_prompt(capsys):
    # Trial division up to sqrt(2^61 - 1) would take about 40 s here.
    start = time.perf_counter()
    code, out, _ = run(capsys, "ring-info", "--n", "2", "--p", "2305843009213693951")
    assert code == 0 and time.perf_counter() - start < 1.0
    assert "p=2305843009213693951 m=1" in out


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("ring-info --n 1 --p 1000003 --m 2", 0, ""),
        ("ring-info --n 1 --p 1000000007 --m 2", 0, ""),
        ("ring-info --n 1 --p 2 --m 24", 0, ""),
        ("ring-info --n 1 --p 2 --m 40", 0, ""),
        ("invariants --n 1 --p 2 --m 40", 2, "q^(n^2) = 2^40 exceeds the vertex cap 100000"),
        ("invariants --n 3000 --p 2", 2, "q^(n^2) = 2^9000000 exceeds the vertex cap 100000"),
        ("aut count-quotient --n 400 --p 2", 2, "subspace count of F_2^400 exceeds the vertex cap 40"),
        ("aut count-quotient --n 800 --p 2", 2, "subspace count of F_2^800 exceeds"),
        ("build-graph --quotient --n 400 --p 2", 2, "F_2^400 exceeds the vertex cap 100000"),
        ("build-graph --quotient --n 800 --p 2", 2, "subspace count of F_2^800 exceeds"),
    ],
)
def test_large_field_or_dimension_answers_promptly(capsys, argv, code, message):
    """A large p or m finds its modulus at once; a huge n is refused at the
    cap without summing Gaussian binomials or printing a huge integer."""
    start = time.perf_counter()
    got, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 2.0
    assert got == code and message in err
    assert (out == "") == (code == 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("build-graph --n 1 --p 2 --m 600", "q^(n^2) = 2^600 exceeds the vertex cap 100000"),
        ("aut sample --n 1 --p 2 --m 400", "q^(n^2) = 2^400 exceeds the vertex cap 100000"),
        ("invariants --n 1 --p 2 --m 300", "q^(n^2) = 2^300 exceeds the vertex cap 100000"),
        ("ring-info --n 400 --p 2", "q^(n^2) = 2^160000 has more than"),
    ],
)
def test_oversized_ring_refused_before_modulus_search(capsys, argv, message):
    """The size is decided from p, m and n; Ben-Or's test on a modulus of
    degree 300 to 600 would take seconds."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        "ring-info --n 1 --p 2 --m 600",
        "aut count-quotient --n 1 --p 2 --m 600",
        "build-graph --quotient --n 1 --p 2 --m 600",
    ],
)
def test_field_order_limit_refused_before_modulus_search(capsys, argv):
    """No size bound stops these commands; the field order limit does."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: q = 2^600 is at least 2^82, the field order limit\n"


def test_primality_and_degree_refused_before_size(capsys):
    code, _, err = run(capsys, "invariants", "--n", "1", "--p", "4", "--m", "300")
    assert code == 2 and "p = 4 is not prime" in err
    code, _, err = run(capsys, "ring-info", "--n", "400", "--p", "2", "--m", "0")
    assert code == 2 and "m = 0 must be >= 1" in err


def test_ring_info_digit_limit_boundary(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    # 2^14284 has 4300 decimal digits, 2^14285 has 4301
    assert 10**4299 < 2**14284 < 10**4300 < 2**14285
    _printable_table(argparse.Namespace(p=2, m=14284, n=1))
    with pytest.raises(UsageError, match=r"2\^14285 has more than 4300"):
        _printable_table(argparse.Namespace(p=2, m=14285, n=1))


def test_ring_info_n65_bytes_pinned(capsys):
    code, out, _ = run(capsys, "ring-info", "--n", "65", "--p", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9a30160974e01e0e95ea70e7297a43ed7d39738cd63eab22d013658aa6feb08a"
    )


def test_ring_info_refuses_p_beyond_prime_limit(capsys):
    code, out, err = run(capsys, "ring-info", "--n", "2", "--p", str(PRIME_LIMIT))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "too large" in err


def test_ring_info_builds_no_field_tables(capsys, monkeypatch):
    def no_tables(self):
        raise AssertionError("ring-info built field tables")

    monkeypatch.setattr(Field, "_build_tables", no_tables)
    code, out, _ = run(capsys, "ring-info", "--n", "3", "--p", "2", "--m", "3")
    assert code == 0 and out.startswith("ring-info n=3 p=2 m=3 ")


def test_build_graph_trivial(capsys):
    code, out, _ = run(capsys, "build-graph", "--n", "1", "--p", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("graph kind=full n=1 p=2 m=1 modulus=0,1 directed=1")
    assert lines[1:] == ["0 1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ring-info", "--n", "0", "--p", "2"],
        ["build-graph", "--n", "0", "--p", "2"],
        ["build-graph", "--quotient", "--n", "-2", "--p", "2"],
        ["invariants", "--n", "0", "--p", "2"],
        ["invariants", "--n", "-1", "--p", "2"],
        ["aut", "sample", "--n", "0", "--p", "2"],
        ["aut", "count-quotient", "--n", "0", "--p", "2"],
    ],
)
def test_dimension_below_one_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--n: must be at least 1" in err


def test_build_graph_edge_count(capsys):
    code, out, _ = run(capsys, "build-graph", "--n", "2", "--p", "2")
    assert code == 0
    lines = out.splitlines()
    assert "edges=69" in lines[0]
    assert len(lines) == 70


def test_build_graph_cap_refusal(capsys):
    code, out, err = run(capsys, "build-graph", "--n", "4", "--p", "3")
    assert code == 2
    assert out == ""
    assert "100000" in err


@pytest.mark.parametrize(
    "ring, fmt, direction, digest",
    [
        ("--n 2 --p 2 --m 2", "edges", "--directed",
         "4ffb2de9594aa336567ef6f805d97db4bb16de4cf398bef5e5e34b631b49c607"),
        ("--n 2 --p 2 --m 2", "edges", "--undirected",
         "4788712d5fdeab824bcc75d0a37d1c676966a89ce0990ea65dac5467e064c8fe"),
        ("--n 2 --p 2 --m 2", "dot", "--directed",
         "4bcf362a76ab321ce8c2a8e52d11f4b9528616c2e9c1026c00d62d3b002de554"),
        ("--n 2 --p 2 --m 2", "dot", "--undirected",
         "45097402878abfaadfd677940df6e483dc98afe90988ba9ed7828da13abd5cc1"),
        ("--n 3 --p 2", "edges", "--directed",
         "a439d2f4b8411ebe30d7ced9d05f30524ab0dfa3e05d5cb5d28f53c2517c00f6"),
        ("--n 3 --p 2", "edges", "--undirected",
         "d5df974608e445c5a0312ba30fd9e8d85cfbd3721e2ce75eb30b76b41139807c"),
        ("--n 3 --p 2", "dot", "--directed",
         "43ec9f1126155e62b0df57a69533094360ff3aa668132d4e81faf66c46ade858"),
        ("--n 3 --p 2", "dot", "--undirected",
         "81b799919f9820d71920207585b8d2c5658e118f91b8502e451d832caa6bdbdb"),
    ],
    ids=[
        f"{ring}-{fmt}-{d}"
        for ring in ("gf4-n2", "gf2-n3")
        for fmt in ("edges", "dot")
        for d in ("directed", "undirected")
    ],
)
def test_build_graph_bytes_pinned(capsys, ring, fmt, direction, digest):
    code, out, _ = run(capsys, "build-graph", *ring.split(), "--format", fmt, direction)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "ring, digest",
    [
        ("--n 3 --p 2 --seed 9",
         "0919b262d2ff47fc099a0176cce36cce054aa1814c7d81e4bb685974558afdce"),
        ("--n 3 --p 2 --m 2 --cap 262144 --seed 4",
         "25ced896e44f4fb6c204a183c22cd396f699a1695ee86809c60a9a3617abed49"),
        ("--n 1 --p 4099 --cap 5000 --seed 1",
         "3695c11c20bdc139741295e0b4c6162e0d3a33534868f2cba3e03f4181c9a7b9"),
        # The aut-roundtrip benchmark's ring and seeds.
        *((f"--n 3 --p 2 --m 2 --cap 300000 --seed {seed}", digest) for seed, digest in enumerate([
            "c28ba0eea1b81d8cf21775ce4d38d3eb90ddfc0a31cd5adcf57433ac3c741b7c",
            "1408ea4ac8600996d7293dfaa0bef40b43c437960845c851a5fceb00b207bc68",
            "a4d19057a87edd2891dcc8ce9861ffbc01aac0a8a871dc85a0e7f61d88893860",
            "25ced896e44f4fb6c204a183c22cd396f699a1695ee86809c60a9a3617abed49",
            "4d2493bc049ea1a558c3c32e47ce5ee6c6cc57dd8b0b4a533116c5df4171e536",
            "2fc549f292f65bd01a6040a738a79454e5fd3982c3b070f668f30409db9921a2",
            "f938c9e46e0b6b82829aa70ad10bf31afdd680b214ab68354e278ac1fe2e301e",
            "abc0588a55949a1aa4549f44ae7f66e2777083e984365012c142d9feaf77d375",
        ], start=1)),
    ],
    ids=["gf2-n3", "gf4-n3", "gf4099-n1", *(f"gf4-n3-seed{seed}" for seed in range(1, 9))],
)
def test_aut_sample_bytes_pinned(capsys, ring, digest):
    code, out, _ = run(capsys, "aut", "sample", *ring.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "ring, seed, digest",
    [
        ("--n 3 --p 2", "9",
         "d30702ff01eddb12bafb73b5efd67dacdefe3e12860dc6bf3edd6fae17266a4a"),
        ("--n 3 --p 2 --m 2 --cap 262144", "4",
         "d49022c77278c7ac81cea1ce162a6cf2a383e25a08f0e76afbd6b8834ab8ee77"),
        ("--n 3 --p 2 --m 2 --cap 300000", "1",
         "6e1b749397350b743b28b7815b05aa4f1feb3a033ba650ed683c510add919ea1"),
    ],
    ids=["gf2-n3", "gf4-n3", "gf4-n3-seed1"],
)
def test_aut_decompose_bytes_pinned(capsys, tmp_path, ring, seed, digest):
    perm = tmp_path / "f.perm"
    assert run(capsys, "aut", "sample", *ring.split(), "--seed", seed, "--out", str(perm))[0] == 0
    code, out, _ = run(capsys, "aut", "decompose", *ring.split(), "--perm", str(perm))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cap_override_boundary(capsys):
    code, out, _ = run(capsys, "build-graph", "--n", "2", "--p", "2", "--cap", "16")
    assert code == 0 and "vertices=16" in out
    code, _, err = run(capsys, "build-graph", "--n", "2", "--p", "2", "--cap", "15")
    assert code == 2 and "15" in err


def test_build_graph_dot_and_undirected(capsys):
    code, out, _ = run(
        capsys, "build-graph", "--n", "1", "--p", "3", "--format", "dot", "--undirected"
    )
    assert code == 0
    assert out.startswith("graph lirg {")
    assert "v0 -- v1;" in out


def test_build_graph_quotient(capsys):
    code, out, _ = run(capsys, "build-graph", "--n", "2", "--p", "2", "--quotient")
    assert code == 0
    assert "kind=quotient" in out.splitlines()[0]
    assert "vertices=5" in out.splitlines()[0]


def test_invariants_match(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "2", "--p", "2")
    assert code == 0
    assert out.count("match") == 8
    assert "MISMATCH" not in out


def test_invariants_sdim_n3(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "3", "--p", "2")
    assert code == 0
    assert any(
        line.split()[:3] == ["strong_metric_dimension", "508", "508"]
        for line in out.splitlines()
        if line.startswith("strong_metric_dimension")
    )


def test_invariants_n1_marks_rows(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "1", "--p", "2")
    assert code == 0
    assert "n/a (n<2)" in out


def test_invariants_json_kv(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "2", "--p", "3", "--format", "json-kv")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["strong_metric_dimension_computed"] == 78
    assert doc["girth_computed"] == 3
    assert doc["modulus"] == [0, 1]
    assert len(doc["girth_witness"]) == 3


def test_invariants_over_gf2_11(capsys):
    # Field tables of size q, not q x q, keep this 2,048-vertex run short.
    code, out, _ = run(
        capsys, "invariants", "--n", "1", "--p", "2", "--m", "11", "--cap", "5000",
        "--format", "json-kv",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["q"], doc["match"]) == (2048, True)


@pytest.mark.parametrize(
    "ring, fmt, digest",
    [
        ("--n 1 --p 2", "text",
         "3b3be9bf3dd770834fe13a824a604754317f3d4be2e441b90a80419dee15fc59"),
        ("--n 1 --p 2", "json-kv",
         "5d5c2b5fd28294592d4a3b1aa55b114cb389f935ab22c771b539862d7757c079"),
        ("--n 1 --p 5", "text",
         "36dc3e78553c094b1916baaed6d7da742a62e83b145c8e6b6cf6b600612d68cc"),
        ("--n 1 --p 5", "json-kv",
         "730116900f453d44e40568a406df7dc6fb2cc026f31da51af99b5dbf61f53fe6"),
        ("--n 2 --p 2", "text",
         "c5e1eb631165d45a7418d9e6e8009faf7704b31acc6fca7fce53e6e7d73b4d30"),
        ("--n 2 --p 2", "json-kv",
         "385451753453db774d70ea1e8469688a34b4214b7fdfacb33ee2e0de3317010a"),
        ("--n 2 --p 3", "text",
         "463187fffe9bb6cf1ddb408afd4f6b731679580aaaf4ed316f5f996d68c6a8df"),
        ("--n 2 --p 3", "json-kv",
         "197c9c54acfd549640da2167a1f673618a37be5a1ea8b71d7f0b035e664374f9"),
        ("--n 2 --p 2 --m 2", "text",
         "221d7a37b735d495c48dc39809876fa343fe05a66d70c41afb6af16fcd82cf7d"),
        ("--n 2 --p 2 --m 2", "json-kv",
         "8d7e98feacdda82132e886caf7c5fe02c8a22de7563057273f4cb63437365943"),
        ("--n 3 --p 2", "text",
         "f05ae69eb554620e0029e72eaac81128eb67427c81f355040367523b1bf2e36a"),
        ("--n 3 --p 2", "json-kv",
         "032fbb93b3fc92cffee28c43027fa578e84c0267401e589eaa78c81d128d7681"),
        ("--n 3 --p 5 --cap 2000000", "text",
         "29d42d2b78707019280a34afc9f1401abc2169800ac5d2eda56a48ad24ec3e13"),
        ("--n 3 --p 5 --cap 2000000", "json-kv",
         "184bb505ead244c54b1600170ec0d1a91eaa4715502522bbca10eb6e32396b25"),
    ],
    ids=[
        f"{ring}-{fmt}"
        for ring in ("gf2-n1", "gf5-n1", "gf2-n2", "gf3-n2", "gf4-n2", "gf2-n3", "gf5-n3")
        for fmt in ("text", "json")
    ],
)
def test_invariants_bytes_pinned(capsys, ring, fmt, digest):
    code, out, _ = run(capsys, "invariants", *ring.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_invariants_bytes_pinned_16_bit_class_index(capsys):
    # 374 classes over 2^25 vertices: the class index is uint16
    code, out, _ = run(
        capsys, "invariants", "--n", "5", "--p", "2", "--cap", "40000000",
        "--format", "json-kv",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1555ecb1ad506084f0bf33a2ad67533b9c7c050d3a38735e8846dddd19dfb5c"
    )


def test_invariants_mismatch_trips_exit_code(capsys, monkeypatch):
    import lirg.invariants as inv

    real = inv.predicted_invariants

    def wrong(n, q):
        preds = real(n, q)
        preds["girth"] = 4
        return preds

    monkeypatch.setattr(inv, "predicted_invariants", wrong)
    code, out, _ = run(capsys, "invariants", "--n", "2", "--p", "2")
    assert code == 1
    assert "MISMATCH" in out


def test_invariants_prints_triangle_witness(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "2", "--p", "2")
    assert code == 0
    assert "triangle witness vertices" in out


def test_gf4_field_flag(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "2", "--p", "2", "--m", "2")
    assert code == 0
    assert "modulus=1,1,1" in out
    assert "MISMATCH" not in out


def test_explicit_modulus_flag(capsys):
    code, out, _ = run(
        capsys, "ring-info", "--n", "1", "--p", "2", "--m", "3", "--modulus", "1,1,0,1"
    )
    assert code == 0
    assert "modulus=1,1,0,1" in out


def test_bad_modulus_rejected(capsys):
    code, _, err = run(
        capsys, "ring-info", "--n", "1", "--p", "2", "--m", "2", "--modulus", "1,0,1"
    )
    assert code == 2
    assert "reducible" in err


def test_nonprime_p_usage_error(capsys):
    code, _, err = run(capsys, "ring-info", "--n", "2", "--p", "6")
    assert code == 2
    assert "not prime" in err


def test_missing_subcommand_usage_error(capsys):
    assert main([]) == 2


def test_determinism_across_runs(capsys, tmp_path):
    args = ["aut", "sample", "--n", "2", "--p", "3", "--seed", "42"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "aut", "sample", "--n", "2", "--p", "3", "--seed", "43")
    assert out3 != out1


def test_aut_sample_verify_roundtrip(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    # q = 4099: a large prime field
    for config in (["--n", "2", "--p", "2"], ["--n", "1", "--p", "4099", "--cap", "5000"]):
        code, _, _ = run(capsys, "aut", "sample", *config, "--seed", "1", "--out", str(perm))
        assert code == 0
        code, out, _ = run(capsys, "aut", "verify", *config, "--perm", str(perm))
        assert code == 0
        assert "automorphism verified" in out


def test_aut_verify_detects_tampering(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    run(capsys, "aut", "sample", "--n", "2", "--p", "2", "--seed", "1", "--out", str(perm))
    lines = perm.read_text().splitlines()
    # redirect vertex 0 onto vertex 1's image and vice versa
    head, body = lines[0], lines[1:]
    a = body[0].split()[1]
    b = body[1].split()[1]
    body[0], body[1] = f"0 {b}", f"1 {a}"
    perm.write_text("\n".join([head] + body) + "\n")
    code, out, _ = run(capsys, "aut", "verify", "--n", "2", "--p", "2", "--perm", str(perm))
    assert code == 1
    assert "verification failed" in out


GF4_N3 = ["--n", "3", "--p", "2", "--m", "2", "--cap", "262144"]


@pytest.fixture(scope="module")
def gf4_perm(tmp_path_factory):
    """A sampled automorphism of GF(4), n = 3, as (path, text)."""
    path = tmp_path_factory.mktemp("gf4") / "perm.txt"
    assert main(["aut", "sample", *GF4_N3, "--seed", "7", "--out", str(path)]) == 0
    return path, path.read_text()


@pytest.fixture(scope="module")
def gf4_dec(tmp_path_factory, gf4_perm):
    """The decomposition of ``gf4_perm``, as a path."""
    path = tmp_path_factory.mktemp("gf4") / "dec.txt"
    assert main(["aut", "decompose", *GF4_N3, "--perm", str(gf4_perm[0]), "--out", str(path)]) == 0
    return path


# Traced peaks of cli.main at GF(4), n = 3, measured: sample 4.0 MB, verify
# 2.9, decompose 3.7, recompose 3.9; with up to three permutations and whole
# texts held they were 8.3, 8.4, 9.5 and 8.4 MB.
@pytest.mark.parametrize(
    "step, bound", [("sample", 5.0), ("verify", 3.6), ("decompose", 4.6), ("recompose", 4.8)]
)
def test_aut_step_traced_peak(tmp_path, gf4_perm, gf4_dec, step, bound):
    source = {"sample": ["--seed", "7"], "recompose": ["--report", str(gf4_dec)]}
    argv = ["aut", step, *GF4_N3, *source.get(step, ["--perm", str(gf4_perm[0])])]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main([*argv, "--out", str(tmp_path / "out.txt")]) == 0
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("u, v, witness", [(0, 1, "(0, 16)"), (5, 200000, "(16, 5)")])
def test_aut_verify_failure_witness_pinned(capsys, tmp_path, gf4_perm, u, v, witness):
    # Swap the images of vertices u and v.  The witness is the first broken
    # (source class, image class) pair in ascending code order, each code
    # carried by its first vertex.
    lines = gf4_perm[1].splitlines()
    a, b = lines[1 + u].split()[1], lines[1 + v].split()[1]
    lines[1 + u], lines[1 + v] = f"{u} {b}", f"{v} {a}"
    perm = tmp_path / "tampered.txt"
    perm.write_text("\n".join(lines) + "\n")
    assert run(capsys, "aut", "verify", *GF4_N3, "--perm", str(perm)) == (
        1,
        "verify n=3 p=2 m=2 modulus=1,1,1\n"
        f"verification failed: edge relation broken at pair {witness}\n",
        "",
    )


def test_aut_recompose_skips_empty_cycles(capsys, tmp_path):
    ring = ["--n", "3", "--p", "2"]
    perm, dec, out = tmp_path / "f.perm", tmp_path / "f.dec", tmp_path / "g.perm"
    assert run(capsys, "aut", "sample", *ring, "--seed", "3", "--out", str(perm))[0] == 0
    assert run(capsys, "aut", "decompose", *ring, "--perm", str(perm), "--out", str(dec))[0] == 0
    text = dec.read_text()
    # "()" before the first cycle, between every two, and after the last.
    padded = re.sub(r"cycles=(.*)", lambda mt: "cycles=()" + mt[1].replace(")(", ")()(") + "()", text)
    assert padded.count(")()(") > padded.count("cycles=()(") > 1
    dec.write_text(padded)
    assert run(capsys, "aut", "recompose", *ring, "--report", str(dec), "--out", str(out))[0] == 0
    assert out.read_bytes() == perm.read_bytes()


def test_aut_verify_accepts_crlf_and_spacing_variants(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    ring = ["--n", "2", "--p", "3"]
    assert run(capsys, "aut", "sample", *ring, "--seed", "5", "--out", str(perm))[0] == 0
    lines = perm.read_text().splitlines()
    body = ["\t" + line.replace(" ", " \t  ") + "  " for line in lines[1:]]
    perm.write_bytes(("\r\n".join([lines[0], *body]) + "\r\n").encode())
    code, out, _ = run(capsys, "aut", "verify", *ring, "--perm", str(perm))
    assert (code, out) == (0, "verify n=2 p=3 m=1 modulus=0,1\nautomorphism verified\n")


def test_input_line_ends_and_encoding(capsys, tmp_path):
    # Read as a text file is read: a lone CR ends a line, and a file that
    # is not UTF-8 is refused.
    perm = tmp_path / "perm.txt"
    ring = ["--n", "2", "--p", "3"]
    assert run(capsys, "aut", "sample", *ring, "--seed", "5", "--out", str(perm))[0] == 0
    text = perm.read_bytes()
    perm.write_bytes(text.replace(b"\n", b"\r"))
    code, out, _ = run(capsys, "aut", "verify", *ring, "--perm", str(perm))
    assert (code, out) == (0, "verify n=2 p=3 m=1 modulus=0,1\nautomorphism verified\n")
    perm.write_bytes(text[:60] + b"\xff" + text[60:])
    code, out, err = run(capsys, "aut", "verify", *ring, "--perm", str(perm))
    assert (code, out) == (2, "")
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 60: invalid start byte\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_aut_verify_reads_a_pipe(gf4_perm):
    # The 3.4 MB GF(4), n = 3 permutation through /dev/stdin, as a pipe.
    src = Path(lirg.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lirg.cli", "aut", "verify", *GF4_N3, "--perm", "/dev/stdin"],
        input=gf4_perm[1].encode(),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.endswith(b"\nautomorphism verified\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize(
    "sub, flag", [("verify", "--perm"), ("decompose", "--perm"), ("recompose", "--report")]
)
def test_endless_input_refused_promptly(capsys, sub, flag):
    start = time.perf_counter()
    code, out, err = run(capsys, "aut", sub, "--n", "1", "--p", "2", flag, "/dev/zero")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: /dev/zero is longer than ") and err.count("\n") == 1


def test_input_size_limit_boundary(tmp_path):
    # N = 512 vertices, numbers up to 3 digits wide: 512 * 4 * 5 + slack.
    limit = 512 * 20 + INPUT_SLACK
    path = tmp_path / "input.txt"
    path.write_text("x" * limit)
    assert len(b"".join(_read_input(str(path), 512))) == limit
    path.write_text("x" * (limit + 1))
    with pytest.raises(UsageError, match=f"longer than {limit} characters"):
        b"".join(_read_input(str(path), 512))


def test_aut_decompose_recompose_byte_identical(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    dec = tmp_path / "dec.txt"
    perm2 = tmp_path / "perm2.txt"
    assert run(
        capsys, "aut", "sample", "--n", "3", "--p", "2", "--seed", "9", "--out", str(perm)
    )[0] == 0
    assert run(
        capsys,
        "aut", "decompose", "--n", "3", "--p", "2",
        "--perm", str(perm), "--out", str(dec),
    )[0] == 0
    assert run(
        capsys,
        "aut", "recompose", "--n", "3", "--p", "2",
        "--report", str(dec), "--out", str(perm2),
    )[0] == 0
    assert perm.read_bytes() == perm2.read_bytes()


def test_aut_decompose_roundtrip_gf4(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    dec = tmp_path / "dec.txt"
    perm2 = tmp_path / "perm2.txt"
    base = ["--n", "3", "--p", "2", "--m", "2", "--cap", "262144"]
    assert run(capsys, "aut", "sample", *base, "--seed", "4", "--out", str(perm))[0] == 0
    assert "modulus=1,1,1" in perm.read_text().splitlines()[0]
    assert run(capsys, "aut", "decompose", *base, "--perm", str(perm), "--out", str(dec))[0] == 0
    assert run(capsys, "aut", "recompose", *base, "--report", str(dec), "--out", str(perm2))[0] == 0
    assert perm.read_bytes() == perm2.read_bytes()


def test_aut_decompose_needs_n_at_least_3(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    run(capsys, "aut", "sample", "--n", "2", "--p", "2", "--seed", "1", "--out", str(perm))
    code, _, err = run(capsys, "aut", "decompose", "--n", "2", "--p", "2", "--perm", str(perm))
    assert code == 2
    assert "n >= 3" in err


def test_aut_decompose_rejects_non_automorphism(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    run(capsys, "aut", "sample", "--n", "3", "--p", "2", "--seed", "2", "--out", str(perm))
    lines = perm.read_text().splitlines()
    body = lines[1:]
    a = body[0].split()[1]
    b = body[1].split()[1]
    body[0], body[1] = f"0 {b}", f"1 {a}"
    perm.write_text("\n".join([lines[0]] + body) + "\n")
    code, out, _ = run(capsys, "aut", "decompose", "--n", "3", "--p", "2", "--perm", str(perm))
    assert code == 1
    assert "failed" in out
    assert run(capsys, "aut", "verify", "--n", "3", "--p", "2", "--perm", str(perm)) == (1, out, "")


def test_aut_count_quotient(capsys):
    code, out, _ = run(capsys, "aut", "count-quotient", "--n", "3", "--p", "2")
    assert code == 0
    assert "order: 168" in out
    assert "modulus=0,1" in out  # resolved config echoed


def test_aut_count_quotient_gf3_n3(capsys):
    code, out, _ = run(capsys, "aut", "count-quotient", "--n", "3", "--p", "3")
    assert code == 0
    assert out.endswith("\nquotient automorphism group order: 5616\n")


@pytest.mark.parametrize("command", [["ring-info"], ["aut", "count-quotient"]])
def test_cap_flag_refused_where_no_graph_is_built(capsys, command):
    code, out, err = run(capsys, *command, "--n", "3", "--p", "2", "--cap", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --cap" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: text.replace("cycles=(4 36 32)", "cycles=(4 36 4 32)"), "vertex 4 appears twice"),
        (lambda text: text.split("sigma\n")[0], "missing sigma block"),
        (
            lambda text: re.sub(r"P\n3\n(.*\n){3}", "P\n2\n1 0\n0 1\n", text),
            "P block is 2x2, expected 3x3",
        ),
        (lambda text: text.replace("cycles=(4 36 32)", "cycles=(-1 36 32)"), "leaves its ideal class"),
        (lambda text: text.replace("cycles=(4 36 32)", "cycles=(4 36 512)"), "leaves its ideal class"),
        (lambda text: text.replace("cycles=(4 36 32)", "cycles=(4 36 99999999999999999999)"), "int64"),
        (lambda text: text.replace(" basis=", " basis:", 1), "malformed sigma line"),
        (lambda text: "   \n" + text, "not a decomposition file"),
        (lambda text: text.replace("cycles=(4 36 32)", "cycles=((4 36 32)"), "string '(4'"),
        (lambda text: text.replace("(256 292 288)", "(256 292 288))"), "string '288)'"),
        (lambda text: text.replace("class rank=1 basis=0,0,1 ", "class rank=2 basis=0,0,1 "),
         "class rank=2 but its basis has rank 1"),
        (lambda text: text.replace(" basis=0,0,1 ", " basis=;0,0,1 "), "empty row in class basis"),
        (lambda text: text.replace("class rank=1 basis=0,0,1 ", "class basis=0,0,1 "),
         "malformed sigma line"),
        (lambda text: text.replace("class rank=1 basis=0,0,1 ", "klass rank=1 basis=0,0,1 "),
         "malformed sigma line"),
    ],
    ids=["repeated-cycle-vertex", "ends-after-t", "wrong-P-dimension", "negative-cycle-vertex",
         "cycle-vertex-past-N", "cycle-vertex-beyond-int64", "sigma-line-without-basis",
         "blank-header", "doubled-opening-parenthesis", "doubled-closing-parenthesis",
         "rank-not-the-basis-rank", "empty-basis-row", "class-line-without-rank",
         "line-not-a-class"],
)
def test_recompose_refuses_malformed_report(capsys, tmp_path, edit, message):
    ring = ["--n", "3", "--p", "2"]
    perm, dec, out = tmp_path / "f.perm", tmp_path / "f.dec", tmp_path / "g.perm"
    assert run(capsys, "aut", "sample", *ring, "--seed", "3", "--out", str(perm))[0] == 0
    assert run(capsys, "aut", "decompose", *ring, "--perm", str(perm), "--out", str(dec))[0] == 0
    text = dec.read_text()
    assert "cycles=(4 36 32)" in text
    dec.write_text(edit(text))
    out.write_bytes(b"old bytes\n")
    code, stdout, err = run(capsys, "aut", "recompose", *ring, "--report", str(dec), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert out.read_bytes() == b"old bytes\n"


def test_recompose_accepts_a_class_line_of_empty_cycles(capsys, tmp_path):
    # A class whose cycles are all empty moves no vertex, as if its line
    # were left out.
    ring = ["--n", "3", "--p", "2"]
    perm, dec = tmp_path / "f.perm", tmp_path / "f.dec"
    assert run(capsys, "aut", "sample", *ring, "--seed", "3", "--out", str(perm))[0] == 0
    assert run(capsys, "aut", "decompose", *ring, "--perm", str(perm), "--out", str(dec))[0] == 0
    text = dec.read_text()
    line = "class rank=1 basis=0,1,0 cycles=(2 130 146 16)\n"
    assert line in text
    outs = []
    for edited in (text.replace(line, line.split("cycles=")[0] + "cycles=()()\n"), text.replace(line, "")):
        dec.write_text(edited)
        code, out, err = run(capsys, "aut", "recompose", *ring, "--report", str(dec))
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] != perm.read_text()


@pytest.mark.parametrize(
    "body",
    [
        "0 1 2\n1 2\n2 0",
        "0 1\n1\n2 0",
        "0 1 1\n0\n2 2",
        "0 1\n\n2 0",
        "0 1.0\n1 2\n2 0",
        "0 x\n1 2\n2 0",
        "0 99999999999999999999\n1 2\n2 0",
    ],
    ids=["three-fields", "one-field", "compensating-pair", "blank-line", "decimal-point",
         "letter", "beyond-int64"],
)
def test_malformed_mapping_lines_refused(capsys, tmp_path, body):
    head = "perm n=1 p=3 m=1 modulus=0,1 directed=1\n"
    with pytest.raises(ValueError):
        serialize.parse_permutation((head + body + "\n").encode(), (1, make_field(3, 1)))
    perm, out = tmp_path / "f.perm", tmp_path / "out.txt"
    perm.write_text(head + body + "\n")
    out.write_bytes(b"old bytes\n")
    code, stdout, err = run(
        capsys, "aut", "verify", "--n", "1", "--p", "3", "--perm", str(perm), "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.read_bytes() == b"old bytes\n"


def test_malformed_perm_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "aut", "verify", "--n", "2", "--p", "2", "--perm", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "sub, flag, head",
    [
        ("verify", "--perm", "perm n=1 p=100049 m=4 modulus=100046,0,0,0,1 directed=1"),
        ("recompose", "--report", "decomposition n=1 p=100049 m=4 modulus=100046,0,0,0,1"),
    ],
    ids=["verify", "recompose"],
)
def test_foreign_header_refused_before_field_checks(
    capsys, tmp_path, monkeypatch, sub, flag, head
):
    # Only the requested GF(2) may be built, never the header's GF(100049^4).
    real_init = Field.__init__

    def no_header_field(self, p, m, modulus=None):
        if p != 2:
            raise AssertionError("a field was built from the file header")
        real_init(self, p, m, modulus)

    monkeypatch.setattr(Field, "__init__", no_header_field)
    path = tmp_path / "foreign.txt"
    path.write_text(head + "\n0 0\n")
    code, out, err = run(capsys, "aut", sub, "--n", "1", "--p", "2", flag, str(path))
    assert code == 2
    assert out == ""
    assert "does not match the requested ring" in err


def test_mismatched_perm_ring(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    run(capsys, "aut", "sample", "--n", "2", "--p", "2", "--seed", "1", "--out", str(perm))
    code, _, err = run(capsys, "aut", "verify", "--n", "2", "--p", "3", "--perm", str(perm))
    assert code == 2
    assert "does not match" in err


def test_output_file_written_atomically(capsys, tmp_path):
    out = tmp_path / "info.txt"
    code, _, _ = run(capsys, "ring-info", "--n", "2", "--p", "2", "--out", str(out))
    assert code == 0
    assert "total matrices: 16" in out.read_text()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".lirg-")]
    assert leftovers == []


def test_failed_stream_keeps_old_output(tmp_path):
    out = tmp_path / "graph.txt"
    out.write_bytes(b"old bytes\n")

    def chunks():
        yield "first chunk\n"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        _write_output(chunks(), str(out))
    assert out.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["graph.txt"]
