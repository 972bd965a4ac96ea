"""Closed-form counts against enumeration oracles and exact identities."""

import pytest

from lirg.counting import (
    count_report,
    fiber_size,
    gaussian_binomial,
    gl_order,
    matrix_space_size,
    predicted_degree,
    rank_class_size,
    superspace_count,
)
from lirg.field import make_field
from lirg.matrix import enumerate_matrices, ideal_of, is_invertible, rank


def oracle_subspace_count(F, n, r):
    """Count distinct rank-r row spaces by brute-force canonicalization."""
    return len({ideal_of(F, X) for X in enumerate_matrices(F, n) if rank(F, X) == r})


def test_gaussian_binomial_examples():
    assert gaussian_binomial(5, 0, 2) == 1
    F2 = make_field(2, 1)
    assert gaussian_binomial(2, 1, 2) == oracle_subspace_count(F2, 2, 1) == 3
    assert gaussian_binomial(3, 1, 2) == oracle_subspace_count(F2, 3, 1) == 7
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_gaussian_binomial_matches_enumeration():
    for p, n in [(2, 2), (3, 2), (2, 3)]:
        F = make_field(p, 1)
        for r in range(n + 1):
            assert gaussian_binomial(n, r, p) == oracle_subspace_count(F, n, r)


def test_fiber_size_examples():
    assert fiber_size(2, 2, 2) == 6  # (4 - 1)(4 - 2)
    assert fiber_size(3, 0, 5) == 1
    # brute force: 2x2 binary matrices with row space exactly span{(1,0)}
    F2 = make_field(2, 1)
    target = ideal_of(F2, ((1, 0), (0, 0)))
    count = sum(1 for X in enumerate_matrices(F2, 2) if ideal_of(F2, X) == target)
    assert fiber_size(2, 1, 2) == count == 3


def test_rank_class_size_examples():
    F2 = make_field(2, 1)
    by_rank = {r: 0 for r in range(3)}
    for X in enumerate_matrices(F2, 2):
        by_rank[rank(F2, X)] += 1
    assert rank_class_size(2, 0, 2) == by_rank[0] == 1
    assert rank_class_size(2, 1, 2) == by_rank[1] == 9
    assert rank_class_size(2, 2, 2) == by_rank[2] == 6


def test_rank_class_sizes_sum_to_total():
    for n in range(1, 4):
        for q in (2, 3, 4, 5):
            assert sum(rank_class_size(n, r, q) for r in range(n + 1)) == q ** (n * n)


def test_counting_identity_big():
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            total = sum(
                gaussian_binomial(n, r, q) * fiber_size(n, r, q) for r in range(n + 1)
            )
            assert total == matrix_space_size(n, q)


def test_gl_order_matches_invertible_count():
    for p in (2, 3):
        F = make_field(p, 1)
        count = sum(1 for X in enumerate_matrices(F, 2) if is_invertible(F, X))
        assert gl_order(2, p) == count


def test_predicted_degree_examples():
    assert predicted_degree(2, 0, 2) == (0, 15, 15)
    assert predicted_degree(2, 2, 2) == (10, 0, 10)
    assert predicted_degree(2, 1, 2) == (1, 6, 7)
    with pytest.raises(ValueError):
        predicted_degree(2, 3, 2)


def test_superspace_count():
    # planes of F_2^3 over a fixed line
    assert superspace_count(3, 1, 2, 2) == 3
    assert superspace_count(3, 1, 3, 2) == 1


def test_count_report():
    rep = count_report(2, 2)
    assert rep.subspace_counts == (1, 3, 1)
    assert rep.fiber_sizes == (1, 3, 6)
    assert rep.rank_class_sizes == (1, 9, 6)
    assert rep.gl_order == 6
    assert rep.total == 16
    assert rep.check()
