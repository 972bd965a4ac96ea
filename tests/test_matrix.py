"""Matrix arithmetic, canonical forms, encodings and constructors."""

import random

import pytest

from conftest import unit_matrix
from lirg.field import make_field
from lirg.ideal import ideal_of
from lirg.matrix import (
    VertexCapExceeded,
    column_scale_matrix,
    column_swap_matrix,
    enumerate_matrices,
    first_row_matrix,
    identity_matrix,
    is_invertible,
    mat_inverse,
    mat_mul,
    rank,
    rank_marker,
    random_invertible,
    rref_and_rank,
    stacked_matrix,
    unit_vector,
    vertex_decode,
    vertex_encode,
    zero_matrix,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)


def test_mat_mul_identity():
    X = ((1, 1), (0, 1))
    assert mat_mul(F2, identity_matrix(2), X) == X


def test_unit_matrix_calculus():
    # E_{0,1} E_{1,0} = E_{0,0}
    assert mat_mul(F2, unit_matrix(2, 0, 1), unit_matrix(2, 1, 0)) == unit_matrix(2, 0, 0)


def test_involution_over_gf2():
    X = ((1, 1), (0, 1))
    assert mat_mul(F2, X, X) == identity_matrix(2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(F2, identity_matrix(2), identity_matrix(3))


def test_rref_zero_and_identity():
    assert rref_and_rank(F2, zero_matrix(2)) == (zero_matrix(2), 0)
    assert rref_and_rank(F2, identity_matrix(3)) == (identity_matrix(3), 3)


def test_rref_rank_one():
    R, r = rref_and_rank(F2, ((1, 1), (1, 1)))
    assert R == ((1, 1), (0, 0)) and r == 1


def test_rref_normalizes_pivots():
    R, r = rref_and_rank(F3, ((2, 1), (0, 0)))
    assert R == ((1, 2), (0, 0)) and r == 1


def test_rref_idempotent_and_row_space_preserving():
    for X in enumerate_matrices(F2, 2):
        R, _ = rref_and_rank(F2, X)
        assert rref_and_rank(F2, R)[0] == R
        assert ideal_of(F2, X) == ideal_of(F2, R)


def test_rank_marker():
    assert rank_marker(2, 0) == zero_matrix(2)
    for n in (2, 3):
        for r in range(n + 1):
            assert rank(F2, rank_marker(n, r)) == r
    with pytest.raises(ValueError):
        rank_marker(2, 3)


def test_column_swap():
    assert column_swap_matrix(2, 0, 1) == ((0, 1), (1, 0))
    assert is_invertible(F2, column_swap_matrix(3, 0, 2))
    with pytest.raises(ValueError):
        column_swap_matrix(2, 0, 2)


def test_column_scale():
    M = column_scale_matrix(F3, 2, 1, 2)
    assert M == ((1, 0), (0, 2))
    assert is_invertible(F3, M)
    with pytest.raises(ValueError):
        column_scale_matrix(F3, 2, 0, 0)


def test_first_row_matrix():
    assert first_row_matrix(2, (1, 1)) == ((1, 1), (0, 0))
    assert rank(F2, first_row_matrix(2, (1, 1))) == 1
    with pytest.raises(ValueError):
        first_row_matrix(2, (1, 1, 0))


def test_stacked_matrix():
    M = stacked_matrix(F2, 3, [(1, 0, 0), (0, 1, 1)])
    assert M == ((1, 0, 0), (0, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError, match="dependent"):
        stacked_matrix(F2, 2, [(1, 1), (1, 1)])


def test_unit_vector():
    assert unit_vector(3, 1) == (0, 1, 0)
    with pytest.raises(ValueError):
        unit_vector(3, 3)


def test_is_invertible():
    assert is_invertible(F2, identity_matrix(2))
    assert not is_invertible(F2, zero_matrix(2))
    assert not is_invertible(F2, ((1, 1), (1, 1)))


def test_vertex_encode_examples():
    assert vertex_encode(F2, zero_matrix(2)) == 0
    assert vertex_encode(F2, unit_matrix(2, 0, 0)) == 1
    assert vertex_encode(F2, identity_matrix(2)) == 9  # positions 0 and 3


def test_vertex_roundtrip():
    for v, X in enumerate(enumerate_matrices(F2, 2)):
        assert vertex_encode(F2, X) == v
        assert vertex_decode(F2, 2, v) == X
    with pytest.raises(ValueError):
        vertex_decode(F2, 2, 16)


def test_enumerate_counts():
    assert len(list(enumerate_matrices(F2, 2))) == 16
    assert len(list(enumerate_matrices(F3, 1))) == 3
    assert len(list(enumerate_matrices(F2, 3))) == 512
    with pytest.raises(VertexCapExceeded):
        list(enumerate_matrices(F3, 4))


def test_random_invertible_deterministic_and_valid():
    gl = [X for X in enumerate_matrices(F2, 2) if is_invertible(F2, X)]
    assert len(gl) == 6  # |GL(2, 2)|
    for seed in range(1, 41):
        A = random_invertible(F2, 2, random.Random(seed))
        assert A in gl
        assert A == random_invertible(F2, 2, random.Random(seed))


def test_rank_product_bound_exhaustive():
    mats = list(enumerate_matrices(F2, 2))
    ranks = [rank(F2, X) for X in mats]
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            assert rank(F2, mat_mul(F2, A, B)) <= min(ranks[i], ranks[j])


def test_rank_preserved_by_invertible_right_factor():
    gl = [X for X in enumerate_matrices(F2, 2) if is_invertible(F2, X)]
    for X in enumerate_matrices(F2, 2):
        r = rank(F2, X)
        for P in gl:
            assert rank(F2, mat_mul(F2, X, P)) == r
    rng = random.Random(0)
    for _ in range(20):
        X = vertex_decode(F2, 3, rng.randrange(2**9))
        P = random_invertible(F2, 3, rng)
        assert rank(F2, mat_mul(F2, X, P)) == rank(F2, X)


def test_mat_inverse():
    rng = random.Random(1)
    for n, F in [(2, F2), (3, F2), (2, F3)]:
        for _ in range(5):
            A = random_invertible(F, n, rng)
            assert mat_mul(F, A, mat_inverse(F, A)) == identity_matrix(n)
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(F2, ((1, 1), (1, 1)))
