"""Left ideals as RREF bases against the brute-force sets {W X : all W}."""

import random

import pytest

from conftest import brute_ideal_set, brute_ideal_sets
from lirg.field import make_field
from lirg.graph import subspaces
from lirg.matrix import (
    enumerate_matrices,
    ideal_of,
    identity_matrix,
    mat_mul,
    rank_marker,
    random_invertible,
    is_invertible,
    proper_subset,
    row_reduce,
    stacked_matrix,
    vertex_decode,
    vertex_encode,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def zero_matrix(n: int):
    return tuple((0,) * n for _ in range(n))


def generator(F, n, I):
    """Matrix with the basis rows of I stacked on top, zero rows below.

    Generates I as a left ideal.
    """
    if len(I) == 0:
        return zero_matrix(n)
    return stacked_matrix(F, n, I)


def normal_form(F, n, I):
    """(r, P) with P invertible such that the rank marker times P generates I.

    P extends the basis greedily with standard vectors, so the first r rows
    of P are the basis itself.
    """
    r = len(I)
    rows = list(I)
    for i in range(n):
        if len(rows) == n:
            break
        cand = identity_matrix(n)[i]
        _, rk = row_reduce(F, rows + [cand])
        if rk == len(rows) + 1:
            rows.append(cand)
    P = tuple(rows)
    return r, P


def test_ideal_of_zero():
    I = ideal_of(F2, zero_matrix(2))
    assert len(I) == 0 and I == ()


def test_ideal_of_invertible_is_whole_ring():
    I = ideal_of(F2, ((1, 1), (0, 1)))
    assert len(I) == 2 and I == ((1, 0), (0, 1))


def test_ideal_of_rank_one():
    I = ideal_of(F2, ((1, 1), (1, 1)))
    assert len(I) == 1 and I == ((1, 1),)


def test_ideal_equality_matches_brute_force_sets():
    sets = brute_ideal_sets(F2, 2)
    mats = list(enumerate_matrices(F2, 2))
    ideals = [ideal_of(F2, X) for X in mats]
    for i in range(16):
        for j in range(16):
            assert (ideals[i] == ideals[j]) == (sets[i] == sets[j])


# Over GF(3) and GF(4) a basis row has entries other than 0 and 1, so the
# stacked-rows rule of proper_subset relies on RREF being canonical there.
@pytest.mark.parametrize("F", [F2, F3, F4], ids=["GF2", "GF3", "GF4"])
def test_proper_subset_matches_brute_force_inclusion(F):
    sets = brute_ideal_sets(F, 2)
    mats = list(enumerate_matrices(F, 2))
    ideals = [ideal_of(F, X) for X in mats]
    for i in range(len(mats)):
        for j in range(len(mats)):
            expected = sets[i] < sets[j]
            assert proper_subset(F, ideals[i], ideals[j]) == expected


def test_proper_subset_examples():
    zero = ideal_of(F2, zero_matrix(2))
    line = ideal_of(F2, ((1, 0), (0, 0)))
    whole = ideal_of(F2, identity_matrix(2))
    assert proper_subset(F2, zero, line)
    assert not proper_subset(F2, line, line)
    assert proper_subset(F2, line, whole)


@pytest.mark.parametrize(
    "call",
    [
        lambda: proper_subset(F2, ((0, 0, 1),), ((1, 0), (0, 1))),
        lambda: proper_subset(F2, ((1, 0),), ((1, 0, 0), (0, 1, 0))),
        lambda: ideal_of(F2, ((1, 0), (0, 1, 1))),
    ],
    ids=["short-rows-above", "long-rows-above", "mixed-rows"],
)
def test_rows_of_unequal_width_are_refused(call):
    """Elimination is sized by every row, not the first: mixed widths
    would otherwise give a wrong inclusion, an IndexError or a ragged basis."""
    with pytest.raises(ValueError, match="rows differ in length"):
        call()


def test_right_translation_of_ideal_sets():
    """{A P : A in [X]} equals [X P], exhaustively at n = 2, q = 2."""
    mats = list(enumerate_matrices(F2, 2))
    sets = brute_ideal_sets(F2, 2)
    gl = [P for P in mats if is_invertible(F2, P)]
    for i, X in enumerate(mats):
        for P in gl:
            translated = frozenset(
                vertex_encode(F2, mat_mul(F2, vertex_decode(F2, 2, a), P))
                for a in sets[i]
            )
            assert translated == sets[vertex_encode(F2, mat_mul(F2, X, P))]


def test_right_translation_sampled_n3():
    rng = random.Random(3)
    mats = list(enumerate_matrices(F2, 3))
    for _ in range(5):
        X = mats[rng.randrange(512)]
        P = random_invertible(F2, 3, rng)
        left = frozenset(
            vertex_encode(F2, mat_mul(F2, vertex_decode(F2, 3, a), P))
            for a in brute_ideal_set(F2, 3, X, mats)
        )
        assert left == brute_ideal_set(F2, 3, mat_mul(F2, X, P), mats)


def test_dimension_law():
    """|[X]| = q^(n * rank X) for every 2 x 2 matrix over GF(2)."""
    sets = brute_ideal_sets(F2, 2)
    for v, X in enumerate(enumerate_matrices(F2, 2)):
        assert len(sets[v]) == 2 ** (2 * len(ideal_of(F2, X)))


def test_generator_roundtrip():
    for F, n in [(F2, 2), (F2, 3), (F3, 2)]:
        for I in subspaces(F, n):
            G = generator(F, n, I)
            assert ideal_of(F, G) == I
    zero = ideal_of(F2, zero_matrix(2))
    assert generator(F2, 2, zero) == zero_matrix(2)
    whole = ideal_of(F2, identity_matrix(2))
    assert generator(F2, 2, whole) == identity_matrix(2)


def test_normal_form_examples():
    zero = ideal_of(F2, zero_matrix(2))
    assert normal_form(F2, 2, zero) == (0, identity_matrix(2))
    whole = ideal_of(F2, identity_matrix(2))
    assert normal_form(F2, 2, whole) == (2, identity_matrix(2))
    line = ideal_of(F2, ((0, 1), (0, 0)))
    r, P = normal_form(F2, 2, line)
    assert r == 1 and P == ((0, 1), (1, 0))


def test_normal_form_reconstructs_every_subspace():
    for F, n in [(F2, 2), (F2, 3), (F3, 2), (F3, 3)]:
        for I in subspaces(F, n):
            r, P = normal_form(F, n, I)
            assert r == len(I)
            assert is_invertible(F, P)
            assert ideal_of(F, mat_mul(F, rank_marker(n, r), P)) == I


def test_line_vector():
    # A rank-1 ideal's basis row is its spanning vector with leading 1.
    assert ideal_of(F2, ((0, 1), (0, 0)))[0] == (0, 1)
    # over GF(3): span{(2, 1)} normalizes by 2^{-1} = 2 to (1, 2)
    assert ideal_of(F3, ((2, 1), (0, 0)))[0] == (1, 2)
    assert ideal_of(F2, ((1, 1, 0), (0, 0, 0), (0, 0, 0)))[0] == (1, 1, 0)


def test_ideal_ordering_is_structural():
    a = ideal_of(F2, ((1, 0), (0, 0)))
    b = ideal_of(F2, ((1, 0), (0, 0)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
