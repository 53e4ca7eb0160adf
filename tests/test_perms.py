"""Permutation primitives: codes, serialization, sums, statistics."""

import itertools

import pytest
from hypothesis import given, strategies as st

from grassperm.perms import (
    descent_positions,
    direct_sum,
    format_lehmer_code,
    format_permutation,
    identity,
    inverse,
    inversion_count,
    is_involution,
    is_permutation,
    lehmer_decode,
    lehmer_encode,
    parse_lehmer_code,
    parse_permutation,
    reverse_complement,
)
from grassperm.grassmann import is_grassmannian


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def pair_inversion_count(p):
    # reference: every pair of positions
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def pair_lehmer_encode(p):
    # reference: every later position for every position
    n = len(p)
    return tuple(sum(1 for j in range(i + 1, n) if p[j] < p[i])
                 for i in range(n))


def test_is_permutation():
    assert is_permutation((1,))
    assert is_permutation((2, 4, 1, 3))
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((0, 1))
    assert not is_permutation((2, 3))
    assert is_permutation(())  # neutral element for the sums


def test_identity_and_inverse():
    assert identity(4) == (1, 2, 3, 4)
    assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    for p in all_perms(5):
        assert inverse(inverse(p)) == p
    with pytest.raises(ValueError):
        inverse((1, 1))


def test_inverse_rejects_non_permutations():
    # repeated value, value below 1 (q[v - 1] would wrap around for
    # v <= 0), value above n, and a repeat after a valid start
    for bad in ((1, 1), (0, 1), (2, 3), (1, -1), (2, 2, 1)):
        with pytest.raises(ValueError):
            inverse(bad)


def test_reverse_complement():
    assert reverse_complement((1, 3, 2)) == (2, 1, 3)
    for p in all_perms(6):
        q = reverse_complement(p)
        assert reverse_complement(q) == p
        assert len(descent_positions(q)) == len(descent_positions(p))
        assert inversion_count(q) == inversion_count(p)


def test_descents_and_inversions():
    assert descent_positions((1, 2, 3)) == ()
    assert descent_positions((3, 2, 1)) == (1, 2)
    assert descent_positions((2, 3, 1, 7, 4, 5, 8, 6)) == (2, 4, 7)
    assert inversion_count((2, 3, 1, 7, 4, 5, 8, 6)) == 6
    assert inversion_count((4, 6, 7, 1, 2, 3, 5)) == 11


def test_bitmask_counts_match_pair_loops():
    for n in range(8):
        for p in all_perms(n):
            assert inversion_count(p) == pair_inversion_count(p)
            assert lehmer_encode(p) == pair_lehmer_encode(p)
    falling = tuple(range(200, 0, -1))
    assert inversion_count(falling) == 200 * 199 // 2
    assert lehmer_encode(falling) == tuple(range(199, -1, -1))


# sizes past 64 so that the value masks span several machine words
@given(st.integers(1, 200).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple))
def test_bitmask_counts_match_pair_loops_large(p):
    assert inversion_count(p) == pair_inversion_count(p)
    assert lehmer_encode(p) == pair_lehmer_encode(p)


def test_lehmer_round_trip():
    assert lehmer_encode((2, 3, 1, 7, 4, 5, 8, 6)) == (1, 1, 0, 3, 0, 0, 1, 0)
    assert lehmer_decode((1, 3, 0, 0, 0, 0)) == (2, 5, 1, 3, 4, 6)
    for n in range(1, 8):
        for p in all_perms(n):
            assert lehmer_decode(lehmer_encode(p)) == p


def test_lehmer_decode_validates():
    with pytest.raises(ValueError):
        lehmer_decode((2, 0))  # entry exceeds n - 1 - i
    with pytest.raises(ValueError):
        lehmer_decode((0, 1))
    with pytest.raises(ValueError):
        lehmer_decode((-1,))
    with pytest.raises(ValueError):
        lehmer_decode(())


def test_lehmer_code_statistics():
    for p in all_perms(6):
        code = lehmer_encode(p)
        assert sum(code) == inversion_count(p)
        # descents of the permutation are the strict descents of its code
        code_desc = tuple(i + 1 for i in range(len(code) - 1)
                          if code[i] > code[i + 1])
        assert code_desc == descent_positions(p)


def test_lehmer_code_shape_marks_one_descent():
    # weakly rising prefix then zeros <=> at most one descent
    for p in all_perms(7):
        code = lehmer_encode(p)
        k = max((i for i, c in enumerate(code) if c), default=-1)
        prefix = code[:k + 1]
        shaped = all(x <= y for x, y in zip(prefix, prefix[1:]))
        assert shaped == is_grassmannian(p)


def test_direct_sum():
    assert direct_sum((2, 1), (1, 2)) == (2, 1, 3, 4)
    assert direct_sum((), (2, 1)) == (2, 1)
    p = (3, 1, 2)
    assert direct_sum(identity(0), p) == p


def test_is_involution():
    assert is_involution((1,))
    assert is_involution((2, 1, 4, 3))
    assert not is_involution((2, 3, 1))
    hits = sum(is_involution(p) for p in all_perms(5))
    assert hits == 26  # 1 + 10 + 15 pairings


def test_format_permutation():
    assert format_permutation((2, 4, 1, 3)) == "2413"
    assert format_permutation((10, 1, 2, 3, 4, 5, 6, 7, 8, 9)) == \
        "10,1,2,3,4,5,6,7,8,9"


def test_parse_permutation():
    assert parse_permutation("2413") == (2, 4, 1, 3)
    assert parse_permutation("2,4,1,3") == (2, 4, 1, 3)
    assert parse_permutation(" 10,1,2,3,4,5,6,7,8,9 ") == \
        (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    for bad in ("", "122", "13", "1,2,x", "0,1", "1,,2", "12,3"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


def test_permutation_serialization_round_trip():
    for n in list(range(1, 7)) + [11]:
        for p in itertools.islice(all_perms(n), 200):
            assert parse_permutation(format_permutation(p)) == p


def test_lehmer_code_serialization():
    assert format_lehmer_code((1, 3, 0, 0, 0, 0)) == "1,3,0,0,0,0"
    assert parse_lehmer_code("130000") == (1, 3, 0, 0, 0, 0)
    assert parse_lehmer_code("1,3,0,0,0,0") == (1, 3, 0, 0, 0, 0)
    code = (0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert parse_lehmer_code(format_lehmer_code(code)) == code
    with pytest.raises(ValueError):
        parse_lehmer_code("1,x")
    with pytest.raises(ValueError):
        parse_lehmer_code("")
