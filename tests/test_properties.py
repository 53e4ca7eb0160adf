"""Randomized invariants over the whole value space."""

from hypothesis import assume, given, settings, strategies as st

from grassperm.dyck import (
    enumerate_dyck_paths,
    is_grassmannian_path,
    long_ascent_count,
    path_to_permutation,
    permutation_to_path,
)
from grassperm.grassmann import (
    inverse_is_grassmannian,
    is_grassmannian,
    sole_descent,
)
from grassperm.parity import extend_to_even_size, extend_to_odd_size
from grassperm.patterns import contains_pattern
from grassperm.perms import (
    descent_positions,
    direct_sum,
    format_lehmer_code,
    format_permutation,
    identity,
    inverse,
    inversion_count,
    lehmer_decode,
    lehmer_encode,
    parse_lehmer_code,
    parse_permutation,
    reverse_complement,
)
from grassperm.schroder import code_to_word, is_35124_code, word_to_code

permutations = st.integers(1, 30).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple)

DYCK_POOL = [path for n in range(1, 7) for path in enumerate_dyck_paths(n)]
dyck_paths = st.sampled_from(DYCK_POOL)


@st.composite
def grassmannian_members(draw, max_size=18):
    # two sorted blocks: any value subset forms the first block
    n = draw(st.integers(1, max_size))
    mask = draw(st.integers(0, 2 ** n - 1))
    first = [v for v in range(1, n + 1) if mask & (1 << (v - 1))]
    rest = [v for v in range(1, n + 1) if not mask & (1 << (v - 1))]
    return tuple(first + rest)


@given(permutations)
def test_lehmer_round_trip(p):
    code = lehmer_encode(p)
    assert lehmer_decode(code) == p
    assert sum(code) == inversion_count(p)


@given(permutations)
def test_serialization_round_trips(p):
    assert parse_permutation(format_permutation(p)) == p
    code = lehmer_encode(p)
    assert parse_lehmer_code(format_lehmer_code(code)) == code


@given(permutations)
def test_reverse_complement_invariants(p):
    q = reverse_complement(p)
    assert reverse_complement(q) == p
    assert inversion_count(q) == inversion_count(p)
    assert is_grassmannian(q) == is_grassmannian(p)


@given(permutations)
def test_inverse_invariants(p):
    q = inverse(p)
    assert inverse(q) == p
    assert inversion_count(q) == inversion_count(p)


@given(st.one_of(
    st.integers(0, 40).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(tuple),
    # inverses of members, where the test is true
    grassmannian_members(max_size=40).map(inverse)))
def test_inverse_test_matches_the_inverse(p):
    assert inverse_is_grassmannian(p) == is_grassmannian(inverse(p))


@given(grassmannian_members())
def test_members_have_at_most_one_descent(p):
    assert is_grassmannian(p)
    d = sole_descent(p)
    if d is not None:
        assert p[d - 1] > p[d]


@given(dyck_paths)
def test_path_bijection_round_trip(path):
    p = path_to_permutation(path)
    assert not contains_pattern(p, (3, 2, 1))
    assert len(descent_positions(p)) == long_ascent_count(path)
    assert permutation_to_path(p) == path


@given(grassmannian_members(max_size=14))
def test_member_to_path_round_trip(p):
    path = permutation_to_path(p)
    assert is_grassmannian_path(path)
    assert path_to_permutation(path) == p


@given(dyck_paths, dyck_paths)
def test_path_concatenation_is_direct_sum(left, right):
    assert path_to_permutation(left + right) == direct_sum(
        path_to_permutation(left), path_to_permutation(right))


@given(st.integers(0, 6), st.integers(0, 6),
       st.one_of(st.just(""), dyck_paths))
def test_flat_margins_become_fixed_points(a, b, inner):
    core = "U" + inner + "D"
    path = "UD" * a + core + "UD" * b
    expected = direct_sum(
        direct_sum(identity(a), path_to_permutation(core)), identity(b))
    assert path_to_permutation(path) == expected


@given(st.integers(0, 20), st.integers(1, 20), st.integers(1, 20))
def test_one_up_word_codes_round_trip(f, a, b):
    word = "H" * f + "U" + "H" * (a - 1) + "D" + "H" * (b - 1)
    code = word_to_code(word)
    assert is_35124_code(code)
    assert code_to_word(code) == word
    p = lehmer_decode(code)
    assert is_grassmannian(p)


@given(grassmannian_members(max_size=12))
@settings(max_examples=300)
def test_size_raisers_respect_parity(p):
    assume(inversion_count(p) % 2 == 1)
    if len(p) % 2 == 0:
        q = extend_to_odd_size(p)
    else:
        q = extend_to_even_size(p)
    assert len(q) == len(p) + 1
    assert is_grassmannian(q)
    assert inversion_count(q) % 2 == 1
