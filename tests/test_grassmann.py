"""The one-descent family: enumeration, counting, substructures."""

import gc
import itertools
import tracemalloc
from math import comb

import pytest

from grassperm import kernels
from grassperm.grassmann import (
    TAIL_VALUES,
    count_bigrassmannian,
    count_descent_at,
    count_grassmannian,
    count_involutions,
    count_union_with_inverse,
    enumerate_grassmannian,
    enumerate_involutions,
    grassmannian_blocks,
    inverse_is_grassmannian,
    is_bigrassmannian,
    is_grassmannian,
    sole_descent,
)
from grassperm.patterns import contains_pattern
from grassperm.perms import (
    descent_positions,
    direct_sum,
    format_permutation,
    identity,
    inverse,
    is_involution,
    is_permutation,
)


def test_is_grassmannian():
    assert is_grassmannian((1,))
    assert is_grassmannian((2, 4, 1, 3))
    assert is_grassmannian(identity(7))
    assert not is_grassmannian((3, 1, 4, 2))
    assert not is_grassmannian((3, 2, 1))


def test_inverse_test_matches_the_inverse_on_all_small_permutations():
    for n in range(9):
        for p in itertools.permutations(range(1, n + 1)):
            assert inverse_is_grassmannian(p) == is_grassmannian(inverse(p))


def test_inverse_test_matches_the_inverse_on_the_family():
    # every member the count --oracle weights see, up to size 14
    for n in range(1, 15):
        passed = 0
        for p in enumerate_grassmannian(n):
            expected = is_grassmannian(inverse(p))
            assert inverse_is_grassmannian(p) == expected
            passed += expected
        assert passed == count_bigrassmannian(n)


def test_inverse_test_above_size_255():
    n = 300
    shuffle = tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2))
    assert not is_grassmannian(inverse(shuffle))
    assert not inverse_is_grassmannian(shuffle)
    # the inverse of a family member is a shuffle of two runs
    member = inverse(tuple(range(151, n + 1)) + tuple(range(1, 151)))
    assert is_grassmannian(inverse(member))
    assert inverse_is_grassmannian(member)
    assert inverse_is_grassmannian(identity(n))
    assert not inverse_is_grassmannian((1,) * n)


def test_inverse_test_refuses_non_permutations():
    for values in [(1, 1), (0, 1), (2, 3), (1, 2, 2), (0,), (2, 1, 1),
                   (1, 200), (1, 256), (-1, 2), (1.0, 2)]:
        assert not inverse_is_grassmannian(values)
        assert not is_bigrassmannian(values)
    # every sequence of small values, out-of-range ones included
    for n in range(5):
        for values in itertools.product(range(n + 3), repeat=n):
            assert inverse_is_grassmannian(values) == (
                is_permutation(values) and is_grassmannian(inverse(values)))


def test_sole_descent():
    assert sole_descent(identity(5)) is None
    assert sole_descent((2, 4, 1, 3)) == 2
    assert sole_descent((1, 3, 2)) == 2
    with pytest.raises(ValueError):
        sole_descent((3, 2, 1))


def test_enumeration_matches_definition():
    for n in range(1, 10):
        members = list(enumerate_grassmannian(n))
        brute = [p for p in itertools.permutations(range(1, n + 1))
                 if len(descent_positions(p)) <= 1]
        assert members == brute  # same set, same lexicographic order
        assert len(members) == count_grassmannian(n) == 2 ** n - n


def test_enumeration_from_a_first_value():
    # the members whose first value is at least 2 are r + 1 + ... + 1,
    # a core r padded with fixed points at the end, and with 1 + q for
    # every q of size n - 1 they make the whole family, which the count
    # --oracle column relies on
    for n in range(1, 11):
        members = list(enumerate_grassmannian(n))
        padded = [direct_sum(r, identity(n - m)) for m in range(1, n + 1)
                  for r in enumerate_grassmannian(m,
                                                  automaton=kernels.CORES)]
        assert sorted(padded) == [p for p in members if p[0] >= 2], n
        grown = [direct_sum((1,), q) for q in
                 (enumerate_grassmannian(n - 1) if n > 1 else [()])]
        assert sorted(grown + padded) == members, n


def test_core_walk():
    # the cores, p(1) != 1 and p(m) != m, each once, 2^(m-2) of them;
    # from m = 12 on the walk has nodes above its completion tables
    for m in range(1, 13):
        cores = list(enumerate_grassmannian(m, automaton=kernels.CORES))
        assert sorted(cores) == [p for p in enumerate_grassmannian(m)
                                 if p[0] != 1 and p[-1] != m], m
        assert len(cores) == (2 ** (m - 2) if m > 1 else 0), m


def block_lines(n):
    """The lines of grassmannian_blocks(n), one at a time."""
    return itertools.chain.from_iterable(
        map(str.splitlines, grassmannian_blocks(n)))


def test_lines_match_formatted_members():
    # n = 9 prints digit strings, n = 10 comma-separated ones
    for n in range(1, 13):
        assert list(block_lines(n)) == [
            format_permutation(p) for p in enumerate_grassmannian(n)]


def rising_prefix_walk(n, atoms):
    """The plain walk the completion tables shortcut: every rising
    prefix S is a node (prefix, low, last = max S), visited one at a
    time, its children pushed in decreasing order so that they come
    out in preorder; a node is emitted once low is non-empty, and the
    prefix 1..n as the identity."""
    empty = atoms[0]
    tails = [empty] * (n + 1)
    for v in range(n - 1, -1, -1):
        tails[v] = atoms[v + 1] + tails[v + 1]
    gaps = [[empty] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        for v in range(a + 2, n + 1):
            gaps[a][v] = gaps[a][v - 1] + atoms[v - 1]
    stack = [(empty, empty, 0)]
    while stack:
        prefix, low, last = stack.pop()
        if low or last == n:
            yield prefix + low + tails[last]
        for v in range(n, last, -1):
            stack.append((prefix + atoms[v], low + gaps[last][v], v))


def test_walk_matches_the_per_node_reference():
    # below and above TAIL_VALUES, so with and without per-node levels
    assert TAIL_VALUES < 14
    for n in range(1, 15):
        assert list(enumerate_grassmannian(n)) == list(rising_prefix_walk(
            n, [()] + [(v,) for v in range(1, n + 1)])), n
        if n <= 9:
            reference = rising_prefix_walk(
                n, [""] + [str(v) for v in range(1, n + 1)])
        else:
            reference = (line[:-1] for line in rising_prefix_walk(
                n, [""] + [f"{v}," for v in range(1, n + 1)]))
        assert list(block_lines(n)) == list(reference), n


def test_walk_memory_is_bounded_at_every_size():
    # the tables have at most 2^TAIL_VALUES entries whatever n is
    for n in (12, 25):
        tracemalloc.start()
        try:
            for _ in itertools.islice(block_lines(n), 50_000):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 768 * 1024, (n, peak)


def test_walk_frees_its_tables_when_it_ends():
    # with the cyclic collector off, a finished or abandoned walk must
    # leave nothing behind: count --oracle and verify thm51 walk size
    # after size, and tables kept for the next full collection pile up
    def walks():
        for automaton in (kernels.ONE_DESCENT, kernels.ONE_BA,
                          kernels.CORES):
            for _ in enumerate_grassmannian(16, automaton=automaton):
                pass
            next(grassmannian_blocks(16, automaton=automaton))
    walks()  # first calls allocate lasting caches of their own
    gc.disable()
    tracemalloc.start()
    try:
        walks()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 16 * 1024, left


def test_blocks_are_the_lines_joined():
    # digit strings up to n = 9, commas from n = 10, and sizes below
    # and above TAIL_VALUES, so with and without per-node levels
    assert TAIL_VALUES < 14
    for n in range(1, 15):
        blocks = list(grassmannian_blocks(n))
        assert "".join(blocks) == "".join(
            format_permutation(p) + "\n" for p in enumerate_grassmannian(n)), n
        assert all(block.endswith("\n") for block in blocks), n
        assert max(block.count("\n") for block in blocks) <= 2 ** TAIL_VALUES
    with pytest.raises(ValueError):
        grassmannian_blocks(0)
    with pytest.raises(ValueError):
        grassmannian_blocks(26)
    grassmannian_blocks(30, cap=31)


def test_block_walk_memory_is_bounded():
    # one block holds at most 2^TAIL_VALUES lines whatever n is
    tracemalloc.start()
    try:
        lines = 0
        for block in grassmannian_blocks(25):
            lines += block.count("\n")
            if lines >= 50_000:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024, peak


@pytest.mark.parametrize("n", [300, 1000])
def test_first_member_memory_grows_with_n(n):
    # one frame of lengths per level, one prefix and one low, and one
    # run of the values, sliced: a walk whose frames each kept their
    # own prefix and low held of order n^2 values before its first
    # member, 4 MiB at n = 1000, and one that kept every gap between
    # two values held of order n^3, 38 MiB at n = 300
    for walk in (grassmannian_blocks, enumerate_grassmannian):
        tracemalloc.start()
        try:
            first = next(walk(n, cap=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (walk.__name__, n, peak)
        assert first[:3] in ((1, 2, 3), "1,2")


def test_enumeration_small_goldens():
    assert list(enumerate_grassmannian(1)) == [(1,)]
    assert list(enumerate_grassmannian(2)) == [(1, 2), (2, 1)]
    assert list(enumerate_grassmannian(3)) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]


def test_count_sequence():
    assert [count_grassmannian(n) for n in range(1, 11)] == [
        1, 2, 5, 12, 27, 58, 121, 248, 503, 1014]


def test_size_validation():
    for fn in (count_grassmannian, count_bigrassmannian,
               count_union_with_inverse, count_involutions):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        enumerate_grassmannian(0)
    with pytest.raises(ValueError):
        enumerate_grassmannian(26)  # default cap
    # raising the cap lifts the guard without iterating anything
    enumerate_grassmannian(30, cap=31)


def test_count_descent_at():
    # the closed form against the k-term sum over j, the number of
    # leading fixed points 1..j of the first rising block
    for n in range(2, 60):
        for k in range(1, n):
            assert count_descent_at(n, k) == sum(
                comb(n - j - 1, k - j) for j in range(k))
    for n in range(1, 9):
        by_descent = {}
        for p in enumerate_grassmannian(n):
            by_descent.setdefault(sole_descent(p), 0)
            by_descent[sole_descent(p)] += 1
        for k in range(1, n):
            assert count_descent_at(n, k) == by_descent.get(k, 0)
        assert sum(count_descent_at(n, k) for k in range(1, n)) == \
            count_grassmannian(n) - 1
    assert count_descent_at(6, 2) == comb(5, 2) + comb(4, 1) == 14


def test_bigrassmannian_goldens():
    golden = [
        (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2),
        (1, 4, 2, 3), (2, 1, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1),
        (3, 1, 2, 4), (3, 4, 1, 2), (4, 1, 2, 3)]
    assert [p for p in enumerate_grassmannian(4)
            if is_bigrassmannian(p)] == golden
    assert list(enumerate_grassmannian(4, automaton=kernels.ONE_BA)) == \
        golden


def test_bigrassmannian_enumeration_matches_the_filter():
    # the words with at most one BA factor, walked, against the
    # definition applied to the whole family, in order and count
    for n in range(1, 13):
        listed = list(enumerate_grassmannian(n, automaton=kernels.ONE_BA))
        assert listed == list(filter(is_bigrassmannian,
                                     enumerate_grassmannian(n))), n
        assert len(listed) == count_bigrassmannian(n)
    assert list(enumerate_grassmannian(25, automaton=kernels.ONE_BA))[-1] \
        == (25,) + identity(24)
    with pytest.raises(ValueError):
        enumerate_grassmannian(0, automaton=kernels.ONE_BA)
    with pytest.raises(ValueError):
        enumerate_grassmannian(26, automaton=kernels.ONE_BA)


def test_bigrassmannian_enumeration_streams():
    tracemalloc.start()
    try:
        first = list(itertools.islice(enumerate_grassmannian(
            300, cap=300, automaton=kernels.ONE_BA), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [identity(300), identity(298) + (300, 299),
                     identity(297) + (299, 298, 300)]
    assert peak < 256 * 1024, peak


def test_bigrassmannian_count():
    for n in range(1, 11):
        brute = sum(is_bigrassmannian(p) for p in enumerate_grassmannian(n))
        assert brute == count_bigrassmannian(n) == 1 + comb(n + 1, 3)


def test_bigrassmannian_equals_2413_avoiders():
    # within the family, self-inverse-descent structure = avoiding 2413
    for n in range(1, 9):
        for p in enumerate_grassmannian(n):
            assert is_bigrassmannian(p) == (not contains_pattern(p, (2, 4, 1, 3)))


def test_bigrassmannian_structure():
    # nonidentity members: sorted-prefix block is 1..i-1 then j+1..k+1
    # shifted; counted by first run shape
    for n in range(2, 10):
        case_counts = {"descent1": 0, "single": 0, "longer": 0}
        for p in enumerate_grassmannian(n):
            if not is_bigrassmannian(p) or p == identity(n):
                continue
            d = sole_descent(p)
            if d == 1:
                case_counts["descent1"] += 1
                continue
            run = p[:d]
            flat = 0
            while flat < d and run[flat] == flat + 1:
                flat += 1
            block = run[flat:]
            assert all(y == x + 1 for x, y in zip(block, block[1:]))
            case_counts["single" if len(block) == 1 else "longer"] += 1
        assert case_counts["descent1"] == n - 1
        # single jumped value: choose its value and landing depth
        assert case_counts["single"] + case_counts["descent1"] == \
            comb(n, 2)
        assert case_counts["longer"] == count_bigrassmannian(n) - 1 - comb(n, 2)


def test_union_with_inverse_count():
    for n in range(1, 9):
        family = set(enumerate_grassmannian(n))
        union = family | {inverse(p) for p in family}
        assert len(union) == count_union_with_inverse(n)
    assert [count_union_with_inverse(n) for n in range(1, 11)] == [
        1, 2, 5, 13, 33, 80, 185, 411, 885, 1862]


def test_union_equals_two_pattern_class():
    # the union is exactly the 321- and 2143-avoiding permutations
    for n in range(1, 8):
        family = set(enumerate_grassmannian(n))
        union = family | {inverse(p) for p in family}
        avoiders = {p for p in itertools.permutations(range(1, n + 1))
                    if not contains_pattern(p, (3, 2, 1))
                    and not contains_pattern(p, (2, 1, 4, 3))}
        assert union == avoiders


def test_involutions_golden_n6():
    assert list(enumerate_involutions(6)) == [
        (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 6, 5), (1, 2, 3, 5, 4, 6),
        (1, 2, 4, 3, 5, 6), (1, 2, 5, 6, 3, 4), (1, 3, 2, 4, 5, 6),
        (1, 4, 5, 2, 3, 6), (2, 1, 3, 4, 5, 6), (3, 4, 1, 2, 5, 6),
        (4, 5, 6, 1, 2, 3)]


def sorted_involutions(n):
    """The members as a set of every choice of (a, b), sorted."""
    out = {identity(n)}
    for b in range(1, n // 2 + 1):
        for a in range(n - 2 * b + 1):
            out.add(identity(a) + tuple(range(a + b + 1, a + 2 * b + 1))
                    + tuple(range(a + 1, a + b + 1))
                    + tuple(range(a + 2 * b + 1, n + 1)))
    return sorted(out)


def test_involutions_match_brute_force():
    for n in range(1, 13):
        listed = list(enumerate_involutions(n))
        brute = [p for p in enumerate_grassmannian(n) if is_involution(p)]
        assert listed == brute == sorted_involutions(n), n
        assert len(listed) == count_involutions(n)
    for n in range(13, 26):
        assert list(enumerate_involutions(n)) == sorted_involutions(n), n
    with pytest.raises(ValueError):
        enumerate_involutions(0)
    with pytest.raises(ValueError):
        enumerate_involutions(26)


def test_involutions_stream():
    # a set of every member held about 90 MB at this size before the
    # first one came out; the walk holds one member at a time
    tracemalloc.start()
    try:
        first = list(itertools.islice(enumerate_involutions(300, cap=300),
                                      10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[:3] == [identity(300), identity(298) + (300, 299),
                         identity(297) + (299, 298, 300)]
    assert len(first) == 10
    assert peak < 256 * 1024, peak


def test_involution_count_closed_forms():
    assert [count_involutions(n) for n in range(1, 13)] == [
        1, 2, 3, 5, 7, 10, 13, 17, 21, 26, 31, 37]
    for n in range(1, 61):
        expected = (n * n + 3) // 4 if n % 2 else (n * n + 4) // 4
        assert count_involutions(n) == expected
