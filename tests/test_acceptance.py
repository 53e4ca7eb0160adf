"""Acceptance gate: ten end-to-end criteria, one test and one printed
pass/fail line each, with runtime budgets enforced."""

import itertools
from math import comb
from pathlib import Path
from time import perf_counter

from grassperm import cli
from grassperm.dyck import (
    enumerate_dyck_paths,
    enumerate_grassmannian_paths,
    max_height,
    path_to_permutation,
    peaks_above_height_one,
    peaks_at_even_height,
    permutation_to_path,
)
from grassperm.grassmann import (
    enumerate_grassmannian,
    is_bigrassmannian,
)
from grassperm.kernels import count_sn_avoiding_321_2143
from grassperm.parity import extend_to_even_size, extend_to_odd_size
from grassperm.patterns import (
    contains_pattern,
    count_avoiders_closed_form,
    finite_class_count,
    one_descent_patterns,
)
from grassperm.perms import (
    descent_positions,
    direct_sum,
    inverse,
    inversion_count,
    lehmer_decode,
)
from grassperm.schroder import (
    enumerate_uudd_avoiding,
    prefix_values,
    word_to_code,
)

FIXTURES = Path(__file__).parent / "fixtures"

# finite pattern classes |G_m(12...k)|, k <= m <= 2k-2, k = 2..10
TABLE1 = {
    2: [1],
    3: [4, 2],
    4: [11, 10, 5],
    5: [26, 32, 28, 14],
    6: [57, 84, 98, 84, 42],
    7: [120, 198, 276, 312, 264, 132],
    8: [247, 438, 687, 924, 1023, 858, 429],
    9: [502, 932, 1584, 2398, 3146, 3432, 2860, 1430],
    10: [1013, 1936, 3476, 5720, 8437, 10868, 11726, 9724, 4862],
}

# |G_n(sigma)| for n = 1..10 by pattern size (sizes 3..5 checked here)
TABLE2 = {
    3: [1, 2, 4, 7, 11, 16, 22, 29, 37, 46],
    4: [1, 2, 5, 11, 21, 36, 57, 85, 121, 166],
    5: [1, 2, 5, 12, 26, 51, 92, 155, 247, 376],
}


def timed(number: int, budget: float, description: str):
    """Run the enclosed block, print one pass/fail line, enforce budget."""
    class Timer:
        def __enter__(self):
            self.start = perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = perf_counter() - self.start
            status = "PASS" if exc_type is None and elapsed < budget \
                else "FAIL"
            print(f"criterion {number:2d}: {status} "
                  f"({elapsed:.2f}s, budget {budget:.0f}s) {description}")
            if exc_type is None:
                assert elapsed < budget, (
                    f"criterion {number} exceeded {budget}s: {elapsed:.2f}s")
            return False

    return Timer()


def brute_one_descent_count(n: int) -> int:
    # independent of the library: scan n! permutations directly
    count = 0
    for p in itertools.permutations(range(1, n + 1)):
        descents = sum(p[i] > p[i + 1] for i in range(n - 1))
        if descents <= 1:
            count += 1
    return count


def test_criterion_01_family_counts():
    with timed(1, 5.0, "2^n - n matches enumeration, n <= 12"):
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_grassmannian(n)) == 2 ** n - n
        for n in range(1, 9):
            assert brute_one_descent_count(n) == 2 ** n - n
        first_ten = [2 ** n - n for n in range(1, 11)]
        assert first_ten == [1, 2, 5, 12, 27, 58, 121, 248, 503, 1014]


def test_criterion_02_table1(capsys):
    with timed(2, 60.0, "table1 rows k = 2..10 digit-for-digit"):
        assert cli.main(["table", "table1", "--kmax", "10"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            head, *rest = line.split(",")
            rows[int(head)] = [int(v) for v in rest]
        assert rows == TABLE1
        assert rows[10][-2:] == [9724, 4862]
        # the scan column must really come from exhaustive counting
        assert finite_class_count(18, 10) == 4862


def test_criterion_03_weiner_conjecture(capsys):
    with timed(3, 60.0, "alternating-sum formula, k <= 10, no mismatches"):
        assert cli.main(["verify", "weiner", "--kmax", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        agreed = [line for line in lines if line.startswith("ok   rising k=")]
        assert len(agreed) == len(lines) == sum(k - 1 for k in range(2, 11))


def test_criterion_04_one_descent_pattern_classes():
    with timed(4, 30.0, "1 + sum C(n,j-1) for all patterns of size 3..5"):
        for size, expected_count in ((3, 4), (4, 11), (5, 26)):
            patterns = list(one_descent_patterns(size))
            assert len(patterns) == expected_count
            for sigma in patterns:
                for n in range(1, 11):
                    brute = sum(
                        not contains_pattern(p, sigma)
                        for p in enumerate_grassmannian(n))
                    want = 1 + sum(comb(n, j - 1)
                                   for j in range(3, size + 1))
                    assert brute == want, (sigma, n)
            representative = tuple(range(2, size + 1)) + (1,)
            row = [count_avoiders_closed_form(n, representative)
                   for n in range(1, 11)]
            assert row == TABLE2[size]


def test_criterion_05_structure_counts():
    with timed(5, 30.0, "biGrassmannian, union-with-inverse, involutions"):
        for n in range(1, 11):
            family = list(enumerate_grassmannian(n))
            bigr = sum(is_bigrassmannian(p) for p in family)
            assert bigr == 1 + comb(n + 1, 3)
            assert count_sn_avoiding_321_2143(n) == (
                2 ** (n + 1) - comb(n + 1, 3) - 2 * n - 1)
            invol = sum(p == inverse(p) for p in family)
            if n % 2:
                assert invol == (n * n + 3) // 4
            else:
                assert invol == (n * n + 4) // 4
        seq = []
        for n in range(1, 11):
            seq.append(sum(p == inverse(p)
                           for p in enumerate_grassmannian(n)))
        assert seq == [1, 2, 3, 5, 7, 10, 13, 17, 21, 26]


def test_criterion_06_path_bijection():
    with timed(6, 10.0, "path bijection round trips and family image"):
        for n in range(1, 8):
            for path in enumerate_dyck_paths(n):
                p = path_to_permutation(path)
                assert permutation_to_path(p) == path
        assert path_to_permutation("UUUDDDUUDUDUUDDD") == \
            (2, 3, 1, 7, 4, 5, 8, 6)
        assert permutation_to_path((2, 3, 1, 7, 4, 5, 8, 6)) == \
            "UUUDDDUUDUDUUDDD"
        for n in range(1, 10):
            image = sorted(path_to_permutation(path)
                           for path in enumerate_grassmannian_paths(n))
            assert image == list(enumerate_grassmannian(n))


def test_criterion_07_path_statistics_vs_patterns():
    with timed(7, 10.0, "peak and height classes match pattern classes"):
        for k in (3, 4, 5):
            high = (k,) + tuple(range(1, k))
            rotated = tuple(range(2, k + 1)) + (1,)
            for n in range(1, 10):
                paths = list(enumerate_grassmannian_paths(n))
                few_peaks = [p for p in paths
                             if peaks_above_height_one(p) <= k - 2]
                bounded = [p for p in paths if max_height(p) <= k - 1]
                avoid_high = {p for p in enumerate_grassmannian(n)
                              if not contains_pattern(p, high)}
                avoid_rot = {p for p in enumerate_grassmannian(n)
                             if not contains_pattern(p, rotated)}
                assert {path_to_permutation(p)
                        for p in few_peaks} == avoid_high
                assert {path_to_permutation(p)
                        for p in bounded} == avoid_rot
                assert len(few_peaks) == len(avoid_high)
                assert len(bounded) == len(avoid_rot)


def test_criterion_08_flat_step_words():
    with timed(8, 5.0, "word class counts and the Lehmer-code bijection"):
        sigma = (3, 5, 1, 2, 4)
        for n in range(0, 10):
            words = list(enumerate_uudd_avoiding(n))
            avoiders = {p for p in enumerate_grassmannian(n + 1)
                        if not contains_pattern(p, sigma)}
            assert len(words) == len(avoiders)
            decoded = {lehmer_decode(word_to_code(w)) for w in words}
            assert decoded == avoiders
        assert "".join(map(str, prefix_values("HHHHH"))) == "00000"
        assert word_to_code("HHHHH") == (0, 0, 0, 0, 0, 0)
        assert "".join(map(str, prefix_values("HUHHDH"))) == "011100"
        assert word_to_code("HUHHDH") == (0, 1, 1, 1, 0, 0)
        assert "".join(map(str, prefix_values("UHDHUDH"))) == "1100100"
        assert word_to_code("UHDHUDH") == (1, 3, 0, 0, 0, 0)


def test_criterion_09_parity():
    with timed(9, 10.0, "parity counts, recurrences, and size-raising maps"):
        odd = {1: 0, 2: 1}
        for n in range(3, 15):
            odd[n] = 2 * odd[n - 2] + 2 ** (n - 2)
        for n in range(1, 15):
            assert odd[n] == 2 ** (n - 1) - 2 ** ((n - 1) // 2)
            brute = sum(inversion_count(p) % 2
                        for p in enumerate_grassmannian(n))
            assert brute == odd[n]
            even = (2 ** n - n) - odd[n]
            assert even == 2 ** (n - 1) + 2 ** ((n - 1) // 2) - n
            if n > 2:
                assert even == 2 * ((2 ** (n - 2) - (n - 2)) - odd[n - 2]) \
                    + 2 ** (n - 2) + n - 4
        assert [odd[n] for n in range(1, 11)] == [
            0, 1, 2, 6, 12, 28, 56, 120, 240, 496]

        assert extend_to_odd_size((3, 5, 1, 2, 4, 6)) == (4, 6, 7, 1, 2, 3, 5)
        assert extend_to_even_size((3, 5, 1, 2, 4)) == (3, 5, 1, 2, 4, 6)
        assert extend_to_even_size((2, 4, 5, 1, 3)) == (2, 4, 5, 6, 1, 3)

        # sweep the whole domain of the odd-size extension for m <= 5:
        # the 2m-inversion jump happens exactly on the rebuilt branch
        # (last entry 2m); the prepend branch keeps the count unchanged
        for m in range(1, 6):
            seen = set()
            for p in enumerate_grassmannian(2 * m):
                if inversion_count(p) % 2 == 0:
                    continue
                q = extend_to_odd_size(p)
                assert inversion_count(q) % 2 == 1
                assert q[-1] != 2 * m + 1
                delta = inversion_count(q) - inversion_count(p)
                if p[-1] == 2 * m:
                    assert delta == 2 * m, (p, q)
                else:
                    assert delta == 0 and q == direct_sum((1,), p), (p, q)
                seen.add(q)
            target = {q for q in enumerate_grassmannian(2 * m + 1)
                      if inversion_count(q) % 2 and q[-1] != 2 * m + 1}
            assert seen == target

        for n in range(1, 11):
            for path in enumerate_grassmannian_paths(n):
                assert (inversion_count(path_to_permutation(path)) % 2
                        == peaks_at_even_height(path) % 2)


def test_criterion_10_bfile_fixtures(capsys):
    with timed(10, 10.0, "b-file output matches the vendored fixtures"):
        for family, fixture in (
            ("grassmannian", "b000325.txt"),
            ("union-inverse", "b088921.txt"),
            ("odd", "b122746.txt"),
        ):
            assert cli.main(["count", family, "--n", "1..25",
                             "--format", "bfile"]) == 0
            out = capsys.readouterr().out
            expected = (FIXTURES / fixture).read_text()
            assert out == expected, f"{fixture} diff is not empty"
            assert len(expected.splitlines()) >= 20
