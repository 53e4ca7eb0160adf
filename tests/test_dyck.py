"""Dyck paths and the peak-labeling bijection."""

import itertools

import pytest

from grassperm.dyck import (
    MAX_PATH_STEPS,
    enumerate_dyck_paths,
    enumerate_grassmannian_paths,
    heights,
    is_grassmannian_path,
    long_ascent_count,
    max_height,
    parse_dyck_path,
    path_to_permutation,
    peak_heights,
    peaks_above_height_one,
    peaks_at_even_height,
    permutation_to_path,
    validate_dyck,
)
from grassperm.grassmann import enumerate_grassmannian, is_grassmannian
from grassperm.patterns import catalan, contains_pattern
from grassperm.perms import descent_positions, identity, inversion_count

GOLDEN_PATH = "UUUDDDUUDUDUUDDD"
GOLDEN_PERM = (2, 3, 1, 7, 4, 5, 8, 6)

# the size-11 walkthrough pair: one tall first ascent, five peaks
TALL_PERM = (2, 3, 5, 7, 8, 11, 1, 4, 6, 9, 10)
TALL_PATH = "UUUUUUUDDDUDDUDDDUDUDD"


def test_parse_dyck_path():
    assert parse_dyck_path("UUDD") == "UUDD"
    assert parse_dyck_path("U3D3U2DUDU2D3") == GOLDEN_PATH
    assert parse_dyck_path("U12D12") == "U" * 12 + "D" * 12
    for bad in ("UDD", "UDU", "DU", "UXD", "U0D0", "3UD", "UD2U"):
        with pytest.raises(ValueError):
            parse_dyck_path(bad)
    with pytest.raises(ValueError, match="bad step"):
        parse_dyck_path("U\u00b2D\u00b2")  # superscript two is no run length
    assert parse_dyck_path("") == ""


def test_parse_path_step_limit():
    half = MAX_PATH_STEPS // 2
    assert parse_dyck_path(f"U{half}D{half}") == "U" * half + "D" * half
    for bad in (f"U{half}D{half}UD", "UD" * (half + 1)):
        with pytest.raises(ValueError):
            parse_dyck_path(bad)


def test_path_statistics():
    assert heights("UUDD") == (1, 2, 1, 0)
    assert peak_heights(GOLDEN_PATH) == (3, 2, 2, 3)
    assert long_ascent_count(GOLDEN_PATH) == 3
    assert max_height(GOLDEN_PATH) == 3
    assert peak_heights("UDUDUD") == (1, 1, 1)
    assert long_ascent_count("UDUDUD") == 0
    assert peaks_above_height_one("UDUDUD") == 0
    assert peaks_at_even_height("UDUDUD") == 0


def test_walkthrough_path_statistics():
    assert permutation_to_path(TALL_PERM) == TALL_PATH
    assert path_to_permutation(TALL_PATH) == TALL_PERM
    assert peak_heights(TALL_PATH) == (7, 5, 4, 2, 2)
    assert max_height(TALL_PATH) == 7
    assert peaks_above_height_one(TALL_PATH) == 5
    # heights 4, 2, 2 are the even ones; the count must be odd because
    # the permutation has 15 inversions
    assert inversion_count(TALL_PERM) == 15
    assert peaks_at_even_height(TALL_PATH) == 3


def test_bijection_goldens():
    assert path_to_permutation(GOLDEN_PATH) == GOLDEN_PERM
    assert permutation_to_path(GOLDEN_PERM) == GOLDEN_PATH
    assert path_to_permutation("UUDD") == (2, 1)
    assert path_to_permutation("UDUD") == (1, 2)
    for n in range(1, 8):
        assert path_to_permutation("UD" * n) == identity(n)
        assert permutation_to_path(identity(n)) == "UD" * n


def test_round_trip_exhaustive():
    for n in range(1, 8):
        paths = list(enumerate_dyck_paths(n))
        assert len(paths) == catalan(n)
        assert paths == sorted(paths)  # documented lexicographic order
        assert len(set(paths)) == len(paths)
        images = set()
        for path in paths:
            p = path_to_permutation(path)
            assert permutation_to_path(p) == path
            assert not contains_pattern(p, (3, 2, 1))
            images.add(p)
        # injective onto all 321-avoiders
        assert len(images) == catalan(n)


def _is_dyck(word):
    try:
        validate_dyck(word)
    except ValueError:
        return False
    return True


def test_enumerate_dyck_paths_matches_brute_force():
    for n in range(0, 9):
        words = ("".join(w) for w in itertools.product("DU", repeat=2 * n))
        assert list(enumerate_dyck_paths(n)) == list(filter(_is_dyck, words))


def test_image_characterizations():
    for n in range(1, 8):
        for path in enumerate_dyck_paths(n):
            p = path_to_permutation(path)
            # descents of the image match long ascents of the path
            assert len(descent_positions(p)) == long_ascent_count(path)
            assert is_grassmannian(p) == is_grassmannian_path(path)


def test_inverse_rejects_321():
    for p in ((3, 2, 1), (4, 3, 2, 1), (1, 4, 3, 2), (5, 3, 4, 1, 2)):
        with pytest.raises(ValueError):
            permutation_to_path(p)


def test_is_grassmannian_path():
    assert is_grassmannian_path("UDUDUD")
    assert is_grassmannian_path("UUUDDDUDUD")
    assert is_grassmannian_path(TALL_PATH)
    assert not is_grassmannian_path(GOLDEN_PATH)
    assert not is_grassmannian_path("UUDDUUDD")


def test_enumerate_grassmannian_paths():
    for n in range(1, 11):
        paths = list(enumerate_grassmannian_paths(n))
        assert len(paths) == 2 ** n - n
        assert paths == sorted(paths)
        assert set(paths) == {p for p in enumerate_dyck_paths(n)
                              if is_grassmannian_path(p)}
    assert list(enumerate_grassmannian_paths(1)) == ["UD"]
    assert len(list(enumerate_grassmannian_paths(3))) == 5
    for n in range(1, 9):
        words = ("".join(w) for w in itertools.product("DU", repeat=2 * n))
        assert list(enumerate_grassmannian_paths(n)) == [
            w for w in words if _is_dyck(w) and is_grassmannian_path(w)]


def test_image_of_grassmannian_paths_is_the_family():
    for n in range(1, 10):
        image = {path_to_permutation(path)
                 for path in enumerate_grassmannian_paths(n)}
        assert image == set(enumerate_grassmannian(n))


def test_grassmannian_path_shape():
    # flat peaks, one taller ascent in the middle, flat peaks after:
    # every such path is (UD)^a U^j ... D (UD)^b
    for n in range(1, 9):
        for path in enumerate_grassmannian_paths(n):
            ascents = [len(run) for run in path.replace("D", " ").split()
                       if len(run) >= 2]
            assert len(ascents) <= 1


def test_high_peak_count_matches_pattern_class():
    # paths with at most k-2 peaks above height 1 <-> avoiding k·12...(k-1)
    from grassperm.patterns import count_avoiders_closed_form
    for k in (3, 4, 5):
        sigma = (k,) + tuple(range(1, k))
        for n in range(1, 10):
            paths = [p for p in enumerate_grassmannian_paths(n)
                     if peaks_above_height_one(p) <= k - 2]
            image = {path_to_permutation(p) for p in paths}
            avoiders = {p for p in enumerate_grassmannian(n)
                        if not contains_pattern(p, sigma)}
            assert image == avoiders
            assert len(paths) == count_avoiders_closed_form(n, sigma)


def test_bounded_height_matches_pattern_class():
    # paths of height at most k-1 <-> avoiding 23...k1
    from grassperm.patterns import count_avoiders_closed_form
    for k in (3, 4, 5):
        sigma = tuple(range(2, k + 1)) + (1,)
        for n in range(1, 10):
            paths = [p for p in enumerate_grassmannian_paths(n)
                     if max_height(p) <= k - 1]
            image = {path_to_permutation(p) for p in paths}
            avoiders = {p for p in enumerate_grassmannian(n)
                        if not contains_pattern(p, sigma)}
            assert image == avoiders
            assert len(paths) == count_avoiders_closed_form(n, sigma)


def test_direct_sum_decomposition():
    # flat margins of the path turn into fixed points around the core
    from grassperm.perms import direct_sum
    cores = ["UUDD", "UUDUDD", "UUUDDD", "UUDUUDDD"]
    for core in cores:
        inner = path_to_permutation(core)
        for a in range(3):
            for b in range(3):
                path = "UD" * a + core + "UD" * b
                expected = direct_sum(direct_sum(identity(a), inner),
                                      identity(b))
                assert path_to_permutation(path) == expected


def test_parity_bridge():
    # inversion parity of the image = parity of even-height peak count
    for n in range(1, 11):
        for path in enumerate_grassmannian_paths(n):
            p = path_to_permutation(path)
            assert inversion_count(p) % 2 == peaks_at_even_height(path) % 2
