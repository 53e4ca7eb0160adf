"""Schroder words with flat steps, and their Lehmer-code images.

A Schroder word of semilength n is a string over U (weight one, up),
D (weight one, down) and H (weight two, level): equal numbers of U and
D, total weight 2n, no prefix with more D than U.  The words avoiding
the subsequence UUDD are exactly those that never climb past level one
and use at most two U's; they come in three shapes,

    H...H    |    w1 U w2 D w3    |    w1 U w2 D w3 U w4 D w5

with each wi a run of H's.  These words biject onto the one-descent
permutations of size n+1 avoiding 35124: a word maps to a Lehmer code
read off its running levels, and the code decodes to the permutation.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import groupby

from grassperm.perms import check_cap, shown

Word = str


def validate_word(word: str) -> str:
    """Check the letters and the lattice conditions."""
    level = 0
    for i, step in enumerate(word):
        if step == "U":
            level += 1
        elif step == "D":
            level -= 1
        elif step != "H":
            raise ValueError(f"bad step {step!r} at position {i + 1}")
        if level < 0:
            raise ValueError(f"more D than U after step {i + 1}")
    if level != 0:
        raise ValueError(f"word ends at level {level}, not 0")
    return word


def word_semilength(word: str) -> int:
    """U and D carry weight one, H weight two."""
    return (len(word) + word.count("H")) // 2


def is_uudd_avoiding(word: str) -> bool:
    """True iff no subsequence U..U..D..D occurs: the running level
    never passes one and at most two letters are U."""
    validate_word(word)
    if word.count("U") > 2:
        return False
    level = 0
    for step in word:
        if step == "U":
            level += 1
            if level > 1:
                return False
        elif step == "D":
            level -= 1
    return True


def prefix_values(word: str) -> tuple[int, ...]:
    """Running level after each letter.

    >>> prefix_values("UHDHUDH")
    (1, 1, 0, 0, 1, 0, 0)
    """
    out = []
    level = 0
    for step in word:
        if step == "U":
            level += 1
        elif step == "D":
            level -= 1
        out.append(level)
    return tuple(out)


def enumerate_uudd_avoiding(n: int, *, cap: int | None = None) -> Iterator[Word]:
    """All UUDD-avoiding words of semilength n: the flat word, then the
    one-U shapes, then the two-U shapes, H-run lengths in lexicographic
    order within each shape.

    >>> list(enumerate_uudd_avoiding(1))
    ['H', 'UD']
    """
    if n < 0:
        raise ValueError(f"semilength must be non-negative, got {n}")
    check_cap(n, cap)

    def gen() -> Iterator[Word]:
        yield "H" * n
        # block sizes a/b/... count the U or D step plus the H-run after it
        for f in range(n):                  # H-run before the U
            for a in range(1, n - f + 1):   # U block; D block gets the rest
                b = n + 1 - f - a
                yield "H" * f + "U" + "H" * (a - 1) + "D" + "H" * (b - 1)
        for f in range(n - 1):
            for a in range(1, n - f):
                for b in range(1, n - f - a + 1):
                    for c in range(1, n - f - a - b + 2):
                        d = n + 2 - f - a - b - c
                        yield ("H" * f + "U" + "H" * (a - 1) + "D"
                               + "H" * (b - 1) + "U" + "H" * (c - 1) + "D"
                               + "H" * (d - 1))

    return gen()


def word_to_code(word: str) -> tuple[int, ...]:
    """Lehmer code of the permutation a UUDD-avoiding word encodes.

    No-U words give the all-zero code; one-U words give their running
    levels as-is; two-U words fold the second plateau into one taller
    block.

    >>> word_to_code("HUHHDH")
    (0, 1, 1, 1, 0, 0)
    >>> word_to_code("UHDHUDH")
    (1, 3, 0, 0, 0, 0)
    """
    if not is_uudd_avoiding(word):
        raise ValueError(f"{shown(word)} climbs past level one or has three U's")
    ups = word.count("U")
    n = word_semilength(word)
    if ups == 0:
        return (0,) * (n + 1)
    levels = prefix_values(word)
    if ups == 1:
        return levels
    runs = [(v, len(list(g))) for v, g in groupby(levels)]
    if runs[0][0] != 0:
        runs.insert(0, (0, 0))
    (_, i1), (_, i2), (_, i3), (_, i4), (_, i5) = runs
    return (0,) * i1 + (1,) * (i2 - 1) + (i3 + 1,) * i4 + (0,) * (i3 + i5)


def is_35124_code(code: Sequence[int]) -> bool:
    """True iff the code reads 0^a 1^b m^c 0^d (the 1- and m-blocks may
    be absent) with 2 <= m <= d whenever the m-block is present.

    These are exactly the Lehmer codes of one-descent permutations
    avoiding 35124, and exactly the codes the words produce.
    """
    code = tuple(code)
    if not code:
        return False
    runs = [(v, len(list(g))) for v, g in groupby(code)]
    values = [v for v, _ in runs]
    if values in ([0], [1, 0], [0, 1, 0]):
        return True
    if values[-1] != 0:
        return False
    m = values[-2]
    if not 2 <= m <= runs[-1][1]:
        return False
    return values in ([m, 0], [0, m, 0], [1, m, 0], [0, 1, m, 0])


def code_to_word(code: Sequence[int]) -> Word:
    """Rebuild the UUDD-avoiding word behind an admissible code.

    >>> code_to_word((1, 3, 0, 0, 0, 0))
    'UHDHUDH'
    >>> code_to_word((0, 1, 1, 1, 0, 0))
    'HUHHDH'
    """
    code = tuple(code)
    if not is_35124_code(code):
        raise ValueError(f"{shown(code)} is not an admissible code")
    n = len(code) - 1
    runs = [(v, len(list(g))) for v, g in groupby(code)]
    values = [v for v, _ in runs]
    if values == [0]:
        return "H" * n
    j1 = runs[0][1] if values[0] == 0 else 0
    j4 = runs[-1][1]
    if values in ([1, 0], [0, 1, 0]):
        j2 = runs[-2][1]
        return "H" * j1 + "U" + "H" * (j2 - 1) + "D" + "H" * (j4 - 1)
    m, j3 = runs[-2]
    j2 = runs[-3][1] if len(values) >= 3 and values[-3] == 1 else 0
    return ("H" * j1 + "U" + "H" * j2 + "D" + "H" * (m - 2)
            + "U" + "H" * (j3 - 1) + "D" + "H" * (j4 - m))