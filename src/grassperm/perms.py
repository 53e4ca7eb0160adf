"""Permutations in one-line notation, and their Lehmer codes.

Conventions shared by the whole package:

* A permutation of size n is the tuple (p(1), ..., p(n)); positions and
  values are one-based.  The empty tuple is the empty permutation.
* Text form: sizes up to 9 may be written as a digit string ("2413");
  any size may be written comma-separated ("11,1,2,3").  Output uses
  the digit string exactly when the size is at most 9.
* Lehmer codes are tuples c with 0 <= c[i] <= n-1-i; they print
  comma-separated.

Operations assume their permutation arguments are valid; use
``parse_permutation`` or ``is_permutation`` at trust boundaries.
"""

from __future__ import annotations

from collections.abc import Sequence, Sized

Perm = tuple[int, ...]

# Enumerators refuse sizes above this unless told otherwise; closed-form
# counting has no cap.
DEFAULT_ENUMERATION_CAP = 25


def shown(value: Sized) -> str:
    """repr(value) for an error message, cut in the middle when longer
    than 80 characters, so that a huge input gives a short line.

    >>> shown((2, 1))
    '(2, 1)'
    >>> shown(tuple(range(1, 1001)))[-38:]
    '96, 997, 998, 999, 1000) (length 1000)'
    """
    text = repr(value)
    if len(text) <= 80:
        return text
    return f"{text[:48]} ... {text[-24:]} (length {len(value)})"


def check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"size must be at least 1, got {n}")


def check_cap(n: int, cap: int | None) -> None:
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise ValueError(
            f"size {n} exceeds the enumeration cap {limit}; "
            "pass a larger cap to enumerate anyway")


def is_permutation(values: Sequence[int]) -> bool:
    """True iff the values are exactly 1..n in some order."""
    return sorted(values) == list(range(1, len(values) + 1))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def inverse(p: Sequence[int]) -> Perm:
    """Group inverse: position i holds the position of value i in p.

    Raises ValueError unless p is a permutation: every value must lie
    in 1..n and fill a slot no earlier value filled.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    >>> inverse((1, 1))
    Traceback (most recent call last):
    ...
    ValueError: not a permutation: (1, 1)
    """
    n = len(p)
    q = [0] * n
    for i, v in enumerate(p, 1):
        # test the range first: q[v - 1] with v <= 0 would wrap around
        if not 0 < v <= n or q[v - 1]:
            raise ValueError(f"not a permutation: {shown(tuple(p))}")
        q[v - 1] = i
    return tuple(q)


def reverse_complement(p: Sequence[int]) -> Perm:
    """Reverse the positions and complement the values.

    The map is an involution and preserves the number of descents.

    >>> reverse_complement((1, 3, 2))
    (2, 1, 3)
    """
    n = len(p)
    return tuple(n + 1 - v for v in reversed(p))


def descent_positions(p: Sequence[int]) -> tuple[int, ...]:
    """One-based positions i with p(i) > p(i+1).

    >>> descent_positions((2, 4, 1, 3))
    (2,)
    >>> descent_positions((1, 2, 3))
    ()
    """
    return tuple(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def inversion_count(p: Sequence[int]) -> int:
    """Number of pairs i < j with p(i) > p(j).

    >>> inversion_count((2, 3, 1, 7, 4, 5, 8, 6))
    6
    >>> inversion_count(())
    0
    """
    # bit v of seen marks value v as already read, so each value adds
    # the number of larger values to its left
    count = seen = 0
    for v in p:
        count += (seen >> v).bit_count()
        seen |= 1 << v
    return count


def lehmer_encode(p: Sequence[int]) -> tuple[int, ...]:
    """Lehmer code: entry i counts later values smaller than p(i).

    >>> lehmer_encode((2, 3, 1, 7, 4, 5, 8, 6))
    (1, 1, 0, 3, 0, 0, 1, 0)
    """
    # read right to left; bit v of seen marks value v as already read
    code = [0] * len(p)
    seen = 0
    for i in range(len(p) - 1, -1, -1):
        v = p[i]
        code[i] = (seen & ((1 << v) - 1)).bit_count()
        seen |= 1 << v
    return tuple(code)


def lehmer_decode(code: Sequence[int]) -> Perm:
    """Rebuild the permutation whose Lehmer code is given.

    Entry i picks the (code[i]+1)-th smallest unused value.  Rejects
    sequences that are not valid codes.

    >>> lehmer_decode((1, 3, 0, 0, 0, 0))
    (2, 5, 1, 3, 4, 6)
    """
    n = len(code)
    if n == 0:
        raise ValueError("empty code")
    for i, c in enumerate(code):
        if not 0 <= c <= n - 1 - i:
            raise ValueError(
                f"entry {c} at position {i + 1} is outside 0..{n - 1 - i}")
    unused = list(range(1, n + 1))
    return tuple(unused.pop(c) for c in code)


def direct_sum(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Place q, shifted above p, after p.

    >>> direct_sum((1,), (2, 1))
    (1, 3, 2)
    """
    return tuple(p) + tuple(v + len(p) for v in q)


def is_involution(p: Sequence[int]) -> bool:
    return tuple(p) == inverse(p)


def format_permutation(p: Sequence[int]) -> str:
    """Digit string for sizes up to 9, comma-separated beyond.

    >>> format_permutation((2, 4, 1, 3))
    '2413'
    >>> format_permutation((10, 1, 2, 3, 4, 5, 6, 7, 8, 9))
    '10,1,2,3,4,5,6,7,8,9'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def _read_entries(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma-separated text, or the ASCII digits of a
    text with no comma; what names the input in the malformed message."""
    text = text.strip()
    if not text:
        raise ValueError("empty input")
    if "," in text:
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError:
            pass
    elif text.isascii() and text.isdigit():
        return tuple(int(ch) for ch in text)
    raise ValueError(f"malformed {what} {shown(text)}")


def parse_permutation(text: str) -> Perm:
    """Parse either serialization of a permutation.

    >>> parse_permutation("2413")
    (2, 4, 1, 3)
    >>> parse_permutation("10,1,2,3,4,5,6,7,8,9")[0]
    10
    """
    values = _read_entries(text, "permutation")
    if not is_permutation(values):
        raise ValueError(
            f"{shown(text.strip())} is not a permutation of 1..{len(values)}")
    return values


def format_lehmer_code(code: Sequence[int]) -> str:
    return ",".join(str(c) for c in code)


def parse_lehmer_code(text: str) -> tuple[int, ...]:
    """Parse a comma-separated (or single-digit-entry) Lehmer code.

    >>> parse_lehmer_code("1,3,0,0,0,0")
    (1, 3, 0, 0, 0, 0)
    >>> parse_lehmer_code("130000")
    (1, 3, 0, 0, 0, 0)
    """
    code = _read_entries(text, "Lehmer code")
    if any(c < 0 for c in code):
        raise ValueError(
            f"negative entry in Lehmer code {shown(text.strip())}")
    return code
