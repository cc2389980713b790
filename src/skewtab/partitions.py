"""Integer partitions, their basic combinatorial maps, and skew shapes.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Tuples are hashable, so
partitions can key memo tables directly, and all operations here are pure,
which makes them safe to share across threads.

``partitions_of(n)`` steps one list from each partition of n to the next
in reverse-lex order by the ZS1 successor rule, so it never recurses on the
number of parts.  ``partitions_no_small_parts(j)`` (no part below 3) is a
filter over it: a partition has no part below 3 iff its last part is at
least 3.  ``box_partition_count(n, rows, cols)`` counts the partitions of n
in a box without listing them.
A ``SkewShape`` is validated on every construction, ``conjugate()``
included.  A loop that already holds valid pairs, ``containment.N_direct``,
hands ``skew_count.skew_syt_det`` plain ``(outer, inner)`` tuples instead
and builds no ``SkewShape`` per shape.

Text syntax (used by the CLI and test fixtures): comma-separated parts,
e.g. ``"6,6,5,4,2,1"``; the empty string denotes the empty partition.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from math import factorial

from .exact import DomainError

Partition = tuple[int, ...]


class InvalidSkewShapeError(ValueError):
    """Raised when an inner shape does not fit inside an outer shape."""


def validate_partition(parts) -> Partition:
    """Return ``parts`` as a Partition tuple, or raise ValueError."""
    lam = tuple(parts)
    for i, p in enumerate(lam):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text syntax; '' is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(item.strip()) for item in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return validate_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose the diagram: part i of the result counts parts of lam >= i.

    One scan: as the column index grows the row count only falls, so the
    cost is O(first part + length).
    """
    if not lam:
        return ()
    cols = []
    rows = len(lam)
    for i in range(1, lam[0] + 1):
        while lam[rows - 1] < i:
            rows -= 1
        cols.append(rows)
    return tuple(cols)


def square_cycle_type(mu: Partition) -> Partition:
    """Cycle type of w**2 for w of cycle type mu.

    Every even part 2i splits into two parts i, i; odd parts survive.  The
    result is always the cycle type of an even permutation.
    """
    parts: list[int] = []
    for p in mu:
        if p % 2 == 0:
            parts.extend((p // 2, p // 2))
        else:
            parts.append(p)
    return tuple(sorted(parts, reverse=True))


def centralizer_order(mu: Partition) -> int:
    """Order z_mu of the centralizer of a permutation of cycle type mu.

    z_mu = prod_i i**m_i * m_i! where m_i is the multiplicity of i in mu;
    the class of mu in the symmetric group has size |mu|! / z_mu.
    """
    z = 1
    for part, mult in Counter(mu).items():
        z *= part**mult * factorial(mult)
    return z


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    The order is stable and documented: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    Each partition follows from the last by Zoghbi and Stojmenovic's ZS1
    rule: drop the trailing 1s, lower the last part above 1 by one to x,
    and refill the freed cells as copies of x followed by their remainder.
    ``parts[:m]`` is the current partition and ``parts[h]`` its last part
    above 1; every entry after it is a 1, so dropping the 1s moves no data.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    parts = [n] + [1] * (n - 1)
    m, h = min(n, 1), (0 if n > 1 else -1)
    while True:
        yield tuple(parts[:m])
        if h < 0:
            return
        x = parts[h] - 1
        parts[h] = x
        if x == 1:
            h -= 1
            m += 1
            continue
        left = m - h
        while left >= x:
            h += 1
            parts[h] = x
            left -= x
        m = h + 1 + (left > 0)
        if left > 1:
            h += 1
            parts[h] = left


def partitions_no_small_parts(j: int) -> Iterator[Partition]:
    """Partitions of j whose every part is at least 3 (reverse-lex order)."""
    if j < 0:
        raise DomainError("j must be nonnegative")
    for mu in partitions_of(j):
        if not mu or mu[-1] >= 3:
            yield mu


def box_partition_count(n: int, rows: int, cols: int) -> int:
    """Number of partitions of n that fit in a rows x cols box: at most
    ``rows`` parts, none above ``cols``.

    It is the q^n coefficient of the Gaussian binomial
    [r + c choose r]_q = prod_{i=1..r} (1 - q^(c+i)) / (1 - q^i), where r and
    c are the box's sides capped at n, r the shorter (conjugation maps the
    box onto its transpose).  The product is kept up to q^n and taken one
    factor at a time: a numerator factor subtracts a shifted copy, a
    denominator factor is a running sum with stride i, O(r n) integer steps
    in all.  ``box_partition_count(n, n, n)`` is p(n).
    """
    if min(n, rows, cols) < 0:
        raise DomainError("n, rows and cols must be nonnegative")
    r, c = sorted((min(rows, n), min(cols, n)))
    coeffs = [1] + [0] * n
    for i in range(1, r + 1):
        for k in range(n, c + i - 1, -1):
            coeffs[k] -= coeffs[k - c - i]
        for k in range(i, n + 1):
            coeffs[k] += coeffs[k - i]
    return coeffs[n]


def contains(lam: Partition, alpha: Partition) -> bool:
    """True iff alpha fits inside lam componentwise (alpha padded with zeros)."""
    if len(alpha) > len(lam):
        return False
    return all(a <= l for a, l in zip(alpha, lam))


def skew_cells(lam: Partition, alpha: Partition) -> list[tuple[int, int]]:
    """Row-major list of (row, column) cells of lam/alpha, 1-indexed."""
    if not contains(lam, alpha):
        raise InvalidSkewShapeError(f"{alpha} is not contained in {lam}")
    padded = alpha + (0,) * (len(lam) - len(alpha))
    return [
        (i + 1, j + 1)
        for i, (outer, inner) in enumerate(zip(lam, padded))
        for j in range(inner, outer)
    ]


class SkewShape(namedtuple("SkewShape", "outer inner")):
    """An outer/inner partition pair with the inner contained in the outer.

    An immutable tuple subclass: it unpacks as ``(outer, inner)`` and
    compares and hashes equal to that plain tuple.  ``_make`` and
    ``_replace`` go through the same validation as the constructor.
    """

    __slots__ = ()

    def __new__(cls, outer: Partition, inner: Partition) -> "SkewShape":
        outer = validate_partition(outer)
        inner = validate_partition(inner)
        if not contains(outer, inner):
            raise InvalidSkewShapeError(f"{inner} is not contained in {outer}")
        return super().__new__(cls, outer, inner)

    @classmethod
    def _make(cls, iterable) -> "SkewShape":
        return cls(*iterable)

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> list[tuple[int, int]]:
        return skew_cells(self.outer, self.inner)

    def conjugate(self) -> "SkewShape":
        return SkewShape(conjugate(self.outer), conjugate(self.inner))
