"""The bounded-part enumerator behind the approximation operators <p> (some
large-enough part), [p] (every large-enough part) and the approximate
implication a ->{p} b, which the evaluator in `semantics` searches with it.

All three quantify over submultiteams whose size meets a bound: at least
p*|t| for a fractional threshold, at least k rows for an absolute one.  The
comparison is exact rational arithmetic, |Y|*den >= num*|t|, so boundary
cases like 2/3 of 3 are decided correctly.  Parts are generated size by
size, one count vector at a time, so the first part costs time linear in
the rows however many parts there are.  The evaluator walks these vectors
(`part_vectors`) over its row space, or the same vectors pruned row by row
when the body has a literal or `dep` to test on each prefix
(`semantics._walk`); `enum_bounded_submultisets` is the plain walk read out
as `Multiteam`s.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterator, Sequence

from .errors import InputError
from .formula import Threshold
from .model import Multiteam

__all__ = ["enum_bounded_submultisets"]


def _bound_as_threshold(threshold) -> Threshold:
    if isinstance(threshold, Threshold):
        return threshold
    if isinstance(threshold, int) and not isinstance(threshold, bool):
        return Threshold(threshold, absolute=True)
    if isinstance(threshold, Rational):
        return Threshold(Fraction(threshold))
    raise InputError(f"size bound must be a rational or an integer count, got {threshold!r}")


def _vectors_of_size(mults: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Every count vector v <= mults with sum(v) == size, in ascending
    lexicographic order, each found from the last without recursion."""
    n = len(mults)
    room = [0] * (n + 1)  # room[i]: copies the rows from i on can hold
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + mults[i]
    if size > room[0]:
        return
    vec = [0] * n

    def fill(start: int, rest: int) -> None:  # smallest suffix holding rest copies
        for j in range(start, n):
            vec[j] = max(0, rest - room[j + 1])
            rest -= vec[j]

    fill(0, size)
    while True:
        yield tuple(vec)
        # the rightmost row that can take one more copy from the rows after it
        rest = 0
        for i in range(n - 1, -1, -1):
            if rest and vec[i] < mults[i]:
                break
            rest += vec[i]
        else:
            return
        vec[i] += 1
        fill(i + 1, rest - 1)


def part_vectors(counts: Sequence[int], needed: int, *,
                 exact: bool = False) -> Iterator[tuple[int, ...]]:
    """Every count vector below counts whose sum is at least needed, smallest
    sum first and in lexicographic order within equal sums; with exact set,
    only those summing to needed."""
    for size in range(needed, needed + 1 if exact else sum(counts) + 1):
        yield from _vectors_of_size(counts, size)


def enum_bounded_submultisets(t: Multiteam, threshold, *,
                              exact: bool = False) -> Iterator[Multiteam]:
    """All submultiteams of t whose size meets the bound, smallest first and
    in row order within equal sizes.  An integer bound is an absolute row
    count; a rational bound is a fraction of |t|.  With exact set, only the
    parts of the smallest size meeting the bound, in the same order."""
    needed = _bound_as_threshold(threshold).min_size(t.size)
    items = t.row_items()
    keys = [k for k, _ in items]
    for vec in part_vectors([m for _, m in items], needed, exact=exact):
        yield Multiteam._from_counts(t.variables, keys, vec)
