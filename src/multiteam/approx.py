"""Size bounds for the approximation operators <p> (some large-enough part),
[p] (every large-enough part) and the approximate implication a ->{p} b.

All three quantify over submultiteams whose size meets a bound: at least
p*|t| for a fractional threshold, at least k rows for an absolute one.  The
comparison is exact rational arithmetic, |Y|*den >= num*|t|, so boundary
cases like 2/3 of 3 are decided correctly.  The evaluator lists the parts
with its one row-by-row walk (`semantics._walk`), size by size, one count
vector at a time, so the first part costs time linear in the rows however
many parts there are; `enum_bounded_submultisets` is that walk read out as
`Multiteam`s.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterator

from .errors import InputError
from .formula import Threshold
from .model import Multiteam
from .semantics import _Space, part_vectors

__all__ = ["enum_bounded_submultisets"]


def _bound_as_threshold(threshold) -> Threshold:
    if isinstance(threshold, Threshold):
        return threshold
    if isinstance(threshold, int) and not isinstance(threshold, bool):
        return Threshold(threshold, absolute=True)
    if isinstance(threshold, Rational):
        return Threshold(Fraction(threshold))
    raise InputError(f"size bound must be a rational or an integer count, got {threshold!r}")


def enum_bounded_submultisets(t: Multiteam, threshold) -> Iterator[Multiteam]:
    """All submultiteams of t whose size meets the bound, smallest first and
    in row order within equal sizes.  An integer bound is an absolute row
    count; a rational bound is a fraction of |t|."""
    needed = _bound_as_threshold(threshold).min_size(t.size)
    space, counts = _Space.rooted(t)
    yield from map(space.team, part_vectors(counts, needed))
