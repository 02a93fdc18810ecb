"""The bounded-part enumerator behind the approximation operators <p> (some
large-enough part), [p] (every large-enough part) and the approximate
implication a ->{p} b, which the evaluator in `semantics` searches with it.

All three quantify over submultiteams whose size meets a bound: at least
p*|t| for a fractional threshold, at least k rows for an absolute one.  The
comparison is exact rational arithmetic, |Y|*den >= num*|t|, so boundary
cases like 2/3 of 3 are decided correctly.  Submultiteams differing only in
zero-multiplicity carrier rows are canonically equal and enumerated once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from numbers import Rational
from typing import Iterator

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


def enum_bounded_submultisets(t: Multiteam, threshold) -> Iterator[Multiteam]:
    """All submultiteams of t whose size meets the bound, smallest first and
    in row order within equal sizes.  An integer bound is an absolute row
    count; a rational bound is a fraction of |t|."""
    th = _bound_as_threshold(threshold)
    entries = t.row_items()
    keys = [k for k, _ in entries]
    mults = [m for _, m in entries]
    needed = th.min_size(t.size)
    vectors = [v for v in itertools.product(*[range(m + 1) for m in mults])
               if sum(v) >= needed]
    vectors.sort(key=lambda v: (sum(v), v))
    for vec in vectors:
        yield Multiteam._from_table(
            t.variables, {k: c for k, c in zip(keys, vec) if c})
