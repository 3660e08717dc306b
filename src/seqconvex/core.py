"""Core value types and difference-sequence utilities.

A sequence here is a finite, immutable list of real numbers u[0], ..., u[m-1].
Its difference sequence has entries u[n] - u[n-1] for n = 1, ..., m-1, and the
sequence is convex exactly when those differences are nondecreasing.

Every predicate in this package compares against a small absolute tolerance
(default ``DEFAULT_TOL``) applied on the permissive side of the inequality, so
that analytically tight cases survive floating-point rounding.
"""

from __future__ import annotations

import contextlib
import math
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

#: Absolute tolerance used by all classification predicates unless overridden.
DEFAULT_TOL = 1e-9


class SeqConvexError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SeqConvexError, ValueError):
    """An input value violates a documented precondition."""


class TooShortError(ValidationError):
    """A sequence has too few entries for the requested operation."""


class DomainError(SeqConvexError, ValueError):
    """An evaluation point lies outside the valid domain."""


class QuantifierMode(Enum):
    """How the index n in the slack inequality is quantified.

    The approximate-convexity inequality compares two first differences with
    slack eps/(n - i) for an index n in the half-open range ]i, j].  EXISTS
    requires the inequality to hold for at least one such n (equivalent to
    the n = i + 1 case, where the slack is largest); FORALL requires it for
    every n (equivalent to the n = j case, where the slack is smallest).
    """

    EXISTS = "exists"
    FORALL = "forall"


class Sequence:
    """Immutable finite sequence of real values, indexed from 0.

    Entries are validated once at construction: every value must be finite
    (NaN and infinities are rejected) and the sequence must be nonempty.  They
    are kept in one read-only float64 array; ``values`` is a tuple view of it.
    The largest magnitude ``_peak`` comes from the same pass, so kernels can
    rule out overflow with a scalar test.
    """

    __slots__ = ("_array", "_values", "_peak")

    def __init__(self, values: Iterable[float]) -> None:
        try:
            arr = np.array(values, dtype=float)
            peak = float(np.abs(arr).max(initial=0.0)) if arr.ndim == 1 else math.nan
        except (TypeError, ValueError, OverflowError):
            arr, peak = None, math.nan
        if not math.isfinite(peak):  # a NaN or infinite entry makes the peak one too
            arr = np.array(_coerce_entries(values), dtype=float)
            peak = float(np.abs(arr).max(initial=0.0))
        if arr.size == 0:
            raise ValidationError("a sequence needs at least one value")
        arr.setflags(write=False)
        self._array = arr
        self._values = None
        self._peak = peak

    @property
    def values(self) -> tuple[float, ...]:
        if self._values is None:
            self._values = tuple(self._array.tolist())
        return self._values

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Sequence(values={self.values!r})"

    def __neg__(self) -> "Sequence":
        return Sequence(-self._array)

    def as_array(self) -> np.ndarray:
        """The read-only float64 array of the entries (not a copy)."""
        return self._array


def _coerce_entries(values: Iterable[float]) -> list[float]:
    """Entry-by-entry conversion; the error path, naming the first bad entry."""
    coerced = []
    for k, v in enumerate(values):
        try:
            f = float(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"entry {k} is not a real number: {v!r}") from exc
        if not math.isfinite(f):
            raise ValidationError(f"entry {k} is not finite: {f!r}")
        coerced.append(f)
    return coerced


def as_sequence(values) -> Sequence:
    """Coerce an iterable of reals into a ``Sequence`` (no-op if already one)."""
    return values if isinstance(values, Sequence) else Sequence(values)


def deltas(u: Sequence | Iterable[float]) -> np.ndarray:
    """First differences of ``u``: entry k is u[k+1] - u[k].

    Entry k is the difference at position n = k + 1 of the parent sequence,
    so a parent of length m yields m - 1 entries.  This is the one place the
    library computes first differences.

    Raises:
        TooShortError: if ``u`` has fewer than two entries.
        ValidationError: if a difference overflows, naming its first entry.
    """
    u = as_sequence(u)
    if len(u) < 2:
        raise TooShortError("sequence too short for differences")
    v = u.as_array()
    if math.isfinite(2.0 * u._peak):  # no difference can overflow
        return v[1:] - v[:-1]  # what np.diff computes, without its per-call overhead
    with np.errstate(over="ignore"):
        d = v[1:] - v[:-1]
    if np.isinf(d).any():  # entries are finite, so their differences are never NaN
        k = int(np.argmax(np.isinf(d))) + 1
        a, b = v[k - 1 : k + 1].tolist()
        raise ValidationError(f"difference at entry {k} overflows: {b!r} - {a!r}")
    return d


def overflow_guard(u: Sequence, factor: float, shift: float = 0.0):
    """Silence numpy's overflow warnings unless factor * max|u| + shift is finite.

    The invalid-operation warnings that infinities lead to (inf - inf) are
    silenced too.  A caller whose results are bounded by that scalar checks
    them for infinities.
    """
    if math.isfinite(factor * u._peak + shift):
        return _NO_GUARD
    return np.errstate(over="ignore", invalid="ignore")


_NO_GUARD = contextlib.nullcontext()  # stateless, so one instance serves every call


def check_eps(eps: float) -> float:
    """Validate a nonnegative slack parameter, returning it as a float."""
    eps = float(eps)
    if not math.isfinite(eps) or eps < 0.0:
        raise ValidationError(f"eps must be a finite nonnegative real, got {eps!r}")
    return eps


def mediant_bounds(a: Iterable[float], b: Iterable[float]) -> tuple[float, float]:
    """Smallest and largest of the ratios a[k] / b[k].

    For positive denominators the combined ratio sum(a) / sum(b) always lies
    between the two returned values, which is the caller-checkable contract.

    Raises:
        ValidationError: on empty input, length mismatch, non-finite entries,
            or any nonpositive denominator.
    """
    num = [float(x) for x in a]
    den = [float(x) for x in b]
    if not num:
        raise ValidationError("mediant bounds need at least one term")
    if len(num) != len(den):
        raise ValidationError(
            f"numerators and denominators differ in length: {len(num)} vs {len(den)}"
        )
    for k, (x, y) in enumerate(zip(num, den)):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"term {k} is not finite")
        if y <= 0.0:
            raise ValidationError(f"denominator {k} must be positive, got {y!r}")
    ratios = [x / y for x, y in zip(num, den)]
    return min(ratios), max(ratios)
