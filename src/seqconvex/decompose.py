"""Constructive decompositions of approximately convex and affine sequences.

The workhorse is the greatest convex minorant (lower convex hull sampled on
the integer grid).  Shifting it up by half the minimal eps-convexity slack
gives a convex approximant whose residual stays inside [-eps/2, eps/2]
whenever the hull gap does not exceed eps; shifting by half the maximal hull
gap gives the best possible uniform convex approximant outright.  The
Chebyshev line fit and a separating line threaded between a concave lower and
a convex upper envelope both read one exact kernel: the vertical gap between
lines on the upper hull of one sequence and under the lower hull of another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import is_convex, min_eps_affine, min_eps_convex
from .core import (
    DEFAULT_TOL,
    QuantifierMode,
    SeqConvexError,
    Sequence,
    ValidationError,
    as_sequence,
    overflow_guard,
)


class ConvexGapError(SeqConvexError):
    """The hull gap exceeds the eps budget, so the eps/2 residual bound fails.

    Signals that the sequence is farther from convex (in the hull-gap sense)
    than its minimal eps suggests under the chosen quantifier mode; this is a
    property of the input, not a numerical failure.
    """

    def __init__(self, index: int, gap: float, eps: float, mode: QuantifierMode):
        self.index = index
        self.gap = gap
        self.eps = eps
        self.mode = mode
        super().__init__(
            f"hull gap {gap!r} at index {index} exceeds eps={eps!r} "
            f"({mode.value} mode); the eps/2 residual bound is not certified"
        )


class SeparationInfeasibleError(SeqConvexError):
    """No line fits between the envelopes beyond tolerance."""

    def __init__(self, pairs: tuple[tuple[int, int], ...], detail: str):
        self.pairs = pairs
        super().__init__(f"no separating line exists: {detail} (witness pairs {pairs})")


@dataclass(frozen=True)
class Line:
    """Affine function x -> slope * x + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValidationError("line coefficients must be finite")

    def at(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class Decomposition:
    """A structured part plus the residual that reassembles the input.

    ``bound`` is the achieved uniform norm of the residual.  ``eps`` records
    the slack budget the construction was measured against (when there is
    one), ``slack`` the leftover eps - bound, and ``line`` the fitted affine
    function for arithmetic targets.
    """

    structured: Sequence
    residual: Sequence
    bound: float
    eps: float | None = None
    slack: float | None = None
    line: Line | None = None


def _lower_hull(y) -> list[int]:
    """Lower convex hull vertices of the points (n, y[n]), collinear ones kept.

    One monotone-chain pass, O(m); the library's only hull walk.
    """
    hull: list[int] = []
    for x, v in enumerate(y):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (j - i) * (v - y[i]) - (y[j] - y[i]) * (x - i) < 0.0:
                hull.pop()
            else:
                break
        hull.append(x)
    return hull


def gcm(u) -> Sequence:
    """Greatest convex minorant of the sequence, sampled at every index.

    The pointwise-largest convex sequence lying below the input: the lower
    convex hull of the points (n, u[n]) evaluated back on the integer grid,
    O(m).  Collinear hull points are kept, so any grid point lying on the
    hull is returned bit-exactly; in particular a convex input is a fixed
    point.
    """
    u = as_sequence(u)
    m = len(u)
    if m <= 2:
        return u
    hx = _lower_hull(u.values)
    # np.interp returns hull points exactly and fills the gaps between them
    # with u[hx[k]] + slope * (x - hx[k]), the chord through two hull points.
    return _part(np.interp(np.arange(m), hx, u.as_array()[hx]), "convex minorant")


def _gap_pieces(lo: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vertical gap F(a) = max_n(lo[n] - a*n) - min_k(up[k] - a*k), m >= 2.

    F is convex and piecewise linear in the slope a, with breakpoints at the
    edge slopes of the upper hull of lo and of the lower hull of up.  Returns
    the sorted breakpoints ``a``, ``F(a)`` and the active pairs ``n``, ``k``:
    F equals lo[n[i]] - up[k[i]] - a*(n[i] - k[i]) on the piece ending at
    a[i], and the last pair, past every breakpoint, is (0, m - 1).
    """
    top = np.array(_lower_hull((-lo).tolist()))  # the upper hull of lo
    bot = np.array(_lower_hull(up.tolist()))
    top_slopes = np.diff(-lo[top]) / np.diff(top)  # both nondecreasing
    bot_slopes = np.diff(up[bot]) / np.diff(bot)
    a = np.sort(np.concatenate([-top_slopes, bot_slopes]))
    ends = np.append(a, np.inf)
    n = top[np.searchsorted(top_slopes, -ends, side="right")]
    k = bot[np.searchsorted(bot_slopes, ends, side="left")]
    gap = lo[n[:-1]] - up[k[:-1]] - a * (n[:-1] - k[:-1])
    return a, gap, n, k


def _hull_gaps(u: Sequence, base: np.ndarray) -> tuple[np.ndarray, int]:
    """The gaps u - base above the convex minorant and the index of the largest.

    Raises:
        ValidationError: if a gap overflows, naming its entry.
    """
    with overflow_guard(u, 2.0):  # 0 <= u - base <= 2 max|u|
        gaps = u.as_array() - base
    k = int(np.argmax(gaps))
    if not math.isfinite(gaps[k]):
        raise ValidationError(f"hull gap at entry {k} overflows: {u[k]!r} - {float(base[k])!r}")
    return gaps, k


def _part(values: np.ndarray, what: str) -> Sequence:
    """``Sequence(values)`` of a computed part, naming the part if it overflows."""
    try:
        return Sequence(values)
    except ValidationError as exc:
        raise ValidationError(f"the {what} overflows: {exc}") from None


def _split(u: Sequence, structured: np.ndarray) -> tuple[Sequence, Sequence]:
    """The structured part and the residual u - structured."""
    return _part(structured, "structured part"), _part(u.as_array() - structured, "residual")


def convex_approx_hyers(
    u,
    mode: QuantifierMode = QuantifierMode.EXISTS,
    *,
    tol: float = DEFAULT_TOL,
) -> Decomposition:
    """Convex approximant with residual inside [-eps/2, eps/2].

    With eps the minimal slack of the chosen mode, the structured part is the
    greatest convex minorant shifted up by eps/2.  The construction is valid
    exactly when the hull gap u - gcm(u) stays within eps pointwise, which is
    asserted; a failure raises :class:`ConvexGapError` carrying the offending
    index (this can happen in EXISTS mode, never for the FORALL slack).
    """
    u = as_sequence(u)
    eps, _ = min_eps_convex(u, mode)
    base = gcm(u).as_array()
    gaps, worst = _hull_gaps(u, base)
    if gaps[worst] > eps + tol:
        raise ConvexGapError(worst, float(gaps[worst]), eps, mode)
    with overflow_guard(u, 2.0, eps):
        structured, residual = _split(u, base + eps / 2.0)
    bound = residual._peak
    return Decomposition(structured, residual, bound, eps=eps, slack=eps / 2.0 - bound)


def convex_approx_optimal(u) -> Decomposition:
    """Best uniform convex approximant.

    The structured part is gcm(u) + t with t = max(u - gcm(u)) / 2, and no
    convex sequence comes closer in the uniform norm: any convex v with
    ||u - v|| <= t satisfies v <= u + t, hence v <= gcm(u) + t by hull
    maximality, hence u - gcm(u) <= 2t pointwise.
    """
    u = as_sequence(u)
    base = gcm(u).as_array()
    gaps, k = _hull_gaps(u, base)
    t = float(gaps[k]) / 2.0
    with overflow_guard(u, 3.0):  # t <= max|u|
        structured, residual = _split(u, base + t)
    return Decomposition(structured, residual, t)


def affine_approx(u) -> Decomposition:
    """Best uniform fit by an arithmetic sequence (Chebyshev line fit).

    The band width w(s) = max(u - s*n) - min(u - s*n) is the gap kernel's F
    with lo = up = u, so by equioscillation its minimum sits at a hull edge
    slope: the slope is the breakpoint of least width, exact, with no search.
    The intercept centers the band and the bound is half its width.  ``eps``
    reports the minimal two-sided slack (EXISTS mode) and ``slack`` its
    headroom over the achieved bound; the bound never exceeds eps on
    sequences whose difference spread controls their drift, but the slack is
    reported rather than enforced.
    """
    u = as_sequence(u)
    m = len(u)
    arr = u.as_array()
    if m == 1:
        line = Line(0.0, u[0])
        return Decomposition(u, Sequence([0.0]), 0.0, eps=0.0, slack=0.0, line=line)
    eps, _ = min_eps_affine(u, QuantifierMode.EXISTS)  # names differences that overflow
    # slopes are at most 2 max|u|, so every term is below (4m + 2) max|u|
    with overflow_guard(u, 4.0 * m + 2.0):
        a, width, n, k = _gap_pieces(arr, arr)
        t = int(np.argmin(width))  # a NaN width, from slopes that overflow, comes first
        if not math.isfinite(width[t]):
            raise ValidationError(f"entries {n[t]} and {k[t]} overflow in the line fit")
        s = float(a[t])
        fit = s * np.arange(m, dtype=float)
        res = arr - fit
        top, bottom = int(np.argmax(res)), int(np.argmin(res))
        intercept = (float(res[top]) + float(res[bottom])) / 2.0
        if math.isinf(intercept):  # a sum that overflows; its halves do not
            intercept = float(res[top]) / 2.0 + float(res[bottom]) / 2.0
        if not math.isfinite(intercept):
            raise ValidationError(f"entries {top} and {bottom} overflow in the line fit")
        line = Line(s, intercept)
        structured, residual = _split(u, fit + intercept)
    bound = residual._peak
    return Decomposition(structured, residual, bound, eps=eps, slack=eps - bound, line=line)


def separating_line(lower, upper, *, tol: float = DEFAULT_TOL) -> Line:
    """Line threaded between a concave lower and a convex upper envelope.

    Requires equal lengths, lower concave, upper convex and lower <= upper
    pointwise (all within tolerance).  A slope a is feasible when the gap
    kernel's F(a) <= 0, so a lies between the largest secant
    (lower[n] - upper[k]) / (n - k) of a piece of F with n > k and the least
    one with n < k; these are the extremes over all pairs.  The returned line
    takes the midpoint slope, then centers the intercept in the remaining
    feasible band.

    Raises:
        SeparationInfeasibleError: when no line fits beyond tolerance, with
            the certifying index pairs.
        ValidationError: on length mismatch or an envelope of the wrong shape.
    """
    lower = as_sequence(lower)
    upper = as_sequence(upper)
    if len(lower) != len(upper):
        raise ValidationError(
            f"envelope lengths differ: {len(lower)} vs {len(upper)}"
        )
    if not is_convex(-lower, tol=tol).holds:
        raise ValidationError("lower envelope is not concave")
    if not is_convex(upper, tol=tol).holds:
        raise ValidationError("upper envelope is not convex")
    lo = lower.as_array()
    up = upper.as_array()
    crossing = lo - up
    worst = int(np.argmax(crossing))
    if crossing[worst] > tol:
        raise SeparationInfeasibleError(
            ((worst, worst),),
            f"envelopes cross at index {worst}: lower={lo[worst]!r} > upper={up[worst]!r}",
        )
    m = len(lower)
    if m == 1:
        return Line(0.0, (lo[0] + up[0]) / 2.0)

    _, _, n, k = _gap_pieces(lo, up)
    d = n - k
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (lo[n] - up[k]) / d
    need = np.where(d > 0, ratio, -np.inf)
    allow = np.where(d < 0, ratio, np.inf)
    p, q = int(np.argmax(need)), int(np.argmin(allow))
    a_lo, a_hi = float(need[p]), float(allow[q])
    pair_lo = (int(n[p]), int(k[p]))
    pair_hi = (int(n[q]), int(k[q]))
    if a_lo > a_hi + tol:
        raise SeparationInfeasibleError(
            (pair_lo, pair_hi),
            f"slope interval empty: need >= {a_lo!r} but <= {a_hi!r}",
        )
    slope = (a_lo + a_hi) / 2.0
    idx = np.arange(m, dtype=float)
    b_lo = lo - slope * idx
    b_hi = up - slope * idx
    bn = int(np.argmax(b_lo))
    bk = int(np.argmin(b_hi))
    if b_lo[bn] > b_hi[bk] + tol:
        raise SeparationInfeasibleError(
            ((bn, bk),),
            f"intercept band empty at slope {slope!r}",
        )
    return Line(slope, (float(b_lo[bn]) + float(b_hi[bk])) / 2.0)
