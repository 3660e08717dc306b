"""Piecewise-linear extension of a sequence and sampled slope inequalities.

A sequence u[0..m-1] extends to a continuous function f on [0, m-1] that is
the chord between consecutive entries on each unit interval and matches the
entries exactly at the integers.  Two checks are provided on top of it:

* an approximate-convexity criterion on point triples x < u < y, comparing
  the slack-adjusted chord slopes on either side of the middle point;
* two bounds pinning the chord slope over a span [x, y] between extremal
  knot-to-knot slopes shifted by eps-dependent terms.

The triple criterion quantifies over uncountably many triples, so the check
is a sound refuter and a sampled verifier: it sweeps every knot triple plus a
seeded batch of random interior triples and reports the worst slack found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, DomainError, Sequence, as_sequence, check_eps, deltas

#: Spans or triple legs shorter than this are treated as degenerate.
DEGENERATE_SPAN = 1e-12


@dataclass(frozen=True)
class PiecewiseLinear:
    """Chord-interpolating extension of a sequence to the real interval [0, m-1].

    For x in [n-1, n] with n = ceil(x) (n >= 1) and t = n - x, the value is
    t*u[n-1] + (1-t)*u[n]; at integer points this reproduces the entries
    exactly.  No extrapolation: evaluation outside [0, m-1] is an error.
    """

    knots: Sequence

    def __init__(self, knots) -> None:
        object.__setattr__(self, "knots", as_sequence(knots))

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, float(len(self.knots) - 1))

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def eval(self, x: float) -> float:
        return float(self.eval_array(np.array([x], dtype=float))[0])

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        hi = len(self.knots) - 1
        outside = xs[~((xs >= 0.0) & (xs <= hi))]
        if outside.size:
            raise DomainError(f"x={float(outside[0])!r} outside the domain [0, {hi}]")
        v = self.knots.as_array()
        if hi == 0:
            return np.full_like(xs, v[0])
        n = np.maximum(np.ceil(xs), 1.0)
        t = n - xs
        idx = n.astype(int)
        return t * v[idx - 1] + (1.0 - t) * v[idx]


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic triple sampler for the convexity criterion.

    The sampled set is every knot triple (i, j, k) with i < j < k (cubic in
    the sequence length; disable for very long sequences), ``n_random``
    uniformly drawn interior triples from a generator seeded with ``seed``,
    and any explicitly supplied ``extra_triples``.
    """

    n_random: int = 10_000
    seed: int = 0
    include_knot_triples: bool = True
    extra_triples: tuple[tuple[float, float, float], ...] = ()


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of a sampled triple sweep.

    ``margin`` is the smallest slack seen over all non-degenerate triples
    (+inf if every triple was degenerate); ``worst_triple`` is where it
    occurred.  A negative margin beyond tolerance refutes the property; a
    nonnegative one verifies it on the sample only.
    """

    holds: bool
    checked: int
    skipped: int
    margin: float
    worst_triple: tuple[float, float, float] | None


@dataclass(frozen=True)
class ChordCheck:
    """Outcome of the two chord-slope bounds over one span [x, y]."""

    holds: bool
    upper_margin: float
    lower_margin: float
    span: tuple[int, int]


def _gather_triples(plan: SamplePlan, hi: float, m: int) -> np.ndarray:
    parts = []
    if plan.include_knot_triples and m >= 3:
        parts.append(
            np.array(list(itertools.combinations(range(m), 3)), dtype=float)
        )
    if plan.n_random > 0:
        rng = np.random.default_rng(plan.seed)
        parts.append(np.sort(rng.uniform(0.0, hi, size=(plan.n_random, 3)), axis=1))
    if plan.extra_triples:
        parts.append(np.asarray(plan.extra_triples, dtype=float))
    if not parts:
        return np.empty((0, 3))
    return np.concatenate(parts, axis=0)


def check_eps_convex_function(
    f: PiecewiseLinear,
    eps: float,
    plan: SamplePlan = SamplePlan(),
    *,
    tol: float = DEFAULT_TOL,
) -> SampledCheck:
    """Sampled check of (f(u)-f(x)-eps)/(u-x) <= (f(y)-f(u)+eps)/(y-u) + tol.

    Triples with a leg shorter than ``DEGENERATE_SPAN`` are skipped and
    counted, never evaluated.
    """
    eps = check_eps(eps)
    hi = float(len(f.knots) - 1)
    triples = _gather_triples(plan, hi, len(f.knots))
    if triples.size == 0:
        return SampledCheck(True, 0, 0, math.inf, None)
    x, u, y = triples[:, 0], triples[:, 1], triples[:, 2]
    ok = ((u - x) >= DEGENERATE_SPAN) & ((y - u) >= DEGENERATE_SPAN)
    skipped = int((~ok).sum())
    x, u, y = x[ok], u[ok], y[ok]
    if x.size == 0:
        return SampledCheck(True, 0, skipped, math.inf, None)
    fx, fu, fy = f.eval_array(x), f.eval_array(u), f.eval_array(y)
    left = (fu - fx - eps) / (u - x)
    right = (fy - fu + eps) / (y - u)
    margins = right - left
    t = int(np.argmin(margins))
    worst = float(margins[t])
    return SampledCheck(
        holds=worst >= -tol,
        checked=int(x.size),
        skipped=skipped,
        margin=worst,
        worst_triple=(float(x[t]), float(u[t]), float(y[t])),
    )


def check_chord_slope_bounds(
    f: PiecewiseLinear,
    eps: float,
    x: float,
    y: float,
    *,
    tol: float = DEFAULT_TOL,
) -> ChordCheck:
    """Check both chord-slope bounds over the span [x, y].

    With n1 = floor(x), n2 = ceil(y) and knot slopes s_n = f(n+1) - f(n) for
    n in [n1, n2 - 1], the two verified inequalities are::

        (f(y) - f(x) - eps) / (y - x) <= max_n s_n - eps / (n2 - n1)
        min_n s_n + eps / (y - x)     <= (f(y) - f(x) + eps) / (y - x)

    Raises:
        DomainError: if the span leaves [0, m-1] or y - x is degenerate.
        ValidationError: if any knot slope of ``f`` overflows, in the span or not.
    """
    eps = check_eps(eps)
    x, y = float(x), float(y)
    hi = len(f.knots) - 1
    if not (0.0 <= x and y <= hi and x < y):
        raise DomainError(f"need 0 <= x < y <= {hi}, got x={x!r}, y={y!r}")
    if y - x < DEGENERATE_SPAN:
        raise DomainError(f"degenerate span: y - x = {y - x!r}")
    n1 = int(math.floor(x))
    n2 = int(math.ceil(y))
    slopes = deltas(f.knots)[n1:n2]
    fy_fx = f.eval(y) - f.eval(x)
    upper_margin = (float(slopes.max()) - eps / (n2 - n1)) - (fy_fx - eps) / (y - x)
    lower_margin = (fy_fx + eps) / (y - x) - (float(slopes.min()) + eps / (y - x))
    return ChordCheck(
        holds=upper_margin >= -tol and lower_margin >= -tol,
        upper_margin=upper_margin,
        lower_margin=lower_margin,
        span=(n1, n2),
    )
