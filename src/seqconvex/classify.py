"""Decision procedures for convexity-type properties of finite sequences.

Four classes are recognized: convex, eps-convex, eps-affine and Wright
convex.  Each check returns a :class:`Verdict`; a failed check carries a
:class:`Certificate` naming the indices at which the defining inequality is
violated, together with the signed slack there (negative slack = violation).
The eps-convex and eps-affine checks and their exact minimal eps all read
one worst-pair kernel over the first differences: in EXISTS mode it is an
O(m) suffix-minimum scan, in FORALL mode it still enumerates all O(m^2)
pairs.

Index conventions match the difference sequence: a certificate pair (i, j)
with 1 <= i < j <= m - 1 refers to the differences u[i] - u[i-1] and
u[j] - u[j-1]; the optional n lies in ]i, j].  Wright certificates reuse the
same container with (i, j, n) = (p, s, q) and r = p + s - q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_TOL,
    QuantifierMode,
    ValidationError,
    as_sequence,
    check_eps,
    deltas,
)

WITNESS = "witness"
VIOLATION = "violation"


@dataclass(frozen=True)
class Certificate:
    """Index witness for a verdict plus the signed slack at those indices."""

    kind: str  # WITNESS or VIOLATION
    check: str  # "convex" | "eps_convex" | "eps_affine" | "wright"
    i: int
    j: int
    n: int | None
    margin: float

    @property
    def indices(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classification check.

    ``certificate`` is present whenever ``holds`` is false and can be
    replayed against the defining inequality with :func:`replay_margin`.
    """

    holds: bool
    certificate: Certificate | None = None


def _suffix_scan(d: np.ndarray, shift: float) -> tuple[float, int, int, int]:
    """Least (d[j] - d[i]) + shift over i < j and its first pair, in O(m).

    Rounding is monotone, so row i attains its minimum at the suffix minimum
    of d[i+1:], and ``np.argmin`` keeps the first index of a tie.
    """
    suffix = np.minimum.accumulate(d[:0:-1])[::-1]
    rise = (suffix - d[:-1]) + shift
    i = int(np.argmin(rise))
    j = i + 1 + int(np.argmin((d[i + 1 :] - d[i]) + shift))
    return float(rise[i]), i + 1, j + 1, i + 2


def _worst_pair(
    u, eps: float | None, mode: QuantifierMode, two_sided: bool
) -> tuple[float, int, int, int]:
    """Worst pair of the eps-inequality, as certificate indices (value, i, j, n).

    With ``eps`` given the value is the least slack (d[j] - d[i]) + eps/(n - i);
    with ``eps`` None it is the least weighted rise (d[j] - d[i])*(n - i), the
    negated minimal eps.  Two-sided (affine) checks take the lesser rise of d, -d.
    Ties go to the lexicographically first (i, j).  EXISTS (n = i + 1) scans
    suffix minima; FORALL (n = j) enumerates every pair.
    """
    d = deltas(u)
    if mode is QuantifierMode.EXISTS:
        shift = 0.0 if eps is None else eps
        return min(_suffix_scan(s, shift) for s in ((d, -d) if two_sided else (d,)))
    ii, jj = np.triu_indices(len(d), k=1)
    rise = d[jj] - d[ii]
    if two_sided:
        rise = -np.abs(rise)
    worst = rise * (jj - ii) if eps is None else rise + eps / (jj - ii)
    t = int(np.argmin(worst))
    return float(worst[t]), int(ii[t]) + 1, int(jj[t]) + 1, int(jj[t]) + 1


def is_convex(u, *, tol: float = DEFAULT_TOL) -> Verdict:
    """Does 2*u[n] <= u[n-1] + u[n+1] + tol hold at every interior index?

    Sequences with fewer than three entries are vacuously convex.  On failure
    the certificate carries the worst interior index (as the difference pair
    (n, n + 1)) and the most negative second difference as margin.
    """
    u = as_sequence(u)
    if len(u) < 3:
        return Verdict(True)
    d = deltas(u)
    steps = d[1:] - d[:-1]
    k = int(np.argmin(steps))
    worst = float(steps[k])
    if worst >= -tol:
        return Verdict(True)
    cert = Certificate(VIOLATION, "convex", i=k + 1, j=k + 2, n=k + 2, margin=worst)
    return Verdict(False, cert)


def _eps_verdict(u, eps, mode: QuantifierMode, tol: float, check: str) -> Verdict:
    u = as_sequence(u)
    eps = check_eps(eps)
    if len(u) < 3:
        return Verdict(True)
    worst, i, j, n = _worst_pair(u, eps, mode, two_sided=check == "eps_affine")
    if worst >= -tol:
        return Verdict(True)
    return Verdict(False, Certificate(VIOLATION, check, i, j, n, worst))


def _min_eps(u, mode: QuantifierMode, check: str) -> tuple[float, Certificate | None]:
    u = as_sequence(u)
    if len(u) < 3:
        return 0.0, None
    value, i, j, n = _worst_pair(u, None, mode, two_sided=check == "eps_affine")
    eps_min = -value
    if eps_min <= 0.0:
        return 0.0, None
    witness = Certificate(WITNESS, check, i, j, n, margin=math.nan)
    return eps_min, replace(witness, margin=replay_margin(u, witness, eps=eps_min))


def is_eps_convex(
    u,
    eps: float,
    mode: QuantifierMode = QuantifierMode.EXISTS,
    *,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Check u[i]-u[i-1] <= u[j]-u[j-1] + eps/(n-i) + tol for all pairs i < j.

    In EXISTS mode the inequality must hold for some n in ]i, j], which
    reduces to the n = i + 1 case; in FORALL mode it must hold for every n,
    which reduces to n = j.  Sequences with fewer than three entries have no
    pair to test and hold vacuously.
    """
    return _eps_verdict(u, eps, mode, tol, "eps_convex")


def is_eps_affine(
    u,
    eps: float,
    mode: QuantifierMode = QuantifierMode.EXISTS,
    *,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Two-sided variant: |(u[i]-u[i-1]) - (u[j]-u[j-1])| <= eps/(n-i) + tol.

    Equivalent to both the sequence and its negation being eps-convex.
    """
    return _eps_verdict(u, eps, mode, tol, "eps_affine")


def min_eps_convex(
    u, mode: QuantifierMode = QuantifierMode.EXISTS
) -> tuple[float, Certificate | None]:
    """Exact minimal eps for which the sequence is eps-convex.

    Equals the maximum over pairs i < j of the positive part of
    (u[i]-u[i-1]) - (u[j]-u[j-1]), weighted by (j - i) in FORALL mode.  The
    value is 0 exactly when the sequence is convex, in which case no pair is
    tight and no certificate is returned; otherwise the witness names the
    attaining pair and its residual slack at the returned eps (which is zero
    up to rounding).
    """
    return _min_eps(u, mode, "eps_convex")


def min_eps_affine(
    u, mode: QuantifierMode = QuantifierMode.EXISTS
) -> tuple[float, Certificate | None]:
    """Exact minimal eps for which the sequence is eps-affine.

    Same maximization as :func:`min_eps_convex` with the absolute difference
    gap in place of its positive part; equals
    max(min_eps_convex(u), min_eps_convex(-u)) in either mode.
    """
    return _min_eps(u, mode, "eps_affine")


def is_wright_convex(u, *, tol: float = DEFAULT_TOL) -> Verdict:
    """Check u[q] + u[r] <= u[p] + u[s] + tol whenever p < q <= r < s, q+r = p+s.

    Direct enumeration: for each outer pair (p, s) the inner index q runs up
    to the midpoint and r = p + s - q is forced.  Sequences shorter than four
    entries defer to :func:`is_convex`.
    """
    u = as_sequence(u)
    m = len(u)
    if m < 4:
        return is_convex(u, tol=tol)
    v = u.values
    worst = math.inf
    at = (0, 0, 0)
    for p in range(m - 2):
        vp = v[p]
        for s in range(p + 2, m):
            base = vp + v[s]
            for q in range(p + 1, (p + s) // 2 + 1):
                margin = base - v[q] - v[p + s - q]
                if margin < worst:
                    worst = margin
                    at = (p, q, s)
    if worst >= -tol:
        return Verdict(True)
    p, q, s = at
    cert = Certificate(VIOLATION, "wright", i=p, j=s, n=q, margin=worst)
    return Verdict(False, cert)


def replay_margin(u, cert: Certificate, *, eps: float = 0.0) -> float:
    """Recompute the signed slack a certificate claims, from the raw sequence.

    For eps-dependent checks the caller must pass the eps the verdict was
    produced with; the stored n determines the slack eps/(n - i) directly, so
    the quantifier mode is not needed.
    """
    u = as_sequence(u)
    if cert.check == "wright":
        r = cert.i + cert.j - cert.n
        return (u[cert.i] + u[cert.j]) - (u[cert.n] + u[r])
    d = deltas(u)
    di, dj = float(d[cert.i - 1]), float(d[cert.j - 1])
    if cert.check == "convex":
        return dj - di
    slack = float(eps) / (cert.n - cert.i)
    if cert.check == "eps_convex":
        return dj - di + slack
    if cert.check == "eps_affine":
        return slack - abs(di - dj)
    raise ValidationError(f"unknown certificate check {cert.check!r}")
