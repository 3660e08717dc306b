"""Decision procedures for convexity-type properties of finite sequences.

Four classes are recognized: convex, eps-convex, eps-affine and Wright
convex.  Each check returns a :class:`Verdict`; a failed check carries a
:class:`Certificate` naming the indices at which the defining inequality is
violated, together with the signed slack there (negative slack = violation).
The eps-convex and eps-affine checks and their exact minimal eps all read
one worst-pair kernel over the first differences: in EXISTS mode it is an
O(m) suffix-minimum scan, in FORALL mode an exact search of the staircase of
prefix maxima against suffix minima that skips blocks by a corner bound, in
O(m) memory.  The Wright check is exact in O(m^2) time: a prefix minimum of
pair sums along each anti-diagonal, held in blocks of bounded size.

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
    Sequence,
    ValidationError,
    as_sequence,
    check_eps,
    deltas,
    overflow_guard,
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


def _pair_values(rise, w, eps: float | None):
    """The FORALL value of pairs with rise d[j] - d[i] and weight w = j - i."""
    return rise * w if eps is None else rise + eps / w


def _staircase_scan(d: np.ndarray, eps: float | None) -> tuple[float, int, int, int]:
    """Least FORALL value over i < j of d and its first pair, as certificate indices.

    Rows are the i < len(d) - 1 where d[i] equals the running maximum of
    d[:i + 1], columns the j >= 1 where d[j] equals the running minimum of
    d[j:]; the first worst pair's row is a row of this grid (see
    :func:`_worst_pair`).  A block of the grid is skipped when its corner
    bound, the least rise with the most favourable weight, can neither beat
    the best value found so far nor tie it in an earlier row; a block of at
    most ``_WRIGHT_BLOCK`` cells is evaluated densely, and a larger one is
    halved, the more promising half first.  The first j of the best row comes
    from one scan of that row.
    """
    rows = np.flatnonzero(d[:-1] == np.maximum.accumulate(d[:-1]))
    cols = 1 + np.flatnonzero(d[1:] == np.minimum.accumulate(d[:0:-1])[::-1])
    hi, lo = d[rows], d[cols]  # both nondecreasing

    def block(r0, r1, c0, c1):
        """(bound, r0, r1, c0, c1) of the cells with j > i, or None if there are none."""
        if cols[c0] <= rows[r0]:
            c0 = int(np.searchsorted(cols, rows[r0], side="right"))
        if rows[r1 - 1] >= cols[c1 - 1]:
            r1 = int(np.searchsorted(rows, cols[c1 - 1]))
        if c0 >= c1 or r0 >= r1:
            return None
        rise = float(lo[c0]) - float(hi[r1 - 1])
        far = rise < 0.0 or eps is not None  # the bound takes the longest weight
        w = int(cols[c1 - 1] - rows[r0]) if far else max(1, int(cols[c0] - rows[r1 - 1]))
        return _pair_values(rise, w, eps), r0, r1, c0, c1

    best, best_r = math.inf, len(rows)
    stack = [(-math.inf, 0, len(rows), 0, len(cols))]  # every cell of row 0 has j > i
    while stack:
        bound, r0, r1, c0, c1 = stack.pop()
        if (bound, r0) >= (best, best_r):
            continue
        if (r1 - r0) * (c1 - c0) <= _WRIGHT_BLOCK:
            w = cols[c0:c1] - rows[r0:r1, None]
            v = _pair_values(lo[c0:c1] - hi[r0:r1, None], np.maximum(w, 1), eps)
            v[w <= 0] = np.inf
            t = int(np.argmin(v))  # row-major: the first row of a tie
            best, best_r = min((best, best_r), (float(v.flat[t]), r0 + t // (c1 - c0)))
            continue
        if r1 - r0 >= c1 - c0:
            h = (r0 + r1) // 2
            halves = (block(r0, h, c0, c1), block(h, r1, c0, c1))
        else:
            h = (c0 + c1) // 2
            halves = (block(r0, r1, c0, h), block(r0, r1, h, c1))
        stack.extend(sorted((b for b in halves if b is not None), reverse=True))
    i = int(rows[best_r])
    v = _pair_values(d[i + 1 :] - d[i], np.arange(1, len(d) - i), eps)
    k = int(np.argmin(v))
    return float(v[k]), i + 1, i + k + 2, i + k + 2


def _finite(value: float, i: int, j: int, n: int) -> tuple[float, int, int, int]:
    if not math.isfinite(value):
        raise ValidationError(f"differences at entries {i} and {j} overflow when compared")
    return value, i, j, n


def _worst_pair(
    u, eps: float | None, mode: QuantifierMode, two_sided: bool, d: np.ndarray | None = None
) -> tuple[float, int, int, int]:
    """Worst pair of the eps-inequality, as certificate indices (value, i, j, n).

    With ``eps`` given the value is the least slack (d[j] - d[i]) + eps/(n - i);
    with ``eps`` None it is the least weighted rise (d[j] - d[i])*(n - i), the
    negated minimal eps.  Two-sided (affine) checks take the lesser rise of d, -d.
    Ties go to the lexicographically first (i, j).  EXISTS (n = i + 1) scans
    suffix minima.  FORALL (n = j) searches a staircase grid: rounding is
    monotone, so (i, j) is never better than (i', j) with i' <= i and
    d[i'] >= d[i], nor than (i, j') with j' >= j and d[j'] <= d[j] (with eps
    None, wherever the rise is negative).  So the first worst pair's row is a
    strict prefix maximum of d, reaching the worst value at a column whose
    difference is at most every later one; with d nondecreasing the worst pair
    is adjacent and lies on that grid too.  On the grid the exact value is
    Monge, so the good cells hug one monotone staircase and the corner bounds
    of distant blocks rule them out.  Those bounds hold under rounding, by the
    same monotonicity; the Monge order of the row minima does not, so
    :func:`_staircase_scan` never relies on it.  A caller that holds the differences ``d`` of ``u`` passes them in.

    Raises:
        ValidationError: if the worst value overflows.
    """
    if d is None:
        d = deltas(u)
    shift = 0.0 if eps is None else eps
    sides = (d, -d) if two_sided else (d,)
    # |rise| <= 4 max|u| and a weight is below m
    with overflow_guard(u, 4.0 * len(u), shift):
        if mode is QuantifierMode.EXISTS:
            return _finite(*min(_suffix_scan(s, shift) for s in sides))
        return _finite(*min(_staircase_scan(s, eps) for s in sides))


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
    with overflow_guard(u, 4.0):
        steps = d[1:] - d[:-1]
    k = int(np.argmin(steps))
    worst, i, j, n = _finite(float(steps[k]), k + 1, k + 2, k + 2)
    if worst >= -tol:
        return Verdict(True)
    return Verdict(False, Certificate(VIOLATION, "convex", i, j, n, margin=worst))


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
    d = deltas(u)
    value, i, j, n = _worst_pair(u, None, mode, check == "eps_affine", d)
    eps_min = -value
    if eps_min <= 0.0:
        return 0.0, None
    witness = Certificate(WITNESS, check, i, j, n, margin=math.nan)
    return eps_min, replace(witness, margin=_pair_margin(d, witness, eps_min))


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


#: Cells the Wright kernel (anti-diagonal x inner index) and the FORALL pair
#: kernel (row x column) evaluate per block.
_WRIGHT_BLOCK = 1 << 14

#: +-inf padding on both sides of the Wright kernel's input, wider than any block.
_WRIGHT_PAD = np.full(math.isqrt(2 * _WRIGHT_BLOCK) + 2, np.inf)
_WRIGHT_NEG_PAD = -_WRIGHT_PAD


def _wright_blocks(m: int):
    """Runs [s0, s1) of anti-diagonals sigma = p + s, each with its row count.

    Anti-diagonal sigma has n(sigma) = sigma // 2 - max(0, sigma - m + 1)
    inner indices q, most at sigma = m - 1; a block has as many rows as its
    largest n.  That is at most n(s0) + w/2 for a block of width w starting
    at s0, so w solves w*(n(s0) + w/2) = _WRIGHT_BLOCK.
    """
    s0, end = 2, 2 * m - 3
    while s0 < end:
        n0 = s0 // 2 - max(0, s0 - m + 1)
        s1 = min(end, s0 + max(1, math.isqrt(n0 * n0 + 2 * _WRIGHT_BLOCK) - n0))
        peak = min(max(m - 1, s0), s1 - 1)  # where n is largest in [s0, s1)
        yield s0, s1, peak // 2 - max(0, peak - m + 1)
        s0 = s1


def _check_pair_sums(u: Sequence) -> None:
    """Raise unless every pair sum u[p] + u[s] (s >= p + 2) is finite."""
    if math.isfinite(2.0 * u._peak):
        return
    v = u.as_array()
    with np.errstate(over="ignore"):
        for p in range(len(v) - 2):
            bad = np.flatnonzero(np.isinf(v[p] + v[p + 2 :]))
            if bad.size:
                s = p + 2 + int(bad[0])
                a, b = float(v[p]), float(v[s])
                raise ValidationError(f"entries {p} and {s} overflow when added: {a!r} + {b!r}")


def _first_attaining(B: np.ndarray, j, t, vq, vr, c: float) -> np.ndarray:
    """First row k with (B[k, j[i]] - vq[i]) - vr[i] <= c, for every i.

    Up to row t[i] the left side is +inf or the margin of a real triple, so
    never below c; B does not increase down a column, so the predicate is
    monotone in k and holds from row t[i] on.  A vectorised bisection finds the first such row
    in O(log rows) steps per cell, so ties cost no O(m) scan per cell.
    """
    flat, width = B.ravel(), B.shape[1]
    k, n = j, int(t.max()) + 1  # the first row lies in [k // width, k // width + n)
    while n > 1:
        half = n >> 1
        ok = (flat[k + (half - 1) * width] - vq) - vr <= c
        k = np.where(ok, k, k + half * width)
        n -= half
    return k // width


def _wright_worst(v: np.ndarray) -> tuple[float, int, int, int] | None:
    """Least margin ((v[p] + v[s]) - v[q]) - v[r] and its first (p, q, s).

    On one anti-diagonal sigma = p + s = q + r the margin is nondecreasing in
    b = v[p] + v[s], because rounding is monotone, so the least margin over
    p < q is the one at B[q - 1], the prefix minimum of b: the minimum over
    all triples costs O(m^2).  A block holds anti-diagonals as columns whose
    rows end at q = sigma // 2; rows with no valid p read the +inf padding.
    Ties go to the lexicographically first (p, s, q): the first p attaining
    the minimum c on a cell (sigma, q) is the first row with margin(B) == c,
    and B drops there, so that p attains c by itself.  Blocks run in
    increasing sigma, so a later block wins a tie only with a smaller p.
    Returns None when every margin is +inf.
    """
    m, f = len(v), len(_WRIGHT_PAD)
    ext = np.concatenate((_WRIGHT_PAD, v, _WRIGHT_PAD))  # ext[f + k] = v[k]
    neg = np.concatenate((_WRIGHT_NEG_PAD, [-np.inf], v, _WRIGHT_NEG_PAD))  # neg[f + 1 + k]
    best, at = math.inf, None
    for s0, s1, rows in _wright_blocks(m):
        sigma = np.arange(s0, s1)
        first = (sigma >> 1) - rows  # p on row 0 of each column
        ip = (f + first) + np.arange(rows)[:, None]  # f + p
        is_ = (2 * f + sigma) - ip  # f + s
        B = np.minimum.accumulate(ext[ip] + ext[is_], axis=0)
        margin = (B - neg[2:][ip]) - neg[is_]  # (B - v[p + 1]) - v[s - 1]
        c = float(margin.min())
        if c == math.inf or c > best:
            continue
        t, j = np.nonzero(margin == c)
        p0, sj = first[j], sigma[j]
        q = p0 + t + 1
        p = p0 + _first_attaining(B, j, t, v[q], v[sj - q], c)
        if c == best:  # a tie with an earlier block wins only with a smaller p
            win = p < at[0]
            if not win.any():
                continue
            p, q, sj = p[win], q[win], sj[win]
        s = sj - p
        w = np.lexsort((q, s, p))[0]
        best, at = c, (int(p[w]), int(q[w]), int(s[w]))
    if at is None:
        return None
    p, q, s = at
    x = v.item  # the margin once more in the loop's order, so a zero keeps its sign
    return (x(p) + x(s) - x(q)) - x(p + s - q), p, q, s


def is_wright_convex(u, *, tol: float = DEFAULT_TOL) -> Verdict:
    """Check u[q] + u[r] <= u[p] + u[s] + tol whenever p < q <= r < s, q+r = p+s.

    The least margin ((u[p] + u[s]) - u[q]) - u[r] over all such quadruples,
    with ties to the lexicographically first (p, s, q), comes from an exact
    O(m^2)-time kernel over anti-diagonals p + s that holds a bounded block of
    them at a time.  Sequences shorter than four entries defer to
    :func:`is_convex`.

    Raises:
        ValidationError: if some pair sum u[p] + u[s] overflows, or the
            least margin overflows to -inf.
    """
    u = as_sequence(u)
    m = len(u)
    if m < 4:
        return is_convex(u, tol=tol)
    v = u.as_array()
    _check_pair_sums(u)
    with overflow_guard(u, 4.0):  # a margin adds four entries
        worst = _wright_worst(v)
    if worst is not None and worst[0] == -math.inf:
        _, p, q, s = worst
        raise ValidationError(f"Wright margin at p={p}, q={q}, s={s} overflows")
    if worst is None or worst[0] >= -tol:
        return Verdict(True)
    margin, p, q, s = worst
    cert = Certificate(VIOLATION, "wright", i=p, j=s, n=q, margin=margin)
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
        return ((u[cert.i] + u[cert.j]) - u[cert.n]) - u[r]
    return _pair_margin(deltas(u), cert, eps)


def _pair_margin(d: np.ndarray, cert: Certificate, eps: float) -> float:
    """Signed slack of a pair certificate, from the differences ``d``."""
    di, dj = float(d[cert.i - 1]), float(d[cert.j - 1])
    if cert.check == "convex":
        return dj - di
    slack = float(eps) / (cert.n - cert.i)
    if cert.check == "eps_convex":
        return dj - di + slack
    if cert.check == "eps_affine":
        return slack - abs(di - dj)
    raise ValidationError(f"unknown certificate check {cert.check!r}")
