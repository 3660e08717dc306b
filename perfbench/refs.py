"""Independent references and output checks.

Every expected value is computed here, with numpy, or taken from
``seqconvex.oracle``; none is taken from the function under test.  A check
returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from seqconvex import Certificate, replay_margin

#: Comparison tolerance of the package's predicates (``DEFAULT_TOL``).
TOL = 1e-9

#: Relative tolerance for values that a correct program may round differently.
REL = 1e-9


def close(a, b, rel: float = REL) -> bool:
    """Equal up to ``rel`` relative to the larger magnitude (at least 1)."""
    a, b = float(a), float(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def strict_json(text: str):
    """Parse a report, rejecting the NaN and Infinity tokens JSON does not allow."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def second_diff_min(u: np.ndarray) -> float:
    """Most negative second difference (+inf when there is none)."""
    return float(np.diff(u, 2).min()) if len(u) >= 3 else math.inf


def lower_hull(u: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of ``u`` on the integer grid (monotone chain)."""
    hull: list[int] = []
    for x in range(len(u)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b - a) * (u[x] - u[a]) - (u[b] - u[a]) * (x - a) < 0.0:
                hull.pop()
            else:
                break
        hull.append(x)
    return np.interp(np.arange(len(u)), hull, u[hull])


class PairScan:
    """Exact minimal eps and worst slack margins over difference pairs i < j.

    EXISTS mode uses closed forms (prefix maxima, the spread of the
    differences); FORALL mode scans the pairs row by row, weighting each by
    j - i, in O(m) memory.
    """

    def __init__(self, u: np.ndarray):
        self.d = np.diff(u)
        self.w = np.arange(1, len(self.d), dtype=float)

    def rows(self):
        d = self.d
        for i in range(len(d) - 1):
            yield d[i] - d[i + 1 :], self.w[: len(d) - 1 - i]

    def min_eps(self, mode: str) -> tuple[float, float]:
        """(convex, affine) minimal eps."""
        d = self.d
        if len(d) < 2:
            return 0.0, 0.0
        if mode == "exists":
            excess = float((np.maximum.accumulate(d)[:-1] - d[1:]).max())
            return max(excess, 0.0), float(d.max() - d.min())
        conv = aff = 0.0
        for diff, w in self.rows():
            conv = max(conv, float((diff * w).max()))
            aff = max(aff, float((np.abs(diff) * w).max()))
        return conv, aff

    def worst_margins(self, eps_convex: float, eps_affine: float, mode: str) -> tuple[float, float]:
        """Smallest slack over all pairs of the convex and the affine eps inequality."""
        d = self.d
        if len(d) < 2:
            return math.inf, math.inf
        if mode == "exists":
            excess = float((np.maximum.accumulate(d)[:-1] - d[1:]).max())
            return eps_convex - excess, eps_affine - float(d.max() - d.min())
        conv = aff = math.inf
        for diff, w in self.rows():
            conv = min(conv, float((eps_convex / w - diff).min()))
            aff = min(aff, float((eps_affine / w - np.abs(diff)).min()))
        return conv, aff


def verdict_matches(holds: bool, worst: float) -> bool:
    """A verdict agrees with the reference worst margin (or sits on the edge)."""
    return holds == (worst >= -TOL) or close(worst, -TOL, 1e-12)


def check_certificate(u, cert: dict | None, eps: float, errors: list, what: str):
    """A certificate replays through ``replay_margin`` to its stated margin."""
    if cert is None:
        errors.append(f"{what}: missing certificate")
        return
    c = Certificate(cert["kind"], cert["check"], cert["i"], cert["j"], cert["n"], cert["margin"])
    replayed = replay_margin(u, c, eps=eps)
    if not close(replayed, c.margin):
        errors.append(f"{what}: certificate replays to {replayed!r}, states {c.margin!r}")


def check_decomposition(u: np.ndarray, structured, residual, bound: float, errors: list, what: str):
    """Parts reassemble to u and ``bound`` is the residual's uniform norm."""
    s, r = np.asarray(structured, float), np.asarray(residual, float)
    if s.shape != u.shape or r.shape != u.shape:
        errors.append(f"{what}: parts have the wrong length")
        return
    scale = max(1.0, float(np.abs(u).max()))
    if not np.all(np.abs(s + r - u) <= REL * scale):
        errors.append(f"{what}: structured + residual does not reassemble the input")
    if not close(bound, np.abs(r).max()):
        errors.append(f"{what}: bound {bound!r} is not max|residual| {np.abs(r).max()!r}")


def check_convex_part(s, errors: list, what: str):
    if second_diff_min(np.asarray(s, float)) < -TOL * max(1.0, float(np.abs(s).max())):
        errors.append(f"{what}: structured part is not convex")


def sampled_margin(u: np.ndarray, eps: float, n_random: int, seed: int) -> tuple[int, float]:
    """Checked count and worst margin of the random triple sample.

    Re-draws the sample the way ``SamplePlan`` documents it (PCG64 seeded
    with ``seed``, sorted uniform triples on [0, m-1]) and evaluates the
    extension with ``np.interp``.
    """
    hi = float(len(u) - 1)
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, hi, size=(n_random, 3)), axis=1)
    x, m, y = t[:, 0], t[:, 1], t[:, 2]
    ok = ((m - x) >= 1e-12) & ((y - m) >= 1e-12)
    x, m, y = x[ok], m[ok], y[ok]
    grid = np.arange(len(u), dtype=float)
    fx, fm, fy = (np.interp(p, grid, u) for p in (x, m, y))
    margins = (fy - fm + eps) / (y - m) - (fm - fx - eps) / (m - x)
    return int(x.size), float(margins.min())
