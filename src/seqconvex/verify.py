"""Seeded property suites for the paper's results.

Four suites check a statement on random inputs: ``thm09`` (Wright convexity
agrees with convexity), ``thm10`` (a convex part plus a residual inside
[-eps/2, eps/2]), ``thm11`` (an arithmetic part plus a residual of sup-norm
at most eps) and ``lemma22`` (the mediant sandwich).  Trial k of a suite
draws from numpy's PCG64 seeded with ``(seed + salt) * SEED_STRIDE + k``, so
a result's seed reproduces every trial.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import oracle
from .classify import is_convex, is_wright_convex
from .core import DEFAULT_TOL, QuantifierMode, ValidationError, mediant_bounds
from .decompose import ConvexGapError, affine_approx, convex_approx_hyers

SEED_STRIDE = 1_000_003
RNG_NOTE = {
    "algorithm": "numpy-pcg64",
    "trial_seed": "(seed + suite_salt) * 1000003 + trial_index",
}


def _noisy_or_uniform(k, trial_seed, rng, m, family):
    """Even trials add a drawn noise budget to ``family``; odd ones are uniform."""
    if k % 2:
        return oracle.generate(oracle.GeneratorSpec(trial_seed + 1, m, oracle.Family.RANDOM_UNIFORM))
    eps = float(rng.uniform(0.05, 2.0))
    return oracle.generate(oracle.GeneratorSpec(trial_seed + 1, m, family, eps=eps))


def _thm09(k, trial_seed, rng, tol, gaps):
    """Wright convexity agrees with ordinary convexity on random sequences."""
    m = int(rng.integers(1, 31))
    family = oracle.Family.INTEGER_GRID if k % 2 else oracle.Family.RANDOM_UNIFORM
    u = oracle.generate(oracle.GeneratorSpec(trial_seed + 1, m, family, grid_range=2))
    if is_wright_convex(u, tol=tol).holds != is_convex(u, tol=tol).holds:
        yield {"length": m, "values": list(u)}


def _thm10(k, trial_seed, rng, tol, gaps):
    """Convex decomposition residuals stay inside [-eps/2, eps/2]."""
    m = int(rng.integers(2, 101))
    u = _noisy_or_uniform(k, trial_seed, rng, m, oracle.Family.CONVEX_PLUS_NOISE)
    for mode in (QuantifierMode.EXISTS, QuantifierMode.FORALL):
        try:
            d = convex_approx_hyers(u, mode, tol=tol)
        except ConvexGapError:
            gaps[mode.value] += 1
            continue
        if d.bound > d.eps / 2.0 + 1e-9:
            yield {"mode": mode.value, "length": m}


def _thm11(k, trial_seed, rng, tol, gaps):
    """Arithmetic fits never exceed the minimal two-sided slack."""
    m = int(rng.integers(2, 51))
    u = _noisy_or_uniform(k, trial_seed, rng, m, oracle.Family.ARITHMETIC_PLUS_NOISE)
    d = affine_approx(u)
    if d.bound > d.eps + 1e-9:
        yield {"length": m, "bound": d.bound, "eps": d.eps}


def _lemma22(k, trial_seed, rng, tol, gaps):
    """Combined ratio lies between the extreme termwise ratios."""
    terms = int(rng.integers(1, 11))
    a = rng.uniform(-10.0, 10.0, terms)
    b = rng.uniform(1e-3, 10.0, terms)
    low, high = mediant_bounds(a, b)
    combined = float(a.sum() / b.sum())
    if not (low - 1e-12 <= combined <= high + 1e-12):
        yield {"low": low, "high": high, "combined": combined}


#: Suite -> (salt, key of its failure count, trial function).  A trial
#: function yields one record per failure; ``gaps`` counts thm10's convex-gap
#: errors per mode.
_TRIALS = {
    "thm09": (9, "failures", _thm09),
    "thm10": (10, "residual_violations", _thm10),
    "thm11": (11, "violations", _thm11),
    "lemma22": (22, "failures", _lemma22),
}


def _run(name: str, seed: int, trials: int, tol: float) -> dict:
    salt, count, trial = _TRIALS[name]
    failures, first = 0, None
    gaps = {"exists": 0, "forall": 0}
    for k in range(trials):
        trial_seed = (seed + salt) * SEED_STRIDE + k
        for failure in trial(k, trial_seed, np.random.default_rng(trial_seed), tol, gaps):
            failures += 1
            if first is None:
                first = {"trial": k, **failure}
    result = {"name": name, "trials": trials, count: failures}
    if name == "thm10":
        result["gap_failures"] = gaps
    return {**result, "passed": failures == 0, "first_failure": first}


#: Suite -> callable (seed, trials, tol) -> result record.
_SUITES = {name: partial(_run, name) for name in _TRIALS}


def run_suite(name: str, seed: int, trials: int, tol: float = DEFAULT_TOL) -> dict:
    """Run one named verification suite and return its result record."""
    if name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    if trials < 1:
        raise ValidationError("trials must be positive")
    if seed < 0:
        # trial seeds (seed + salt) * SEED_STRIDE + k must stay nonnegative
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return _SUITES[name](seed, trials, tol)
