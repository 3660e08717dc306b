import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqconvex import (
    QuantifierMode,
    Sequence,
    ValidationError,
    affine_approx,
    convex_approx_hyers,
    deltas,
    is_convex,
    is_eps_affine,
    is_eps_convex,
    is_wright_convex,
    min_eps_affine,
    min_eps_convex,
    replay_margin,
)
from seqconvex import classify
from seqconvex.classify import _worst_pair, _wright_worst

E = QuantifierMode.EXISTS
F = QuantifierMode.FORALL

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
value_lists = st.lists(finite, min_size=2, max_size=20)


def rand_seq(seed, m_lo=2, m_hi=20):
    rng = np.random.default_rng(seed)
    return Sequence(rng.uniform(-1, 1, int(rng.integers(m_lo, m_hi + 1))))


# --- is_convex ---------------------------------------------------------


def test_convex_squares():
    assert is_convex([0, 1, 4, 9]).holds


def test_convex_peak_violation():
    v = is_convex([0, 1, 0])
    assert not v.holds
    cert = v.certificate
    assert cert.kind == "violation"
    assert (cert.i, cert.j) == (1, 2)
    assert cert.margin == -2.0


def test_convex_constant():
    assert is_convex([5, 5, 5, 5]).holds


def test_convex_short_vacuous():
    assert is_convex([3.0]).holds
    assert is_convex([2.0, -9.0]).holds


# --- is_eps_convex ------------------------------------------------------


@pytest.mark.parametrize("mode", [E, F])
@pytest.mark.parametrize("eps", [0.0, 0.5, 10.0])
def test_eps_convex_on_convex(mode, eps):
    assert is_eps_convex([0, 1, 4, 9], eps, mode).holds


def test_eps_convex_peak_exists():
    assert is_eps_convex([0, 1, 0], 2.0, E).holds
    v = is_eps_convex([0, 1, 0], 1.9, E)
    assert not v.holds
    assert (v.certificate.i, v.certificate.j) == (1, 2)


def test_eps_convex_alternating_forall():
    assert is_eps_convex([0, 1, 0, 1], 2.0, F).holds
    v = is_eps_convex([0, 1, 0, 1], 1.99, F)
    assert not v.holds
    assert (v.certificate.i, v.certificate.j) == (1, 2)


def test_eps_convex_rejects_bad_eps():
    with pytest.raises(ValidationError):
        is_eps_convex([0, 1, 0], -1.0)
    with pytest.raises(ValidationError):
        is_eps_convex([0, 1, 0], float("nan"))


# --- min_eps ------------------------------------------------------------


def test_min_eps_convex_of_convex_is_zero():
    value, tight = min_eps_convex([0, 1, 4, 9], E)
    assert value == 0.0 and tight is None


def test_min_eps_convex_peak():
    value, tight = min_eps_convex([0, 1, 0], E)
    assert value == 2.0
    assert (tight.i, tight.j) == (1, 2)
    assert tight.kind == "witness"
    assert abs(tight.margin) <= 1e-12


def test_min_eps_convex_forall_zigzag():
    # brute enumeration over all (i, j, n): binding pair is (1, 4) at n = 4
    from seqconvex import brute_min_eps

    u = [0, 1, 0, 1, 0]
    value, tight = min_eps_convex(u, F)
    assert value == 6.0
    assert value == brute_min_eps(u, F)
    assert (tight.i, tight.j) == (1, 4)


@pytest.mark.parametrize("mode", [E, F])
def test_min_eps_is_tight(mode):
    for seed in range(60):
        u = rand_seq(seed)
        value, _ = min_eps_convex(u, mode)
        assert is_eps_convex(u, value, mode, tol=1e-12).holds
        if value > 1e-9:
            assert not is_eps_convex(u, value * (1 - 1e-6) - 1e-9, mode, tol=0.0).holds


# --- is_eps_affine ------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_eps_affine_on_arithmetic(eps):
    assert is_eps_affine([3, 5, 7, 9], eps, E).holds
    assert is_eps_affine([3, 5, 7, 9], eps, F).holds


def test_eps_affine_peak():
    assert is_eps_affine([0, 1, 0], 2.0, E).holds
    assert not is_eps_affine([0, 1, 0], 1.9, E).holds


def test_eps_affine_equals_two_sided_eps_convex():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 15))
        u = Sequence(rng.uniform(-1, 1, m))
        eps = float(rng.uniform(0, 2))
        mode = E if rng.integers(2) else F
        both = is_eps_convex(u, eps, mode).holds and is_eps_convex(-u, eps, mode).holds
        assert is_eps_affine(u, eps, mode).holds == both


def test_min_eps_affine_arithmetic_is_zero():
    value, tight = min_eps_affine([3, 5, 7, 9], E)
    assert value == 0.0 and tight is None


def test_min_eps_affine_peak():
    value, tight = min_eps_affine([0, 1, 0], E)
    assert value == 2.0
    assert (tight.i, tight.j) == (1, 2)


def test_min_eps_affine_equals_max_over_signs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(2, 15))
        u = Sequence(rng.uniform(-1, 1, m))
        mode = E if rng.integers(2) else F
        value, _ = min_eps_affine(u, mode)
        expected = max(min_eps_convex(u, mode)[0], min_eps_convex(-u, mode)[0])
        assert value == expected


# --- the worst-pair kernel ---------------------------------------------


def pair_reference(u, eps, mode, two_sided):
    """Plain double loop over i < j: the worst value and its first (i, j, n)."""
    d = deltas(u)
    best = None
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            k = 1 if mode is E else j - i
            rise = float(d[j]) - float(d[i])
            if two_sided:
                rise = -abs(rise)
            value = rise * k if eps is None else rise + eps / k
            if best is None or value < best[0]:
                best = (value, i + 1, j + 1, i + 1 + k)
    return best


def kernel_inputs():
    rng = np.random.default_rng(2024)
    for t in range(100):
        m = int(rng.integers(3, 41))
        n = np.arange(m)
        yield [
            rng.integers(-2, 3, m).astype(float),  # integer grid: many ties
            np.minimum(n, 2 * int(rng.integers(1, m)) - n).astype(float),  # tent
            np.cumsum(rng.normal(size=m)),  # random walk
            rng.uniform(-1, 1, m),
        ][t % 4]


@pytest.mark.parametrize("mode", [E, F])
def test_worst_pair_matches_double_loop(mode):
    for x in kernel_inputs():
        u = Sequence(x)
        for two_sided, check in ((False, "eps_convex"), (True, "eps_affine")):
            is_eps = is_eps_affine if two_sided else is_eps_convex
            min_eps = min_eps_affine if two_sided else min_eps_convex
            for eps in (None, 0.0, 0.5, 2.0):
                ref = pair_reference(u, eps, mode, two_sided)
                assert _worst_pair(u, eps, mode, two_sided) == ref
                if eps is None:
                    value, witness = min_eps(u, mode)
                    if ref[0] >= 0.0:
                        assert (value, witness) == (0.0, None)
                        continue
                    assert value == -ref[0]
                    assert (witness.check, witness.i, witness.j, witness.n) == (check, *ref[1:])
                    assert witness.margin == replay_margin(u, witness, eps=value)
                else:
                    verdict = is_eps(u, eps, mode, tol=0.0)
                    assert verdict.holds == (ref[0] >= 0.0)
                    if not verdict.holds:
                        c = verdict.certificate
                        assert (c.margin, c.i, c.j, c.n) == ref


def test_exists_kernels_use_linear_memory():
    m = 4_000
    u = Sequence(np.cumsum(np.random.default_rng(5).normal(size=m)))
    calls = (
        lambda: is_eps_convex(u, 0.5, E),
        lambda: is_eps_affine(u, 0.5, E),
        lambda: min_eps_convex(u, E),
        lambda: min_eps_affine(u, E),
        lambda: affine_approx(u),
    )
    for call in calls:
        call()  # warm caches and lazy imports
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@pytest.mark.parametrize("mode", [E, F])
def test_minimal_eps_takes_differences_once(monkeypatch, mode):
    calls = []

    def spy(u):
        calls.append(len(u))
        return deltas(u)

    monkeypatch.setattr(classify, "deltas", spy)
    u = Sequence(np.random.default_rng(8).uniform(-1, 1, 30))
    for call in (
        lambda: min_eps_convex(u, mode),
        lambda: min_eps_affine(u, mode),
        lambda: convex_approx_hyers(u, mode),
        lambda: affine_approx(u),
    ):
        calls.clear()
        call()
        assert calls == [30]


@pytest.mark.parametrize(
    "call",
    [
        lambda u: is_convex(u),
        lambda u: is_eps_convex(u, 1.0, E),
        lambda u: is_eps_affine(u, 1.0, F),
        lambda u: min_eps_convex(u, E),
        lambda u: min_eps_convex(u, F),
        lambda u: min_eps_affine(u, E),
    ],
)
def test_overflowing_difference_pair_is_an_input_error(call):
    # the differences 1.2e308, -1.2e308, 0 are finite, their gap is not
    with pytest.raises(ValidationError, match="differences at entries 1 and 2 overflow"):
        call([0.0, 1.2e308, 0.0, 0.0])


def test_forall_overflow_matters_only_at_the_worst_pair():
    # the weighted rise 5e307 * 4 of the pair (1, 5) overflows: its eps is no float
    with pytest.raises(ValidationError, match="differences at entries 1 and 5 overflow"):
        min_eps_convex([0.0, 5e307, -5e307, 0.0, 0.0, 0.0], F)
    # only the rise of the pair (1, 3), the largest one, overflows, so the
    # least rise and the verdicts are exact
    u = [0.0, -1e308, -1e308, 0.0]
    assert min_eps_convex(u, F) == (0.0, None)
    assert is_convex(u).holds and is_eps_convex(u, 0.0, F).holds


# --- Wright convexity ---------------------------------------------------


def test_wright_squares():
    assert is_wright_convex([0, 1, 4, 9]).holds


def test_wright_alternating_fails():
    v = is_wright_convex([0, 1, 0, 1])
    assert not v.holds
    cert = v.certificate
    # worst quadruple is p=0, q=r=1, s=2: u1 + u1 > u0 + u2 by 2
    assert cert.margin == -2.0
    r = cert.i + cert.j - cert.n
    assert cert.n + r == cert.i + cert.j


def wright_reference(values):
    """The plain triple loop: (margin, p, q, s) of the least margin, first in
    loop order (p, then s, then q)."""
    v = [float(x) for x in values]
    worst, at = math.inf, None
    for p in range(len(v) - 2):
        for s in range(p + 2, len(v)):
            base = v[p] + v[s]
            for q in range(p + 1, (p + s) // 2 + 1):
                margin = base - v[q] - v[p + s - q]
                if margin < worst:
                    worst, at = margin, (p, q, s)
    return None if at is None else (worst, *at)


def wright_inputs():
    """Tie-heavy and rounding-heavy families, m <= 60."""
    rng = np.random.default_rng(2026)
    for t in range(240):
        m = int(rng.integers(4, 61))
        n = np.arange(m, dtype=float)
        yield [
            rng.integers(-2, 3, m).astype(float),  # integer grid
            n % 2,  # alternating 0/1
            rng.integers(-10, 11, m) * 0.1,  # 0.1-grid
            rng.integers(-8, 9, m) * 0.25,  # quarter-grid
            np.resize([0.1, 0.7, 0.3], m),
            rng.uniform(-1, 1, m) * 1e6,
            -0.45e-9 * n**2,  # inside the tolerance band of convexity
            np.cumsum(rng.normal(size=m)),  # random walk
        ][t % 8]


@pytest.mark.parametrize("block", [8, classify._WRIGHT_BLOCK], ids=["tiny-blocks", "default"])
def test_wright_kernel_matches_triple_loop(monkeypatch, block):
    # tiny blocks carry the running minimum across many blocks and bisect
    monkeypatch.setattr(classify, "_WRIGHT_BLOCK", block)
    for x in wright_inputs():
        ref = wright_reference(x)
        assert _wright_worst(np.asarray(x)) == ref
        verdict = is_wright_convex(x, tol=0.0)
        assert verdict.holds == (ref[0] >= 0.0)
        if not verdict.holds:
            c = verdict.certificate
            assert (c.margin, c.i, c.n, c.j) == ref


def test_wright_kernel_uses_bounded_memory():
    m = 2_000
    rng = np.random.default_rng(6)
    for x in (
        np.cumsum(rng.normal(size=m)),
        rng.integers(-2, 3, m).astype(float),
        np.arange(m) % 2.0,
    ):
        u = Sequence(x)
        is_wright_convex(u)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            is_wright_convex(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_wright_pair_sum_overflow_is_an_input_error():
    # the pair sums overflow to +inf, which would let the check hold although
    # u[1] + u[1] > u[0] + u[2]
    with pytest.raises(ValidationError, match="entries 0 and 2 overflow"):
        is_wright_convex([1.7e308, 1.7e308, 1.6e308, 1.7e308])
    # every pair sum is finite, but the margin at p = 0, q = 1, s = 2 overflows
    with pytest.raises(ValidationError, match="margin at p=0, q=1, s=2 overflows"):
        is_wright_convex([0.0, 1.2e308, 0.0, 0.0])
    # only the neighbours 0 and 1 overflow, and no Wright margin adds them
    x = [1.7e308, 1.7e308, 0.0, 0.0]
    c = is_wright_convex(x).certificate
    assert (c.margin, c.i, c.n, c.j) == wright_reference(x) == (-1.7e308, 0, 1, 2)


def test_wright_matches_convex_exhaustively():
    # every integer sequence of length 4..7 over {-2,...,2}
    for m in range(4, 8):
        for values in itertools.product(range(-2, 3), repeat=m):
            w = is_wright_convex(values).holds
            c = is_convex(values).holds
            assert w == c, values


# --- cross-cutting invariants -------------------------------------------


@given(value_lists, st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_eps_monotonicity(values, eps1, extra):
    u = Sequence(values)
    for mode in (E, F):
        if is_eps_convex(u, eps1, mode).holds:
            assert is_eps_convex(u, eps1 + extra, mode).holds


@given(value_lists, st.floats(min_value=0, max_value=5))
@settings(max_examples=150, deadline=None)
def test_forall_implies_exists(values, eps):
    u = Sequence(values)
    if is_eps_convex(u, eps, F).holds:
        assert is_eps_convex(u, eps, E).holds
    assert min_eps_convex(u, E)[0] <= min_eps_convex(u, F)[0] + 1e-12


@given(value_lists, st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=150, deadline=None)
def test_arithmetic_shift_invariance(values, alpha, beta):
    u = Sequence(values)
    shifted = Sequence([v + alpha + beta * n for n, v in enumerate(values)])
    for mode in (E, F):
        assert min_eps_convex(u, mode)[0] == pytest.approx(
            min_eps_convex(shifted, mode)[0], abs=1e-9
        )
        assert min_eps_affine(u, mode)[0] == pytest.approx(
            min_eps_affine(shifted, mode)[0], abs=1e-9
        )
    # verdicts compared at slacks safely away from the decision boundary
    base = min_eps_convex(u, E)[0]
    assert is_eps_convex(shifted, base + 1.0, E).holds
    if base > 0.2:
        assert not is_eps_convex(shifted, base - 0.1, E, tol=0.0).holds


def test_certificate_replay_soundness():
    rng = np.random.default_rng(23)
    replayed = 0
    for _ in range(400):
        m = int(rng.integers(3, 15))
        u = Sequence(rng.uniform(-1, 1, m))
        eps = float(rng.uniform(0, 1))
        mode = E if rng.integers(2) else F
        for verdict, kwargs in (
            (is_convex(u), {}),
            (is_eps_convex(u, eps, mode), {"eps": eps}),
            (is_eps_affine(u, eps, mode), {"eps": eps}),
            (is_wright_convex(u), {}),
        ):
            if verdict.certificate is None:
                continue
            again = replay_margin(u, verdict.certificate, **kwargs)
            assert again == pytest.approx(verdict.certificate.margin, abs=1e-12)
            if verdict.certificate.check == "wright":
                assert again == verdict.certificate.margin
            assert verdict.certificate.margin < -1e-9  # violations only
            replayed += 1
    assert replayed > 100
