import math

import numpy as np
import pytest

from seqconvex import (
    DomainError,
    PiecewiseLinear,
    QuantifierMode,
    SamplePlan,
    Sequence,
    ValidationError,
    check_chord_slope_bounds,
    check_eps_convex_function,
    mediant_bounds,
    min_eps_convex,
)

F = QuantifierMode.FORALL


def rand_pl(seed, m_lo=3, m_hi=20):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(m_lo, m_hi + 1))
    return PiecewiseLinear(rng.uniform(-1, 1, m))


# --- evaluation ----------------------------------------------------------


def test_eval_midpoint():
    assert PiecewiseLinear([0, 2]).eval(0.5) == 1.0


def test_eval_knot_exactness():
    f = PiecewiseLinear([0, 1, 4])
    assert f.eval(2.0) == 4.0
    for n, v in enumerate([0.0, 1.0, 4.0]):
        assert f.eval(float(n)) == v


def test_eval_chord_interpolation():
    assert PiecewiseLinear([0, 1, 4]).eval(1.25) == pytest.approx(1.75, abs=1e-15)


def test_eval_single_knot():
    f = PiecewiseLinear([3.5])
    assert f.eval(0.0) == 3.5
    with pytest.raises(DomainError):
        f.eval(0.5)


def test_eval_rejects_out_of_domain():
    f = PiecewiseLinear([0, 1, 4])
    with pytest.raises(DomainError):
        f.eval(-1e-9)
    with pytest.raises(DomainError):
        f.eval(2.0000001)
    with pytest.raises(DomainError):
        f.eval_array(np.array([0.5, 5.0]))


def test_eval_knots_are_exact_for_random_data():
    for seed in range(20):
        f = rand_pl(seed)
        for n, v in enumerate(f.knots):
            assert f.eval(float(n)) == v


def test_eval_bounded_and_monotone_on_each_chord():
    for seed in range(10):
        f = rand_pl(seed)
        for n in range(1, len(f.knots)):
            a, b = f.knots[n - 1], f.knots[n]
            xs = np.linspace(n - 1, n, 17)
            vals = [f.eval(x) for x in xs]
            assert all(min(a, b) - 1e-12 <= v <= max(a, b) + 1e-12 for v in vals)
            ordered = vals if a <= b else vals[::-1]
            assert all(x <= y + 1e-12 for x, y in zip(ordered, ordered[1:]))


# --- sampled convexity criterion -----------------------------------------


def test_triple_check_convex_knots_zero_eps():
    f = PiecewiseLinear([0, 1, 4, 9])
    out = check_eps_convex_function(f, 0.0, SamplePlan(n_random=2000, seed=3))
    assert out.holds
    assert out.skipped == 0
    assert out.checked > 2000


def test_triple_check_peak_with_slack():
    f = PiecewiseLinear([0, 1, 0])
    # at the knot triple (0, 1, 2): (1-0-2)/1 = -1 <= (0-1+2)/1 = 1
    out = check_eps_convex_function(f, 2.0, SamplePlan(n_random=0))
    assert out.holds
    assert out.checked == 1
    assert out.margin == 2.0


def test_triple_check_peak_zero_eps_refuted():
    f = PiecewiseLinear([0, 1, 0])
    out = check_eps_convex_function(f, 0.0, SamplePlan(n_random=0))
    assert not out.holds
    assert out.worst_triple == (0.0, 1.0, 2.0)
    assert out.margin == -2.0


def test_triple_check_skips_degenerate():
    f = PiecewiseLinear([0, 1, 0])
    plan = SamplePlan(
        n_random=0,
        include_knot_triples=False,
        extra_triples=((0.0, 1e-13, 1.0), (0.0, 1.0, 1.0 + 1e-13), (0.0, 0.5, 2.0)),
    )
    out = check_eps_convex_function(f, 5.0, plan)
    assert out.skipped == 2
    assert out.checked == 1
    assert out.holds


def test_triple_check_empty_plan():
    f = PiecewiseLinear([0, 1])
    out = check_eps_convex_function(f, 0.0, SamplePlan(n_random=0))
    assert out.holds and out.checked == 0 and out.margin == math.inf


def test_triple_check_transfer_at_forall_min_eps():
    # sequence-level slack carries over to the extension
    for seed in range(25):
        f = rand_pl(seed)
        eps, _ = min_eps_convex(f.knots, F)
        out = check_eps_convex_function(f, eps, SamplePlan(n_random=2000, seed=seed))
        assert out.holds, (seed, out)


def test_triple_check_zero_eps_on_convex_inputs():
    from seqconvex import gcm

    for seed in range(15):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(3, 15))
        f = PiecewiseLinear(gcm(Sequence(rng.uniform(-1, 1, m))))
        out = check_eps_convex_function(f, 0.0, SamplePlan(n_random=3000, seed=seed))
        assert out.holds, (seed, out)


def test_triple_check_exists_mode_is_reported_only():
    # the EXISTS slack need not transfer to the extension; record, don't assert
    refuted = 0
    for seed in range(25):
        f = rand_pl(seed)
        eps, _ = min_eps_convex(f.knots, QuantifierMode.EXISTS)
        out = check_eps_convex_function(f, eps, SamplePlan(n_random=2000, seed=seed))
        refuted += 0 if out.holds else 1
    print(f"EXISTS-mode transfer refutations: {refuted}/25 (reported, not asserted)")


# --- chord slope bounds ---------------------------------------------------


def test_chord_bounds_convex_zero_eps():
    f = PiecewiseLinear([0, 1, 4, 9])
    out = check_chord_slope_bounds(f, 0.0, 0.0, 3.0)
    assert out.holds
    # chord slope 3 against knot slopes [1, 3, 5]
    assert out.upper_margin == pytest.approx(2.0)
    assert out.lower_margin == pytest.approx(2.0)
    assert out.span == (0, 3)


def test_chord_bounds_peak_interior_span():
    f = PiecewiseLinear([0, 1, 0])
    out = check_chord_slope_bounds(f, 1.0, 0.5, 2.0)
    assert out.holds
    assert out.span == (0, 2)
    assert out.upper_margin == pytest.approx(1.5)
    assert out.lower_margin == pytest.approx(2 / 3)


def test_chord_bounds_zero_eps_is_mediant_sandwich():
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        f = rand_pl(seed)
        hi = len(f.knots) - 1
        x, y = np.sort(rng.uniform(0, hi, 2))
        if y - x < 1e-6:
            continue
        out = check_chord_slope_bounds(f, 0.0, x, y)
        assert out.holds, (seed, out)
        # same fact via the mediant bounds of the covered chord pieces
        n1, n2 = out.span
        cuts = [x] + [float(t) for t in range(n1 + 1, n2)] + [y]
        nums = [f.eval(b) - f.eval(a) for a, b in zip(cuts, cuts[1:]) if b > a]
        dens = [b - a for a, b in zip(cuts, cuts[1:]) if b > a]
        low, high = mediant_bounds(nums, dens)
        slope = (f.eval(y) - f.eval(x)) / (y - x)
        assert low - 1e-9 <= slope <= high + 1e-9


def test_chord_bounds_random_spans_hold_with_any_slack():
    for seed in range(40):
        rng = np.random.default_rng(2000 + seed)
        f = rand_pl(seed)
        hi = len(f.knots) - 1
        x, y = np.sort(rng.uniform(0, hi, 2))
        if y - x < 1e-6:
            continue
        eps = float(rng.uniform(0, 2))
        assert check_chord_slope_bounds(f, eps, x, y).holds


def test_chord_bounds_reject_any_overflowing_knot_slope():
    # as everywhere in the package, differences that overflow are an input
    # error, also when the span stops short of them
    f = PiecewiseLinear([0, 1, 4, 1.7e308, -1.7e308])
    for x, y in [(0.5, 2.0), (2.5, 3.5)]:
        with pytest.raises(ValidationError, match="difference at entry 4 overflows"):
            check_chord_slope_bounds(f, 0.5, x, y)


def test_chord_bounds_errors():
    f = PiecewiseLinear([0, 1, 0])
    with pytest.raises(DomainError):
        check_chord_slope_bounds(f, 0.0, 1.0, 1.0 + 1e-14)
    with pytest.raises(DomainError):
        check_chord_slope_bounds(f, 0.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        check_chord_slope_bounds(f, 0.0, 1.5, 0.5)
