import tracemalloc

import numpy as np
import pytest

from seqconvex import (
    ConvexGapError,
    Line,
    QuantifierMode,
    SeparationInfeasibleError,
    Sequence,
    ValidationError,
    affine_approx,
    bisect_convex_bound,
    convex_approx_hyers,
    convex_approx_optimal,
    deltas,
    gcm,
    is_convex,
    min_eps_affine,
    separating_line,
)

E = QuantifierMode.EXISTS
F = QuantifierMode.FORALL


def rand_seq(seed, m_lo=2, m_hi=30):
    rng = np.random.default_rng(seed)
    return Sequence(rng.uniform(-1, 1, int(rng.integers(m_lo, m_hi + 1))))


# --- greatest convex minorant --------------------------------------------


def test_gcm_fixed_point_on_convex():
    u = Sequence([0, 1, 4, 9])
    assert gcm(u).values == u.values
    arith = Sequence([3, 5, 7, 9])
    assert gcm(arith).values == arith.values


def test_gcm_peak_is_endpoint_chord():
    assert list(gcm([0, 1, 0])) == [0.0, 0.0, 0.0]


def test_gcm_mixed():
    # lower hull through (0,0), (2,1), (3,4)
    assert list(gcm([0, 3, 1, 4])) == [0.0, 0.5, 1.0, 4.0]


def test_gcm_output_is_convex_and_below():
    for seed in range(80):
        u = rand_seq(seed)
        g = gcm(u)
        assert is_convex(g, tol=1e-12).holds
        assert all(gv <= uv + 1e-12 for gv, uv in zip(g, u))


def test_gcm_idempotent():
    for seed in range(40):
        u = rand_seq(seed)
        g = gcm(u)
        assert gcm(g).values == pytest.approx(g.values, abs=1e-12)


def test_gcm_commutes_with_arithmetic_shift():
    rng = np.random.default_rng(5)
    for seed in range(40):
        u = rand_seq(seed)
        alpha, beta = rng.uniform(-3, 3, 2)
        shifted = Sequence([v + alpha + beta * n for n, v in enumerate(u)])
        expected = [g + alpha + beta * n for n, g in enumerate(gcm(u))]
        assert list(gcm(shifted)) == pytest.approx(expected, abs=1e-9)


def test_gcm_dominates_every_convex_minorant():
    # any convex sequence below u must lie below the minorant too
    rng = np.random.default_rng(17)
    for seed in range(60):
        u = rand_seq(seed, m_lo=3)
        m = len(u)
        curv = rng.uniform(0, 1, m - 2)
        d0 = rng.uniform(-1, 1)
        steps = np.concatenate([[d0], d0 + np.cumsum(curv)])
        conv = np.concatenate([[0.0], np.cumsum(steps)])
        conv -= (conv - u.as_array()).max()  # shift to sit below u
        g = gcm(u).as_array()
        assert np.all(conv <= g + 1e-9)


# --- convex approximants ---------------------------------------------------


def test_hyers_on_convex_is_identity():
    u = Sequence([0, 1, 4, 9])
    d = convex_approx_hyers(u, E)
    assert d.eps == 0.0
    assert d.structured.values == u.values
    assert all(r == 0.0 for r in d.residual)
    assert d.bound == 0.0


def test_hyers_peak_exists_mode():
    d = convex_approx_hyers([0, 1, 0], E)
    assert d.eps == 2.0
    assert list(d.structured) == [1.0, 1.0, 1.0]
    assert list(d.residual) == [-1.0, 0.0, -1.0]
    assert d.bound == 1.0


@pytest.mark.parametrize("mode", [E, F])
def test_hyers_residual_within_half_eps(mode):
    for seed in range(100):
        u = rand_seq(seed)
        try:
            d = convex_approx_hyers(u, mode)
        except ConvexGapError:
            assert mode is E  # the FORALL slack always covers the hull gap
            continue
        assert is_convex(d.structured).holds
        assert all(abs(r) <= d.eps / 2 + 1e-9 for r in d.residual)
        assert d.bound <= d.eps / 2 + 1e-9


def test_hyers_gap_failure_raises_with_index():
    # a long ramp that flattens: small pairwise slack, large hull gap
    u = [0, 1, 2, 3, 4, 5, 6, 6, 6, 6, 6, 6, 6]
    with pytest.raises(ConvexGapError) as err:
        convex_approx_hyers(u, E)
    assert err.value.index == 6
    assert err.value.gap > err.value.eps


def test_optimal_on_convex():
    u = Sequence([0, 1, 4, 9])
    d = convex_approx_optimal(u)
    assert d.bound == 0.0
    assert d.structured.values == u.values


def test_optimal_peak():
    d = convex_approx_optimal([0, 1, 0])
    assert d.bound == 0.5
    assert list(d.structured) == [0.5, 0.5, 0.5]


def test_optimal_never_worse_than_hyers():
    for seed in range(200):
        u = rand_seq(seed)
        opt = convex_approx_optimal(u)
        try:
            hyers = convex_approx_hyers(u, E)
        except ConvexGapError:
            continue
        assert opt.bound <= hyers.bound + 1e-12
        assert is_convex(opt.structured).holds


def test_optimal_matches_bisection_oracle():
    for seed in range(60):
        u = rand_seq(seed, m_lo=1, m_hi=60)
        assert convex_approx_optimal(u).bound == pytest.approx(
            bisect_convex_bound(u), abs=1e-8
        )


# --- arithmetic approximant ------------------------------------------------


def test_affine_exact_fit():
    d = affine_approx([3, 5, 7])
    assert d.line == Line(2.0, 3.0)
    assert d.bound == 0.0
    assert list(d.structured) == [3.0, 5.0, 7.0]


def test_affine_peak_is_horizontal_midline():
    d = affine_approx([0, 1, 0])
    assert d.line.slope == pytest.approx(0.0, abs=1e-8)
    assert d.line.intercept == pytest.approx(0.5, abs=1e-8)
    assert d.bound == pytest.approx(0.5, abs=1e-8)
    assert d.eps == 2.0
    assert d.slack == pytest.approx(1.5, abs=1e-8)


def test_affine_matches_dense_slope_grid():
    for seed in range(30):
        u = rand_seq(seed, m_lo=2, m_hi=15)
        d = affine_approx(u)
        arr, ns = u.as_array(), np.arange(len(u))
        dd = np.diff(arr)
        best = np.inf
        for s in np.linspace(dd.min(), dd.max(), 4001):
            res = arr - s * ns
            best = min(best, (res.max() - res.min()) / 2)
        assert d.bound <= best + 1e-6


def _brute_affine_bound(arr):
    """Half the least band width over every pair slope (u_j - u_i) / (j - i)."""
    ns = np.arange(len(arr))
    best = np.inf
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            res = arr - (arr[j] - arr[i]) / (j - i) * ns
            best = min(best, (res.max() - res.min()) / 2)
    return best


def _affine_inputs():
    rng = np.random.default_rng(41)
    for t in range(300):
        m = int(rng.integers(2, 41))
        family = t % 4
        if family == 0:
            yield rng.uniform(-1, 1, m)
        elif family == 1:
            yield rng.integers(-2, 3, m).astype(float)
        elif family == 2:
            yield np.cumsum(rng.normal(0, 10, m))
        else:
            k = int(rng.integers(1, m + 1))
            yield np.minimum(np.arange(m), 2 * k - np.arange(m)).astype(float)


def test_affine_bound_is_the_exact_optimum():
    # the minimax slope is a hull edge slope, hence one of the pair slopes
    for arr in _affine_inputs():
        d = affine_approx(arr)
        ref = _brute_affine_bound(arr)
        assert abs(d.bound - ref) <= 1e-12 * max(1.0, np.abs(arr).max())


def test_affine_steep_slope_equioscillates():
    # slopes above 2**19 once stalled a slope search at a fixed bracket width
    d = affine_approx([0, 1e6, 2.5e6, 3e6])
    assert d.line == Line(1e6, 2.5e5)
    assert d.bound == 2.5e5
    assert list(d.residual) == [-2.5e5, -2.5e5, 2.5e5, -2.5e5]


def test_affine_bound_within_min_eps_on_random_data():
    for seed in range(1000):
        u = rand_seq(seed, m_lo=2, m_hi=25)
        d = affine_approx(u)
        assert d.bound <= min_eps_affine(u, E)[0] + 1e-9
        assert d.slack >= -1e-9


def test_affine_single_point():
    d = affine_approx([4.25])
    assert d.line == Line(0.0, 4.25)
    assert d.bound == 0.0


def test_affine_structured_is_arithmetic():
    for seed in range(40):
        u = rand_seq(seed)
        d = affine_approx(u)
        steps = deltas(d.structured) if len(u) > 1 else []
        vals = list(steps)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(vals, vals[1:]))


def test_decompositions_name_the_input_entries_that_overflow():
    # the hull gap 1e308 - -1e308 at entry 1 is no float
    with pytest.raises(ValidationError, match="hull gap at entry 1 overflows"):
        convex_approx_optimal([-1e308, 1e308, -1e308])
    # an exact line of slope 1.7e308: its value 3.4e308 at entry 2 is no float
    with pytest.raises(ValidationError, match="entries 2 and 0 overflow in the line fit"):
        affine_approx([-1.7e308, 0.0, 1.7e308])
    # the structured part of a constant sequence near the top of the range is
    # the sequence itself, although the sum of its extreme residuals overflows
    d = affine_approx([1.5e308] * 4)
    assert d.structured.values == (1.5e308,) * 4 and d.bound == 0.0
    with pytest.raises(ValidationError, match="the structured part overflows: entry 0"):
        convex_approx_optimal([1.7e308, 0.0, 1.7e308, 0.0, 1.7e308])


# --- separating line --------------------------------------------------------


def test_separating_line_zero_width_band():
    line = separating_line([3, 5, 7], [3, 5, 7])
    assert line.slope == pytest.approx(2.0, abs=1e-12)
    assert line.intercept == pytest.approx(3.0, abs=1e-12)


def test_separating_line_touching_envelopes():
    lower, upper = [-1, 0, -1], [1, 0, 1]
    line = separating_line(lower, upper)
    assert line.slope == 0.0
    assert line.intercept == 0.0
    # grid search: feasible slopes form [-1, 1], so the midpoint rule gives 0
    feasible = []
    for s in np.linspace(-2.0, 2.0, 401):
        b_lo = max(lo - s * n for n, lo in enumerate(lower))
        b_hi = min(up - s * n for n, up in enumerate(upper))
        if b_lo <= b_hi + 1e-12:
            feasible.append(s)
    assert min(feasible) == pytest.approx(-1.0, abs=0.011)
    assert max(feasible) == pytest.approx(1.0, abs=0.011)


def test_separating_line_single_point():
    line = separating_line([1.0], [3.0])
    assert line.slope == 0.0
    assert line.intercept == 2.0


def _random_convex_nonneg(rng, m):
    if m == 1:
        return [float(rng.uniform(0.0, 1.0))]
    curv = rng.uniform(0.0, 0.5, max(m - 2, 0))
    steps = np.concatenate([[rng.uniform(-1.0, 1.0)], np.zeros(max(m - 2, 0))])
    steps[1:] = steps[0] + np.cumsum(curv)
    vals = np.concatenate([[0.0], np.cumsum(steps)])
    return list(vals - vals.min())


def test_separating_line_random_sandwich():
    # a random line widened by concave-below / convex-above gaps is feasible
    rng = np.random.default_rng(31)
    for _ in range(150):
        m = int(rng.integers(1, 41))
        slope, icpt = rng.uniform(-2.0, 2.0, 2)
        base = [slope * n + icpt for n in range(m)]
        lower = Sequence([x - g for x, g in zip(base, _random_convex_nonneg(rng, m))])
        upper = Sequence([x + g for x, g in zip(base, _random_convex_nonneg(rng, m))])
        line = separating_line(lower, upper)
        for n in range(m):
            assert lower[n] - 1e-9 <= line.at(n) <= upper[n] + 1e-9


def _reference_separating_line(lower, upper):
    """Midpoint of the max secant over n > k and the min over n < k, centered."""
    m = len(lower)
    a_lo = max((lower[n] - upper[k]) / (n - k) for n in range(m) for k in range(n))
    a_hi = min((lower[n] - upper[k]) / (n - k) for n in range(m) for k in range(n + 1, m))
    slope = (a_lo + a_hi) / 2
    b_lo = max(lower[n] - slope * n for n in range(m))
    b_hi = min(upper[n] - slope * n for n in range(m))
    return slope, (b_lo + b_hi) / 2


def _sandwiches():
    rng = np.random.default_rng(37)
    for t in range(300):
        m = int(rng.integers(2, 41))
        slope, icpt = rng.uniform(-2.0, 2.0, 2)
        base = slope * np.arange(m) + icpt
        family = t % 3
        if family == 0:  # random gaps below and above
            yield base - _random_convex_nonneg(rng, m), base + _random_convex_nonneg(rng, m)
        elif family == 1:  # zero width
            yield base, base.copy()
        else:  # the envelopes touch where the shared gap vanishes
            gap = np.array(_random_convex_nonneg(rng, m))
            yield base - rng.uniform(0.1, 2.0) * gap, base + rng.uniform(0.1, 2.0) * gap


def test_separating_line_matches_pair_reference():
    for lower, upper in _sandwiches():
        line = separating_line(lower, upper)
        slope, intercept = _reference_separating_line(lower, upper)
        scale = max(1.0, np.abs(lower).max(), np.abs(upper).max())
        assert abs(line.slope - slope) <= 1e-12 * scale
        assert abs(line.intercept - intercept) <= 1e-12 * scale


def test_separating_line_peak_memory_is_linear():
    m = 2000
    n = np.arange(m, dtype=float)
    lower, upper = -((n - m / 2) ** 2) / m, (n - m / 2) ** 2 / m + 1.0
    separating_line(lower, upper)  # warm caches and lazy imports
    tracemalloc.start()
    try:
        separating_line(lower, upper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_separating_line_empty_slope_interval_names_pairs():
    # a crossing within tol passes the pointwise check; the secants conflict
    with pytest.raises(SeparationInfeasibleError, match="slope interval empty") as err:
        separating_line([0.4, 0.4], [0.0, 0.0], tol=0.5)
    assert err.value.pairs == ((1, 0), (0, 1))


def test_separating_line_crossing_envelopes_rejected():
    with pytest.raises(SeparationInfeasibleError) as err:
        separating_line([1.0, 1.0], [0.0, 0.0])
    assert err.value.pairs


def test_separating_line_crossing_sandwiches_name_the_crossing():
    for lower, upper in _sandwiches():
        lower = lower + (upper - lower).min() + 0.5
        worst = int(np.argmax(lower - upper))
        with pytest.raises(SeparationInfeasibleError, match="cross") as err:
            separating_line(lower, upper)
        assert err.value.pairs == ((worst, worst),)


def test_separating_line_shape_validation():
    with pytest.raises(ValidationError, match="concave"):
        separating_line([0, -1, 0], [1, 1, 1])
    with pytest.raises(ValidationError, match="convex"):
        separating_line([-1, 0, -1], [0, 1, 0])
    with pytest.raises(ValidationError, match="length"):
        separating_line([0, 0], [1, 1, 1])


# --- shared decomposition invariants ---------------------------------------


def test_decompositions_reassemble_exactly():
    for seed in range(60):
        u = rand_seq(seed)
        results = [convex_approx_optimal(u), affine_approx(u)]
        try:
            results.append(convex_approx_hyers(u, F))
        except ConvexGapError:
            pytest.fail("FORALL construction must not fail")
        for d in results:
            for a, s, r in zip(u, d.structured, d.residual):
                assert abs(a - (s + r)) <= 1e-12
            assert d.bound == pytest.approx(
                max(abs(r) for r in d.residual), abs=1e-12
            )
