import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import entropy_h as scalar_entropy_h

from relbound import upper_bounds
from relbound.channel import (
    Channel,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    entropy_h_inv,
)
from relbound.classical import sphere_packing_exponent
from relbound.solvers import bisect_root, golden_min
from relbound.upper_bounds import (
    LP2_ANCHOR_GATE,
    _lp1_distance,
    binary_reduction_bound,
    delta_lp2,
    delta_lp2_point,
    envelope,
    lp1_rate,
    lp2_anchored_line,
    min_distance_bound,
    spectrum_half_bound,
    spectrum_half_point,
    straight_line_bound,
    theta_anchored_line,
)


def test_delta_lp2_endpoints():
    assert delta_lp2(0.0) == pytest.approx(0.5, abs=1e-6)
    assert delta_lp2(1.0) == pytest.approx(0.0, abs=1e-6)
    mid = delta_lp2(0.5)
    assert 0.0 < mid < 0.5
    with pytest.raises(ValueError):
        delta_lp2(1.5)


def test_delta_lp2_point_invariants():
    for r in (0.0, 0.2, 0.5, 0.8, 1.0):
        pt = delta_lp2_point(r)
        assert 0.0 <= pt.beta <= pt.alpha <= 0.5
        num = pt.alpha * (1 - pt.alpha) - pt.beta * (1 - pt.beta)
        direct = 2 * num / (1 + 2 * math.sqrt(pt.beta * (1 - pt.beta)))
        assert pt.objective == pytest.approx(direct, abs=1e-12)
        assert pt.objective >= 0.0


def test_delta_lp2_monotone():
    grid = np.linspace(0.0, 1.0, 21)
    vals = [delta_lp2(float(r)) for r in grid]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def _h2_inv_scalar(y):
    """h2's inverse on [0, 1/2] by scalar bisection, down to adjacent floats."""
    if y <= 0.0:
        return 0.0
    if y >= 1.0:
        return 0.5
    return bisect_root(lambda x: scalar_entropy_h(2.0, x) - y, 0.0, 0.5, tol=0.0)


def _delta_lp2_oracle(r):
    """delta_lp2 the scalar way: golden-section search over beta, one rate at a time."""
    beta_max = _h2_inv_scalar(r)

    def objective(beta):
        alpha = _h2_inv_scalar(1.0 - r + scalar_entropy_h(2.0, beta))
        num = alpha * (1.0 - alpha) - beta * (1.0 - beta)
        return 2.0 * num / (1.0 + 2.0 * math.sqrt(beta * (1.0 - beta)))

    # the minimum can sit at beta_max, where the slope grows like
    # 1/sqrt(beta), so the search narrows relative to beta_max
    return golden_min(objective, 0.0, beta_max, tol=1e-12 * beta_max + 1e-300)[1]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_delta_lp2_sound_and_matches_scalar_oracle(rates):
    r = np.array(rates)
    pt = delta_lp2_point(r)
    # feasible: b <= a <= 1/2, h2(b) <= r (b under its cap) and h2(a) - h2(b) >= 1 - r,
    # the last in the order the search evaluates it
    assert np.all((0.0 <= pt.beta) & (pt.beta <= pt.alpha) & (pt.alpha <= 0.5))
    assert np.all(entropy_h(2.0, pt.beta) <= r)
    assert np.all(entropy_h(2.0, pt.alpha) >= (1.0 - r) + entropy_h(2.0, pt.beta))
    for rate, a, b, value in zip(rates, pt.alpha, pt.beta, pt.objective):
        # the value is the objective at that feasible pair, hence >= the true minimum
        num = a * (1.0 - a) - b * (1.0 - b)
        assert value == pytest.approx(2.0 * num / (1.0 + 2.0 * math.sqrt(b * (1.0 - b))), abs=1e-15)
        assert abs(value - _delta_lp2_oracle(rate)) <= 1e-8


def test_delta_lp2_works_in_bounded_chunks(monkeypatch):
    sizes = []
    real = upper_bounds._lp2_rows
    monkeypatch.setattr(upper_bounds, "_lp2_rows", lambda r: sizes.append(r.size) or real(r))
    monkeypatch.setattr(upper_bounds, "LP2_CHUNK", 8)
    r = np.linspace(0.0, 1.0, 21)
    vals = delta_lp2(r)
    assert sizes == [8, 8, 5]
    assert vals.tolist() == [delta_lp2(float(x)) for x in r]


def test_binary_reduction_bound():
    # at eps = 1/2 the scale factor log2(1/alpha) is exactly 1
    ch = Channel(4, 0.5)
    r = 1.4
    assert binary_reduction_bound(ch, r) == pytest.approx(delta_lp2(r - 1.0), abs=1e-12)
    # as the rate drops to log2(q/2) the bound tends to half log2(1/alpha)
    ch = Channel(4, 0.01)
    near = binary_reduction_bound(ch, 1.0 + 1e-9)
    assert near == pytest.approx(0.5 * math.log2(1.0 / bhattacharyya(0.01)), abs=1e-4)
    with pytest.raises(ValueError):
        binary_reduction_bound(ch, 1.0)
    # at binary rate 1 the objective's difference of products must not round below 0
    ch = Channel(5, 1e-20)
    assert binary_reduction_bound(ch, capacity(ch)) >= 0.0


def test_binary_reduction_improves_sphere_packing_iff_small_eps():
    # the anchor undercuts the sphere-packing limit exactly below the gate
    for eps, improves in ((0.02, True), (0.0669, True), (0.0671, False), (0.3, False)):
        ch = Channel(4, eps)
        anchor = 0.5 * math.log2(1.0 / bhattacharyya(eps))
        limit = sphere_packing_exponent(ch, 1.0)
        assert (anchor < limit) == improves
    assert LP2_ANCHOR_GATE == pytest.approx(0.5 - math.sqrt(3.0) / 4.0, abs=1e-15)


def test_lp1_rate_endpoints_and_monotonicity():
    for qp in (2.0, math.sqrt(5.0), 2.4):
        assert lp1_rate(qp, 0.0) == pytest.approx(math.log2(qp), abs=1e-10)
        assert lp1_rate(qp, (qp - 1) / qp) == pytest.approx(0.0, abs=1e-10)
        grid = np.linspace(0.0, (qp - 1) / qp, 200)
        vals = [lp1_rate(qp, float(d)) for d in grid]
        assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from([5, 7, 9, 11]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_lp1_distance_rounds_to_the_safe_side(q, frac):
    # both callers are converses that grow with the distance
    qp = cycle_constants(Channel(q, 0.5)).q_prime
    rate = frac * math.log2(qp)
    d = float(_lp1_distance(qp, np.array([rate]))[0])
    # float-exact: d is the upper end of a bracket of adjacent floats
    assert lp1_rate(qp, d) <= rate <= lp1_rate(qp, np.nextafter(d, 0.0))
    # and it is the crossing the scalar bisection finds
    assert abs(d - bisect_root(lambda x: lp1_rate(qp, x) - rate, 0.0, (qp - 1) / qp)) <= 1e-12


def test_q5_has_golden_alphabet_parameter():
    cc = cycle_constants(Channel(5, 0.5))
    assert cc.q_prime == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert cc.q_prime == pytest.approx(1.0 + 1.0 / math.cos(math.pi / 5.0), abs=1e-12)


def test_min_distance_bound():
    ch = Channel(5, 0.5)
    ltheta = math.log2(math.sqrt(5.0))
    # endpoint distances
    d_hi = min_distance_bound(ch, ltheta + 1e-9)
    assert d_hi == pytest.approx(1.0 - 1.0 / math.sqrt(5.0), abs=1e-4)
    assert min_distance_bound(ch, math.log2(5.0)) == pytest.approx(0.0, abs=1e-10)
    # bisection against a dense-grid inversion oracle
    r = 1.2
    target = r - ltheta
    qp = math.sqrt(5.0)
    grid = np.linspace(0.0, (qp - 1) / qp, 200001)
    idx = int(np.argmin(np.abs(lp1_rate(qp, grid) - target)))
    assert min_distance_bound(ch, r) == pytest.approx(float(grid[idx]), abs=1e-4)
    with pytest.raises(ValueError):
        min_distance_bound(Channel(4, 0.5), 1.5)
    with pytest.raises(ValueError):
        min_distance_bound(ch, ltheta)


def test_straight_line_tangency():
    ch = Channel(5, 0.01)
    anchor_r = math.log2(math.sqrt(5.0))
    anchor_e = math.log2(100.0)
    seg = straight_line_bound(anchor_r, anchor_e, ch)
    assert seg.r1 == anchor_r and seg.e1 == anchor_e
    # tangency: chord slope equals the parametric slope, curve touches chord
    assert (seg.e2 - seg.e1) / (seg.r2 - seg.r1) == pytest.approx(seg.slope, abs=1e-8)
    assert sphere_packing_exponent(ch, seg.r2) == pytest.approx(seg.e2, abs=1e-8)
    # affine on its interval, inf outside
    mid = 0.5 * (seg.r1 + seg.r2)
    assert seg.value(mid) == pytest.approx(seg.e1 + seg.slope * (mid - seg.r1))
    assert seg.value(seg.r1 - 0.01) == math.inf
    assert seg.value(seg.r2 + 0.01) == math.inf


def _rho_at(ch, r):
    from relbound.classical import RHO_CAP, _rate_at_rho
    from relbound.solvers import bisect_root

    return bisect_root(lambda t: _rate_at_rho(ch, t) - r, 0.0, RHO_CAP)


def test_straight_line_on_curve_degenerates_to_tangent():
    ch = Channel(4, 0.1)
    r1 = 1.5
    seg = straight_line_bound(r1, sphere_packing_exponent(ch, r1), ch)
    assert seg.r2 == pytest.approx(r1, abs=1e-6)
    assert seg.slope == pytest.approx(-_rho_at(ch, r1), abs=1e-4)


def test_straight_line_no_tangency_reported():
    ch = Channel(4, 0.1)
    with pytest.raises(ValueError):
        straight_line_bound(1.5, 10.0, ch)  # anchor far above the curve


def test_straight_line_above_sphere_packing_off_segment():
    # outside its interval the segment reports inf, hence never undercuts
    ch = Channel(5, 0.01)
    seg = theta_anchored_line(ch)
    for r in np.linspace(seg.r2 + 1e-6, capacity(ch), 20):
        assert seg.value(float(r)) >= sphere_packing_exponent(ch, float(r))


def test_lines_handle_half_crossover():
    # at eps = 1/2 the parametric curve collapses to the single point (C, 0)
    ch = Channel(5, 0.5)
    seg = theta_anchored_line(ch)
    assert seg.r2 == pytest.approx(capacity(ch), abs=1e-9)
    assert seg.e2 == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        lp2_anchored_line(ch)  # gate excludes eps = 1/2
    # at and just past its end the line does not dip below its end value
    for q, eps in ((9, 0.5), (9, 0.4999999)):
        ch = Channel(q, eps)
        seg = theta_anchored_line(ch)
        assert seg.value(capacity(ch)) >= seg.e2 >= 0.0


def test_bounds_at_subnormal_crossover():
    # log2(1/eps) overflows for subnormal eps; the bounds use -log2(eps)
    ch = Channel(5, 5e-324)
    assert theta_anchored_line(ch).e1 == pytest.approx(1074.0)
    # the distance bound is the eps = 1/2 one scaled by log2(1/eps) = 1074
    half = min_distance_bound(Channel(5, 0.5), 2.0)
    assert min_distance_bound(ch, 2.0) == pytest.approx(1074.0 * half)


def test_spectrum_half_bound():
    val = spectrum_half_bound(5, 1.2)
    assert 0.0 < val < min_distance_bound(Channel(5, 0.5), 1.2)
    with pytest.raises(ValueError):
        spectrum_half_bound(4, 1.2)
    with pytest.raises(ValueError):
        spectrum_half_bound(5, 1.1)  # below log2 theta


def test_spectrum_half_domain_soundness():
    # range arguments stay admissible: r - (log2 q - h3(tau)) >= 0 on tau >= h3inv
    q, r = 5, 1.25
    tau_lo = entropy_h_inv(3.0, math.log2(q) - r)
    for tau in np.linspace(tau_lo, 0.55, 50):
        assert r - (math.log2(q) - entropy_h(3.0, float(tau))) >= -1e-12


def test_spectrum_half_monotone_nonincreasing():
    lo = 0.5 * math.log2(5.0) + 0.02
    hi = math.log2(5.0) - 1.0 - 0.02
    grid = np.linspace(lo, hi, 15)
    vals = [spectrum_half_bound(5, float(r)) for r in grid]
    assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


def test_spectrum_half_point_consistency():
    pt = spectrum_half_point(5, 1.3)
    assert pt.delta <= pt.tau + 1e-9 <= pt.s + 2e-9
    # the reported pair reproduces the reported value
    h3 = lambda x: entropy_h(3.0, x)
    inner = min(1.3 - (math.log2(5) - h3(pt.tau)), pt.delta / 2)
    assert pt.value == pytest.approx(min(pt.delta, pt.tau - inner), abs=1e-9)
    assert pt.value == spectrum_half_bound(5, 1.3)


def test_spectrum_half_regression_value():
    # an independent single-pass 2049x2049 grid puts the max-min at
    # 0.3262593 (resolution ~1e-4); the exact maximum is frozen here
    assert spectrum_half_bound(5, 1.2) == pytest.approx(0.3262767, abs=5e-5)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from([5, 7, 9, 11]),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_spectrum_half_is_the_exact_maximum(q, frac):
    ch = Channel(q, 0.5)
    lq = math.log2(q)
    ltheta = math.log2(cycle_constants(ch).theta)
    r = ltheta + frac * (lq - 1.0 - ltheta)
    pt = spectrum_half_point(q, r)
    # the value is the objective at the returned pair, which lies in the box
    delta_lo = entropy_h_inv(3.0, lq - r)
    assert delta_lo <= pt.delta <= pt.tau <= pt.s
    # delta_lo is rounded down, float-exactly: a wider box cannot lower the max
    assert entropy_h(3.0, delta_lo) <= lq - r
    g = r - lq + entropy_h(3.0, pt.tau)
    assert pt.value == min(pt.delta, pt.tau - min(g, pt.delta / 2.0))
    # no point of a 257 x 257 grid over the same box does better; h3(t) = t + h2(t)
    d, t = np.meshgrid(np.linspace(delta_lo, pt.s, 257), np.linspace(delta_lo, pt.s, 257))
    g = r - lq + t + entropy_h(2.0, t)
    grid = np.where(t >= d, np.minimum(d, t - np.minimum(g, d / 2.0)), -math.inf)
    assert pt.value >= grid.max()
    assert pt.value <= min_distance_bound(ch, r)


@pytest.mark.parametrize("q,eps", [(4, 0.01), (5, 0.01), (5, 0.5), (6, 0.1)])
def test_envelope_ordering(q, eps):
    ch = Channel(q, eps)
    lo, up = envelope(ch, np.linspace(1e-3, capacity(ch), 120))
    both = np.isfinite(lo) & np.isfinite(up)
    assert np.all(lo[both] <= up[both])
    assert envelope(ch, 0.5, "lower") <= envelope(ch, 0.5, "upper")
    with pytest.raises(ValueError):
        envelope(ch, 0.0)
    with pytest.raises(ValueError):
        envelope(ch, 0.5, "best")


def test_envelope_infinite_below_zero_error_rate():
    ch = Channel(4, 0.1)
    lo, up = envelope(ch, 0.8)
    assert up == math.inf
    assert lo == math.inf  # zero-error communication below log2(q/2)
