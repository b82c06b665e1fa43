import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import expurgated_ex

from relbound.channel import (
    Channel,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    theta_cycle,
)
from relbound.classical import (
    _parametric_exponent,
    binary_divergence,
    bsc_expurgated_exponent,
    critical_rate,
    eps_bar,
    eps_rho,
    expurgated_exponent,
    expurgated_is_exact,
    expurgated_junction_rate,
    expurgated_parametric_point,
    random_coding_exponent,
    rho_bar,
    sphere_packing_exponent,
)
from relbound.oracle import eigenvalues_g1
from relbound.solvers import bracket

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def channels_and_rates(draw, max_eps=0.5):
    """A channel with eps <= max_eps and a few rates in (0, C], as a 1-D array."""
    ch = Channel(draw(st.integers(4, 9)), draw(st.floats(0.0, max_eps, exclude_min=True)))
    fracs = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=8))
    return ch, capacity(ch) * np.array(fracs)


def test_eps_rho():
    assert eps_rho(0.3, 0.0) == pytest.approx(0.3)
    assert eps_rho(0.01, 1e9) == pytest.approx(0.5, abs=1e-6)
    expected = 0.1 / (0.1 + math.sqrt(0.99))  # sqrt(eps)/(sqrt(eps)+sqrt(1-eps))
    assert eps_rho(0.01, 1.0) == pytest.approx(expected, abs=1e-15)


def test_critical_rate():
    ch = Channel(4, 0.01)
    assert critical_rate(ch) == pytest.approx(1.559, abs=1e-3)
    assert critical_rate(Channel(4, 0.5)) == pytest.approx(capacity(Channel(4, 0.5)), abs=1e-12)
    # doubling the alphabet adds exactly one bit
    assert critical_rate(Channel(8, 0.01)) == pytest.approx(critical_rate(ch) + 1.0, abs=1e-12)


def test_random_coding_exponent():
    ch = Channel(4, 0.01)
    assert random_coding_exponent(ch, capacity(ch)) == pytest.approx(0.0, abs=1e-9)
    alpha = bhattacharyya(0.01)
    assert random_coding_exponent(ch, 1.0) == pytest.approx(
        math.log2(4.0 / (1.0 + 2.0 * alpha)) - 1.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        random_coding_exponent(ch, capacity(ch) + 0.01)


@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_random_coding_shift_law(eps):
    small, big = Channel(4, eps), Channel(8, eps)
    for r in np.linspace(1e-3, capacity(small), 40):
        assert random_coding_exponent(small, float(r)) == pytest.approx(
            random_coding_exponent(big, float(r) + 1.0), abs=1e-10
        )


def test_sphere_packing():
    ch = Channel(4, 0.01)
    assert sphere_packing_exponent(ch, 0.5) == math.inf
    assert sphere_packing_exponent(ch, capacity(ch)) == pytest.approx(0.0, abs=1e-9)
    # limit at the zero-error rate is the midpoint divergence
    limit = -0.5 * math.log2(0.01) - 0.5 * math.log2(0.99) - 1.0
    assert sphere_packing_exponent(ch, 1.0 + 1e-12) == pytest.approx(limit, abs=1e-4)
    # at log2(q/2) itself the code {0, 2}^n has no errors
    assert sphere_packing_exponent(ch, 1.0) == math.inf
    with pytest.raises(ValueError):
        sphere_packing_exponent(ch, capacity(ch) + 0.01)
    # just below capacity the divergence's two terms cancel to roundoff
    ch = Channel(4, 0.09375)
    assert sphere_packing_exponent(ch, math.nextafter(capacity(ch), 0.0)) >= 0.0


def test_random_coding_below_sphere_packing():
    ch = Channel(5, 0.1)
    rc = critical_rate(ch)
    for r in np.linspace(math.log2(ch.q / 2) + 1e-6, capacity(ch), 50):
        er = random_coding_exponent(ch, float(r))
        esp = sphere_packing_exponent(ch, float(r))
        assert er <= esp + 1e-12
    assert random_coding_exponent(ch, rc) == pytest.approx(
        sphere_packing_exponent(ch, rc), abs=1e-8
    )


def test_sphere_packing_shift_law():
    for eps in (0.01, 0.1):
        small, big = Channel(4, eps), Channel(8, eps)
        for r in np.linspace(1.0 + 1e-9, capacity(small), 40):
            assert sphere_packing_exponent(small, float(r)) == pytest.approx(
                sphere_packing_exponent(big, float(r) + 1.0), abs=1e-10
            )


def test_dual_parametric_point():
    # the tilt-rho point (R(rho), D(eps_rho || eps)) and the rate-indexed
    # functions describe one curve
    ch = Channel(4, 0.05)
    for rho in (0.3, 1.0, 2.5):
        rate = math.log2(ch.q) - entropy_h(2.0, eps_rho(ch.epsilon, rho))
        exponent = binary_divergence(eps_rho(ch.epsilon, rho), ch.epsilon)
        assert sphere_packing_exponent(ch, rate) == pytest.approx(exponent, abs=1e-9)
        if rho <= 1.0:
            assert random_coding_exponent(ch, rate) == pytest.approx(exponent, abs=1e-9)


def test_rho_bar():
    assert rho_bar(Channel(4, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert rho_bar(Channel(6, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert rho_bar(Channel(4, 0.1)) == pytest.approx(math.log2(0.3) / math.log2(0.5), abs=1e-12)
    assert rho_bar(Channel(5, 0.01)) == pytest.approx(4.7954, abs=1e-4)


@pytest.mark.parametrize("q", [4, 5, 6, 7])
def test_rho_bar_is_psd_boundary(q):
    ch = Channel(q, 0.07)
    rb = rho_bar(ch)
    assert min(eigenvalues_g1(ch, rb)) == pytest.approx(0.0, abs=1e-10)
    assert min(eigenvalues_g1(ch, 0.9 * rb)) > 0.0


def test_expurgated_ex():
    ch = Channel(4, 0.01)
    alpha = bhattacharyya(0.01)
    assert expurgated_ex(ch, 1.0) == pytest.approx(math.log2(4.0 / (1.0 + 2.0 * alpha)), abs=1e-12)
    rb = rho_bar(ch)
    # single-letterized value above the PSD threshold
    assert expurgated_ex(ch, 2.0 * rb) == pytest.approx(2.0 * rb * 1.0, abs=1e-12)
    ch5 = Channel(5, 0.01)
    rb5 = rho_bar(ch5)
    assert expurgated_ex(ch5, 2.0 * rb5) == pytest.approx(
        2.0 * rb5 * math.log2(math.sqrt(5.0)), abs=1e-12
    )
    with pytest.raises(ValueError):
        expurgated_ex(ch, 0.5)


def test_expurgated_ex_concave_nondecreasing_up_to_rho_bar():
    ch = Channel(4, 0.01)
    rb = rho_bar(ch)
    grid = np.linspace(1.0, rb, 50)
    vals = [expurgated_ex(ch, float(r)) for r in grid]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    assert np.all(np.diff(diffs) <= 1e-9)


def test_eps_bar():
    assert eps_bar(4) == pytest.approx(0.022, abs=5e-4)
    assert eps_bar(6) == eps_bar(4)  # even case does not depend on q
    assert eps_bar(5) == pytest.approx(0.0440, abs=5e-4)
    # the junction rate equals log2(theta) exactly at the threshold
    for q, theta in ((4, 2.0), (5, math.sqrt(5.0))):
        assert expurgated_junction_rate(eps_bar(q), q) == pytest.approx(
            math.log2(theta), abs=1e-9
        )


def test_eps_bar_is_the_last_float_with_a_middle_section():
    # the junction falls with eps; eps_bar is its last float at or above log2(theta)
    for q in range(4, 65):
        ltheta = math.log2(theta_cycle(q))
        e, above = eps_bar(q), math.nextafter(eps_bar(q), 1.0)
        assert expurgated_junction_rate(e, q) >= ltheta > expurgated_junction_rate(above, q), q


def test_expurgated_junction_rate():
    assert expurgated_junction_rate(0.01, 4) == pytest.approx(1.185628060459015, abs=1e-12)
    # binary case follows the blocklength-free junction of the BSC bound
    alpha = bhattacharyya(0.01)
    t = 2 * alpha / (1 + 2 * alpha)
    assert expurgated_junction_rate(0.01, 2) == pytest.approx(1.0 - entropy_h(2.0, t), abs=1e-12)
    # approaches log2(q) for vanishing crossover (slowly, via alpha log alpha)
    assert expurgated_junction_rate(1e-8, 4) == pytest.approx(2.0, abs=5e-3)
    grid = np.linspace(0.001, 0.5, 60)
    vals = [expurgated_junction_rate(float(e), 4) for e in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_expurgated_exponent_regions():
    ch = Channel(4, 0.1)  # eps above the threshold: pure straight line
    assert expurgated_exponent(ch, 0.9) == math.inf
    assert expurgated_exponent(ch, 1.2) == pytest.approx(math.log2(2.5) - 1.2, abs=1e-12)

    ch = Channel(4, 0.01)  # below the threshold: parametric middle section
    junction = expurgated_junction_rate(0.01, 4)
    straight = lambda r: math.log2(4.0 / (1.0 + 2.0 * bhattacharyya(0.01))) - r
    # continuity at the junction
    assert expurgated_exponent(ch, junction) == pytest.approx(straight(junction), abs=1e-9)
    assert expurgated_exponent(ch, junction - 1e-6) > straight(junction - 1e-6)
    # parametric point at rho = 1 reproduces the junction
    pt = expurgated_parametric_point(ch, 1.0)
    assert pt.rate == pytest.approx(junction, abs=1e-12)
    assert pt.exponent == pytest.approx(straight(junction), abs=1e-12)


@pytest.mark.parametrize("q,eps", [(4, 0.01), (5, 0.01), (6, 0.03), (5, 0.5)])
def test_expurgated_exponent_matches_sup_form(q, eps):
    """The closed form must agree with sup over rho of Ex(rho) - rho R."""
    ch = Channel(q, eps)
    rhos = np.linspace(1.0, 60.0, 20000)
    exs = np.array([expurgated_ex(ch, float(t)) for t in rhos])
    ltheta = expurgated_ex(ch, 60.0) / 60.0  # log2(theta)
    for r in np.linspace(ltheta + 1e-3, capacity(ch), 15):
        grid_sup = float(np.max(exs - rhos * float(r)))
        closed = expurgated_exponent(ch, float(r))
        # the discrete grid can only undershoot the true supremum
        assert grid_sup <= closed + 1e-12
        assert closed - grid_sup < 1e-6


def test_expurgated_exponent_convex_nonincreasing():
    ch = Channel(4, 0.01)
    grid = np.linspace(1.0, capacity(ch), 120)
    vals = [expurgated_exponent(ch, float(r)) for r in grid]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12)
    assert np.all(np.diff(diffs) >= -1e-7)


def test_expurgated_is_exact():
    assert expurgated_is_exact(4)
    assert expurgated_is_exact(6)
    assert expurgated_is_exact(5)
    assert not expurgated_is_exact(7)


def test_bsc_expurgated_exponent():
    assert bsc_expurgated_exponent(0.01, 0.0) == pytest.approx(
        -0.5 * math.log2(2.0 * bhattacharyya(0.01)), abs=1e-12
    )
    assert bsc_expurgated_exponent(0.01, 0.0) == pytest.approx(1.1645, abs=1e-4)
    # continuity across the junction
    j = expurgated_junction_rate(0.1, 2)
    lo = bsc_expurgated_exponent(0.1, j - 1e-9)
    hi = bsc_expurgated_exponent(0.1, j + 1e-9)
    assert lo == pytest.approx(hi, abs=1e-8)
    # degenerate channel: no exponent at any rate
    for r in np.linspace(0.0, 1.0, 11):
        assert bsc_expurgated_exponent(0.5, float(r)) == 0.0
    with pytest.raises(ValueError):
        bsc_expurgated_exponent(0.1, 1.5)


@PROPERTY
@given(channels_and_rates())
def test_parametric_exponent_ends_and_each_bound_s_side(case):
    ch, r = case
    eps = ch.epsilon
    # the rate log2 q - h2(p) falls with the tilted crossover p in [eps, 1/2]:
    # the bracket on h2 sits on the crossing, at adjacent floats
    y = math.log2(ch.q) - r
    lo, hi = bracket(lambda p: entropy_h(2.0, p), y, eps, 0.5)
    inner = (r < capacity(ch)) & (r > math.log2(ch.q / 2))
    ok = (entropy_h(2.0, lo) <= y) & (y < entropy_h(2.0, hi)) & (hi == np.nextafter(lo, np.inf))
    assert np.all(ok[inner])
    # the exponent rises with p: the lower bound takes the smaller end, the upper the larger
    ends = binary_divergence(np.stack([lo, hi]), eps)
    small, large = _parametric_exponent(ch, r)
    assert np.array_equal(small[inner], ends.min(axis=0)[inner])
    assert np.array_equal(large[inner], ends.max(axis=0)[inner])
    rc = random_coding_exponent(ch, r)
    above = inner & (r > critical_rate(ch)) & (r < capacity(ch))
    assert np.array_equal(rc[above], small[above])
    sp = sphere_packing_exponent(ch, r)
    finite = np.isfinite(sp)
    assert np.all(sp[finite & inner] >= large[finite & inner])
    # exactly, wherever both are finite
    assert np.all(rc[finite] <= sp[finite])


@PROPERTY
@given(
    channels_and_rates(max_eps=0.022),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=8),
)
def test_expurgated_parametric_section_takes_the_smaller_end(case, fracs):
    ch, _ = case  # eps below eps_bar(q) >= 0.0221 for q = 4..9: the curve has its middle section
    alpha = bhattacharyya(ch.epsilon)
    ltheta = math.log2(cycle_constants(ch).theta)
    ebar = eps_bar(ch.q)
    junction = expurgated_junction_rate(ch.epsilon, ch.q)
    r = ltheta + (junction - ltheta) * np.array(fracs)
    r = r[r < junction]  # a fraction just below 1 can round up to the junction
    rho0 = math.log(alpha) / math.log(bhattacharyya(ebar))
    # the rate falls from the junction at rho = 1 to log2(theta) at rho0
    lo, hi = bracket(lambda t: -expurgated_parametric_point(ch, t).rate, -r, 1.0, rho0)
    rate_lo, rate_hi = (expurgated_parametric_point(ch, t).rate for t in (lo, hi))
    ok = (rate_lo >= r) & (r > rate_hi) & (hi == np.nextafter(lo, np.inf))
    # only roundoff puts a rate outside the section, and there the bracket sits at an end
    assert np.all(ok | (lo == rho0) | (hi == np.nextafter(1.0, 2.0)))
    e_lo, e_hi = (expurgated_parametric_point(ch, t).exponent for t in (lo, hi))
    assert np.array_equal(expurgated_exponent(ch, r), np.minimum(e_lo, e_hi))
