"""Closed-form classical exponents for cyclic-shift channels.

Random coding, sphere packing, the single- and multi-letter expurgated
bounds, and the binary symmetric channel expurgated bound they shift into.
All functions are pure; rate arguments and return values are in bits.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from .channel import (
    INF,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    gv_delta,
    theta_cycle,
)
from .solvers import bisect_root

RHO_CAP = 1e6


def eps_rho(epsilon, rho):
    """Tilted crossover eps^u / (eps^u + (1-eps)^u) with u = 1/(1+rho)."""
    if rho < 0:
        raise ValueError(f"tilt parameter must be nonnegative, got {rho}")
    u = 1.0 / (1.0 + rho)
    a = epsilon**u
    b = (1.0 - epsilon) ** u
    return a / (a + b)


def binary_divergence(p, eps):
    """D(p || eps) in bits for p, eps in (0, 1).

    Floored at 0, its true minimum: near p = eps the two terms cancel and
    roundoff alone would leave a tiny negative value.
    """
    return max(p * math.log2(p / eps) + (1.0 - p) * math.log2((1.0 - p) / (1.0 - eps)), 0.0)


def _rate_at_rho(ch, rho):
    return math.log2(ch.q) - entropy_h(2.0, eps_rho(ch.epsilon, rho))


def _parametric_exponent(ch, r):
    """D(eps_rho || eps) at the rho where the parametric rate equals r.

    Shared by the random coding and sphere packing curves so that the
    two agree bitwise where they coincide. Inverts the strictly
    decreasing rho -> rate map by bisection; beyond the rho cap the
    analytic limit D(1/2 || eps) is returned.
    """
    if r >= _rate_at_rho(ch, 0.0):
        return 0.0
    if r <= _rate_at_rho(ch, RHO_CAP):
        return binary_divergence(0.5, ch.epsilon)
    rho = bisect_root(lambda t: _rate_at_rho(ch, t) - r, 0.0, RHO_CAP)
    return binary_divergence(eps_rho(ch.epsilon, rho), ch.epsilon)


def critical_rate(ch):
    """Rate where the random coding exponent leaves its slope -1 segment."""
    return math.log2(ch.q) - entropy_h(2.0, eps_rho(ch.epsilon, 1.0))


def random_coding_exponent(ch, r):
    """Achievable exponent: straight segment below the critical rate, parametric above.

    Exactly 0 at capacity, where the reliability function vanishes.
    """
    c = capacity(ch)
    if not -1e-12 <= r <= c + 1e-12:
        raise ValueError(f"rate must lie in [0, C] = [0, {c}], got {r}")
    if r >= c:
        return 0.0
    r = max(r, 0.0)
    if r <= critical_rate(ch):
        alpha = bhattacharyya(ch.epsilon)
        return math.log2(ch.q / (1.0 + 2.0 * alpha)) - r
    return _parametric_exponent(ch, r)


def sphere_packing_exponent(ch, r):
    """Converse exponent: infinite below log2(q/2), parametric up to capacity, 0 at it."""
    c = capacity(ch)
    if r > c + 1e-12:
        raise ValueError(f"rate must not exceed capacity {c}, got {r}")
    # checked first: at eps = 1/2 capacity can round below log2(q/2)
    if r >= c:
        return 0.0
    if r < math.log2(ch.q / 2):
        return INF
    return _parametric_exponent(ch, r)


def rho_bar(ch):
    """Largest tilt for which the one-letter Gram matrix stays PSD."""
    return cycle_constants(ch).rho_bar


def expurgated_ex(ch, rho):
    """Expurgated exponent function of the slope parameter rho >= 1.

    Below rho_bar the uniform input is optimal and the closed form is
    exact for every blocklength; above it the value rho log2(theta) is
    exact for even q and for q = 5, and an upper bound for larger odd q
    (see expurgated_is_exact).
    """
    if rho < 1.0:
        raise ValueError(f"slope parameter must be >= 1, got {rho}")
    cc = cycle_constants(ch)
    if rho <= cc.rho_bar:
        alpha = bhattacharyya(ch.epsilon)
        return rho * math.log2(ch.q / (1.0 + 2.0 * alpha ** (1.0 / rho)))
    return rho * math.log2(cc.theta)


def expurgated_is_exact(q):
    """True where the multi-letter expurgated bound is known in closed form."""
    return q % 2 == 0 or q == 5


@lru_cache(maxsize=None)
def eps_bar(q):
    """Smallest crossover at which the expurgated junction rate drops to log2(theta).

    Below this threshold the expurgated curve has a strictly concave
    middle section; above it the curve is a single straight line over
    the finite region. For even q the value is q-independent.
    """
    if q < 4:
        raise ValueError(f"alphabet size must be >= 4, got {q}")
    ltheta = math.log2(theta_cycle(q))

    def gap(eps):
        return _junction_rate_formula(bhattacharyya(eps), q) - ltheta

    return bisect_root(gap, 1e-15, 0.5)


def _junction_rate_formula(alpha, q):
    t = 2.0 * alpha / (1.0 + 2.0 * alpha)
    return math.log2(q / (1.0 + 2.0 * alpha)) + t * math.log2(alpha)


def expurgated_junction_rate(epsilon, q):
    """Rate at which the expurgated bound departs from its slope -1 line.

    For q >= 4 this is the cyclic-channel expression; q = 2 gives the
    binary symmetric channel junction log2(2) - h2(2a/(1+2a)), which is
    a genuinely different quantity (the two differ by 2a/(1+2a)).
    """
    alpha = bhattacharyya(epsilon)
    if q == 2:
        t = 2.0 * alpha / (1.0 + 2.0 * alpha)
        return 1.0 - entropy_h(2.0, t)
    if q < 4:
        raise ValueError(f"alphabet size must be 2 or >= 4, got {q}")
    return _junction_rate_formula(alpha, q)


class ParametricPoint(NamedTuple):
    """One point of a rho-parameterized exponent curve."""

    rho: float
    rate: float
    exponent: float


def expurgated_parametric_point(ch, rho):
    """(rate, exponent) of the multi-letter expurgated curve at slope rho >= 1."""
    alpha = bhattacharyya(ch.epsilon)
    a = alpha ** (1.0 / rho)
    rate = math.log2(ch.q / (1.0 + 2.0 * a)) + (
        2.0 * a / (rho * (1.0 + 2.0 * a))
    ) * math.log2(alpha)
    expo = (2.0 * a / (1.0 + 2.0 * a)) * math.log2(1.0 / alpha)
    return ParametricPoint(rho=rho, rate=rate, exponent=expo)


def expurgated_exponent(ch, r):
    """Multi-letter expurgated exponent at rate r.

    Infinite below log2(theta); a slope -1 line for eps >= eps_bar; for
    smaller eps the line holds outside [log2(theta), junction] and the
    rho-parametric curve fills the inside. Exact for even q and q = 5,
    an upper bound for odd q >= 7 (expurgated_is_exact). The line can
    read negative below capacity, which says nothing but is safe; from
    capacity on it is capped at 0.
    """
    if r < 0:
        raise ValueError(f"rate must be nonnegative, got {r}")
    alpha = bhattacharyya(ch.epsilon)
    if r >= capacity(ch):
        # on the line; E(C) = 0, and at eps = 1/2 capacity can round
        # below the line's zero crossing log2(q/2)
        return min(math.log2(ch.q / (1.0 + 2.0 * alpha)) - r, 0.0)
    cc = cycle_constants(ch)
    ltheta = math.log2(cc.theta)
    if r < ltheta - 1e-12:
        return INF
    r = max(r, ltheta)
    straight = math.log2(ch.q / (1.0 + 2.0 * alpha)) - r
    ebar = eps_bar(ch.q)
    if ch.epsilon >= ebar:
        return straight
    junction = _junction_rate_formula(alpha, ch.q)
    if r >= junction:
        return straight
    alpha_bar = bhattacharyya(ebar)
    rho0 = math.log(alpha) / math.log(alpha_bar)
    # rate is strictly decreasing in rho, from the junction at rho=1 down
    # to log2(theta) at rho0; clamp against endpoint roundoff
    if r <= expurgated_parametric_point(ch, rho0).rate:
        return expurgated_parametric_point(ch, rho0).exponent
    rho = bisect_root(
        lambda t: expurgated_parametric_point(ch, t).rate - r, 1.0, rho0
    )
    return expurgated_parametric_point(ch, rho).exponent


def bsc_expurgated_exponent(epsilon, r):
    """Blocklength-independent expurgated exponent of a BSC, clamped at zero.

    Slope -1 line above the junction rate, a distance-driven branch
    -gv_delta(r) log2(2 alpha) below it. The raw line goes negative past
    its zero crossing (and for eps = 1/2 immediately); an exponent bound
    below zero carries no information, so the value is floored at 0.
    """
    if not 0.0 <= r <= 1.0 + 1e-12:
        raise ValueError(f"rate must lie in [0, 1], got {r}")
    r = min(r, 1.0)
    alpha = bhattacharyya(epsilon)
    if r >= expurgated_junction_rate(epsilon, 2):
        value = math.log2(2.0 / (1.0 + 2.0 * alpha)) - r
    else:
        value = -gv_delta(2.0, r) * math.log2(2.0 * alpha)
    return max(value, 0.0)
