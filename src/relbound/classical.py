"""Closed-form classical exponents for cyclic-shift channels.

Random coding, sphere packing, the single- and multi-letter expurgated
bounds, and the binary symmetric channel expurgated bound they shift into.
All functions are pure; rate arguments and return values are in bits.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import (
    INF,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    gv_delta,
    theta_cycle,
)
from .solvers import bisect_root, bracket, elementwise, require

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
    """D(p || eps) in bits for p, eps in (0, 1); p may be an array.

    Floored at 0, its true minimum: near p = eps the two terms cancel and
    roundoff alone would leave a tiny negative value. The logarithms are
    taken apart, because p / eps overflows at a subnormal eps.
    """
    value = p * (np.log2(p) - math.log2(eps))
    value += (1.0 - p) * (np.log2(1.0 - p) - math.log2(1.0 - eps))
    return np.maximum(value, 0.0)


def _h2(x):
    return entropy_h(2.0, x)


def _rate_at_rho(ch, rho):
    return math.log2(ch.q) - entropy_h(2.0, eps_rho(ch.epsilon, rho))


def _parametric_exponent(ch, r):
    """D(p || eps) at both ends of the bracket on the p where log2 q - h2(p) = r.

    r is a 1-D array. The parametric curve is (log2 q - h2(p), D(p || eps))
    at the tilted crossover p = eps_rho(eps, rho), which rises from eps at
    rho = 0 to 1/2; on that range h2 and the exponent both rise with p.
    Returned as the pair (smaller, larger) of the two ends' exponents:
    random coding, a lower bound, takes the smaller and sphere packing,
    an upper bound, the larger, so the two never cross where they
    coincide. At or above the rate at rho = 0 the exponent is 0; at or
    below the rate at the rho cap the analytic limit D(1/2 || eps) is
    returned.
    """
    p = np.stack(bracket(_h2, math.log2(ch.q) - r, ch.epsilon, 0.5))
    ends = binary_divergence(p, ch.epsilon)
    ends = np.where(r <= _rate_at_rho(ch, RHO_CAP), binary_divergence(0.5, ch.epsilon), ends)
    ends = np.where(r >= _rate_at_rho(ch, 0.0), 0.0, ends)
    return ends.min(axis=0), ends.max(axis=0)


def critical_rate(ch):
    """Rate where the random coding exponent leaves its slope -1 segment."""
    return math.log2(ch.q) - entropy_h(2.0, eps_rho(ch.epsilon, 1.0))


@elementwise
def random_coding_exponent(ch, r):
    """Achievable exponent: straight segment below the critical rate, parametric above.

    r is a scalar or an array. Exactly 0 at capacity, where the
    reliability function vanishes.
    """
    c = capacity(ch)
    require((r >= -1e-12) & (r <= c + 1e-12), r, f"rate must lie in [0, C] = [0, {c}]")
    r = np.maximum(r, 0.0)
    alpha = bhattacharyya(ch.epsilon)
    line = math.log2(ch.q / (1.0 + 2.0 * alpha)) - r
    out = np.where(r <= critical_rate(ch), line, _parametric_exponent(ch, r)[0])
    return np.where(r >= c, 0.0, out)


@elementwise
def sphere_packing_exponent(ch, r):
    """Converse exponent: infinite below log2(q/2), parametric up to capacity, 0 at it.

    r is a scalar or an array. The parametric value is the bracket end
    with the larger exponent, raised where roundoff needs it to the
    random coding line E0(1) - r, which lies under the true curve at
    every rate. So random coding, which is that line below the critical
    rate and the smaller end above it, never exceeds sphere packing.
    """
    c = capacity(ch)
    require(r <= c + 1e-12, r, f"rate must not exceed capacity {c}")
    alpha = bhattacharyya(ch.epsilon)
    line = math.log2(ch.q / (1.0 + 2.0 * alpha)) - r
    out = np.where(r < math.log2(ch.q / 2), INF, np.maximum(_parametric_exponent(ch, r)[1], line))
    # checked last: at eps = 1/2 capacity can round below log2(q/2)
    return np.where(r >= c, 0.0, out)


def rho_bar(ch):
    """Largest tilt for which the one-letter Gram matrix stays PSD."""
    return cycle_constants(ch).rho_bar


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
    """(rate, exponent) of the multi-letter expurgated curve at slope rho >= 1 (scalar or array)."""
    alpha = bhattacharyya(ch.epsilon)
    a = alpha ** (1.0 / rho)
    rate = np.log2(ch.q / (1.0 + 2.0 * a)) + (2.0 * a / (rho * (1.0 + 2.0 * a))) * math.log2(alpha)
    expo = (2.0 * a / (1.0 + 2.0 * a)) * math.log2(1.0 / alpha)
    return ParametricPoint(rho=rho, rate=rate, exponent=expo)


@elementwise
def expurgated_exponent(ch, r):
    """Multi-letter expurgated exponent at rate r, a scalar or an array.

    Infinite below log2(theta); a slope -1 line for eps >= eps_bar; for
    smaller eps the line holds outside [log2(theta), junction] and the
    rho-parametric curve fills the inside. Exact for even q and q = 5,
    an upper bound for odd q >= 7 (expurgated_is_exact). The line can
    read negative below capacity, which says nothing but is safe. From
    capacity on the value is min(line, 0): the line, which has crossed
    zero by then (it reads -0.209 at R = C for eps = 0.1), except at
    eps = 1/2, where it meets zero at C and the 0 absorbs roundoff.
    """
    require(r >= 0, r, "rate must be nonnegative")
    alpha = bhattacharyya(ch.epsilon)
    ltheta = math.log2(cycle_constants(ch).theta)
    e0 = math.log2(ch.q / (1.0 + 2.0 * alpha))
    inside = np.maximum(r, ltheta)  # clamps roundoff just below log2(theta)
    out = e0 - inside
    ebar = eps_bar(ch.q)
    middle = inside < _junction_rate_formula(alpha, ch.q)
    if ch.epsilon < ebar and middle.any():
        rho0 = math.log(alpha) / math.log(bhattacharyya(ebar))
        # the rate falls from the junction at rho = 1 to log2(theta) at rho0,
        # and the exponent rises with rho: a lower bound takes the smaller end
        def falling_rate(t):
            return -expurgated_parametric_point(ch, t).rate

        ends = bracket(falling_rate, -inside[middle], 1.0, rho0)
        out[middle] = np.minimum(*(expurgated_parametric_point(ch, t).exponent for t in ends))
    out = np.where(r < ltheta - 1e-12, INF, out)
    # on the line from capacity on; E(C) = 0, and at eps = 1/2 capacity can
    # round below the line's zero crossing log2(q/2)
    return np.where(r >= capacity(ch), np.minimum(e0 - r, 0.0), out)


@elementwise
def bsc_expurgated_exponent(epsilon, r):
    """Blocklength-independent expurgated exponent of a BSC, clamped at zero.

    r is a scalar or an array. Slope -1 line above the junction rate, a
    distance-driven branch -gv_delta(r) log2(2 alpha) below it. The raw
    line goes negative past its zero crossing (and for eps = 1/2
    immediately); an exponent bound below zero carries no information,
    so the value is floored at 0.
    """
    require((r >= 0.0) & (r <= 1.0 + 1e-12), r, "rate must lie in [0, 1]")
    r = np.minimum(r, 1.0)
    alpha = bhattacharyya(epsilon)
    line = math.log2(2.0 / (1.0 + 2.0 * alpha)) - r
    # gv_delta rounds down, and this branch grows with the distance
    branch = -gv_delta(2.0, r) * math.log2(2.0 * alpha)
    return np.maximum(np.where(r >= expurgated_junction_rate(epsilon, 2), line, branch), 0.0)
