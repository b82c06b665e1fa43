"""Converse bounds: LP-based distance bounds, straight lines, and the envelope.

All bounds are upper bounds on the reliability exponent in bits. The
spectrum bound only exists for crossover exactly 1/2 and odd q.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import (
    _TINY,
    INF,
    _entropy,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    entropy_h_inv,
    theta_cycle,
)
from .classical import _h2, binary_divergence
from .solvers import _GOLDEN, bracket, elementwise, require

# below this crossover the binary-reduction anchor improves sphere packing
LP2_ANCHOR_GATE = 0.5 - math.sqrt(3.0) / 4.0


class LP2Point(NamedTuple):
    """Minimizing pair of the second binary LP bound and its objective.

    Fields are floats for a scalar rate and arrays for an array of rates.
    """

    alpha: float
    beta: float
    objective: float


# delta_lp2's golden-section search runs on u = sqrt(b), because the objective
# falls like sqrt(b) near b = 0, and near r = 1 its minimum sits that close to 0
# (within 2e-9 at r = 0.9996, closer as r grows). Each step shrinks the interval on u by _GOLDEN; after LP2_STEPS it
# is under sqrt(machine eps) of its start, where float values of the objective
# no longer order the trial points.
LP2_STEPS = math.ceil(math.log(2.0**-26) / math.log(_GOLDEN))
# Newton steps per trial a; three leave errors up to 3e-7 in the first trials,
# enough to send the search the wrong way
LP2_NEWTON = 4


def _lp2_objective(alpha, beta):
    # a(1-a) - b(1-b) factored, so it cannot round below 0 when b <= a <= 1/2
    num = (alpha - beta) * (1.0 - alpha - beta)
    return 2.0 * num / (1.0 + 2.0 * np.sqrt(beta * (1.0 - beta)))


def _lp2_trial(slack, beta, start):
    """(a, objective) at b, with a from Newton steps on h2(a) = slack + h2(b).

    `start` is at or below the root. h2 rises and is concave on
    [0, 1/2], so from below each step stays below the root and climbs
    toward it. Only the search uses these a; the returned pair's a
    comes from the safe bracket.
    """
    target = slack + _h2(beta)
    alpha = np.maximum(start, beta)
    for _ in range(LP2_NEWTON):
        # h2(a) as _h2 evaluates it, from the two logs its slope needs too;
        # a stays at or near 1/2 and below, so 1 - a needs no floor
        rest = 1.0 - alpha
        la = np.log2(np.maximum(alpha, _TINY))
        lb = np.log2(rest)
        h = alpha * (0.0 - la) - rest * lb
        slope = lb - la
        step = np.divide(target - h, slope, out=np.zeros(alpha.shape), where=slope > 0.0)
        alpha = np.minimum(np.maximum(alpha + step, beta), 0.5)
    return alpha, _lp2_objective(alpha, beta)


def _lp2_rows(r):
    """delta_lp2_point on a 1-D array of rates in [0, 1]."""
    cap = bracket(_h2, r, 0.0, 0.5)[0]
    slack = 1.0 - r
    lo, hi = np.zeros_like(r), np.sqrt(cap)
    # a(b) rises with b, so the a at a smaller b starts a trial from below;
    # a(0) >= (1 - sqrt(1 - (1 - r)^ln 4)) / 2, as h2(x) <= (4x(1-x))^(1/ln 4)
    alpha_lo = 0.5 * (1.0 - np.sqrt(1.0 - slack ** math.log(4.0)))
    # the inner points, each a (3, N) stack of rows u, a, objective, u = sqrt(b)
    u = hi - _GOLDEN * hi
    c = np.array((u, *_lp2_trial(slack, u * u, alpha_lo)))
    u = _GOLDEN * hi
    d = np.array((u, *_lp2_trial(slack, u * u, c[1])))
    for _ in range(LP2_STEPS):
        if not np.any(hi > lo):
            break  # every interval has collapsed
        # the minimum lies in [lo, d] (left) or in [c, hi]
        left = c[2] < d[2]
        hi = np.where(left, d[0], hi)
        lo = np.where(left, lo, c[0])
        alpha_lo = np.where(left, alpha_lo, c[1])
        kept = np.where(left, c, d)
        width = hi - lo
        u = np.where(left, hi - _GOLDEN * width, lo + _GOLDEN * width)
        new = np.array((u, *_lp2_trial(slack, u * u, np.where(left, alpha_lo, kept[1]))))
        c = np.where(left, new, kept)
        d = np.where(left, kept, new)
    # u^2 can round above the cap once an interval has collapsed onto it
    beta = np.stack([np.zeros_like(r), np.minimum(c[0] ** 2, cap), np.minimum(d[0] ** 2, cap), cap])
    alpha = bracket(_h2, slack + _h2(beta), beta, 0.5)[1]
    value = _lp2_objective(alpha, beta)
    best = np.argmin(value, axis=0), np.arange(r.size)
    return alpha[best], beta[best], value[best]


def delta_lp2_point(r):
    """Second linear-programming distance bound for binary codes at rate r.

    Minimizes 2(a(1-a) - b(1-b)) / (1 + 2 sqrt(b(1-b))) over
    0 <= b <= a <= 1/2 with the feasibility set h2(a) - h2(b) >= 1 - r,
    which pins the endpoints delta_lp2(0) = 1/2 and delta_lp2(1) = 0.
    The objective grows with a, so a is the smallest feasible one,
    a(b) = h2^{-1}(1 - r + h2(b)), and b is searched on its range
    [0, h2^{-1}(r)], where the objective of b falls and then rises.

    The search is a golden-section search (Kiefer 1953) on sqrt(b),
    run for all rates at once: LP2_STEPS steps, or fewer once every
    interval has collapsed. Each trial b gets its a from LP2_NEWTON
    Newton steps on h2(a) = 1 - r + h2(b), started from the a of a
    smaller b (a(b) rises with b), so h2's concavity keeps every step
    below the root.

    Only four candidates leave the search: its last two trial points
    and the ends b = 0 and b = h2^{-1}(r), the cap rounded down. Each
    gets its a from one bisection bracket (solvers.bracket), rounded
    up, and the result is the objective at the best of these pairs.
    Every pair is feasible, with h2 as evaluated in floating point, so
    the value is never below the true minimum beyond that roundoff. The
    search and its Newton a only choose which feasible pair is
    reported, so any search is on the safe side: a poor choice can only
    make the bound looser, by as much as it misses the minimum.

    r may be a scalar or an array; a scalar runs through the same array
    code as one entry of an array, so both give the same bits. The
    search's temporaries are a few arrays of the rates' size.
    """
    rates = np.asarray(r, dtype=float)
    require((rates >= -1e-12) & (rates <= 1.0 + 1e-12), rates, "binary rate must lie in [0, 1]")
    out = _lp2_rows(np.clip(rates, 0.0, 1.0).ravel())
    if rates.ndim == 0:
        return LP2Point(*(float(v[0]) for v in out))
    return LP2Point(*(v.reshape(rates.shape) for v in out))


def delta_lp2(r):
    """Objective value of delta_lp2_point: a float for a scalar rate, else an array."""
    return delta_lp2_point(r).objective


def binary_reduction_bound(ch, r):
    """Upper bound via a pairwise-confusable subcode: delta_lp2 shifted and scaled.

    r may be a scalar or an array of rates, all above log2(q/2).
    """
    shift = math.log2(ch.q / 2)
    rates = np.asarray(r, dtype=float)
    require(rates > shift, rates, f"rate must exceed log2(q/2) = {shift}")
    alpha = bhattacharyya(ch.epsilon)
    return delta_lp2(np.minimum(rates - shift, 1.0)) * math.log2(1.0 / alpha)


@elementwise
def lp1_rate(q_prime, delta):
    """First linear-programming rate bound for distance delta, alphabet q' > 1.

    q' need not be an integer; delta is a scalar or an array. The
    entropy's argument ((q'-1) - (q'-2) d - 2 sqrt((q'-1) d (1-d))) / q'
    is computed as the square (sqrt((q'-1)(1-d)) - sqrt(d))^2 / q', which
    keeps its relative precision as it falls to 0 at d = (q'-1)/q' (the
    expanded form cancels to 0 within 1e-8 of that end); at that end it
    is 0 exactly, and it is clipped against roundoff at the other.
    """
    if q_prime <= 1.0:
        raise ValueError(f"alphabet parameter must exceed 1, got {q_prime}")
    dmax = (q_prime - 1.0) / q_prime
    require((delta >= -1e-12) & (delta <= dmax + 1e-12), delta, f"distance must lie in [0, {dmax}]")
    return _lp1_rate(q_prime, np.clip(delta, 0.0, dmax))


def _lp1_rate(q_prime, delta):
    """lp1_rate's arithmetic on a float array delta in [0, (q'-1)/q'], unchecked.

    For the passes of _lp1_distance's bracket, whose points are in range
    by construction.
    """
    dmax = (q_prime - 1.0) / q_prime
    arg = (np.sqrt((q_prime - 1.0) * (1.0 - delta)) - np.sqrt(delta)) ** 2 / q_prime
    return _entropy(q_prime, np.where(delta < dmax, np.minimum(arg, 1.0), 0.0))


@elementwise
def min_distance_bound(ch, r):
    """Distance-driven converse for odd q above the cycle Lovasz rate.

    Solves r = log2(theta) + lp1_rate(q', d) for the largest admissible
    normalized distance d and charges it log2(1/eps) per unit; r is a
    scalar or an array.
    """
    if ch.q % 2 == 0:
        raise ValueError("the distance bound applies to odd alphabet sizes only")
    cc = cycle_constants(ch)
    ltheta = math.log2(cc.theta)
    top = math.log2(ch.q)
    ok = (r > ltheta) & (r <= top + 1e-12)
    require(ok, r, f"rate must lie in (log2 theta, log2 q] = ({ltheta}, {top}]")
    delta = _lp1_distance(cc.q_prime, np.minimum(r, top) - ltheta)
    return delta * -math.log2(ch.epsilon)


def _lp1_distance(q_prime, rate):
    """Inverse of lp1_rate on a rate array: the distance where the LP rate equals `rate`.

    lp1_rate falls with d, so the bracket runs on its negation. Both
    callers are converses that grow with the distance, so this rounds up:
    the bracket's upper end, whose lp1_rate is <= rate and whose float
    below has lp1_rate >= rate; 0 from log2 q' on.
    """
    dmax = (q_prime - 1.0) / q_prime
    hi = bracket(lambda d: -_lp1_rate(q_prime, d), -rate, 0.0, dmax)[1]
    return np.where(rate >= math.log2(q_prime), 0.0, hi)


@dataclass(frozen=True)
class StraightLine:
    """Chord from a low-rate anchor (r1, e1) to a point (r2, e2) of the sphere-packing curve.

    The slope is the chord's, except for an anchor on the curve, whose
    segment degenerates to the tangent there. value(r) reports inf
    outside (r1, r2], so pointwise-min envelopes ignore the line there;
    the exponent can be infinite at r1 itself (log2(q/2) for even q).
    """

    r1: float
    e1: float
    r2: float
    e2: float
    slope: float

    @elementwise
    def value(self, r):
        """The line at rate r, a scalar or an array; inf outside (r1, r2]."""
        # the chord falls to e2; the floor stops it dipping below e2 past r2
        line = np.maximum(self.e1 + self.slope * (r - self.r1), self.e2)
        return np.where((r <= self.r1) | (r > self.r2 + 1e-12), INF, line)


def _sphere_packing_point(ch, u):
    """(rate, exponent) of the sphere-packing curve at an array u = 1/(1+rho) in [0, 1]."""
    eps = ch.epsilon
    a, b = eps**u, (1.0 - eps) ** u
    p = a / (a + b)
    return math.log2(ch.q) - _h2(p), binary_divergence(p, eps)


def straight_line_bound(anchor_rate, anchor_exponent, ch):
    """Tangent chord from (anchor_rate, anchor_exponent) to the sphere-packing curve.

    By Shannon-Gallager-Berlekamp a chord to any curve point right of the
    anchor is a bound. With (R, E) the curve at u = 1/(1+rho), points
    where g(u) = u (E - E1) + (1 - u)(R - R1) >= 0 (u times the tangency
    defect, finite at u = 0) or R <= R1, as evaluated, lie left of the
    tangency; one bracket on u in [0, 1] takes the first point right of
    it. A bracket that stops at R1 means the anchor is on the curve,
    which gives the tangent, or above it, which is refused, unless R1 is
    at or left of the curve's end log2(q/2).
    """
    if not math.isfinite(anchor_exponent) or anchor_exponent <= 0:
        raise ValueError(f"anchor exponent must be finite positive, got {anchor_exponent}")
    c = capacity(ch)
    if anchor_rate >= c:
        raise ValueError(f"anchor rate must lie below capacity {c}, got {anchor_rate}")

    def right_of_tangency(u):
        rate, expo = _sphere_packing_point(ch, u)
        g = u * (expo - anchor_exponent) + (1.0 - u) * (rate - anchor_rate)
        return np.where(rate > anchor_rate, -g, 0.0)

    ends = np.stack(bracket(right_of_tangency, 0.0, 0.0, 1.0))
    rates, expos = _sphere_packing_point(ch, ends)
    u2, r2, e2 = float(ends[1]), float(rates[1]), float(expos[1])
    if rates[0] > anchor_rate or anchor_rate <= math.log2(ch.q / 2):
        slope = (e2 - anchor_exponent) / (r2 - anchor_rate)
    elif expos[0] < anchor_exponent - 1e-9 * max(1.0, anchor_exponent):
        raise ValueError("anchor lies above the sphere-packing curve, no tangency")
    else:
        slope = -(1.0 - u2) / u2  # the tangent, -rho, at the anchor on the curve
    return StraightLine(anchor_rate, anchor_exponent, r2, e2, slope)


@lru_cache(maxsize=None)
def theta_anchored_line(ch):
    """Straight line from (log2 theta, log2(1/eps)), odd q."""
    if ch.q % 2 == 0:
        raise ValueError("the theta-anchored line applies to odd alphabet sizes only")
    ltheta = math.log2(cycle_constants(ch).theta)
    return straight_line_bound(ltheta, -math.log2(ch.epsilon), ch)


@lru_cache(maxsize=None)
def lp2_anchored_line(ch):
    """Straight line from the binary-reduction anchor at log2(q/2).

    Only exists when the anchor (1/2) log2(1/alpha) undercuts the
    sphere-packing limit, i.e. for eps below 1/2 - sqrt(3)/4.
    """
    if ch.epsilon >= LP2_ANCHOR_GATE:
        raise ValueError(
            f"anchor needs eps < 1/2 - sqrt(3)/4 = {LP2_ANCHOR_GATE:.6f}, got {ch.epsilon}"
        )
    anchor = 0.5 * math.log2(1.0 / bhattacharyya(ch.epsilon))
    return straight_line_bound(math.log2(ch.q / 2), anchor, ch)


class SpectrumBoundPoint(NamedTuple):
    """Achieving (distance, radius) pair of the spectrum converse."""

    delta: float
    tau: float
    s: float
    value: float


@elementwise
def spectrum_half_point(q, r):
    """Spectrum-driven converse for odd q at crossover exactly 1/2, at a scalar or array r.

    Either the code has small distance, or it has exponentially many
    neighbors at some scaled radius tau. The bound is the maximum of

        min(d, tau - min(g(tau), d/2)),  g(t) = r - log2 q + h3(t),

    over delta_lo <= d <= tau <= s, where s is the LP distance cap and
    delta_lo = h3^{-1}(log2 q - r). The maximum has a closed form. For
    odd q >= 5, s <= (q'-1)/q' < 2/3, so the box lies on the rising,
    concave branch of h3, where g >= 0 (g(delta_lo) = 0). At fixed tau
    the maximum over d is then max(A(tau), H(tau)): A(t) = t - g(t),
    reached at d = t, and H(t) = min(d_m, t - d_m/2) at
    d_m = max(2t/3, delta_lo). A is convex, so it peaks at t = delta_lo
    (value delta_lo) or at t = s; H is increasing, so it peaks at t = s.
    The bound is the best of the pairs (delta_lo, delta_lo), (s, s) and
    (d_m(s), s), reported as the objective at the winning pair.
    Degenerates to the distance cap s when the box is empty.
    """
    if q % 2 == 0:
        raise ValueError("the spectrum bound applies to odd alphabet sizes only")
    theta = theta_cycle(q)
    ltheta = math.log2(theta)
    lq = math.log2(q)
    top = lq - 1.0
    ok = (r > ltheta) & (r < top)
    require(ok, r, f"rate must lie in (log2 theta, log2 q - 1) = ({ltheta}, {top})")
    s = _lp1_distance(q / theta, r - ltheta)
    # rounded down: a lower delta_lo widens the box, which cannot lower the max
    delta_lo = entropy_h_inv(3.0, lq - r)
    deltas = np.stack([delta_lo, s, np.maximum(2.0 * s / 3.0, delta_lo)])
    taus = np.stack([delta_lo, s, s])
    values = np.minimum(deltas, taus - np.minimum(r - lq + entropy_h(3.0, taus), deltas / 2.0))
    best = np.argmax(values, axis=0), np.arange(r.size)
    point = SpectrumBoundPoint(delta=deltas[best], tau=taus[best], s=s, value=values[best])
    # an empty box leaves the distance cap s
    empty = delta_lo >= s
    return SpectrumBoundPoint(*(np.where(empty, s, v) for v in point))


def spectrum_half_bound(q, r):
    """Value of spectrum_half_point."""
    return spectrum_half_point(q, r).value


def envelope(ch, r, which="both", values=None):
    """Pointwise best lower and upper envelopes: a max/min fold over the bound registry.

    The lower envelope is the max over the registry curves of kind
    "lower", the upper envelope the min over those of kind "upper",
    counting each curve only where BoundSpec.in_envelope holds on this
    channel (it applies, and its envelope_rule admits it: the expurgated
    curve only where expurgated_is_exact, the LP2-anchored line only for
    odd q) and only at rates inside its BoundSpec.domain. which="lower"
    or "upper" evaluates only the curves of that kind.

    r may be a scalar or an array of rates in (0, C + 1e-12]; the
    result is a float or an array of r's shape, and a (lower, upper)
    pair for which="both". Rates are folded as given, with no clamp to
    C: from C on every lower curve reads <= 0 with random_coding at 0,
    and every upper curve reads >= 0 or lies outside its domain with
    sphere_packing at 0, so both folds read 0 there. `values` is the
    per-grid memo of BoundSpec.curve, which reuses the curves already
    in it and adds the ones evaluated here, so curves shared by several
    calls are computed once.
    """
    if which not in ("both", "lower", "upper"):
        raise ValueError(f"selector must be 'both', 'lower' or 'upper', got {which}")
    rates = np.asarray(r, dtype=float)
    c = capacity(ch)
    require((rates > 0.0) & (rates <= c + 1e-12), rates, f"rate must lie in (0, C] = (0, {c}]")
    values = {} if values is None else values
    grid = rates.ravel()
    from .curves import BOUNDS  # the registry module imports this one

    folded = {}
    for kind, fold, absent in (("lower", np.maximum, -INF), ("upper", np.minimum, INF)):
        if which not in ("both", kind):
            continue
        acc = np.full(grid.shape, absent)
        for spec in BOUNDS.values():
            if spec.kind != kind or not spec.in_envelope(ch):
                continue
            acc = fold(acc, np.where(spec.domain(ch, grid), spec.curve(ch, grid, values), absent))
        folded[kind] = float(acc[0]) if rates.ndim == 0 else acc.reshape(rates.shape)
    if which == "both":
        return folded["lower"], folded["upper"]
    return folded[which]
