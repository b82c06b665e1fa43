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
    INF,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    entropy_h_inv,
    theta_cycle,
)
from .classical import (
    RHO_CAP,
    _h2,
    _rate_at_rho,
    binary_divergence,
    eps_rho,
)
from .solvers import bisect_root, bracket, elementwise, require

# below this crossover the binary-reduction anchor improves sphere packing
LP2_ANCHOR_GATE = 0.5 - math.sqrt(3.0) / 4.0


class LP2Point(NamedTuple):
    """Minimizing pair of the second binary LP bound and its objective.

    Fields are floats for a scalar rate and arrays for an array of rates.
    """

    alpha: float
    beta: float
    objective: float


# delta_lp2's search: a LP2_SCAN-point beta scan, shrunk LP2_ROUNDS times
# to the two cells around its best point, on LP2_CHUNK rates at a time
LP2_SCAN = 129
LP2_ROUNDS = 4
LP2_CHUNK = 256


def _lp2_objective(alpha, beta):
    # a(1-a) - b(1-b) factored, so it cannot round below 0 when b <= a <= 1/2
    num = (alpha - beta) * (1.0 - alpha - beta)
    return 2.0 * num / (1.0 + 2.0 * np.sqrt(beta * (1.0 - beta)))


def _lp2_rows(r):
    """delta_lp2_point on a 1-D array of rates in [0, 1]."""
    rows = np.arange(r.size)
    beta_max = bracket(_h2, r, 0.0, 0.5)[0][:, None]
    slack = 1.0 - r[:, None]
    steps = np.linspace(0.0, 1.0, LP2_SCAN)
    lo, hi = np.zeros_like(beta_max), beta_max
    best = np.full(r.size, INF)
    best_alpha = np.empty(r.size)
    best_beta = np.empty(r.size)
    for _ in range(LP2_ROUNDS):
        beta = np.minimum(lo + (hi - lo) * steps, beta_max)
        alpha = bracket(_h2, slack + _h2(beta), beta, 0.5)[1]
        value = _lp2_objective(alpha, beta)
        i = np.argmin(value, axis=1)
        better = value[rows, i] < best
        pick = rows[better], i[better]
        best[better] = value[pick]
        best_alpha[better] = alpha[pick]
        best_beta[better] = beta[pick]
        lo = beta[rows, np.maximum(i - 1, 0)][:, None]
        hi = beta[rows, np.minimum(i + 1, LP2_SCAN - 1)][:, None]
    return best_alpha, best_beta, best


def delta_lp2_point(r):
    """Second linear-programming distance bound for binary codes at rate r.

    Minimizes 2(a(1-a) - b(1-b)) / (1 + 2 sqrt(b(1-b))) over
    0 <= b <= a <= 1/2 with the feasibility set h2(a) - h2(b) >= 1 - r,
    which pins the endpoints delta_lp2(0) = 1/2 and delta_lp2(1) = 0.
    The objective grows with a, so a is the smallest feasible one,
    h2^{-1}(1 - r + h2(b)), and b is searched on [0, h2^{-1}(r)] by a
    scan that shrinks around its best cell.

    r may be a scalar or an array; the search runs on whole arrays,
    LP2_CHUNK rates at a time, so its temporaries stay bounded. Both
    inverses are bisection brackets (solvers.bracket): a is rounded up
    (the bracket's upper end) and the cap h2^{-1}(r) on b is rounded
    down, so every returned (a, b) is feasible, with h2 as evaluated in
    floating point, and the returned objective is the objective at that
    pair. It is therefore never below the true minimum beyond that
    roundoff, which keeps the converse on the safe side.
    """
    rates = np.asarray(r, dtype=float)
    inside = (rates >= -1e-12) & (rates <= 1.0 + 1e-12)
    if not np.all(inside):
        raise ValueError(f"binary rate must lie in [0, 1], got {rates[~inside].ravel()[0]}")
    flat = np.clip(rates, 0.0, 1.0).ravel()
    out = np.empty((3, flat.size))
    for start in range(0, flat.size, LP2_CHUNK):
        out[:, start:start + LP2_CHUNK] = _lp2_rows(flat[start:start + LP2_CHUNK])
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
    if not np.all(rates > shift):
        raise ValueError(f"rate must exceed log2(q/2) = {shift}, got {np.min(rates)}")
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
    dmax = (q_prime - 1.0) / q_prime
    require((delta >= -1e-12) & (delta <= dmax + 1e-12), delta, f"distance must lie in [0, {dmax}]")
    delta = np.clip(delta, 0.0, dmax)
    arg = (np.sqrt((q_prime - 1.0) * (1.0 - delta)) - np.sqrt(delta)) ** 2 / q_prime
    return entropy_h(q_prime, np.where(delta < dmax, np.minimum(arg, 1.0), 0.0))


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
    hi = bracket(lambda d: -lp1_rate(q_prime, d), -rate, 0.0, dmax)[1]
    return np.where(rate >= math.log2(q_prime), 0.0, hi)


@dataclass(frozen=True)
class StraightLine:
    """Chord from a low-rate anchor to its tangency point on the sphere-packing curve.

    The affine value is a bound only between the endpoints, so value(r)
    reports inf outside [r1, r2] and pointwise-min envelopes ignore it
    there.
    """

    r1: float
    e1: float
    r2: float
    e2: float
    slope: float

    @elementwise
    def value(self, r):
        """The line at rate r, a scalar or an array; inf outside [r1, r2]."""
        # the chord falls to e2; the floor stops it dipping below e2 past r2
        line = np.maximum(self.e1 + self.slope * (r - self.r1), self.e2)
        return np.where((r < self.r1 - 1e-12) | (r > self.r2 + 1e-12), INF, line)


def straight_line_bound(anchor_rate, anchor_exponent, ch):
    """Tangent chord from (anchor_rate, anchor_exponent) to the sphere-packing curve.

    The tangency slope is the parametric -rho, so the defect
    E_sp(rho) - E1 + rho (R_rho - R1) is driven to zero by bisection.
    Raises when the anchor sits above the whole curve (no tangency).
    """
    if not math.isfinite(anchor_exponent) or anchor_exponent <= 0:
        raise ValueError(f"anchor exponent must be finite positive, got {anchor_exponent}")
    c = capacity(ch)
    if anchor_rate >= c:
        raise ValueError(f"anchor rate must lie below capacity {c}, got {anchor_rate}")
    eps = ch.epsilon

    def defect(rho):
        rate = _rate_at_rho(ch, rho)
        expo = binary_divergence(eps_rho(eps, rho), eps)
        return expo - anchor_exponent + rho * (rate - anchor_rate)

    if anchor_rate >= _rate_at_rho(ch, RHO_CAP):
        # anchor inside the curve's domain: tangency must come before it
        rho_hi = bisect_root(lambda t: _rate_at_rho(ch, t) - anchor_rate, 0.0, RHO_CAP)
        gap = defect(rho_hi)
        if gap < -1e-9 * max(1.0, anchor_exponent):
            raise ValueError("anchor lies above the sphere-packing curve, no tangency")
        if gap <= 0.0:
            # anchor sits on the curve: the segment degenerates to its tangent
            rho2 = rho_hi
            r2 = _rate_at_rho(ch, rho2)
            e2 = binary_divergence(eps_rho(eps, rho2), eps)
            return StraightLine(anchor_rate, anchor_exponent, r2, e2, -rho2)
    else:
        rho_hi = 1.0
        while defect(rho_hi) <= 0:
            rho_hi *= 2.0
            if rho_hi > RHO_CAP:
                raise ValueError("no tangency found below the slope cap")
    rho2 = bisect_root(defect, 0.0, rho_hi)
    r2 = _rate_at_rho(ch, rho2)
    e2 = binary_divergence(eps_rho(eps, rho2), eps)
    return StraightLine(anchor_rate, anchor_exponent, r2, e2, -rho2)


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

    r may be a scalar or an array of rates in (0, C]; the result is a
    float or an array of r's shape, and a (lower, upper) pair for
    which="both". `values` maps curve names to arrays already evaluated
    on the same rates: those are reused, and every curve evaluated here
    is added, so curves shared by several calls are computed once.
    """
    if which not in ("both", "lower", "upper"):
        raise ValueError(f"selector must be 'both', 'lower' or 'upper', got {which}")
    rates = np.asarray(r, dtype=float)
    c = capacity(ch)
    inside = (rates > 0.0) & (rates <= c + 1e-12)
    if not np.all(inside):
        raise ValueError(f"rate must lie in (0, C] = (0, {c}], got {rates[~inside].ravel()[0]}")
    if values is None or np.any(rates > c):
        values = {}  # curves given for rates above C are not the clamped ones
    grid = np.minimum(rates, c).ravel()
    from .curves import BOUNDS  # the registry module imports this one

    folded = {}
    for kind, fold, absent in (("lower", np.maximum, -INF), ("upper", np.minimum, INF)):
        if which not in ("both", kind):
            continue
        acc = np.full(grid.shape, absent)
        for name, spec in BOUNDS.items():
            if spec.kind != kind or not spec.in_envelope(ch):
                continue
            if name not in values:
                values[name] = spec.curve(ch, grid)
            acc = fold(acc, np.where(spec.domain(ch, grid), values[name], absent))
        folded[kind] = float(acc[0]) if rates.ndim == 0 else acc.reshape(rates.shape)
    if which == "both":
        return folded["lower"], folded["upper"]
    return folded[which]
