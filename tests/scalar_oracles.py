"""Scalar definitions that relbound computes only in bulk, and a scan reference.

The transition law, the 0/1/inf semidistance and its Bhattacharyya
bound, one pair of symbols or words at a time, the expurgated
exponent function E_x(rho) in closed form, and the q'-ary entropy of
one point. The codes kernel, the oracle's Gram matrices and the bound
curves compute these on arrays; the tests check them against these
definitions. delta_lp2_scan is the exhaustive grid search that
relbound's golden-section delta_lp2 is checked against.

plain_bracket and plain_lp2_rows are plain forms of solvers.bracket
and upper_bounds._lp2_rows, with every pass through numpy on whole
arrays and no shortcut: the library's versions must give the same
bits.
"""

import math

import numpy as np

from relbound.channel import _TINY, INF, bhattacharyya, cycle_constants
from relbound.channel import entropy_h as array_entropy_h
from relbound.classical import _h2
from relbound.solvers import _GOLDEN, bracket
from relbound.upper_bounds import LP2_NEWTON, LP2_STEPS, _lp2_objective


def transition_prob(ch, y, x):
    """W(y|x): 1 - eps on the diagonal, eps one step up mod q, else 0."""
    q = ch.q
    if not (0 <= x < q and 0 <= y < q):
        raise ValueError(f"symbols must lie in 0..{q - 1}, got x={x}, y={y}")
    if y == x:
        return 1.0 - ch.epsilon
    if y == (x + 1) % q:
        return ch.epsilon
    return 0.0


def symbol_distance(a, b, q):
    """Per-symbol semidistance: 0 if equal, 1 if cyclically adjacent, inf otherwise."""
    d = (a - b) % q
    if d == 0:
        return 0
    if d == 1 or d == q - 1:
        return 1
    return INF


def semidistance(w1, w2, q):
    """Coordinatewise sum of symbol distances, saturating at inf."""
    if len(w1) != len(w2):
        raise ValueError(f"length mismatch: {len(w1)} vs {len(w2)}")
    total = 0
    for a, b in zip(w1, w2):
        d = symbol_distance(int(a), int(b), q)
        if d == INF:
            return INF
        total += d
    return total


def pairwise_error_bound(ch, w1, w2):
    """Bhattacharyya bound alpha^d on confusing w1 with w2 (alpha^inf = 0)."""
    d = semidistance(w1, w2, ch.q)
    if d == INF:
        return 0.0
    return bhattacharyya(ch.epsilon) ** d


def expurgated_ex(ch, rho):
    """Expurgated exponent function of the slope parameter rho >= 1.

    Below rho_bar the uniform input is optimal and the closed form is
    exact for every blocklength; above it the value rho log2(theta) is
    exact for even q and for q = 5, and an upper bound for larger odd q
    (see relbound.classical.expurgated_is_exact).
    """
    if rho < 1.0:
        raise ValueError(f"slope parameter must be >= 1, got {rho}")
    cc = cycle_constants(ch)
    if rho <= cc.rho_bar:
        alpha = bhattacharyya(ch.epsilon)
        return rho * math.log2(ch.q / (1.0 + 2.0 * alpha ** (1.0 / rho)))
    return rho * math.log2(cc.theta)


def entropy_h(q_prime, x):
    """x log2(q'-1) - x log2 x - (1-x) log2(1-x) for one x in [0, 1], with 0 log 0 = 0."""
    out = 0.0
    if 0.0 < x:
        out += x * math.log2(q_prime - 1.0) - x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def delta_lp2_scan(r):
    """delta_lp2's objective on a 1-D rate array by a shrinking grid scan over b.

    Each of 4 rounds scans 129 values of b on the current interval,
    starting from [0, h2^{-1}(r)], and shrinks the interval to the two
    cells around its best point. As in relbound, the cap on b is
    rounded down and every a up (bisection brackets of the checked
    h2), so each scanned pair is feasible and the value is the
    objective at the best of them.
    """
    points, rounds = 129, 4

    def h2(x):
        return array_entropy_h(2.0, x)

    rows = np.arange(r.size)
    beta_max = bracket(h2, r, 0.0, 0.5)[0][:, None]
    slack = 1.0 - r[:, None]
    steps = np.linspace(0.0, 1.0, points)
    lo, hi = np.zeros_like(beta_max), beta_max
    best = np.full(r.size, INF)
    for _ in range(rounds):
        beta = np.minimum(lo + (hi - lo) * steps, beta_max)
        alpha = bracket(h2, slack + h2(beta), beta, 0.5)[1]
        num = (alpha - beta) * (1.0 - alpha - beta)
        value = 2.0 * num / (1.0 + 2.0 * np.sqrt(beta * (1.0 - beta)))
        i = np.argmin(value, axis=1)
        best = np.minimum(best, value[rows, i])
        lo = beta[rows, np.maximum(i - 1, 0)][:, None]
        hi = beta[rows, np.minimum(i + 1, points - 1)][:, None]
    return best


def plain_bracket(f, y, lo, hi):
    """solvers.bracket's bisection on int64 bit patterns, every pass on whole arrays.

    As many passes as the largest pattern of hi has bits, each with its
    midpoint lo + ceil((hi - lo) / 2) and ends selected by arithmetic.
    Only for valid ends, 0.0 <= lo <= hi.
    """
    y, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, lo, hi)))
    lo = lo.copy().view(np.int64)
    hi = hi.copy().view(np.int64)
    for _ in range(int(hi.max(initial=0)).bit_length()):
        mid = lo + ((hi - lo + 1) >> 1)
        up = f(mid.view(np.float64)) > y
        hi -= (hi - mid) * up
        lo += (mid - lo) * ~up
    return lo.view(np.float64), hi.view(np.float64)


def _plain_lp2_trial(slack, beta, start):
    target = slack + _h2(beta)
    alpha = np.maximum(start, beta)
    for _ in range(LP2_NEWTON):
        slope = np.log2(1.0 - alpha) - np.log2(np.maximum(alpha, _TINY))
        step = np.divide(target - _h2(alpha), slope, out=np.zeros_like(alpha), where=slope > 0.0)
        alpha = np.minimum(np.maximum(alpha + step, beta), 0.5)
    return alpha, _lp2_objective(alpha, beta)


def plain_lp2_rows(r):
    """upper_bounds._lp2_rows with each inner point a list of three arrays and _h2 called whole.

    The same golden-section search on sqrt(b), Newton a per trial and
    final brackets (plain_bracket), on a 1-D array of rates in [0, 1];
    returns (alpha, beta, objective).
    """
    cap = plain_bracket(_h2, r, 0.0, 0.5)[0]
    slack = 1.0 - r
    lo, hi = np.zeros_like(r), np.sqrt(cap)
    alpha_lo = 0.5 * (1.0 - np.sqrt(1.0 - slack ** math.log(4.0)))
    u = hi - _GOLDEN * hi
    c = (u, *_plain_lp2_trial(slack, u * u, alpha_lo))
    u = _GOLDEN * hi
    d = (u, *_plain_lp2_trial(slack, u * u, c[1]))
    for _ in range(LP2_STEPS):
        if not np.any(hi > lo):
            break
        left = c[2] < d[2]
        hi = np.where(left, d[0], hi)
        lo = np.where(left, lo, c[0])
        alpha_lo = np.where(left, alpha_lo, c[1])
        kept = [np.where(left, x, y) for x, y in zip(c, d)]
        u = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        new = (u, *_plain_lp2_trial(slack, u * u, np.where(left, alpha_lo, kept[1])))
        c = [np.where(left, x, y) for x, y in zip(new, kept)]
        d = [np.where(left, y, x) for x, y in zip(new, kept)]
    beta = np.stack([np.zeros_like(r), np.minimum(c[0] ** 2, cap), np.minimum(d[0] ** 2, cap), cap])
    alpha = plain_bracket(_h2, slack + _h2(beta), beta, 0.5)[1]
    value = _lp2_objective(alpha, beta)
    best = np.argmin(value, axis=0), np.arange(r.size)
    return alpha[best], beta[best], value[best]
