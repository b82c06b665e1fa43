"""Scalar definitions that relbound computes only in bulk.

The transition law, the 0/1/inf semidistance and its Bhattacharyya
bound, one pair of symbols or words at a time, the expurgated
exponent function E_x(rho) in closed form, and the q'-ary entropy of
one point. The codes kernel, the oracle's Gram matrices and the bound
curves compute these on arrays; the tests check them against these
definitions.
"""

import math

from relbound.channel import INF, bhattacharyya, cycle_constants


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
