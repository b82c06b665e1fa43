"""Cyclic-shift channel model, entropy utilities and cycle constants.

Everything here is pure and immutable, so concurrent use needs no locking.
Rates and exponents are in bits throughout; the extended distance uses
math.inf as a first-class value.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .solvers import bisect_root

INF = math.inf


@dataclass(frozen=True)
class Channel:
    """A q-ary cyclic-shift channel.

    Input x is received as x with probability 1 - epsilon and as
    x + 1 mod q with probability epsilon. Requires q >= 4 and
    0 < epsilon <= 1/2.
    """

    q: int
    epsilon: float

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 4:
            raise ValueError(f"alphabet size must be an integer >= 4, got {self.q}")
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(f"crossover must satisfy 0 < eps <= 1/2, got {self.epsilon}")


def bhattacharyya(epsilon):
    """sqrt(eps(1-eps)), the pairwise distinguishability coefficient."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"crossover must satisfy 0 < eps <= 1/2, got {epsilon}")
    return math.sqrt(epsilon * (1.0 - epsilon))


def entropy_h(q_prime, x):
    """x log2(q'-1) - x log2 x - (1-x) log2(1-x), with 0 log 0 = 0.

    q' may be non-integral but must exceed 1.
    """
    if q_prime <= 1.0:
        raise ValueError(f"alphabet parameter must exceed 1, got {q_prime}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    out = 0.0
    if 0.0 < x:
        out += x * math.log2(q_prime - 1.0) - x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def entropy_h_inv(q_prime, y):
    """Inverse of entropy_h on the rising branch [0, (q'-1)/q'].

    Bisection to absolute tolerance 1e-12 * y, so small values keep
    their relative precision.
    """
    top = math.log2(q_prime)
    if not -1e-12 <= y <= top + 1e-12:
        raise ValueError(f"value must lie in [0, log2(q')] = [0, {top}], got {y}")
    xmax = (q_prime - 1.0) / q_prime
    if y <= 0.0:
        return 0.0
    if y >= top:
        return xmax
    return bisect_root(lambda x: entropy_h(q_prime, x) - y, 0.0, xmax, tol=1e-12 * y)


def _h2_open(x):
    """Binary entropy of an array with every entry in (0, 1)."""
    return -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)


def h2_array(x):
    """Binary entropy entropy_h(2, x) of an array in [0, 1], with 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    out = np.zeros_like(x)
    out[inside] = _h2_open(x[inside])
    return out


def h2_inv_bracket(y, lo=None):
    """Elementwise bisection bracket [lo, hi] of h2's inverse on the rising branch [0, 1/2].

    `lo` gives known lower ends with h2(lo) <= y (default 0); the upper
    ends start at 1/2. A step moves hi only to points with h2 > y and lo
    only to points with h2 <= y, as computed by h2_array, so `lo` is the
    inverse rounded down and `hi` the inverse rounded up. Where y >= 1 no
    point qualifies and hi stays 1/2.

    The bisection halves the gap between the ends' bit patterns, which
    for floats >= 0 are ordered like their values, so after 62 passes
    over the array the ends are adjacent floats at any magnitude.
    """
    y = np.asarray(y, dtype=float)
    lo = (np.zeros_like(y) if lo is None else np.array(lo, dtype=float)).view(np.int64)
    hi = np.full_like(y, 0.5).view(np.int64)
    for _ in range(62):  # 0.5 has a bit pattern below 2^62
        mid = lo + (hi - lo + 1) // 2
        up = _h2_open(mid.view(np.float64)) > y
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=~up)
    return lo.view(np.float64), hi.view(np.float64)


def gv_delta(q_prime, rate):
    """Distance guaranteed at rate `rate` over a q'-ary alphabet.

    Solves rate = log2(q') - h_{q'}(delta) on delta in [0, (q'-1)/q'];
    rate 0 maps to (q'-1)/q'.
    """
    top = math.log2(q_prime)
    if not -1e-12 <= rate <= top + 1e-12:
        raise ValueError(f"rate must lie in [0, log2(q')] = [0, {top}], got {rate}")
    return entropy_h_inv(q_prime, top - max(rate, 0.0))


def capacity(ch):
    """log2 q - h2(eps), in bits per channel use."""
    return math.log2(ch.q) - entropy_h(2.0, ch.epsilon)


def theta_cycle(q):
    """Lovasz number of the q-cycle: q/2 for even q, q cos(pi/q)/(1+cos(pi/q)) for odd."""
    if q < 4:
        raise ValueError(f"cycle must have at least 4 vertices, got {q}")
    if q % 2 == 0:
        return q / 2.0
    c = math.cos(math.pi / q)
    return q * c / (1.0 + c)


class CycleConstants(NamedTuple):
    """Per-channel constants shared by the expurgated machinery.

    phi is 1/(2 cos(pi/q)) for odd q; for even q the analogous ratio
    (q - theta)/(2 theta) equals 1/2 exactly and is stored here so that
    rho_bar = log(alpha)/log(phi) holds for every parity.
    """

    theta: float
    phi: float
    q_prime: float
    rho_bar: float


@lru_cache(maxsize=None)
def cycle_constants(ch):
    theta = theta_cycle(ch.q)
    if ch.q % 2 == 0:
        phi = 0.5
    else:
        phi = 1.0 / (2.0 * math.cos(math.pi / ch.q))
    alpha = bhattacharyya(ch.epsilon)
    rho_bar = math.log(alpha) / math.log(phi)
    return CycleConstants(theta=theta, phi=phi, q_prime=ch.q / theta, rho_bar=rho_bar)


class ZeroErrorCapacity(NamedTuple):
    """Zero-error capacity, exact or bracketed.

    For even q and q = 5 the value is exact (lower == upper). For odd
    q >= 7 only a bracket is returned and callers must pick a side
    explicitly; the problem is open there.
    """

    lower: float
    upper: float
    exact: bool

    @property
    def value(self):
        if not self.exact:
            raise ValueError("zero-error capacity is only bracketed for this channel")
        return self.lower


def zero_error_capacity(ch):
    """Exact log2(q/2) for even q and log2(sqrt(5)) for q = 5; bracket otherwise.

    The odd-q lower end log2((q-1)/2) comes from the independent set
    {0, 2, ..., q-3}; the upper end is log2 of the cycle's Lovasz number.
    """
    q = ch.q
    if q % 2 == 0:
        v = math.log2(q / 2)
        return ZeroErrorCapacity(v, v, True)
    if q == 5:
        v = 0.5 * math.log2(5.0)
        return ZeroErrorCapacity(v, v, True)
    return ZeroErrorCapacity(math.log2((q - 1) / 2), math.log2(theta_cycle(q)), False)
