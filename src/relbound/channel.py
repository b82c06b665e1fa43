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

from .solvers import bracket, elementwise, require

INF = math.inf
# log2 of the smallest subnormal stands in for log2(0) in x log2 x, which is then 0 * -1074 = 0
_TINY = math.ulp(0.0)


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


@elementwise
def entropy_h(q_prime, x):
    """x log2(q'-1) - x log2 x - (1-x) log2(1-x), with 0 log 0 = 0.

    q' may be non-integral but must exceed 1; x is a scalar or an array
    with every entry in [0, 1].
    """
    if q_prime <= 1.0:
        raise ValueError(f"alphabet parameter must exceed 1, got {q_prime}")
    require((x >= 0.0) & (x <= 1.0), x, "argument must lie in [0, 1]")
    return _entropy(q_prime, x)


def _entropy(q_prime, x):
    """entropy_h's arithmetic on a float array x in [0, 1], unchecked.

    For loops that evaluate h many times at arguments in range by
    construction, such as the passes of a bracket.
    """
    y = 1.0 - x
    h = x * (math.log2(q_prime - 1.0) - np.log2(np.maximum(x, _TINY)))
    return h - y * np.log2(np.maximum(y, _TINY))


@elementwise
def entropy_h_inv(q_prime, y):
    """Inverse of entropy_h on the rising branch [0, (q'-1)/q'], rounded down.

    Returns, for each y in [0, log2 q'], a point x of the branch with
    entropy_h(q', x) <= y whose next float up has entropy_h above y, or
    the branch's end (q'-1)/q' where entropy_h there is <= y: the
    bracket's lower end, because the distances it yields feed lower
    bounds and spectrum_half's box, which are safe on the small side.
    Small values keep their relative precision.
    """
    top = math.log2(q_prime)
    ok = (y >= -1e-12) & (y <= top + 1e-12)
    require(ok, y, f"value must lie in [0, log2(q')] = [0, {top}]")
    xmax = (q_prime - 1.0) / q_prime
    lo = bracket(lambda x: _entropy(q_prime, x), np.maximum(y, 0.0), 0.0, xmax)[0]
    # h is flat at its top, where roundoff can stop the bracket short of xmax
    return np.where(y >= entropy_h(q_prime, xmax), xmax, lo)


@elementwise
def gv_delta(q_prime, rate):
    """Distance guaranteed at rate `rate` over a q'-ary alphabet, rounded down.

    Solves rate = log2(q') - h_{q'}(delta) on delta in [0, (q'-1)/q'];
    rate 0 maps to (q'-1)/q' up to roundoff. Rounded down (entropy_h_inv):
    a smaller distance gives a smaller achievable exponent.
    """
    top = math.log2(q_prime)
    ok = (rate >= -1e-12) & (rate <= top + 1e-12)
    require(ok, rate, f"rate must lie in [0, log2(q')] = [0, {top}]")
    return entropy_h_inv(q_prime, top - np.maximum(rate, 0.0))


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
