"""Achievability bounds from coset ensembles over zero-error codes.

The even-q bound is a rate-shifted copy of the BSC expurgated exponent;
the q = 5 bound rides on the two-letter zero-error code and the weight
spectrum of random linear codes over Z_5.
"""

import math
from typing import NamedTuple

import numpy as np

from .channel import bhattacharyya, capacity, entropy_h, gv_delta
from .classical import bsc_expurgated_exponent, expurgated_junction_rate
from .codes import build_coset_code, code_weights, word_indices


def junction_rate_even(epsilon, q):
    """Rate where the even-q coset bound departs from its slope -1 line."""
    if q % 2 != 0 or q < 4:
        raise ValueError(f"need an even alphabet size >= 4, got {q}")
    return math.log2(q / 2) + expurgated_junction_rate(epsilon, 2)


def lower_bound_even(ch, r):
    """Coset-ensemble achievability bound for even q.

    Exactly the BSC expurgated exponent shifted right by log2(q/2).
    Valid for log2(q/2) < r <= capacity; exactly 0 at capacity.
    """
    if ch.q % 2 != 0:
        raise ValueError(f"this bound needs an even alphabet size, got {ch.q}")
    shift = math.log2(ch.q / 2)
    c = capacity(ch)
    if not shift < r <= c + 1e-12:
        raise ValueError(f"rate must lie in (log2(q/2), C] = ({shift}, {c}], got {r}")
    if r >= c:
        return 0.0
    return bsc_expurgated_exponent(ch.epsilon, r - shift)


def junction_rate_q5(epsilon):
    """Rate where the q=5 coset bound meets its slope -1 line.

    log2(5) - h5(1 - 1/(1+2 alpha)^2) / 2, always above log2(sqrt 5).
    """
    alpha = bhattacharyya(epsilon)
    x = 1.0 - 1.0 / (1.0 + 2.0 * alpha) ** 2
    return math.log2(5.0) - 0.5 * entropy_h(5.0, x)


def lower_bound_q5(epsilon, r):
    """Coset-ensemble achievability bound for the five-letter channel.

    Below the junction the exponent is driven by the distance guarantee
    of random linear codes over Z_5; above it the slope -1 line of the
    expurgated bound takes over. Clamped at zero past the line's zero
    crossing, where an exponent bound says nothing, and exactly 0 at
    capacity.
    """
    log5 = math.log2(5.0)
    lo = 0.5 * log5
    c = log5 - entropy_h(2.0, epsilon)
    if not lo - 1e-12 <= r <= c + 1e-12:
        raise ValueError(f"rate must lie in [log2 sqrt5, C] = [{lo}, {c}], got {r}")
    if r >= c:
        return 0.0
    r = max(r, lo)
    alpha = bhattacharyya(epsilon)
    if r >= junction_rate_q5(epsilon):
        return max(math.log2(5.0 / (1.0 + 2.0 * alpha)) - r, 0.0)
    delta = gv_delta(5.0, 2.0 * r - log5)
    return -0.5 * delta * math.log2(alpha * (1.0 + alpha))


class CosetSpectrumCheck(NamedTuple):
    """Outcome of the A_z = 2^z B_z verification for one coset code."""

    ok: bool
    table: dict  # finite z -> (a_z, b_z) integer counts


def _weight_counts(code):
    """Number of words of each finite weight z = 1..n at index z (index 0 holds 0)."""
    w = code_weights(code)
    counts = np.bincount(w[np.isfinite(w)].astype(np.int64), minlength=code.n + 1)
    counts[0] = 0
    return counts


def coset_spectrum_check(c2, q):
    """Verify A_z = 2^z B_z between a linear binary code and its coset lift.

    A_z is taken from the weights of the lifted code (valid because a
    linear c2 makes the lift linear over Z_q); B_z is the Hamming weight
    count of c2. Linearity of c2 is checked by closure.
    """
    # build first: it refuses a non-binary c2 and caps the lift at
    # (q/2)^n |c2| >= |c2|^2 words, which bounds the closure table below
    lifted = build_coset_code(c2, q)
    idx = word_indices(c2.array, 2)
    # for binary words, index(a + b) = index(a) XOR index(b)
    if not np.isin(idx[:, None] ^ idx[None, :], idx).all():
        raise ValueError("the binary code is not linear (closure fails)")
    table = {
        z: (int(az), int(bz))
        for z, (az, bz) in enumerate(zip(_weight_counts(lifted), _weight_counts(c2)))
        if az or bz
    }
    ok = all(az == (2**z) * bz for z, (az, bz) in table.items())
    return CosetSpectrumCheck(ok, table)
