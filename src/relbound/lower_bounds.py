"""Achievability bounds from coset ensembles over zero-error codes.

The even-q bound is a rate-shifted copy of the BSC expurgated exponent;
the q = 5 bound rides on the two-letter zero-error code and the weight
spectrum of random linear codes over Z_5. The A_z = 2^z B_z relation
behind the even-q ensemble is checked on whole stacks of binary codes.
"""

import math
from typing import NamedTuple

import numpy as np

from . import codes as cod
from .channel import Channel, bhattacharyya, capacity, entropy_h, gv_delta
from .classical import bsc_expurgated_exponent, expurgated_junction_rate
from .solvers import elementwise, require


def junction_rate_even(epsilon, q):
    """Rate where the even-q coset bound departs from its slope -1 line."""
    if q % 2 != 0 or q < 4:
        raise ValueError(f"need an even alphabet size >= 4, got {q}")
    return math.log2(q / 2) + expurgated_junction_rate(epsilon, 2)


@elementwise
def lower_bound_even(ch, r):
    """Coset-ensemble achievability bound for even q.

    Exactly the BSC expurgated exponent shifted right by log2(q/2).
    Valid for log2(q/2) < r <= capacity, r a scalar or an array; exactly
    0 at capacity.
    """
    if ch.q % 2 != 0:
        raise ValueError(f"this bound needs an even alphabet size, got {ch.q}")
    shift = math.log2(ch.q / 2)
    c = capacity(ch)
    require((r > shift) & (r <= c + 1e-12), r, f"rate must lie in (log2(q/2), C] = ({shift}, {c}]")
    return np.where(r >= c, 0.0, bsc_expurgated_exponent(ch.epsilon, r - shift))


def junction_rate_q5(epsilon):
    """Rate where the q=5 coset bound meets its slope -1 line.

    log2(5) - h5(1 - 1/(1+2 alpha)^2) / 2, always above log2(sqrt 5).
    """
    alpha = bhattacharyya(epsilon)
    x = 1.0 - 1.0 / (1.0 + 2.0 * alpha) ** 2
    return math.log2(5.0) - 0.5 * entropy_h(5.0, x)


@elementwise
def lower_bound_q5(epsilon, r):
    """Coset-ensemble achievability bound for the five-letter channel.

    Below the junction the exponent is driven by the distance guarantee
    of random linear codes over Z_5; above it the slope -1 line of the
    expurgated bound takes over. Clamped at zero past the line's zero
    crossing, where an exponent bound says nothing, and exactly 0 at
    capacity. r is a scalar or an array.
    """
    log5 = math.log2(5.0)
    lo = 0.5 * log5
    c = capacity(Channel(5, epsilon))
    ok = (r >= lo - 1e-12) & (r <= c + 1e-12)
    require(ok, r, f"rate must lie in [log2 sqrt5, C] = [{lo}, {c}]")
    r_in = np.maximum(r, lo)
    alpha = bhattacharyya(epsilon)
    line = np.maximum(math.log2(5.0 / (1.0 + 2.0 * alpha)) - r_in, 0.0)
    # gv_delta rounds down, and this branch grows with the distance
    branch = -0.5 * gv_delta(5.0, 2.0 * r_in - log5) * math.log2(alpha * (1.0 + alpha))
    out = np.where(r_in >= junction_rate_q5(epsilon), line, branch)
    return np.where(r >= c, 0.0, out)


class CosetSpectrumCheck(NamedTuple):
    """Outcome of the A_z = 2^z B_z verification for one coset code."""

    ok: bool
    table: dict  # finite z -> (a_z, b_z) integer counts


class CosetSpectra(NamedTuple):
    """Weight counts of a stack of binary codes (b) and of their coset lifts (a).

    Row s, index z holds the number of words of weight z in code s, for
    z = 1..n; index 0 holds 0.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def ok(self):
        """Per code, whether A_z = 2^z B_z at every z."""
        return (self.a == self.b << np.arange(self.b.shape[1])).all(axis=1)

    def check(self, s):
        """The CosetSpectrumCheck of code s."""
        table = {
            z: (int(az), int(bz)) for z, (az, bz) in enumerate(zip(self.a[s], self.b[s])) if az or bz
        }
        return CosetSpectrumCheck(bool(self.ok[s]), table)


def _require_distinct(idx, what, first=0):
    """Refuse word indices, one row (L,) or a stack (S, L), in which a row repeats a word.

    Rows of a stack are named from `first` on.
    """
    ordered = np.sort(idx, axis=-1)
    repeat = ordered[..., 1:] == ordered[..., :-1]
    if repeat.any():
        *s, j = np.argwhere(repeat)[0]
        name = f"{what} {first + s[0]}" if s else what
        raise ValueError(f"{name} has a duplicate word (index {int(ordered[(*s, j)])})")


def _check_chunk(c2, q, first=0):
    """(A, B) weight counts of a stack of binary codes that passes every check.

    The chunk's codes are numbered from `first` on in refusals.
    """
    s, m, n = c2.shape
    idx = cod.word_indices(c2, 2)
    _require_distinct(idx, "binary code", first)
    # for binary words, index(a + b) = index(a) XOR index(b)
    member = np.zeros((s, 1 << n), dtype=bool)
    member[np.arange(s)[:, None], idx] = True
    if not member[np.arange(s)[:, None, None], idx[:, :, None] ^ idx[:, None, :]].all():
        raise ValueError("the binary code is not linear (closure fails)")
    # lift each word of the chunk's union once: a code's lift is the union
    # of its words' lifts, so its A sums their weight counts (in float64,
    # exact: every count is at most CODE_CAP)
    words = np.flatnonzero(member.any(axis=0))
    bits = (words[:, None] >> np.arange(n - 1, -1, -1)).astype(np.uint8) & 1
    lifted = cod.coset_lift(bits[:, None, :], q)
    # each code's words are distinct, so its lift is a subset of this union
    _require_distinct(cod.word_indices(lifted, q).ravel(), "the coset lift")
    a = (member[:, words] @ cod.weight_counts(lifted, q)[:, :-1].astype(float)).astype(np.int64)
    b = cod.weight_counts(c2, 2)[:, :-1]
    a[:, 0] = b[:, 0] = 0  # CosetSpectra counts weights 1..n only
    return a, b


def coset_spectra(stack, q):
    """A_z = 2^z B_z data for a stack of linear binary codes and their coset lifts.

    stack is an (S, M, n) integer array of S binary codes. The whole
    stack is refused (ValueError) unless every code has 0/1 symbols and
    distinct words, is closed under addition and has a lift within
    codes.CODE_CAP. A_z is taken from the weights of the lift (valid
    because a linear c2 makes the lift linear over Z_q); B_z is the Hamming
    weight count of c2. Codes are checked in chunks whose temporaries fit
    codes.BLOCK_BYTES. A chunk lifts each distinct binary word of its codes
    once, and a code's A_z sums the weight counts of its words' lifts.
    The words of that shared lift are checked distinct: each code's words
    are distinct, so its lift is a subset of the shared one, and distinct too.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or 0 in stack.shape:
        raise ValueError("need a non-empty (S, M, n) stack of binary codes")
    if stack.dtype.kind not in "iub" or ((stack != 0) & (stack != 1)).any():
        raise ValueError("the shift code must be binary")
    count, m, n = stack.shape
    size = cod.coset_size(q, n, m)
    # per code: its word indices and their sort, membership rows and the
    # M x M closure table; per lifted word: the lift, the int64 cast and
    # output of its word indices, their sort and the even-symbol table
    # behind it. A chunk of S codes lifts at most min(S M, 2^n) binary
    # words, so its lift is bounded both by S times the code's lift and by
    # the lift of all of F_2^n.
    code_bytes = 9 * m * m + 2 * (1 << n) + m * (9 * n + 24)
    word_bytes = 16 * n + 16
    step = cod.BLOCK_BYTES // (code_bytes + size * word_bytes)
    full = (q // 2) ** n << n
    if full * word_bytes < cod.BLOCK_BYTES:
        step = max(step, (cod.BLOCK_BYTES - full * word_bytes) // code_bytes)
    step = max(1, step)
    a = np.empty((count, n + 1), dtype=np.int64)
    b = np.empty_like(a)
    for lo in range(0, count, step):
        a[lo : lo + step], b[lo : lo + step] = _check_chunk(stack[lo : lo + step].astype(np.uint8), q, lo)
    return CosetSpectra(a, b)


def coset_spectrum_check(c2, q):
    """Verify A_z = 2^z B_z between a linear binary code and its coset lift.

    The one-code case of coset_spectra; refuses a non-binary c2, an
    over-cap lift and a c2 that is not closed under addition.
    """
    if c2.q != 2:
        raise ValueError("the shift code must be binary")
    return coset_spectra(c2.array[None], q).check(0)
