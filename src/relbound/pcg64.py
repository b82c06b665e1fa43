"""Random access into numpy's PCG64 stream: the doubles `Generator.random` draws, at any positions.

numpy's PCG64 (default_rng's bit generator) steps its 128-bit state
s -> a s + inc mod 2^128 before each 64-bit output, and outputs the
XSL-RR of the new state; `random` makes a double of its top 53 bits.
So the state k steps on is an affine map of the state now,
a^k s + g_k inc with g_k = 1 + a + ... + a^(k-1) (O'Neill 2014; Brown
1994, "Random number generation with arbitrary strides"), and any
uniform of the stream can be computed without drawing the ones before
it. The maps at k = d 256^L are tabulated; the 128-bit arithmetic runs
on uint64 arrays, with 32-bit limbs where a product needs its high half.
"""

import functools

import numpy as np

MULT = 0x2360ED051FC65DA44385DF649FCCF645  # a, PCG64's multiplier
_DIGIT = 8  # bits of a stream offset per table step
_LEVELS = 4  # table steps of every size: offsets below 2^32
_PAIR_BLOCK = 1 << 12  # pairs whose uniforms are computed at once, in cache
_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1
_U32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mul_add(a, x, c):
    """a x + c mod 2^128, on uint64 arrays: a as (a0, a1, lo, hi), x and c as (lo, hi).

    a0 and a1 are the 32-bit limbs of a's low half. The high half of
    a_lo x_lo is formed from the limb products, each of which fits
    uint64; every other term is needed only mod 2^64, where uint64
    products and sums wrap.
    """
    a0, a1, alo, ahi = a
    xlo, xhi = x
    x0, x1 = xlo & _U32, xlo >> _32
    mid = a1 * x0 + (a0 * x0 >> _32)
    low = a0 * x1 + (mid & _U32)
    hi = a1 * x1 + (mid >> _32) + (low >> _32) + alo * xhi + ahi * xlo + c[1]
    lo = alo * xlo + c[0]
    hi += lo < c[0]  # the carry
    return lo, hi


def _split(v):
    """(a0, a1, lo, hi) of a 128-bit integer, as _mul_add takes its first factor."""
    return tuple(map(np.uint64, (v & 0xFFFFFFFF, v >> 32 & 0xFFFFFFFF, v & _M64, v >> 64 & _M64)))


@functools.cache
def _powers():
    """a^k's (a0, a1, lo, hi) and g_k's (lo, hi) at k = d 256^L.

    Each is a read-only (_LEVELS, 256) uint64 array indexed [L, d].
    Built on first use, from Python integers.
    """
    step, powers, sums = (MULT, 1), [], []
    for _ in range(_LEVELS):
        a, g = 1, 0
        for _ in range(1 << _DIGIT):
            powers.append(a)
            sums.append(g)
            a, g = a * step[0] & _M128, (g * step[0] + step[1]) & _M128
        step = (a, g)  # 256 steps of this level: one step of the next
    lo, hi = (np.array([v >> k & _M64 for v in powers + sums], dtype=np.uint64)
              .reshape(2, _LEVELS, -1) for k in (0, 64))
    tables = lo[0] & _U32, lo[0] >> _32, lo[0], hi[0], lo[1], hi[1]
    for t in tables:
        t.flags.writeable = False
    return tables


def step_tables(inc):
    """The table steps of a stream of increment inc: a (_LEVELS, 6, 256) uint64 array.

    Entry [L, :, d] holds the step by k = d 256^L states, s -> a^k s +
    g_k inc, as the (a0, a1, lo, hi) of a^k and the (lo, hi) of g_k inc.
    """
    *a, glo, ghi = _powers()
    zero = np.uint64(0)
    return np.stack([*a, *_mul_add(_split(inc), (glo, ghi), (zero, zero))], axis=1)


def _advance(steps, x, offsets, levels):
    """The states `offsets` steps on from x = (lo, hi), by one table step per base-256 digit."""
    for level in range(levels):
        step = steps[level].take(offsets >> _DIGIT * level & 0xFF, axis=1, mode="clip")
        x = _mul_add(step[:4], x, step[4:])
    return x


def _digits(offset):
    """Base-256 digits of a nonnegative offset: the table steps that reach it."""
    return -(-offset.bit_length() // _DIGIT)


def uniforms_at(steps, state, m, rows, cols):
    """The doubles `random` would draw at positions rows * m + cols of the stream from `state`.

    state is the 128-bit PCG64 state (`bit_generator.state["state"]
    ["state"]`) where the stream starts, steps the step_tables of its
    increment; rows is grouped (runs of equal rows), cols lies in
    0..m-1, and each row offset r m and m are below 2^32. Position p reads the
    state p + 1 steps on. The states at each value of the top base-256
    digit of the row offsets r m are tabulated first; each run of a row
    goes on from there to its row's state by one table step per lower
    digit, and each pair from its row's state by one step per digit of
    its col. None of the uniforms between is computed.
    """
    levels = max(1, _digits(int(rows.max()) * m))
    if max(levels, _digits(m - 1)) > _LEVELS:
        raise ValueError(f"a row offset or a col reaches past 2^{_DIGIT * _LEVELS}")
    one = steps[0][:, 1:2]  # shape (6, 1): arrays, which wrap without a warning
    x = _mul_add(one[:4], (np.uint64(state & _M64), np.uint64(state >> 64)), one[4:])
    top = steps[levels - 1]
    top_lo, top_hi = _mul_add(top[:4], x, top[4:])
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _PAIR_BLOCK):
        r, c = rows[lo:lo + _PAIR_BLOCK], cols[lo:lo + _PAIR_BLOCK]
        first = np.flatnonzero(np.diff(r, prepend=-1))
        offsets = r[first] * m
        d = offsets >> _DIGIT * (levels - 1)
        x = _advance(steps, (top_lo.take(d), top_hi.take(d)), offsets, levels - 1)
        size = np.diff(first, append=r.size)
        x = _advance(steps, (np.repeat(x[0], size), np.repeat(x[1], size)), c, _digits(m - 1))
        v = x[0] ^ x[1]  # XSL-RR: the halves' xor, rotated right by the top 6 bits
        rot = x[1] >> np.uint64(58)
        v = v >> rot | v << ((np.uint64(64) - rot) & np.uint64(63))
        out[lo:lo + r.size] = (v >> np.uint64(11)) * 2.0**-53
    return out
