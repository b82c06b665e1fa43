"""Small numeric workhorses: the array bracket, scalar bisection, golden-section search.

`bracket` is the library's one root finder. It bisects float bit
patterns, one pass (one call of f) per bit of the widest gap between
its ends, runs a single point on Python ints with the same bits as an
array entry, and refuses negative, nan or inverted ends. `bisect_root`
and `golden_min` are only scalar references for tests and targets the
traced benchmark wraps.
"""

import functools
import math
import struct

import numpy as np

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


def bisect_root(f, lo, hi, tol=BISECT_TOL, max_iter=BISECT_MAX_ITER):
    """Root of a monotone scalar function on [lo, hi] by bisection.

    The bracket must have f(lo) and f(hi) of opposite sign (zero endpoints
    are returned directly).  Stops when the bracket is narrower than `tol`
    or after `max_iter` halvings, and returns the final bracket's midpoint.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def bracket(f, y, lo, hi):
    """Elementwise bisection bracket of a rising function's crossing of y.

    f maps a float array to an array of the same shape and rises on
    [lo, hi]; y, lo and hi broadcast together, with 0 <= lo <= hi
    (-0.0 counts as 0.0; a negative, nan or inverted end is refused
    with ValueError). A step moves hi only to points where f > y and
    lo only to points where f <= y, as f evaluates in floating point.
    So where f(lo) <= y < f(hi) holds at the start, the returned ends
    hold it too, at adjacent floats: lo is the crossing rounded down
    and hi rounded up. Where y < f(lo), hi ends one float above lo;
    where f(hi) <= y, lo ends at hi unless f, as evaluated, rises above
    y on the way. A falling function is inverted by negating f and y.

    The bisection halves the gap between the ends' bit patterns, which
    for floats >= 0 are ordered like their values. It makes as many
    passes as the widest gap has bits, one call of f each; after them
    every element's ends are adjacent or equal. A single point (y, lo
    and hi broadcast to size 1) runs the same passes on Python ints and
    hands f the same float arrays, so it gives the same bits as an
    entry of a larger array, without numpy's per-call cost on the ends.
    """
    y, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, lo, hi)))
    require(lo >= 0.0, lo, "bracket needs lo >= 0")
    require(hi >= lo, hi, "bracket needs hi >= lo")
    lo = lo + 0.0  # -0.0 + 0.0 is +0.0, whose bit pattern is 0, not 2^63
    hi = hi + 0.0
    if lo.size == 1:
        return _bracket_point(f, y.item(), lo.item(), hi.item(), lo.shape)
    # patterns of floats >= +0 are below 2^63, so lo + hi + 1 fits in a uint64
    lo = lo.view(np.uint64)
    hi = hi.view(np.uint64)
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = lo + hi
        mid += 1
        mid >>= 1  # lo + ceil((hi - lo) / 2)
        up = f(mid.view(np.float64)) > y
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
    return lo.view(np.float64), hi.view(np.float64)


_FLOAT = struct.Struct("<d")
_BITS = struct.Struct("<q")


def _bracket_point(f, y, lo, hi, shape):
    """bracket's passes for one point: ends as Python ints, f on float arrays of `shape`."""

    def point(bits):
        return np.array(_FLOAT.unpack(_BITS.pack(bits))[0]).reshape(shape)

    lo, hi = (_BITS.unpack(_FLOAT.pack(v))[0] for v in (lo, hi))
    for _ in range((hi - lo).bit_length()):
        mid = (lo + hi + 1) >> 1
        if f(point(mid)) > y:
            hi = mid
        else:
            lo = mid
    return point(lo), point(hi)


def elementwise(fn):
    """Let fn(p, x), written for a 1-D float array x, take a scalar or an array of any shape.

    A scalar runs through the same array code as one entry of an array,
    so both give the same bits. The result (or each field of a tuple
    result) is a float for a scalar x and an array of x's shape otherwise.
    Further arguments are passed to fn as they are.
    """

    @functools.wraps(fn)
    def wrapper(p, x, *rest):
        x = np.asarray(x, dtype=float)
        out = fn(p, x.reshape(-1), *rest)

        def shaped(v):
            return float(v[0]) if x.ndim == 0 else v.reshape(x.shape)

        return type(out)(*map(shaped, out)) if isinstance(out, tuple) else shaped(out)

    return wrapper


def require(ok, values, message):
    """Raise ValueError(message) naming the first entry of `values` where `ok` is False."""
    if not np.all(ok):
        raise ValueError(f"{message}, got {values[~ok][0]}")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi, tol=1e-10, scan=129):
    """Minimize a scalar function on [lo, hi].

    A coarse scan locates the best cell first, so the golden-section
    refinement only needs local unimodality. Returns (x, f(x)).
    """
    if hi <= lo:
        return float(lo), float(f(lo))
    xs = np.linspace(lo, hi, scan)
    vals = [f(x) for x in xs]
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, scan - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = float(0.5 * (a + b))
    return x, float(f(x))
