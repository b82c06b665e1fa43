"""Small numeric workhorses: the array bracket, scalar bisection, golden-section search.

`bracket` is the library's one root finder; `bisect_root` and `golden_min`
are only scalar references for tests and targets the traced benchmark wraps.
"""

import functools
import math

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
    [lo, hi]; y, lo and hi broadcast together, with lo, hi >= 0. A step
    moves hi only to points where f > y and lo only to points where
    f <= y, as f evaluates in floating point. So where f(lo) <= y < f(hi)
    holds at the start, the returned ends hold it too, at adjacent
    floats: lo is the crossing rounded down and hi rounded up. Where
    y < f(lo), hi ends one float above lo; where f(hi) <= y, lo ends at
    hi unless f, as evaluated, rises above y on the way. A falling
    function is inverted by negating f and y.

    The bisection halves the gap between the ends' bit patterns, which
    for floats >= 0 are ordered like their values, so after as many
    passes as hi's largest pattern has bits the ends are adjacent.
    """
    y, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, lo, hi)))
    lo = lo.copy().view(np.int64)  # copies: the ends are written in place
    hi = hi.copy().view(np.int64)
    for _ in range(int(hi.max(initial=0)).bit_length()):
        mid = lo + ((hi - lo + 1) >> 1)
        up = f(mid.view(np.float64)) > y
        # selects by arithmetic: several times faster than a masked copy
        hi -= (hi - mid) * up
        lo += (mid - lo) * ~up
    return lo.view(np.float64), hi.view(np.float64)


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
