"""Small numeric workhorses: bisection, golden-section search, simplex projection."""

import math

import numpy as np

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


def bisect_root(f, lo, hi, tol=BISECT_TOL, max_iter=BISECT_MAX_ITER):
    """Root of a monotone function on [lo, hi] by bisection.

    The bracket must have f(lo) and f(hi) of opposite sign (zero endpoints
    are returned directly).  Stops when the bracket is narrower than `tol`
    or after `max_iter` halvings.
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
