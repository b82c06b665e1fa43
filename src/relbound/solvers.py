"""Small numeric workhorses: bisection, golden-section search, simplex projection."""

import math

import numpy as np

BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


def bisect_root(f, lo, hi, tol=BISECT_TOL, max_iter=BISECT_MAX_ITER, bracket=False):
    """Root of a monotone function on [lo, hi] by bisection.

    The bracket must have f(lo) and f(hi) of opposite sign (zero endpoints
    are returned directly).  Stops when the bracket is narrower than `tol`
    or after `max_iter` halvings. Returns the final bracket's midpoint, or
    with `bracket` the bracket (lo, hi) itself, whose ends keep the signs
    of f(lo) and f(hi) (a zero found is returned as (x, x)).
    """
    flo = f(lo)
    if flo == 0.0:
        return (lo, lo) if bracket else lo
    fhi = f(hi)
    if fhi == 0.0:
        return (hi, hi) if bracket else hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return (mid, mid) if bracket else mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return (lo, hi) if bracket else 0.5 * (lo + hi)


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
