"""Brute-force verification of the expurgated exponent at small blocklengths.

Builds the n-letter Gram matrix of pairwise Bhattacharyya weights and
minimizes the induced quadratic form over the probability simplex with a
multi-start accelerated projected gradient (FISTA momentum with adaptive
restart), all starts in one batch. A start stops, as converged, where
the gradient mapping at the point it returns is at most GRAD_MAP_TOL or
where no representable projected step is left; MAX_ITER caps the run.
In the PSD regime the problem is convex and the uniform distribution is
provably optimal, which gives the closed-form cross-check; past the PSD
threshold the search is heuristic and its value is an upper bound on
the true minimum.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import bhattacharyya, cycle_constants

SIZE_CAP = 3125
GRAD_MAP_TOL = 1e-10
MAX_ITER = 100_000


def gram_base(ch, rho):
    """One-letter matrix with entries alpha^(d(x1,x2)/rho)."""
    if rho <= 0:
        raise ValueError(f"tilt parameter must be positive, got {rho}")
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    q = ch.q
    g = np.zeros((q, q))
    np.fill_diagonal(g, 1.0)
    for x in range(q):
        g[x, (x + 1) % q] = a
        g[x, (x - 1) % q] = a
    return g


def gram_matrix(ch, rho, n, size_cap=SIZE_CAP):
    """n-letter Gram matrix as the n-fold Kronecker power of the base."""
    m = ch.q**n
    if m > size_cap:
        raise ValueError(f"q^n = {m} exceeds the size cap {size_cap}")
    g = gram_base(ch, rho)
    out = g
    for _ in range(n - 1):
        out = np.kron(out, g)
    return out


def eigenvalues_g1(ch, rho):
    """Closed-form spectrum 1 + 2 alpha^(1/rho) cos(2 pi k / q), k = 0..q-1."""
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    k = np.arange(ch.q)
    return 1.0 + 2.0 * a * np.cos(2.0 * np.pi * k / ch.q)


@dataclass
class OracleResult:
    """Outcome of one quadratic-form minimization over the simplex."""

    rho: float
    n: int
    min_q: float
    distribution: np.ndarray
    ex_n: float
    restarts: int
    converged: bool
    convex: bool
    iterations: int


def _project_simplex_rows(v):
    """Row-wise Euclidean projection onto the probability simplex.

    The shift is min_k (1 - s_k) / k over the prefix sums s_k of each
    row sorted in decreasing order (Held-Wolfe-Crowder 1974; Condat 2016).
    """
    u = np.sort(v, axis=1)[:, ::-1]
    lam = np.min((1.0 - np.cumsum(u, axis=1)) / np.arange(1, v.shape[1] + 1), axis=1)
    return np.maximum(v + lam[:, None], 0.0)


def _projected_gradient_batch(g, starts, max_iter=MAX_ITER, tol=GRAD_MAP_TOL):
    """Minimize p^T g p over the simplex from every start at once.

    Accelerated projected gradient (FISTA, Beck-Teboulle 2009) with the
    step 1/L, L = 2 max row sum of g >= 2 max |eigenvalue|, and the
    adaptive gradient restart of O'Donoghue-Candes (2015): a row's
    momentum is reset when (y - x+).(x+ - x) > 0, and also when x+ has
    another support than x. Momentum so builds up only within one face
    of the simplex; past the PSD threshold, where the form has many
    local minima, that keeps it from carrying a row out of the basin
    plain projected gradient would settle in.

    Every iteration first takes the gradient mapping at each row's
    current point x; a row is frozen at x when that mapping meets the
    tolerance or when the plain projected step from x is not
    representable (which is as converged as float64 gets). Only rows
    still moving at the iteration cap come back unconverged. Frozen rows
    leave the working arrays, and y.g is carried by linearity from x.g,
    so an iteration costs one matrix product and one projection call on
    the steps from x and from y stacked. Returns (points, values,
    converged_flags, iterations).
    """
    step = 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))
    x = np.array(starts, dtype=float)
    points = x.copy()
    conv = np.zeros(x.shape[0], dtype=bool)
    rows = np.arange(x.shape[0])
    xg = x @ g
    y, yg = x, xg
    t = np.ones(x.shape[0])
    iterations = 0
    while iterations < max_iter and rows.size:
        iterations += 1
        proj = _project_simplex_rows(np.concatenate((x - 2.0 * step * xg, y - 2.0 * step * yg)))
        d = proj[: len(x)] - x
        nxt = proj[len(x):]
        done = (np.linalg.norm(d, axis=1) / step <= tol) | np.all(x + d == x, axis=1)
        if done.any():
            points[rows[done]] = x[done]
            conv[rows[done]] = True
            keep = ~done
            rows, x, xg, y, nxt, t = (a[keep] for a in (rows, x, xg, y, nxt, t))
            if not rows.size:
                break
        nxt_g = nxt @ g
        move = nxt - x
        restart = np.einsum("bi,bi->b", y - nxt, move) > 0.0
        restart |= np.any((nxt > 0.0) != (x > 0.0), axis=1)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = np.where(restart, 0.0, (t - 1.0) / t_next)[:, None]
        t = np.where(restart, 1.0, t_next)
        y = nxt + beta * move
        yg = nxt_g + beta * (nxt_g - xg)
        x, xg = nxt, nxt_g
    points[rows] = x
    values = np.einsum("bi,bi->b", points @ g, points)
    return points, values, conv, iterations


PENTAGON_CODE = ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))


def _start_points(ch, n, restarts, seed):
    """Starting rows: the symmetric seeds, then random ones up to `restarts` rows.

    The symmetric seeds are the uniform, even-symbol product and pentagon
    product distributions; the random rows are Dirichlet draws from `seed`.
    """
    q = ch.q
    m = q**n
    seeds = [np.full(m, 1.0 / m)]
    if q % 2 == 0:
        evens = range(0, q, 2)
        idx = [sum(s * q**k for k, s in enumerate(reversed(w)))
               for w in product(evens, repeat=n)]
        p = np.zeros(m)
        p[idx] = 1.0 / len(idx)
        seeds.append(p)
    if q == 5 and n % 2 == 0:
        words = [sum(c, ()) for c in product(PENTAGON_CODE, repeat=n // 2)]
        idx = [sum(s * q**k for k, s in enumerate(reversed(w))) for w in words]
        p = np.zeros(m)
        p[idx] = 1.0 / len(idx)
        seeds.append(p)
    n_random = max(restarts - len(seeds), 0)
    if n_random:
        seeds.extend(np.random.default_rng(seed).dirichlet(np.ones(m), size=n_random))
    return np.array(seeds)


def minimize_q(ch, rho, n, restarts=200, seed=0, size_cap=SIZE_CAP, max_iter=MAX_ITER):
    """Best local minimum of the n-letter quadratic form over the simplex.

    In the convex regime (rho <= rho_bar) every start converges to the
    global optimum; beyond it the structured seeds plus `restarts`
    random simplex draws are searched and the smallest value wins. The
    restarts run as one vectorized batch. Deterministic for a fixed
    seed. Non-convergence of the winning run is reported through the
    `converged` flag, never silently.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    g = gram_matrix(ch, rho, n, size_cap=size_cap)
    convex = rho <= cycle_constants(ch).rho_bar
    starts = _start_points(ch, n, restarts, seed)
    pts, values, conv, iterations = _projected_gradient_batch(g, starts, max_iter=max_iter)
    best = int(np.argmin(values))
    value = float(values[best])
    ex = -(rho / n) * math.log2(value)
    return OracleResult(
        rho=rho,
        n=n,
        min_q=value,
        distribution=pts[best],
        ex_n=ex,
        restarts=len(starts),
        converged=bool(conv[best]),
        convex=convex,
        iterations=iterations,
    )


def uniform_value(ch, rho, n):
    """Quadratic form at the uniform distribution: ((1 + 2 a)/q)^n with a = alpha^(1/rho)."""
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    return ((1.0 + 2.0 * a) / ch.q) ** n


def expurgated_oracle_ex(ch, rho, n, restarts=200, seed=0):
    """-(rho/n) log2 of the best simplex minimum found."""
    return minimize_q(ch, rho, n, restarts=restarts, seed=seed).ex_n
