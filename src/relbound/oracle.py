"""Brute-force verification of the expurgated exponent at small blocklengths.

Builds the n-letter Gram matrix of pairwise Bhattacharyya weights and
minimizes the induced quadratic form over the probability simplex with a
multi-start projected-gradient method. In the PSD regime the problem is
convex and the uniform distribution is provably optimal, which gives the
closed-form cross-check; past the PSD threshold the search is heuristic
and its value is an upper bound on the true minimum.
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


def _project_simplex_rows(v):
    """Row-wise Euclidean projection onto the probability simplex."""
    m = v.shape[1]
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    idx = np.arange(1, m + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    lam = (1.0 - css[np.arange(v.shape[0]), rho]) / (rho + 1)
    return np.maximum(v + lam[:, None], 0.0)


def _projected_gradient_batch(g, starts, max_iter=MAX_ITER, tol=GRAD_MAP_TOL):
    """Minimize p^T g p over the simplex from every start at once.

    One fixed-step projection defines the search direction per row; the
    step along it is an exact line search on the quadratic. Rows are
    frozen when the gradient mapping meets the tolerance or when no
    representable descent step remains (which is as converged as float64
    gets; the mapping norm plateaus near 1e-8 there). Only rows still
    moving at the iteration cap come back unconverged. Returns
    (points, values, converged_flags).
    """
    step = 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))
    p = np.array(starts, dtype=float)
    b = p.shape[0]
    conv = np.zeros(b, dtype=bool)
    active = np.ones(b, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        a = p[active]
        grad = 2.0 * (a @ g)
        d = _project_simplex_rows(a - step * grad) - a
        gm = np.linalg.norm(d, axis=1) / step
        done = gm <= tol
        curv = np.einsum("bi,bi->b", d @ g, d)
        slope = np.einsum("bi,bi->b", grad, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = np.where(curv > 0.0, np.clip(-0.5 * slope / curv, 0.0, 1.0), 1.0)
        nxt = a + gamma[:, None] * d
        stalled = np.all(nxt == a, axis=1)
        p[active] = nxt
        idx = np.flatnonzero(active)
        conv[idx[done | stalled]] = True
        active[idx[done | stalled]] = False
    values = np.einsum("bi,bi->b", p @ g, p)
    return p, values, conv


PENTAGON_CODE = ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))


def _structured_seeds(ch, n):
    """Symmetric starting points: uniform, even-symbol product, pentagon product."""
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
    return seeds


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
    m = g.shape[0]
    convex = rho <= cycle_constants(ch).rho_bar
    rng = np.random.default_rng(seed)
    starts = _structured_seeds(ch, n)
    n_random = max(restarts - len(starts), 0)
    if n_random:
        starts.extend(rng.dirichlet(np.ones(m), size=n_random))
    pts, values, conv = _projected_gradient_batch(g, starts, max_iter=max_iter)
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
    )


def uniform_value(ch, rho, n):
    """Quadratic form at the uniform distribution: ((1 + 2 a)/q)^n with a = alpha^(1/rho)."""
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    return ((1.0 + 2.0 * a) / ch.q) ** n


def expurgated_oracle_ex(ch, rho, n, restarts=200, seed=0):
    """-(rho/n) log2 of the best simplex minimum found."""
    return minimize_q(ch, rho, n, restarts=restarts, seed=seed).ex_n
