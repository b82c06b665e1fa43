"""Entry-by-entry reference implementations for the simplex oracle.

The Gram matrix from the additive semidistance and the double-loop
quadratic form, kept independent of the Kronecker and numpy paths in
relbound.oracle, which must agree with them; and the plain fixed-step
projected gradient, with its simplex projection, that relbound.oracle's
accelerated solver replaced, which must reach the same minima; and the
exact minimum over the simplex by a KKT solve on every face, for the few
points where the fixed-step oracle is too slow to settle.
"""

import math
from itertools import product

import numpy as np
from scalar_oracles import semidistance

from relbound.channel import bhattacharyya
from relbound.oracle import GRAD_MAP_TOL, MAX_ITER


def gram_matrix_direct(ch, rho, n):
    """The n-letter Gram matrix from the additive semidistance, entry by entry."""
    words = list(product(range(ch.q), repeat=n))
    a = bhattacharyya(ch.epsilon)
    m = len(words)
    g = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            d = semidistance(words[i], words[j], ch.q)
            g[i, j] = 0.0 if math.isinf(d) else a ** (d / rho)
    return g


def evaluate_quadratic_slow(g, p):
    """Double-loop quadratic form p^T g p."""
    m = len(p)
    total = 0.0
    for i in range(m):
        row = 0.0
        for j in range(m):
            row += g[i][j] * p[j]
        total += p[i] * row
    return total


def project_simplex_rows_by_support(v):
    """Row-wise Euclidean projection onto the probability simplex."""
    m = v.shape[1]
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1)
    idx = np.arange(1, m + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    lam = (1.0 - css[np.arange(v.shape[0]), rho]) / (rho + 1)
    return np.maximum(v + lam[:, None], 0.0)


def projected_gradient_fixed_step(g, starts, max_iter=MAX_ITER, tol=GRAD_MAP_TOL):
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
        d = project_simplex_rows_by_support(a - step * grad) - a
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


def face_stationary_point(g, support):
    """Stationary point z of p^T g p on the affine hull of one simplex face.

    Solves the bordered KKT system [[g_SS, 1], [1^T, 0]] [z_S; -lam] = [0; 1]
    by LU on the face alone. Returns (z in R^m, lam), or None where the
    system is singular.
    """
    s = np.flatnonzero(support)
    k = len(s)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = g[np.ix_(s, s)]
    kkt[:k, k] = kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    z = np.zeros(len(g))
    z[s] = sol[:k]
    return z, -sol[k]


def simplex_minimum_by_faces(g):
    """Exact minimum of p^T g p over the simplex, by enumerating its faces.

    The minimum lies in the relative interior of some face, where it is a
    stationary point of that face; where that face's KKT system is
    singular, the form is constant along a null direction that leads to a
    smaller face holding the same value. So the minimum is the least value
    at a nonnegative stationary point of a face with a regular KKT system.
    2^m - 1 faces: for small m only.
    """
    m = len(g)
    best = math.inf
    for bits in range(1, 2**m):
        found = face_stationary_point(g, [(bits >> i) & 1 for i in range(m)])
        if found is not None and found[0].min() >= 0.0:
            z = found[0]
            best = min(best, float(z @ g @ z))
    return best
