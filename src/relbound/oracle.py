"""Brute-force verification of the expurgated exponent at small blocklengths.

Builds the n-letter Gram matrix of pairwise Bhattacharyya weights and
minimizes the induced quadratic form over the probability simplex with a
multi-start accelerated projected gradient (FISTA momentum with adaptive
restart), all starts in one batch. A start stops, as converged, where
the gradient mapping at the point it returns is at most GRAD_MAP_TOL or
where no representable projected step is left; MAX_ITER caps the run.
A start whose support has settled finishes with one face-restricted
Newton step (projected Newton, Bertsekas 1982): the exact minimizer of
the form on its face, taken only where it is a nonnegative, not worse,
certified local minimum.
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
# restarts x q^n: the solver keeps ~10 float64 arrays of this many entries (~80 MB at the
# cap) besides the Gram matrix (78 MB at SIZE_CAP) and a face-step stack (a few
# FACE_BYTES); the default 200 restarts fit at SIZE_CAP
BATCH_CAP = 1 << 20
GRAD_MAP_TOL = 1e-10
MAX_ITER = 100_000
FACE_PERIOD = 8  # a face step is tried every FACE_PERIOD iterations, on supports that old
# reduced Hessians stacked in one face-step solve; a face whose own reduced Hessian would
# not fit (more than 1024 points) takes no face step, which bounds its memory and its
# O(|S|^3) eigensolve
FACE_BYTES = 1 << 23


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


def word_count(q, n, size_cap=SIZE_CAP):
    """q^n, the number of n-letter words; ValueError when n < 1 or q^n > size_cap.

    Decided without forming a power above the cap, so a huge n is refused
    at once: q >= 2 gives q^n >= 2^n > size_cap once n reaches its bit length.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if n >= size_cap.bit_length() or q**n > size_cap:
        raise ValueError(f"q^n = {q}^{n} exceeds the size cap {size_cap}")
    return q**n


def gram_matrix(ch, rho, n, size_cap=SIZE_CAP):
    """n-letter Gram matrix as the n-fold Kronecker power of the base."""
    word_count(ch.q, n, size_cap)
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
    face_steps: int


def _project_simplex_rows(v):
    """Row-wise Euclidean projection onto the probability simplex.

    The shift is min_k (1 - s_k) / k over the prefix sums s_k of each
    row sorted in decreasing order (Held-Wolfe-Crowder 1974; Condat 2016).
    """
    u = np.sort(v, axis=1)[:, ::-1]
    lam = np.min((1.0 - np.cumsum(u, axis=1)) / np.arange(1, v.shape[1] + 1), axis=1)
    return np.maximum(v + lam[:, None], 0.0)


def _stationary(x, d, step, tol):
    """Stopping test on the projected step d from each row x.

    True where the gradient mapping |d| / step is at most tol, or where
    x + d rounds back to x (no representable step is left, which is as
    converged as float64 gets).
    """
    return (np.linalg.norm(d, axis=1) / step <= tol) | np.all(x + d == x, axis=1)


def _face_minimizers(g, supports, step, tol=GRAD_MAP_TOL):
    """Minimizer z of p^T g p on each simplex face in a stack of equal-size supports.

    Solves the KKT system g_SS z = lambda 1, 1^T z = 1 in null-space form:
    with r the last index of S and the tangent basis e_i - e_r (i in S
    other than r), z = e_r + sum_i u_i (e_i - e_r), where H u = g_rr - g_ir
    and H = Z^T g_SS Z is the reduced Hessian, H_ij = g_ij - g_ir - g_rj + g_rr.
    Eigenvalues of H within rounding of 0 (|w| <= |S| eps max|w|) count
    as 0, and u is the least-norm solution, so a singular face (as at
    rho_bar) still yields one of its minimizers. A face's z is accepted
    only where H is PSD (so z minimizes the face and is not a saddle), z
    is finite and nonnegative, and, renormalized to sum 1, z passes the
    solver's stopping test (`_stationary`). Depends on the supports
    alone. Returns (z, accepted flags).
    """
    b = len(supports)
    idx = np.nonzero(supports)[1].reshape(b, -1)
    r, rest = idx[:, -1], idx[:, :-1]
    grr = g[r, r]
    col = g[rest, r[:, None]]
    h = g[rest[:, :, None], rest[:, None, :]] - col[:, :, None] - col[:, None, :]
    h += grr[:, None, None]
    w, v = np.linalg.eigh(h)
    noise = w.shape[1] * np.finfo(float).eps * np.abs(w).max(axis=1, initial=0.0)
    live = np.abs(w) > noise[:, None]
    coef = np.einsum("bij,bi->bj", v, grr[:, None] - col) / np.where(live, w, 1.0)
    u = np.einsum("bij,bj->bi", v, np.where(live, coef, 0.0))
    z = np.zeros((b, g.shape[0]))
    np.put_along_axis(z, rest, u, axis=1)
    z[np.arange(b), r] = 1.0 - u.sum(axis=1)
    ok = np.all(w >= -noise[:, None], axis=1) & np.all(np.isfinite(z), axis=1)
    ok[ok] = z[ok].min(axis=1) >= 0.0
    z[ok] /= z[ok].sum(axis=1, keepdims=True)
    zk = z[ok]
    ok[ok] = _stationary(zk, _project_simplex_rows(zk - 2.0 * step * (zk @ g)) - zk, step, tol)
    return z, ok


def _face_steps(g, x, xg, step, tol, faces):
    """Face step for each row of x: (points, accepted flags).

    Rows are grouped by support; `faces` maps a support's bytes to its
    (z, z^T g z), or to None where `_face_minimizers` refused it, so each
    support is solved once per batch. New supports are solved in stacks
    of one size whose reduced Hessians fit in FACE_BYTES; a support too
    large for one is not solved, and its rows take no step. A row accepts
    z only where z^T g z <= x^T g x.
    """
    supports, group = np.unique(x > 0.0, axis=0, return_inverse=True)
    group = group.reshape(-1)
    keys = [s.tobytes() for s in supports]
    sizes = supports.sum(axis=1)
    new = np.array([key not in faces for key in keys]) & (8 * sizes * sizes <= FACE_BYTES)
    for k in sorted(set(sizes[new].tolist())):
        todo = np.flatnonzero(new & (sizes == k))
        chunk = FACE_BYTES // (8 * k * k)
        for lo in range(0, len(todo), chunk):
            part = todo[lo:lo + chunk]
            z, ok = _face_minimizers(g, supports[part], step, tol)
            for j in part[~ok]:
                faces[keys[j]] = None
            z = z[ok]
            for j, zj, value in zip(part[ok], z, np.einsum("bi,bi->b", z @ g, z)):
                faces[keys[j]] = (zj, value)
    values = np.einsum("bi,bi->b", x, xg)
    z = np.empty_like(x)
    took = np.zeros(len(x), dtype=bool)
    for j, key in enumerate(keys):
        if faces.get(key) is not None:
            zj, value = faces[key]
            rows = (group == j) & (value <= values)
            z[rows] = zj
            took |= rows
    return z, took


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
    the steps from x and from y stacked.

    Face step, a fixed rule (projected Newton, Bertsekas 1982): every
    FACE_PERIOD-th iteration, each row whose support (x > 0) has not
    changed for at least FACE_PERIOD iterations, and whose face's
    reduced Hessian fits in FACE_BYTES, tries the exact minimizer z of
    the form on its face (`_face_minimizers`). The row
    accepts z, and is frozen there as converged, only where z is finite
    and nonnegative, the reduced Hessian on the face is PSD,
    z^T g z <= x^T g x, and z passes the same stopping test;
    every other row carries on with FISTA unchanged. Returns (points,
    values, converged_flags, iterations, face_steps), face_steps being
    the number of rows the face step finished.
    """
    step = 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))
    x = np.array(starts, dtype=float)
    points = x.copy()
    conv = np.zeros(x.shape[0], dtype=bool)
    rows = np.arange(x.shape[0])
    xg = x @ g
    y, yg = x, xg
    t = np.ones(x.shape[0])
    settled = np.zeros(x.shape[0], dtype=int)  # iterations since the support last changed
    faces = {}
    face_steps = 0
    iterations = 0
    while iterations < max_iter and rows.size:
        iterations += 1
        proj = _project_simplex_rows(np.concatenate((x - 2.0 * step * xg, y - 2.0 * step * yg)))
        nxt = proj[len(x):]
        done = _stationary(x, proj[: len(x)] - x, step, tol)
        points[rows[done]] = x[done]
        if iterations % FACE_PERIOD == 0:
            trial = np.flatnonzero(~done & (settled >= FACE_PERIOD))
            if trial.size:
                z, took = _face_steps(g, x[trial], xg[trial], step, tol, faces)
                points[rows[trial[took]]] = z[took]
                done[trial[took]] = True
                face_steps += int(took.sum())
        if done.any():
            conv[rows[done]] = True
            keep = ~done
            rows, x, xg, y, nxt, t, settled = (a[keep] for a in (rows, x, xg, y, nxt, t, settled))
            if not rows.size:
                break
        nxt_g = nxt @ g
        move = nxt - x
        resupported = np.any((nxt > 0.0) != (x > 0.0), axis=1)
        restart = resupported | (np.einsum("bi,bi->b", y - nxt, move) > 0.0)
        settled = np.where(resupported, 0, settled + 1)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = np.where(restart, 0.0, (t - 1.0) / t_next)[:, None]
        t = np.where(restart, 1.0, t_next)
        y = nxt + beta * move
        yg = nxt_g + beta * (nxt_g - xg)
        x, xg = nxt, nxt_g
    points[rows] = x
    values = np.einsum("bi,bi->b", points @ g, points)
    return points, values, conv, iterations, face_steps


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
    `converged` flag, never silently. q^n is capped at `size_cap` and
    restarts x q^n at BATCH_CAP.
    """
    if not math.isfinite(rho):
        raise ValueError(f"tilt parameter must be finite, got {rho}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    m = word_count(ch.q, n, size_cap)
    if restarts * m > BATCH_CAP:
        raise ValueError(f"{restarts} restarts x q^n = {m} exceeds the cap of {BATCH_CAP} entries")
    g = gram_matrix(ch, rho, n, size_cap=size_cap)
    convex = rho <= cycle_constants(ch).rho_bar
    starts = _start_points(ch, n, restarts, seed)
    pts, values, conv, iterations, face_steps = _projected_gradient_batch(
        g, starts, max_iter=max_iter
    )
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
        face_steps=face_steps,
    )


def uniform_value(ch, rho, n):
    """Quadratic form at the uniform distribution: ((1 + 2 a)/q)^n with a = alpha^(1/rho)."""
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    return ((1.0 + 2.0 * a) / ch.q) ** n


def expurgated_oracle_ex(ch, rho, n, restarts=200, seed=0):
    """-(rho/n) log2 of the best simplex minimum found."""
    return minimize_q(ch, rho, n, restarts=restarts, seed=seed).ex_n
