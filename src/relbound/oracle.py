"""Brute-force verification of the expurgated exponent at small blocklengths.

Minimizes the quadratic form p^T G p over the probability simplex, with
G the n-letter Gram matrix of pairwise Bhattacharyya weights: the n-fold
Kronecker power of the q x q circulant base with 1 on the diagonal and
a = alpha^(1/rho) on the two cyclic neighbours (Jelinek; Gallager's
multi-letter expurgated bound). G is never formed: a product with it
applies the base along each of the n letter axes (Van Loan 2000), and
the face step gathers the entries it needs from the words' letters.

Every problem carries one certified lower bound, L = ((1 + 2 a')/q)^n
with a' = min(a, phi) and phi the largest weight for which the base is
PSD (`min_q_lower_bound`): the PSD condition of the expurgated bound
already holds Lovasz's bound, so L is the uniform value for rho <= rho_bar,
(2/q)^n for even q and theta(C_q)^(-n) for odd q past it. A known
distribution attains L in the convex regime (the uniform row), for even q
(the even-symbol product) and for q = 5 with even n (the pentagon
product); there the witness is evaluated once, and where its value meets
L it is the certified global minimum and nothing is searched.

Every other problem (odd q past rho_bar, except q = 5 with even n) is
searched: a multi-start accelerated projected gradient (FISTA momentum
with adaptive restart) from the uniform row and random ones, all starts
in one batch, and its value is an upper bound on the true minimum. One
call serves one problem (`minimize_q`). A start stops, as converged,
where the gradient mapping at the point it returns is at most
GRAD_MAP_TOL or where no representable projected step is left; MAX_ITER
caps the run. A start whose support has settled finishes with one
face-restricted Newton step (projected Newton, Bertsekas 1982): the
exact minimizer of the form on its face, taken only where it is a
nonnegative, not worse, certified local minimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import bhattacharyya, cycle_constants
from .codes import _power_within, all_words, pentagon_code, word_indices
from .constants import BATCH_CAP

SIZE_CAP = 3125
GRAD_MAP_TOL = 1e-10
MAX_ITER = 100_000  # read by the solver on each call
FACE_PERIOD = 8  # a face step is tried every FACE_PERIOD iterations, on supports that old
# Gram blocks G_SS stacked in one face-step solve; a face whose own block would not fit
# (more than 1024 points) takes no face step, which bounds its memory and its O(|S|^3)
# eigensolve
FACE_BYTES = 1 << 23


def word_count(q, n):
    """q^n, the number of n-letter words; ValueError when n < 1 or q^n > SIZE_CAP.

    Decided without forming a power above the cap, so a huge n is refused at once.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if not _power_within(q, n, SIZE_CAP):
        raise ValueError(f"q^n = {q}^{n} exceeds the size cap {SIZE_CAP}")
    return q**n


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
    lower: float


def _project_simplex_rows(v):
    """Row-wise Euclidean projection onto the probability simplex.

    The shift is min_k (1 - s_k) / k over the prefix sums s_k of each
    row sorted in decreasing order (Held-Wolfe-Crowder 1974; Condat 2016).
    """
    c = np.cumsum(np.sort(v, axis=1)[:, ::-1], axis=1)
    np.subtract(1.0, c, out=c)
    c /= np.arange(1, v.shape[1] + 1)
    out = v + np.min(c, axis=1)[:, None]
    return np.maximum(out, 0.0, out=out)


def _stationary(x, d, step, tol):
    """Stopping test on the projected step d from each row x.

    True where the gradient mapping |d| / step is at most tol, or where
    x + d rounds back to x (no representable step is left, which is as
    converged as float64 gets).
    """
    return (np.linalg.norm(d, axis=1) / step <= tol) | np.all(x + d == x, axis=1)


def _step_size(a, n):
    """The solver's step 1/L, L = 2 (1 + 2a)^n = 2 max row sum of G >= 2 max |eigenvalue|."""
    return 1.0 / (2.0 * (1.0 + 2.0 * a) ** n)


def _times_gram(x, a, q, n):
    """Each row of x times the n-letter Gram matrix whose base has weight a.

    The base is applied along each of the n letter axes in turn (Van Loan
    2000): y = x + a (x shifted by +1 + x shifted by -1, cyclically). It
    works on x transposed, one word per row, so that every shift copies
    contiguous blocks. Every entry is computed elementwise, so a row gets
    the same bits in any stack.
    """
    y = np.ascontiguousarray(x.T)
    for k in range(n):
        y3 = y.reshape(q**k, q, -1)  # letter k on the middle axis
        s = np.empty_like(y3)
        np.add(y3[:, :-2], y3[:, 2:], out=s[:, 1:-1])
        np.add(y3[:, -1], y3[:, 1], out=s[:, 0])
        np.add(y3[:, -2], y3[:, 0], out=s[:, -1])
        s = s.reshape(y.shape)
        s *= a
        s += y
        y = s
    return np.ascontiguousarray(y.T)


def _face_grams(a, q, n, idx):
    """G[S, S] for each row S of word indices idx, with base weight a.

    G[i, j] is the product over the n letters of g[(i_k - j_k) mod q],
    with g = (1, a, 0, ..., 0, a) the base's first row. Every factor is
    1, a or 0, so an entry is 0 or a power of a multiplied out one factor
    at a time, as np.kron multiplies it: the entries equal the Kronecker
    power's bit for bit.
    """
    g = np.zeros(2 * q - 1)  # the weight of letter difference d sits at d + q - 1
    g[q - 1] = 1.0
    g[[0, q - 2, q, 2 * q - 2]] = a  # d = +-1 and +-(q - 1) are cyclic neighbours
    out = np.ones(idx.shape + idx.shape[-1:])
    for k in range(n):
        letter = idx // q ** (n - 1 - k) % q
        d = letter[:, :, None] - letter[:, None, :]
        d += q - 1
        out *= g[d]
    return out


def _face_minimizers(a, q, n, supports):
    """Minimizer z of p^T G p on each simplex face in a stack of equal-size supports.

    G has base weight a. Solves the KKT system
    G_SS z = lambda 1, 1^T z = 1 in null-space form:
    with r the last index of S and the tangent basis e_i - e_r (i in S
    other than r), z = e_r + sum_i u_i (e_i - e_r), where H u = g_rr - g_ir
    and H = Z^T G_SS Z is the reduced Hessian, H_ij = g_ij - g_ir - g_rj + g_rr.
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
    r = idx[:, -1]
    gss = _face_grams(a, q, n, idx)
    grr, col = gss[:, -1, -1], gss[:, :-1, -1]
    h = gss[:, :-1, :-1]  # in place: col and grr lie outside it
    h -= col[:, :, None]
    h -= col[:, None, :]
    h += grr[:, None, None]
    w, v = np.linalg.eigh(h)
    noise = w.shape[1] * np.finfo(float).eps * np.abs(w).max(axis=1, initial=0.0)
    live = np.abs(w) > noise[:, None]
    coef = np.einsum("bij,bi->bj", v, grr[:, None] - col) / np.where(live, w, 1.0)
    u = np.einsum("bij,bj->bi", v, np.where(live, coef, 0.0))
    z = np.zeros((b, q**n))
    np.put_along_axis(z, idx[:, :-1], u, axis=1)
    z[np.arange(b), r] = 1.0 - u.sum(axis=1)
    ok = np.all(w >= -noise[:, None], axis=1) & np.all(np.isfinite(z), axis=1)
    ok[ok] = z[ok].min(axis=1) >= 0.0
    z[ok] /= z[ok].sum(axis=1, keepdims=True)
    zk, step = z[ok], _step_size(a, n)
    d = _project_simplex_rows(zk - 2.0 * step * _times_gram(zk, a, q, n)) - zk
    ok[ok] = _stationary(zk, d, step, GRAD_MAP_TOL)
    return z, ok


def _face_steps(a, q, n, x, xg, faces):
    """Face step for each row of x: (points, accepted flags).

    Rows are grouped by support; `faces` maps the packed support bytes to
    (z, z^T G z), or to None where `_face_minimizers` refused it, so each
    support is solved once per search. New supports are solved in stacks
    of one size whose faces' Gram blocks fit in FACE_BYTES; a support too
    large for one is not solved, and its rows take no step. A row accepts
    z only where z^T G z <= x^T G x.
    """
    support = x > 0.0
    packed = np.packbits(support, axis=1)
    _, first, group = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True,
                                return_inverse=True)
    supports = support[first]
    keys = [row.tobytes() for row in packed[first]]
    sizes = supports.sum(axis=1)
    new = np.array([key not in faces for key in keys]) & (8 * sizes * sizes <= FACE_BYTES)
    for k in sorted(set(sizes[new].tolist())):
        todo = np.flatnonzero(new & (sizes == k))
        chunk = FACE_BYTES // (8 * k * k)
        for lo in range(0, len(todo), chunk):
            part = todo[lo:lo + chunk]
            z, ok = _face_minimizers(a, q, n, supports[part])
            for j in part[~ok]:
                faces[keys[j]] = None
            z = z[ok]
            values = np.einsum("bi,bi->b", _times_gram(z, a, q, n), z)
            for j, zj, value in zip(part[ok], z, values):
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


def _projected_gradient_batch(a, q, n, starts):
    """Minimize p^T G p over the simplex from every row of starts at once.

    G, on q^n words, is the n-fold Kronecker power of the base with
    weight a. Products with G are taken row by row (`_times_gram`), so
    each row follows bit for bit the trajectory it follows alone.

    Accelerated projected gradient (FISTA, Beck-Teboulle 2009) with the
    step 1/L (`_step_size`) and the adaptive gradient restart of
    O'Donoghue-Candes (2015): a row's momentum is reset when
    (y - x+).(x+ - x) > 0, and also when x+ has another support than x.
    Momentum so builds up only within one face of the simplex; past the
    PSD threshold, where the form has many local minima, that keeps it
    from carrying a row out of the basin plain projected gradient would
    settle in.

    Every iteration first takes the gradient mapping at each row's
    current point x; a row is frozen at x when that mapping meets the
    tolerance or when the plain projected step from x is not
    representable (which is as converged as float64 gets). Only rows
    still moving at the iteration cap come back unconverged. Frozen rows
    leave the working arrays, and y G is carried by linearity from x G,
    so an iteration costs one product with G and one projection call on
    the steps from x and from y stacked.

    Face step, a fixed rule (projected Newton, Bertsekas 1982): every
    FACE_PERIOD-th iteration, each row whose support (x > 0) has not
    changed for at least FACE_PERIOD iterations, and whose face's
    Gram block G_SS fits in FACE_BYTES, tries the exact minimizer z of
    the form on its face (`_face_minimizers`). The row
    accepts z, and is frozen there as converged, only where z is finite
    and nonnegative, the reduced Hessian on the face is PSD,
    z^T G z <= x^T G x, and z passes the same stopping test;
    every other row carries on with FISTA unchanged. Returns (points,
    values, converged_flags, iterations, face_steps), the last two ints:
    the search's own iteration count, at which its last row froze
    (MAX_ITER where one never did), and the number of rows the face step
    finished.
    """
    step = _step_size(a, n)
    two_step = 2.0 * step
    x = np.asarray(starts, dtype=float)
    points = np.empty_like(x)  # every row is written where it freezes, or after the loop
    conv = np.zeros(x.shape[0], dtype=bool)
    rows = np.arange(x.shape[0])
    xg = _times_gram(x, a, q, n)
    y, yg = x, xg
    t = np.ones(x.shape[0])
    settled = np.zeros(x.shape[0], dtype=int)  # iterations since the support last changed
    faces = {}
    face_steps = 0
    it = 0
    while it < MAX_ITER and rows.size:
        it += 1
        proj = _project_simplex_rows(np.concatenate((x - two_step * xg, y - two_step * yg)))
        done = _stationary(x, proj[: len(x)] - x, step, GRAD_MAP_TOL)
        nxt = proj[len(x):].copy()  # a view would keep the half for x alive
        del proj
        points[rows[done]] = x[done]
        if it % FACE_PERIOD == 0:
            trial = np.flatnonzero(~done & (settled >= FACE_PERIOD))
            if trial.size:
                z, took = _face_steps(a, q, n, x[trial], xg[trial], faces)
                points[rows[trial[took]]] = z[took]
                done[trial[took]] = True
                face_steps += int(took.sum())
        if done.any():
            conv[rows[done]] = True
            keep = ~done
            rows, x, xg, y, nxt, t, settled = (
                arr[keep] for arr in (rows, x, xg, y, nxt, t, settled)
            )
            if not rows.size:
                break
        nxt_g = _times_gram(nxt, a, q, n)
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
    values = np.einsum("bi,bi->b", _times_gram(points, a, q, n), points)
    return points, values, conv, it, face_steps


def _witness_name(q, n, convex):
    """The name of a distribution that attains L, or None where none is known.

    The uniform row in the convex regime; past it, the even-symbol product
    for even q and the pentagon product for q = 5 with even n.
    """
    if convex:
        return "uniform row"
    if q % 2 == 0:
        return "even-symbol product"
    return "pentagon product" if q == 5 and n % 2 == 0 else None


def _witness_row(q, n, convex):
    """The distribution `_witness_name` names, where it names one."""
    m = q**n
    if convex:
        return np.full(m, 1.0 / m)
    # past rho_bar: the even symbols, or every sequence of n/2 pentagon words concatenated
    words = (all_words(range(0, q, 2), n) if q % 2 == 0
             else pentagon_code().array[all_words(range(5), n // 2)].reshape(-1, n))
    p = np.zeros(m)
    p[word_indices(words, q)] = 1.0 / len(words)
    return p


def _start_points(ch, n, restarts, seed):
    """Starting rows of a search: the uniform row, then restarts - 1 Dirichlet draws from `seed`."""
    m = ch.q**n
    draws = np.random.default_rng(seed).dirichlet(np.ones(m), size=restarts - 1)
    return np.vstack((np.full((1, m), 1.0 / m), draws))


def _search(ch, rho, n, starts):
    """`_projected_gradient_batch` from the rows `starts` of the problem (ch, rho, n)."""
    return _projected_gradient_batch(bhattacharyya(ch.epsilon) ** (1.0 / rho), ch.q, n, starts)


def minimize_q(ch, rho, n, restarts=200, seed=0):
    """Global minimum of the n-letter quadratic form over the simplex, or the best local one found.

    The tilt, the restarts and the caps (q^n at most SIZE_CAP, restarts x
    q^n at most BATCH_CAP) are checked before any work. Where a witness
    attains L (`min_q_lower_bound`; the convex regime, even q, and q = 5
    with even n, `_witness_name`), the witness is evaluated with one
    product with G; at most L (1 + 1e-12), it is returned as the certified
    global minimum, converged after 0 iterations and 0 face steps. A
    witness is within a few ulps of L wherever it exists, so only problems
    without one are searched: from `restarts` start rows, the uniform row
    and then random simplex draws, as one vectorized batch, and the
    smallest value wins; min_Q is then an upper bound on the true minimum
    and at least L. `iterations` is the search's own iteration count, at
    which its last row froze, and `face_steps` the number of its rows the
    face step finished. Deterministic for a fixed seed. Non-convergence of
    the winning run is reported through the `converged` flag, never
    silently.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"tilt parameter must be positive and finite, got {rho}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    m = word_count(ch.q, n)
    if restarts * m > BATCH_CAP:
        raise ValueError(f"{restarts} restarts x q^n = {m} exceeds the cap of {BATCH_CAP} entries")
    convex = rho <= cycle_constants(ch).rho_bar
    lower = min_q_lower_bound(ch, rho, n)
    point = None
    if _witness_name(ch.q, n, convex) is not None:
        p = _witness_row(ch.q, n, convex)
        a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
        value = float(p @ _times_gram(p[None, :], a, ch.q, n)[0])
        if value <= lower * (1.0 + 1e-12):
            point, converged, iterations, face_steps = p, True, 0, 0
    if point is None:
        points, values, conv, iterations, face_steps = _search(
            ch, rho, n, _start_points(ch, n, restarts, seed))
        best = int(np.argmin(values))
        # a copy, so that the result does not keep the whole stack of rows alive
        point, value, converged = points[best].copy(), float(values[best]), bool(conv[best])
    return OracleResult(rho=rho, n=n, min_q=value, distribution=point,
                        ex_n=-(rho / n) * math.log2(value), restarts=restarts, converged=converged,
                        convex=convex, iterations=iterations, face_steps=face_steps, lower=lower)


def min_q_lower_bound(ch, rho, n):
    """L, a lower bound on min_Q in every regime, rounded down: ((1 + 2 a')/q)^n (1 - 6 n u).

    With a = alpha^(1/rho), phi = `cycle_constants(ch).phi` (the largest
    weight for which the base B(a) is PSD) and u = 2^-53, a' = min(a,
    phi (1 - 4u)). M = B(a')^(x)n is PSD, and M <= G entry by entry
    (every entry is a product of 1, a and 0), so p^T G p >= p^T M p for
    p >= 0. p^T M p is convex and invariant under the translations of
    Z_q^n, so its minimum over the simplex is at the uniform row:
    ((1 + 2 a')/q)^n. This is Lovasz's bound held in the PSD condition of
    the expurgated bound (Jelinek; Gallager): for a >= phi, L is (2/q)^n
    for even q and theta(C_q)^(-n) for odd q (Lovasz 1979). As a -> 1,
    min_Q tends to 1/alpha of the n-th strong power of the q-cycle
    (Motzkin-Straus 1965), and L is Lovasz's bound on it.

    Rounding. For even q, phi = 1/2 exactly. For odd q, fl(phi) =
    1/(2 cos(pi/q)) is within 3u of phi: pi and pi/q round by 0.35u and
    u, which moves cos(pi/q) by at most (pi/5) tan(pi/5) 1.35u < 0.62u;
    cos is within one ulp, at most 1.24u relative on [0.8, 1); the
    division adds u. So the computed a' is at most phi (1 + 3u)(1 - 4u)(1 + u)
    < phi, and B(a') is PSD. Then 1 + 2a' (2a' is exact) and the division
    by q round once each, and pow within one ulp (2u): the computed power
    is at most (1 + u)^(2n) (1 + 2u) times the exact one. 1 - 6nu is
    exact, and the last product rounds once, so the result is at most
    (1 + u)^(2n+1) (1 + 2u) (1 - 6nu) <= (1 + (2n+3)u + (2n+3)^2 u^2)
    (1 - 6nu) < 1 times the exact L, since (4n - 3)u > (2n+3)^2 u^2 for
    every n >= 1: c = 6 covers the 2n + 3 roundings with n to spare.
    """
    u = 2.0**-53
    a = min(bhattacharyya(ch.epsilon) ** (1.0 / rho), cycle_constants(ch).phi * (1.0 - 4.0 * u))
    return ((1.0 + 2.0 * a) / ch.q) ** n * (1.0 - 6 * n * u)


# relative tolerance of min_Q against L. min_Q does not scale with rho, whereas
# Ex_n = -(rho/n) log2 min_Q does: at rho = 1e12 one ulp of Ex_n passes any fixed
# absolute tolerance. 1e-9 is far above the optimizer's rounding (a few ulps), and
# tighter than an absolute 1e-6 on Ex_n for rho < 693 n
REGIME_RTOL = 1e-9


def regime_check(ch, res):
    """(passed, line): res.min_q against res.lower = L, at relative REGIME_RTOL.

    min_Q >= L (1 - REGIME_RTOL) in every regime. Where a witness attains
    L (`_witness_name`: the uniform row in the convex regime, the even-symbol
    product for even q, the pentagon product for q = 5 with even n), also
    min_Q <= L (1 + REGIME_RTOL); elsewhere the check is one-sided, the
    same statement as Ex_n <= rho log2(theta) past rho_bar. The line
    gives L and the gap min_Q/L - 1, without PASS or FAIL.
    """
    got, lower = res.min_q, res.lower
    witness = _witness_name(ch.q, res.n, res.convex)
    passed = lower * (1.0 - REGIME_RTOL) <= got <= (
        math.inf if witness is None else lower * (1.0 + REGIME_RTOL))
    how = ("one-sided: no known distribution attains L" if witness is None
           else f"two-sided: the {witness} attains L")
    return passed, (f"min_Q {got!r} vs L = {lower!r}, min_Q/L - 1 = {got / lower - 1.0:.3g} "
                    f"(rel tol {REGIME_RTOL:g}; {how})")


def search_check(ch, rho, n, rows, seed):
    """(passed, line): the search alone, from `rows` random rows, finds L where a witness does.

    The rows are `_start_points`' Dirichlet draws from `seed`, without its
    uniform row and with no certification. It passes where the best row's
    value is within REGIME_RTOL of L; the line counts the rows that are.
    """
    _, values, _, iterations, face_steps = _search(ch, rho, n,
                                                   _start_points(ch, n, rows + 1, seed)[1:])
    lower = min_q_lower_bound(ch, rho, n)
    best = float(values.min())
    hits = int(np.count_nonzero(np.abs(values - lower) <= REGIME_RTOL * lower))
    return abs(best - lower) <= REGIME_RTOL * lower, (
        f"best of {rows} random rows {best!r} vs L = {lower!r}, min_Q/L - 1 = "
        f"{best / lower - 1.0:.3g} (rel tol {REGIME_RTOL:g}); {hits} of {rows} rows reach L; "
        f"{iterations} iterations, {face_steps} face steps"
    )
