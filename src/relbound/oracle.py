"""Brute-force verification of the expurgated exponent at small blocklengths.

Minimizes the quadratic form p^T G p over the probability simplex, with
G the n-letter Gram matrix of pairwise Bhattacharyya weights: the n-fold
Kronecker power of the q x q circulant base with 1 on the diagonal and
a = alpha^(1/rho) on the two cyclic neighbours (Jelinek; Gallager's
multi-letter expurgated bound). G is never formed: a product with it
applies the base along each of the n letter axes (Van Loan 2000), and
the face step gathers the entries it needs from the words' letters.
The search is a multi-start accelerated projected gradient (FISTA
momentum with adaptive restart), all starts in one batch;
`minimize_q_batch` stacks the starts of many problems of one (q, n) into
the same batch, and solves twins once: problems with the same q, n,
restarts, integer seed and, bit for bit, the same a are one quadratic
program from the same start rows, so they share every solver output
(each row's trajectory is independent of the rows stacked with it).
Twins are common at rho = c rho_bar: rho_bar = log(alpha) / log(phi)
makes alpha^(1/rho_bar) = phi, which depends on q alone, so a = phi^(1/c)
for every eps, up to rounding (one ulp can still part two eps, and
then they are two programs). A start stops, as converged, where the
gradient mapping at the point it returns is at most GRAD_MAP_TOL or where no
representable projected step is left; MAX_ITER caps the run.
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

import numpy as np

from .channel import bhattacharyya, cycle_constants
from .codes import _power_within, all_words, pentagon_code, word_indices

SIZE_CAP = 3125
# start rows x q^n in one solver run: it keeps ~10 float64 arrays of this many entries
# (~80 MB at the cap) and a face-step stack (a few FACE_BYTES); the default 200 restarts
# fit at SIZE_CAP
BATCH_CAP = 1 << 20
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


def _times_gram(x, a, q, n):
    """Each row x[i] times its n-letter Gram matrix, the one whose base has weight a[i].

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
    """G[S, S] for each row S of word indices idx, in the problem whose base has weight a[i].

    G[i, j] is the product over the n letters of g[(i_k - j_k) mod q],
    with g = (1, a, 0, ..., 0, a) the base's first row. Every factor is
    1, a or 0, so an entry is 0 or a power of a multiplied out one factor
    at a time, as np.kron multiplies it: the entries equal the Kronecker
    power's bit for bit.
    """
    g = np.zeros((len(a), 2 * q - 1))  # the weight of letter difference d sits in column d + q - 1
    g[:, q - 1] = 1.0
    g[:, [0, q - 2, q, 2 * q - 2]] = a[:, None]  # d = +-1 and +-(q - 1) are cyclic neighbours
    rows = np.arange(len(a))[:, None, None]
    out = np.ones(idx.shape + idx.shape[-1:])
    for k in range(n):
        letter = idx // q ** (n - 1 - k) % q
        d = letter[:, :, None] - letter[:, None, :]
        d += q - 1
        out *= g[rows, d]
    return out


def _face_minimizers(a, q, n, owner, supports, steps):
    """Minimizer z of p^T G p on each simplex face in a stack of equal-size supports.

    Support i lies in problem owner[i], with base weight a[owner[i]] and
    step steps[owner[i]]. Solves the KKT system
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
    gss = _face_grams(a[owner], q, n, idx)
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
    zk, own = z[ok], owner[ok]
    step = steps[own]
    d = _project_simplex_rows(zk - 2.0 * step[:, None] * _times_gram(zk, a[own], q, n)) - zk
    ok[ok] = _stationary(zk, d, step, GRAD_MAP_TOL)
    return z, ok


def _face_steps(a, q, n, owner, x, xg, steps, faces):
    """Face step for each row of x, row i in problem owner[i]: (points, accepted flags).

    Rows are grouped by (problem, support); `faces` maps a (problem,
    support bytes) key to its (z, z^T G z), or to None where
    `_face_minimizers` refused it, so each support is solved once per
    problem and batch. New supports are solved in stacks of one size,
    across problems, whose faces' Gram blocks fit in FACE_BYTES; a support
    too large for one is not solved, and its rows take no step. A row
    accepts z only where z^T G z <= x^T G x.
    """
    support = x > 0.0
    # one opaque key per row, big-endian owner then packed support bits: its
    # bytewise order is the (problem, support) order
    packed = np.column_stack((owner.astype(">u8").view(np.uint8).reshape(-1, 8),
                              np.packbits(support, axis=1)))
    _, first, group = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True,
                                return_inverse=True)
    owners, supports = owner[first], support[first]
    keys = [(o, s.tobytes()) for o, s in zip(owners.tolist(), supports)]
    sizes = supports.sum(axis=1)
    new = np.array([key not in faces for key in keys]) & (8 * sizes * sizes <= FACE_BYTES)
    for k in sorted(set(sizes[new].tolist())):
        todo = np.flatnonzero(new & (sizes == k))
        chunk = FACE_BYTES // (8 * k * k)
        for lo in range(0, len(todo), chunk):
            part = todo[lo:lo + chunk]
            z, ok = _face_minimizers(a, q, n, owners[part], supports[part], steps)
            for j in part[~ok]:
                faces[keys[j]] = None
            z = z[ok]
            values = np.einsum("bi,bi->b", _times_gram(z, a[owners[part[ok]]], q, n), z)
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


def _projected_gradient_batch(a, q, n, starts, owner):
    """Minimize p^T G p over the simplex from every start of every problem at once.

    Every problem has q^n words; problem p's Gram matrix G is the n-fold
    Kronecker power of the base with weight a[p], and row i of starts
    belongs to problem owner[i]. Step sizes are taken per problem, and
    products with G row by row (`_times_gram`), so each row follows bit
    for bit the trajectory it follows when its problem runs alone.

    Accelerated projected gradient (FISTA, Beck-Teboulle 2009) with the
    step 1/L, L = 2 (1 + 2a)^n = 2 max row sum of G >= 2 max |eigenvalue|,
    and the adaptive gradient restart of O'Donoghue-Candes (2015): a row's
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
    values, converged_flags, iterations, face_steps), the last two per
    problem: the iteration at which its last row froze (MAX_ITER where
    one never did) and the number of its rows the face step finished.
    """
    steps = np.array([1.0 / (2.0 * (1.0 + 2.0 * w) ** n) for w in a.tolist()])
    start_owner = owner
    x = np.asarray(starts, dtype=float)
    points = np.empty_like(x)  # every row is written where it freezes, or after the loop
    conv = np.zeros(x.shape[0], dtype=bool)
    rows = np.arange(x.shape[0])
    step = steps[owner]
    xg = _times_gram(x, a[owner], q, n)
    y, yg = x, xg
    t = np.ones(x.shape[0])
    settled = np.zeros(x.shape[0], dtype=int)  # iterations since the support last changed
    faces = {}
    face_steps = np.zeros(len(a), dtype=int)
    iterations = np.zeros(len(a), dtype=int)
    it = 0
    while it < MAX_ITER and rows.size:
        it += 1
        two_step = 2.0 * step[:, None]
        proj = _project_simplex_rows(np.concatenate((x - two_step * xg, y - two_step * yg)))
        done = _stationary(x, proj[: len(x)] - x, step, GRAD_MAP_TOL)
        nxt = proj[len(x):].copy()  # a view would keep the half for x alive
        del proj
        points[rows[done]] = x[done]
        if it % FACE_PERIOD == 0:
            trial = np.flatnonzero(~done & (settled >= FACE_PERIOD))
            if trial.size:
                z, took = _face_steps(a, q, n, owner[trial], x[trial], xg[trial], steps, faces)
                points[rows[trial[took]]] = z[took]
                done[trial[took]] = True
                face_steps += np.bincount(owner[trial[took]], minlength=len(a))
        if done.any():
            conv[rows[done]] = True
            iterations[owner[done]] = it
            keep = ~done
            rows, owner, step, x, xg, y, nxt, t, settled = (
                arr[keep] for arr in (rows, owner, step, x, xg, y, nxt, t, settled)
            )
            if not rows.size:
                break
        nxt_g = _times_gram(nxt, a[owner], q, n)
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
    iterations[owner] = it  # problems with rows still moving ran to the cap
    values = np.einsum("bi,bi->b", _times_gram(points, a[start_owner], q, n), points)
    return points, values, conv, iterations, face_steps


def _structured_seeds(q, n):
    """The uniform, even-symbol product (even q) and pentagon product (q = 5, even n) rows."""
    m = q**n
    seeds = [np.full(m, 1.0 / m)]
    products = []
    if q % 2 == 0:
        products.append(all_words(range(0, q, 2), n))
    if q == 5 and n % 2 == 0:
        # every sequence of n/2 pentagon words, concatenated
        products.append(pentagon_code().array[all_words(range(5), n // 2)].reshape(-1, n))
    for words in products:
        p = np.zeros(m)
        p[word_indices(words, q)] = 1.0 / len(words)
        seeds.append(p)
    return seeds


def _structured_seed_count(q, n):
    """len(_structured_seeds(q, n)), without building them."""
    return 1 + (q % 2 == 0) + (q == 5 and n % 2 == 0)


def _start_points(ch, n, restarts, seed):
    """Starting rows: the structured seeds, then random ones up to `restarts` rows.

    The random rows are Dirichlet draws from `seed`.
    """
    seeds = _structured_seeds(ch.q, n)
    n_random = max(restarts - len(seeds), 0)
    if n_random:
        seeds.extend(np.random.default_rng(seed).dirichlet(np.ones(ch.q**n), size=n_random))
    return np.array(seeds)


def minimize_q_batch(problems):
    """`minimize_q` on each (channel, rho, n, restarts, seed) of `problems`, in few runs.

    Every problem's tilt, restarts and caps are checked before any work
    starts. Problems whose (q, n, a, restarts, seed) are equal, with
    a = alpha^(1/rho) compared as a float (bit for bit) and seed an
    integer, are twins: one quadratic program from the same start rows,
    so the first of them is solved and the rest take its solution. A
    seed that is not an integer (None draws fresh starts on every call)
    makes no twin. Distinct problems are grouped by (q, n), and the start
    rows of a group run as one stack in `_projected_gradient_batch`, each
    row tagged with its problem. A group is cut into several runs where
    one run would hold more than BATCH_CAP entries in its start rows
    (rows x q^n). Each row follows the same arithmetic as when its
    problem runs alone, so every result equals, field for field, what
    `minimize_q` returns for that problem; a twin's `rho`, `n`, `ex_n`
    and `convex` come from its own (channel, rho), and its
    `distribution` is its own copy. Twins arise across eps at a fixed
    multiple of rho_bar, where a depends on q alone (module docstring);
    a key on a rounded a would merge problems one ulp apart, which are
    different programs. `iterations` is the run's iteration at which
    the problem's last row froze, and `face_steps` counts its own rows.
    Returns one OracleResult per problem, in order.
    """
    problems = list(problems)
    a = []
    for ch, rho, n, restarts, _ in problems:
        if not 0.0 < rho < math.inf:
            raise ValueError(f"tilt parameter must be positive and finite, got {rho}")
        if restarts < 1:
            raise ValueError(f"need at least one restart, got {restarts}")
        m = word_count(ch.q, n)
        if restarts * m > BATCH_CAP:
            raise ValueError(
                f"{restarts} restarts x q^n = {m} exceeds the cap of {BATCH_CAP} entries"
            )
        a.append(bhattacharyya(ch.epsilon) ** (1.0 / rho))
    first = {}  # twin key -> index of the problem that is solved for all its twins
    solver = []  # per problem, the index of the problem whose solution it takes
    for i, ((ch, _, n, restarts, seed), w) in enumerate(zip(problems, a)):
        key = (ch.q, n, w, restarts, seed) if isinstance(seed, (int, np.integer)) else i
        solver.append(first.setdefault(key, i))
    groups = {}
    for i in first.values():
        ch, _, n, _, _ = problems[i]
        groups.setdefault((ch.q, n), []).append(i)
    solved = {}
    for (q, n), members in groups.items():
        run, entries = [], 0
        for i in members:
            size = max(problems[i][3], _structured_seed_count(q, n)) * q**n  # its start entries
            if run and entries + size > BATCH_CAP:
                solved.update(zip(run, _solve_run(problems, a, run)))
                run, entries = [], 0
            run.append(i)
            entries += size
        solved.update(zip(run, _solve_run(problems, a, run)))
    results = []
    for (ch, rho, n, _, _), i in zip(problems, solver):
        point, value, count, converged, iterations, face_steps = solved[i]
        results.append(OracleResult(
            rho=rho,
            n=n,
            min_q=value,
            distribution=point.copy(),
            ex_n=-(rho / n) * math.log2(value),
            restarts=count,
            converged=converged,
            convex=rho <= cycle_constants(ch).rho_bar,
            iterations=iterations,
            face_steps=face_steps,
        ))
    return results


def _solve_run(problems, a, run):
    """Solve the problems with indices `run`, all of one (q, n), as one stack.

    a[i] is problem i's base weight. Returns, per problem of `run`, its
    (best point, value, start rows, converged, iterations, face_steps).
    """
    members = [problems[i] for i in run]
    q, n = members[0][0].q, members[0][2]
    starts = [_start_points(ch, n, restarts, seed) for ch, _, n, restarts, seed in members]
    counts = [len(s) for s in starts]
    owner = np.repeat(np.arange(len(run)), counts)
    pts, values, conv, iterations, face_steps = _projected_gradient_batch(
        np.array([a[i] for i in run]), q, n, np.concatenate(starts), owner
    )
    out, lo = [], 0
    for p, count in enumerate(counts):
        best = lo + int(np.argmin(values[lo:lo + count]))
        lo += count
        out.append((pts[best], float(values[best]), count, bool(conv[best]), int(iterations[p]),
                    int(face_steps[p])))
    return out


def minimize_q(ch, rho, n, restarts=200, seed=0):
    """Best local minimum of the n-letter quadratic form over the simplex.

    In the convex regime (rho <= rho_bar) every start converges to the
    global optimum; beyond it the search runs from `restarts` start rows
    in all, never fewer than the structured seeds (uniform, and the
    even-symbol or pentagon products where they apply), the rest random
    simplex draws, and the smallest value wins. The starts run as one
    vectorized batch; this is `minimize_q_batch` on one problem.
    Deterministic for a fixed seed. Non-convergence of the winning run is
    reported through the `converged` flag, never silently. q^n is capped
    at SIZE_CAP and restarts x q^n at BATCH_CAP.
    """
    return minimize_q_batch([(ch, rho, n, restarts, seed)])[0]


# relative tolerance of min_Q against each regime's closed form. min_Q does not
# scale with rho, whereas Ex_n = -(rho/n) log2 min_Q does: at rho = 1e12 one ulp
# of Ex_n passes any fixed absolute tolerance. 1e-9 is far above the optimizer's
# rounding (a few ulps), and tighter than an absolute 1e-6 on Ex_n for rho < 693 n
REGIME_RTOL = 1e-9


def regime_check(ch, res):
    """(passed, line): res.min_q against the closed form of its regime, at relative REGIME_RTOL.

    - convex regime (rho <= rho_bar): the uniform distribution is optimal,
      min_Q = ((1 + 2a)/q)^n (`uniform_value`);
    - even q past rho_bar: min_Q = (2/q)^n, attained by the even-symbol product;
    - q = 5 and even n past rho_bar: min_Q = 5^(-n/2), attained by the
      pentagon product (Lovasz's theta(C5) = sqrt(5));
    - every other odd q: only min_Q >= theta^(-n), the same statement as
      Ex_n <= rho log2(theta), so the check is one-sided.

    The line names the regime and the comparison, without PASS or FAIL.
    """
    q, n, got = ch.q, res.n, res.min_q
    if res.convex:
        label, form, target = "convex regime", "uniform closed form", uniform_value(ch, res.rho, n)
    elif q % 2 == 0:
        label, form, target = "even q", "(2/q)^n", (2.0 / q) ** n
    elif q == 5 and n % 2 == 0:
        label, form, target = "q=5 even n", "5^(-n/2)", 5.0 ** (-n / 2)
    else:
        target = cycle_constants(ch).theta ** -n
        return got >= target * (1.0 - REGIME_RTOL), (
            f"odd q: min_Q {got!r} >= theta^(-n) = {target!r} (rel tol {REGIME_RTOL:g}, "
            "one-sided: Ex_n <= rho log2(theta))"
        )
    return abs(got - target) <= REGIME_RTOL * target, (
        f"{label}: min_Q {got!r} vs {form} = {target!r} (rel tol {REGIME_RTOL:g})"
    )


def uniform_value(ch, rho, n):
    """Quadratic form at the uniform distribution: ((1 + 2 a)/q)^n with a = alpha^(1/rho)."""
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    return ((1.0 + 2.0 * a) / ch.q) ** n
