import math

import numpy as np
import pytest
from gram_oracles import (
    evaluate_quadratic_slow,
    gram_matrix_direct,
    project_simplex_rows_by_support,
    projected_gradient_fixed_step,
    simplex_minimum_by_faces,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbound.channel import Channel
from relbound.classical import rho_bar
from relbound.oracle import (
    BATCH_CAP,
    FACE_BYTES,
    GRAD_MAP_TOL,
    SIZE_CAP,
    _face_minimizers,
    _face_steps,
    _project_simplex_rows,
    _start_points,
    _stationary,
    eigenvalues_g1,
    expurgated_oracle_ex,
    gram_base,
    gram_matrix,
    minimize_q,
    uniform_value,
    word_count,
)

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)


def test_gram_base_entries():
    ch = Channel(4, 0.1)
    g = gram_base(ch, 2.0)
    a = 0.3 ** 0.5
    assert g[0, 0] == 1.0
    assert g[0, 1] == pytest.approx(a, abs=1e-15)
    assert g[0, 2] == 0.0
    assert g[0, 3] == pytest.approx(a, abs=1e-15)


def test_gram_matrix_is_exact_kronecker_power():
    ch = Channel(4, 0.1)
    g1 = gram_matrix(ch, 1.7, 1)
    g2 = gram_matrix(ch, 1.7, 2)
    assert np.array_equal(g2, np.kron(g1, g1))
    g3 = gram_matrix(ch, 1.7, 3)
    assert np.array_equal(g3, np.kron(g2, g1))


@pytest.mark.parametrize("q,n", [(4, 2), (5, 2)])
def test_gram_matrix_matches_direct_formula(q, n):
    ch = Channel(q, 0.07)
    kron = gram_matrix(ch, 1.3, n)
    direct = gram_matrix_direct(ch, 1.3, n)
    assert np.allclose(kron, direct, atol=1e-14, rtol=1e-14)


def test_gram_matrix_size_cap():
    for n in (6, 10**9):  # 5^(10^9) is never formed
        with pytest.raises(ValueError):
            gram_matrix(Channel(5, 0.1), 1.0, n)


def test_eigenvalues_closed_form():
    ch = Channel(4, 0.2)
    rb = rho_bar(ch)
    lam = eigenvalues_g1(ch, rb)
    assert min(lam) == pytest.approx(0.0, abs=1e-10)
    # alpha^(1/rho_bar) = 1/2 for even q gives the spectrum {2, 1, 0, 1}
    assert sorted(lam) == pytest.approx([0.0, 1.0, 1.0, 2.0], abs=1e-12)
    # against a numeric eigensolver
    num = np.linalg.eigvalsh(gram_base(ch, 1.4))
    assert np.allclose(sorted(eigenvalues_g1(ch, 1.4)), num, atol=1e-12)


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_minimize_q_convex_regime(q, n):
    ch = Channel(q, 0.1)
    rb = rho_bar(ch)
    for rho in (1.0, rb):
        res = minimize_q(ch, rho, n, restarts=4, seed=1)
        assert res.convex
        assert res.min_q == pytest.approx(uniform_value(ch, rho, n), abs=1e-9)


def test_minimize_q_even_nonconvex():
    for q in (4, 6):
        ch = Channel(q, 0.1)
        rho = 2.5 * rho_bar(ch)
        for n in (1, 2):
            res = minimize_q(ch, rho, n, restarts=12, seed=5)
            assert res.min_q == pytest.approx((2.0 / q) ** n, abs=1e-6)


def test_minimize_q_pentagon():
    ch = Channel(5, 0.1)
    rho = 2.0 * rho_bar(ch)
    res = minimize_q(ch, rho, 2, restarts=40, seed=2)
    assert res.min_q == pytest.approx(0.2, abs=1e-5)
    # the optimizer rediscovers a five-point support
    assert int((res.distribution > 1e-6).sum()) == 5


def test_minimize_q_monotone_in_rho():
    ch = Channel(4, 0.1)
    rb = rho_bar(ch)
    vals = [
        minimize_q(ch, float(rho), 1, restarts=8, seed=9).min_q
        for rho in np.linspace(1.0, 3.0 * rb, 12)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_returned_distribution_reevaluates_to_min_q():
    ch = Channel(5, 0.1)
    res = minimize_q(ch, 2.0 * rho_bar(ch), 2, restarts=20, seed=4)
    g = gram_matrix(ch, res.rho, 2)
    slow = evaluate_quadratic_slow(g.tolist(), res.distribution.tolist())
    assert slow == pytest.approx(res.min_q, abs=1e-12)
    assert res.distribution.min() >= 0.0
    assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)


def test_ex_n_values_and_sandwich():
    ch = Channel(4, 0.1)
    rb = rho_bar(ch)
    rho = 2.0 * rb
    got = expurgated_oracle_ex(ch, rho, 1, restarts=16, seed=0)
    assert got == pytest.approx(rho * math.log2(2.0), abs=1e-6)
    assert got <= rho * math.log2(2.0) + 1e-6

    ch5 = Channel(5, 0.1)
    rho5 = 2.0 * rho_bar(ch5)
    got5 = expurgated_oracle_ex(ch5, rho5, 2, restarts=40, seed=0)
    assert got5 == pytest.approx(rho5 * math.log2(math.sqrt(5.0)), abs=1e-5)
    assert got5 <= rho5 * math.log2(math.sqrt(5.0)) + 1e-6


def test_ex_n_blocklength_free_in_convex_regime():
    ch = Channel(5, 0.2)
    rho = 0.8 * rho_bar(ch)
    a = expurgated_oracle_ex(ch, rho, 1, restarts=4, seed=1)
    b = expurgated_oracle_ex(ch, rho, 2, restarts=4, seed=1)
    assert a == pytest.approx(b, abs=1e-8)


def test_determinism_and_flags():
    ch = Channel(5, 0.1)
    r1 = minimize_q(ch, 3.0, 2, restarts=10, seed=42)
    r2 = minimize_q(ch, 3.0, 2, restarts=10, seed=42)
    assert r1.min_q == r2.min_q
    assert np.array_equal(r1.distribution, r2.distribution)
    assert r1.restarts == 10
    # starved of iterations the flag must report non-convergence; q=7 has
    # no instantly optimal structured seed to mask the starvation
    ch7 = Channel(7, 0.1)
    rho7 = 3.0 * rho_bar(ch7)
    full = minimize_q(ch7, rho7, 1, restarts=8, seed=42)
    starved = minimize_q(ch7, rho7, 1, restarts=8, seed=42, max_iter=1)
    assert full.converged
    assert not starved.converged
    with pytest.raises(ValueError):
        minimize_q(ch, 3.0, 2, restarts=0)


def test_projection_matches_support_search_reference():
    rng = np.random.default_rng(0)
    for m in (1, 2, 5, 25, 49):
        v = np.concatenate((
            rng.normal(size=(50, m)),
            np.round(rng.normal(size=(50, m)), 1),  # ties
            rng.dirichlet(np.ones(m), size=50) - 0.01 * rng.random((50, m)),
        ))
        got = _project_simplex_rows(v)
        ref = project_simplex_rows_by_support(v)
        # the shifts differ only where two candidates (1 - s_k)/k tie within rounding
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * (1.0 + np.abs(v).max())
        assert got.min() >= 0.0
        assert np.abs(got.sum(axis=1) - 1.0).max() <= m * np.finfo(float).eps


def test_slowest_convex_case_converges_in_few_iterations():
    # rho midway to rho_bar leaves the Gram matrix near singular; the
    # fixed-step solver needs 7 406 iterations on this case
    ch = Channel(5, 0.5)
    rho = 0.5 * (1.0 + rho_bar(ch))
    res = minimize_q(ch, rho, 2, restarts=6, seed=0)
    assert res.convex and res.converged
    assert res.min_q == pytest.approx(uniform_value(ch, rho, 2), abs=1e-9)
    assert res.iterations <= 1000


@pytest.mark.parametrize("q,mult,n", [(5, 0.5, 2), (5, 2.0, 2), (7, 3.0, 1), (4, 2.5, 2)])
def test_converged_point_carries_the_certificate(q, mult, n):
    ch = Channel(q, 0.1)
    rho = max(1.0, mult * rho_bar(ch))
    res = minimize_q(ch, rho, n, restarts=12, seed=3)
    assert res.converged
    g = gram_matrix(ch, rho, n)
    step = 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))
    x = res.distribution[None, :]
    d = _project_simplex_rows(x - 2.0 * step * (x @ g)) - x
    assert np.linalg.norm(d) / step <= GRAD_MAP_TOL or np.all(x + d == x)
    starved = minimize_q(ch, rho, n, restarts=12, seed=3, max_iter=1)
    assert starved.iterations == 1


@st.composite
def oracle_cases(draw):
    """Random cases; rho anywhere in [1, 3.5 rho_bar] or within 1% below rho_bar."""
    q = draw(st.integers(min_value=4, max_value=7))
    eps = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    ch = Channel(q, eps)
    rb = rho_bar(ch)
    rho = draw(st.one_of(
        st.floats(min_value=1.0, max_value=3.5 * rb),
        st.floats(min_value=max(1.0, 0.99 * rb), max_value=rb),
    ))
    n = draw(st.integers(min_value=1, max_value=2))
    restarts = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return ch, rho, n, restarts, seed


# the fixed-step oracle needs up to MAX_ITER iterations (about 10 s at
# q^n = 36) where rho sits just below rho_bar; it stops earlier here
ORACLE_MAX_ITER = 20_000
CH_NEAR = Channel(5, 0.3)


@PROPERTY
@given(oracle_cases())
# momentum reset only by the gradient test ends 0.25% above the oracle here
@example((Channel(7, 0.125), 3.0, 2, 2, 0))
# within 1% of rho_bar, below and above
@example((CH_NEAR, 0.995 * rho_bar(CH_NEAR), 2, 10, 2))
@example((CH_NEAR, 1.005 * rho_bar(CH_NEAR), 2, 10, 2))
def test_accelerated_solver_matches_fixed_step_oracle(case):
    ch, rho, n, restarts, seed = case
    res = minimize_q(ch, rho, n, restarts=restarts, seed=seed)
    g = gram_matrix(ch, rho, n)
    starts = _start_points(ch, n, restarts, seed)
    _, values, conv = projected_gradient_fixed_step(g, starts, max_iter=ORACLE_MAX_ITER)
    best = int(np.argmin(values))
    assert res.converged
    # the oracle descends monotonically, so where the cap stops it its
    # value still bounds the value it would reach from above
    assert res.min_q <= values[best] + 1e-12 * values[best]
    if conv[best]:
        assert res.min_q == pytest.approx(values[best], rel=1e-12, abs=0.0)
    else:
        # only near-singular convex cases outlast the cap; the closed form pins them
        assert res.convex
    if res.convex:
        assert res.min_q == pytest.approx(uniform_value(ch, rho, n), abs=1e-9)


@st.composite
def cases_just_above_rho_bar(draw):
    """One-letter cases with rho within 1% above rho_bar and at least one random start.

    A lone start is the uniform point, which is stationary (a saddle past
    rho_bar) and stays there.
    """
    q = draw(st.integers(min_value=4, max_value=7))
    eps = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    ch = Channel(q, eps)
    rb = rho_bar(ch)
    rho = draw(st.floats(min_value=rb, max_value=1.01 * rb, exclude_min=True))
    restarts = draw(st.integers(min_value=2, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return ch, rho, restarts, seed


@PROPERTY
@given(cases_just_above_rho_bar())
# 1.6e-5 above rho_bar: the fixed-step oracle is still moving after 10^5 iterations
@example((Channel(7, 0.3984375), 1.212890625, 2, 0))
def test_solver_reaches_exact_minimum_just_above_rho_bar(case):
    # here the smallest eigenvalue of g is barely negative and the fixed-step
    # oracle outlasts any cap, so the reference is every face's KKT point
    ch, rho, restarts, seed = case
    res = minimize_q(ch, rho, 1, restarts=restarts, seed=seed)
    assert not res.convex and res.converged
    exact = simplex_minimum_by_faces(gram_matrix(ch, rho, 1))
    assert res.min_q == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q,eps,rho,restarts,seed", [
    (5, 0.15184, 2.1254, 14, 485),  # rho_bar = 2.1296; 9 593 iterations without the face step
    (6, 0.466, 1.0, 200, 0),  # rho_bar = 1.0033; 5 755 iterations without the face step
])
def test_slow_cases_below_rho_bar_finish_by_face_steps(q, eps, rho, restarts, seed):
    ch = Channel(q, eps)
    res = minimize_q(ch, rho, 2, restarts=restarts, seed=seed)
    assert res.convex and res.converged
    assert res.iterations <= 500
    assert res.face_steps >= 1
    assert res.min_q == pytest.approx(uniform_value(ch, rho, 2), abs=1e-9)


def _step(g):
    return 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))


def test_face_step_refuses_a_saddle_and_a_point_off_the_simplex():
    # past rho_bar the uniform point is stationary on the full face (g 1 is
    # a multiple of 1) and nonnegative, but the face is indefinite there
    ch = Channel(5, 0.1)
    g = gram_matrix(ch, 2.0 * rho_bar(ch), 1)
    full = np.ones((1, 5), dtype=bool)
    basis = np.eye(5)[:, :4] - np.eye(5)[:, [4]]
    assert np.linalg.eigvalsh(basis.T @ g @ basis).min() < -0.1
    x = np.full((1, 5), 0.2)
    d = _project_simplex_rows(x - 2.0 * _step(g) * (x @ g)) - x
    assert _stationary(x, d, _step(g), GRAD_MAP_TOL)[0]
    z, ok = _face_minimizers(g, full, _step(g))
    assert np.allclose(z, x) and not ok[0]
    # on {0, 1, 2} with a = alpha^(1/rho) in (1/2, 1/sqrt 2) the face is
    # positive definite, but its minimizer puts weight (1 - 2a)/(3 - 4a) < 0 on 1
    g = gram_matrix(Channel(5, 0.5), 1.5, 1)
    face = np.array([[True, True, True, False, False]])
    assert np.linalg.eigvalsh(g[:3, :3]).min() > 0.0
    z, ok = _face_minimizers(g, face, _step(g))
    assert not ok[0] and z[0, 1] < 0.0


def test_face_step_refuses_a_face_minimum_the_simplex_undercuts():
    # {0, 2} are not neighbours, so g_SS = I and the face minimizer puts 1/2 on
    # each; it is nonnegative on a definite face, but (g z)_3 = a/2 < 1/2, so
    # moving weight onto 3 lowers the form and the stopping test fails there
    g = gram_matrix(Channel(5, 0.1), 1.5, 1)
    z, ok = _face_minimizers(g, np.array([[True, False, True, False, False]]), _step(g))
    assert np.allclose(z, [[0.5, 0.0, 0.5, 0.0, 0.0]]) and not ok[0]


def test_face_step_skips_a_face_too_large_for_one_stack():
    # the uniform point is the exact minimizer on this face, but its
    # reduced Hessian alone would exceed FACE_BYTES, so it is not solved
    m = 1100
    assert 8 * (m - 1) ** 2 > FACE_BYTES
    g = np.eye(m)
    x = np.full((1, m), 1.0 / m)
    faces = {}
    z, took = _face_steps(g, x, x @ g, _step(g), GRAD_MAP_TOL, faces)
    assert not took[0] and not faces


def test_face_step_accepts_definite_and_singular_convex_faces():
    for ch, rho in ((Channel(5, 0.1), 1.5), (Channel(4, 0.1), rho_bar(Channel(4, 0.1)))):
        g = gram_matrix(ch, rho, 2)
        m = ch.q**2
        z, ok = _face_minimizers(g, np.ones((1, m), dtype=bool), _step(g))
        assert ok[0] and z.min() >= 0.0
        assert z[0] @ g @ z[0] == pytest.approx(uniform_value(ch, rho, 2), rel=1e-14)


def test_size_and_restart_caps_refuse_without_work():
    ch = Channel(5, 0.1)
    assert word_count(5, 5) == SIZE_CAP
    with pytest.raises(ValueError, match="size cap"):
        word_count(5, 6)
    with pytest.raises(ValueError, match="blocklength"):
        word_count(5, 0)
    # the default 200 restarts fit at the size cap
    assert 200 * SIZE_CAP <= BATCH_CAP
    with pytest.raises(ValueError, match="restarts"):
        minimize_q(ch, 2.0, 5, restarts=BATCH_CAP // SIZE_CAP + 1)


@pytest.mark.parametrize("rho", [math.nan, math.inf])
def test_non_finite_tilt_refused(rho):
    with pytest.raises(ValueError, match="finite"):
        minimize_q(Channel(5, 0.1), rho, 1)
