import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from gram_oracles import (
    evaluate_quadratic_slow,
    gram_base,
    gram_matrix,
    gram_matrix_direct,
    project_simplex_rows_by_support,
    projected_gradient_fixed_step,
    simplex_minimum_by_faces,
    structured_seeds,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbound import acceptance, oracle
from relbound.channel import Channel, bhattacharyya, theta_cycle
from relbound.classical import rho_bar
from relbound.oracle import (
    BATCH_CAP,
    CERTIFY_RTOL,
    FACE_BYTES,
    GRAD_MAP_TOL,
    REGIME_RTOL,
    SIZE_CAP,
    OracleResult,
    _face_grams,
    _face_minimizers,
    _face_steps,
    _project_simplex_rows,
    _start_points,
    _stationary,
    _times_gram,
    eigenvalues_g1,
    min_q_lower_bound,
    minimize_q,
    regime_check,
    word_count,
)

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None)


def _uniform_value(ch, rho, n):
    """The form at the uniform row, ((1 + 2a)/q)^n: the minimum in the convex regime."""
    return ((1.0 + 2.0 * bhattacharyya(ch.epsilon) ** (1.0 / rho)) / ch.q) ** n


def _stop_free_search(ch, rho, n, starts):
    """`oracle._search` without its stop at L: every row runs until it freezes."""
    return oracle._projected_gradient_batch(bhattacharyya(ch.epsilon) ** (1.0 / rho), ch.q, n,
                                            starts, -math.inf)


def _full_search(ch, rho, n, restarts, seed):
    """The search `minimize_q` runs where no witness certifies the problem, on any problem.

    Every row runs until it freezes: with the stop at L, a search holding
    the uniform row in the convex regime would end at it in iteration 1.
    Returns (best value, its converged flag, iterations, face steps).
    """
    _, values, conv, iterations, face_steps = _stop_free_search(
        ch, rho, n, _start_points(ch, n, restarts, seed))
    best = int(np.argmin(values))
    return float(values[best]), bool(conv[best]), iterations, face_steps


def _random_rows_search(ch, rho, n, restarts, seed):
    """`oracle._search` from the random start rows alone, as check (c) runs it.

    In the convex regime the uniform row is the optimum, and a search that
    holds it stops there, certified by L, in its first iteration.
    """
    _, values, conv, iterations, face_steps = oracle._search(
        ch, rho, n, _start_points(ch, n, restarts, seed)[1:])
    best = int(np.argmin(values))
    return float(values[best]), bool(conv[best]), iterations, face_steps


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


@st.composite
def stencil_cases(draw):
    """q in 4..9, n with q^n <= SIZE_CAP, one tilt, 1-20 rows."""
    q = draw(st.integers(min_value=4, max_value=9))
    n = draw(st.integers(min_value=1, max_value=max(k for k in range(1, 7) if q**k <= SIZE_CAP)))
    ch = Channel(q, draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True)))
    rho = draw(st.floats(min_value=0.05, max_value=50.0))
    rows = draw(st.integers(min_value=1, max_value=20))
    return ch, rho, n, rows, draw(st.integers(min_value=0, max_value=2**32 - 1))


@PROPERTY
@given(stencil_cases())
@example((Channel(5, 0.1), 2.0, 5, 20, 0))  # q^n = SIZE_CAP
@example((Channel(4, 0.5), 1.0, 3, 1, 1))  # 4^3 = 8^2
@example((Channel(8, 0.5), 1.0, 2, 1, 1))
def test_stencil_product_and_face_gather_match_the_kronecker_power(case):
    ch, rho, n, rows, seed = case
    q, m = ch.q, ch.q**n
    rng = np.random.default_rng(seed)
    a = bhattacharyya(ch.epsilon) ** (1.0 / rho)
    x = rng.normal(size=(rows, m))
    got = _times_gram(x, a, q, n)
    k = int(rng.integers(1, min(m, 40) + 1))
    idx = np.sort([rng.choice(m, size=k, replace=False) for _ in range(rows)], axis=1)
    g = gram_matrix(ch, rho, n)
    scale = (np.abs(x) @ g).sum(axis=1, keepdims=True)
    assert np.all(np.abs(got - x @ g) <= 1e-14 * scale)
    for s, block in zip(idx, _face_grams(a, q, n, idx)):
        assert np.array_equal(block, g[np.ix_(s, s)])


@pytest.mark.parametrize("q, n", [(4, 1), (4, 2), (5, 2), (5, 3), (7, 2), (4, 5)])
def test_gram_product_gives_each_row_its_own_bits_in_c_order(q, n):
    # the solver compares values x G x taken in stacks of any size with the
    # values of single rows; einsum sums an F-ordered operand's rows in another
    # order, so the product is C-ordered whatever the order of x (the solver's x is)
    rng = np.random.default_rng(10 * q + n)
    a = bhattacharyya(0.1) ** 0.5
    x = rng.dirichlet(np.ones(q**n), size=9)
    for stack in (x[:1], x):
        for given in (stack, np.asfortranarray(stack)):
            xg = _times_gram(given, a, q, n)
            assert xg.flags.c_contiguous
            values = np.einsum("bi,bi->b", xg, stack)
            for i, row in enumerate(stack):
                alone = _times_gram(row[None, :], a, q, n)
                assert np.array_equal(xg[i], alone[0])
                assert values[i] == np.einsum("bi,bi->b", alone, row[None, :])[0]


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
        assert res.min_q == pytest.approx(_uniform_value(ch, rho, n), abs=1e-9)


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
    # the witness is the pentagon product, a five-point support
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
    got = minimize_q(ch, rho, 1, restarts=16, seed=0).ex_n
    assert got == pytest.approx(rho * math.log2(2.0), abs=1e-6)
    assert got <= rho * math.log2(2.0) + 1e-6

    ch5 = Channel(5, 0.1)
    rho5 = 2.0 * rho_bar(ch5)
    got5 = minimize_q(ch5, rho5, 2, restarts=40, seed=0).ex_n
    assert got5 == pytest.approx(rho5 * math.log2(math.sqrt(5.0)), abs=1e-5)
    assert got5 <= rho5 * math.log2(math.sqrt(5.0)) + 1e-6


def _result_at(ch, rho, n, min_q, convex=None):
    """An OracleResult for (ch, rho, n) that claims min_q, as the checks read it."""
    return OracleResult(rho=rho, n=n, min_q=min_q, distribution=np.zeros(ch.q**n),
                        ex_n=-(rho / n) * math.log2(min_q), restarts=1, converged=True,
                        convex=rho <= rho_bar(ch) if convex is None else convex,
                        iterations=0, face_steps=0, lower=min_q_lower_bound(ch, rho, n))


# (channel, rho, n, what the line names, the closed form L equals, two-sided); q = 5 with
# odd n has no witness
REGIMES = [
    (Channel(5, 0.1), 2.0, 2, "two-sided: the uniform row attains L",
     _uniform_value(Channel(5, 0.1), 2.0, 2), True),
    (Channel(6, 0.1), 3.0, 2, "two-sided: the even-symbol product attains L", 1.0 / 9.0, True),
    (Channel(5, 0.1), 6.0, 2, "two-sided: the pentagon product attains L", 0.2, True),
    (Channel(7, 0.1), 5.0, 1, "one-sided", 1.0 / theta_cycle(7), False),
    (Channel(5, 0.1), 6.0, 1, "one-sided", 5.0 ** -0.5, False),
]


@pytest.mark.parametrize("ch, rho, n, how, target, two_sided", REGIMES)
@pytest.mark.parametrize("k", [-2.0, -0.5, 0.5, 2.0])
def test_regime_check_holds_within_its_relative_tolerance(ch, rho, n, how, target, two_sided, k):
    lower = min_q_lower_bound(ch, rho, n)
    assert lower == pytest.approx(target, rel=1e-14, abs=0.0)  # L is each regime's closed form
    passed, line = regime_check(ch, _result_at(ch, rho, n, lower * (1.0 + k * REGIME_RTOL)))
    # half the tolerance passes and twice it fails; without a witness it fails only from below
    assert passed == (abs(k) < 1.0 or (k > 0.0 and not two_sided))
    assert line.startswith("min_Q ") and f"vs L = {lower!r}, min_Q/L - 1 = " in line
    assert f"(rel tol 1e-09; {how}" in line


def test_regime_check_takes_the_witness_from_the_result_flag():
    # q = 7 has a witness in the convex regime alone, so 10% above L fails only there
    ch, rho = Channel(7, 0.1), 3.0
    for convex in (True, False):
        res = _result_at(ch, rho, 1, 1.1 * min_q_lower_bound(ch, rho, 1), convex=convex)
        ok, line = regime_check(ch, res)
        assert ok != convex and ("the uniform row attains L" in line) == convex
        assert "min_Q/L - 1 = 0.1 " in line


def test_witnesses_match_tuple_built_reference():
    for q in range(4, 10):
        n = 1
        while q**n <= SIZE_CAP:
            want = structured_seeds(q, n)  # the uniform row, then the product past rho_bar
            assert len(want) == 1 + (q % 2 == 0) + (q == 5 and n % 2 == 0)
            assert oracle._witness_name(q, n, True) == "uniform row"
            assert np.array_equal(oracle._witness_row(q, n, True), want[0]), (q, n)
            assert (oracle._witness_name(q, n, False) is None) == (len(want) == 1)
            if len(want) == 2:
                assert np.array_equal(oracle._witness_row(q, n, False), want[1]), (q, n)
            n += 1


@pytest.mark.parametrize("q", range(4, 12))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lower_bound_is_each_closed_form_rounded_down(q, n):
    # in exact arithmetic on the floats: the uniform value at the float a, (2/q)^n, and
    # theta^(-n) at the float theta, which the margins in L keep above it too
    ch = Channel(q, 0.1)
    rb = rho_bar(ch)
    for rho in (0.5 * rb, rb, 2.0 * rb, 1e12):
        lower = Fraction(min_q_lower_bound(ch, rho, n))
        if rho <= rb:
            target = ((1 + 2 * Fraction(bhattacharyya(0.1) ** (1.0 / rho))) / q) ** n
        else:
            target = Fraction(2, q) ** n if q % 2 == 0 else Fraction(theta_cycle(q)) ** -n
        assert target * (1 - Fraction(1, 10**14)) <= lower < target


def test_ex_n_blocklength_free_in_convex_regime():
    ch = Channel(5, 0.2)
    rho = 0.8 * rho_bar(ch)
    a = minimize_q(ch, rho, 1, restarts=4, seed=1).ex_n
    b = minimize_q(ch, rho, 2, restarts=4, seed=1).ex_n
    assert a == pytest.approx(b, abs=1e-8)


def test_determinism_and_flags(monkeypatch):
    ch = Channel(5, 0.1)
    r1 = minimize_q(ch, 3.0, 2, restarts=10, seed=42)
    r2 = minimize_q(ch, 3.0, 2, restarts=10, seed=42)
    assert r1.min_q == r2.min_q
    assert np.array_equal(r1.distribution, r2.distribution)
    assert r1.restarts == 10
    # starved of iterations the flag must report non-convergence; q=7 has
    # no witness to mask the starvation
    ch7 = Channel(7, 0.1)
    rho7 = 3.0 * rho_bar(ch7)
    full = minimize_q(ch7, rho7, 1, restarts=8, seed=42)
    with pytest.raises(ValueError):
        minimize_q(ch, 3.0, 2, restarts=0)
    monkeypatch.setattr(oracle, "MAX_ITER", 1)
    starved = minimize_q(ch7, rho7, 1, restarts=8, seed=42)
    assert full.converged
    assert not starved.converged


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
    assert rho <= rho_bar(ch)
    value, converged, iterations, _ = _random_rows_search(ch, rho, 2, 6, 0)
    assert converged
    assert value == pytest.approx(_uniform_value(ch, rho, 2), abs=1e-9)
    assert iterations <= 1000


# (q, rho / rho_bar, n, searched): a witness certifies all but the odd-q cases past rho_bar
@pytest.mark.parametrize("q,mult,n,searched", [(5, 0.5, 2, False), (5, 2.0, 2, False),
                                               (7, 3.0, 1, True), (4, 2.5, 2, False),
                                               (5, 2.0, 1, True)])
def test_converged_point_carries_the_certificate(q, mult, n, searched, monkeypatch):
    ch = Channel(q, 0.1)
    rho = max(1.0, mult * rho_bar(ch))
    res = minimize_q(ch, rho, n, restarts=12, seed=3)
    assert res.converged
    g = gram_matrix(ch, rho, n)
    step = 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))
    x = res.distribution[None, :]
    d = _project_simplex_rows(x - 2.0 * step * (x @ g)) - x
    assert np.linalg.norm(d) / step <= GRAD_MAP_TOL or np.all(x + d == x)
    monkeypatch.setattr(oracle, "MAX_ITER", 1)
    starved = minimize_q(ch, rho, n, restarts=12, seed=3)
    # the cap stops a search after one iteration; a certified problem runs none
    assert starved.iterations == (1 if searched else 0)


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
    # the search itself, also where minimize_q would return a certified witness
    ch, rho, n, restarts, seed = case
    value, converged, _, _ = _full_search(ch, rho, n, restarts, seed)
    convex = rho <= rho_bar(ch)
    g = gram_matrix(ch, rho, n)
    starts = _start_points(ch, n, restarts, seed)
    _, values, conv = projected_gradient_fixed_step(g, starts, max_iter=ORACLE_MAX_ITER)
    best = int(np.argmin(values))
    assert converged
    # the oracle descends monotonically, so where the cap stops it its
    # value still bounds the value it would reach from above
    assert value <= values[best] + 1e-12 * values[best]
    if conv[best]:
        assert value == pytest.approx(values[best], rel=1e-12, abs=0.0)
    else:
        # only near-singular convex cases outlast the cap; the closed form pins them
        assert convex
    if convex:
        assert value == pytest.approx(_uniform_value(ch, rho, n), abs=1e-9)


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
    # the search itself: minimize_q returns the uniform witness here without one
    ch = Channel(q, eps)
    value, converged, iterations, face_steps = _random_rows_search(ch, rho, 2, restarts, seed)
    assert rho <= rho_bar(ch) and converged
    assert iterations <= 500
    assert face_steps >= 1
    assert value == pytest.approx(_uniform_value(ch, rho, 2), abs=1e-9)


@st.composite
def lower_bound_cases(draw):
    """q in 4..9, n <= 2, rho on both sides of rho_bar, 1-30 restarts, any seed."""
    q = draw(st.integers(min_value=4, max_value=9))
    ch = Channel(q, draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True)))
    rho = rho_bar(ch) * draw(st.one_of(st.floats(min_value=0.2, max_value=5.0),
                                       st.floats(min_value=0.99, max_value=1.01)))
    n = draw(st.integers(min_value=1, max_value=2))
    restarts = draw(st.integers(min_value=1, max_value=30))
    return ch, rho, n, restarts, draw(st.integers(min_value=0, max_value=2**32 - 1))


@PROPERTY
@given(lower_bound_cases())
@example((Channel(9, 0.1), 2.0 * rho_bar(Channel(9, 0.1)), 2, 10, 0))  # searched, q^n = 81
@example((Channel(5, 0.1), 2.0 * rho_bar(Channel(5, 0.1)), 2, 1, 0))  # the pentagon product
def test_min_q_is_at_least_l_and_meets_it_where_a_witness_does(case):
    ch, rho, n, restarts, seed = case
    res = minimize_q(ch, rho, n, restarts=restarts, seed=seed)
    assert res.lower == min_q_lower_bound(ch, rho, n)
    assert res.min_q >= res.lower * (1.0 - 1e-12)
    assert res.distribution.min() >= 0.0
    assert abs(res.distribution.sum() - 1.0) <= 1e-12
    if oracle._witness_name(ch.q, n, res.convex) is not None:
        assert res.min_q <= res.lower * (1.0 + 1e-12)
        assert res.iterations == 0


# the cases each of which once ran for seconds to minutes, now certified by their witness
@pytest.mark.parametrize("ch, rho, n, restarts, seed, value", [
    (Channel(38, 0.0769), 1e7, 1, 4, 38, 1.0 / 19.0),  # 18 018 iterations
    (Channel(8, 0.01), 1e9, 1, 200, 0, 0.25),  # every row ran to MAX_ITER
    (Channel(5, 0.15184), 2.1254, 3, 20, 485, _uniform_value(Channel(5, 0.15184), 2.1254, 3)),
    (Channel(5, 0.1), 2.49, 5, 20, 1, _uniform_value(Channel(5, 0.1), 2.49, 5)),
])
def test_slow_cases_with_a_witness_are_certified_without_a_search(ch, rho, n, restarts, seed,
                                                                   value):
    res = minimize_q(ch, rho, n, restarts=restarts, seed=seed)
    assert res.converged and res.iterations == 0 and res.face_steps == 0
    assert res.min_q == pytest.approx(value, rel=1e-12, abs=0.0)


def test_oracle_criterion_solves_each_distinct_problem_once(monkeypatch):
    # a witness certifies each of the 58 (a)/(b) problems with one product of one row,
    # and only (c)'s two random-row searches reach the solver
    runs, products, calls = [], [], []
    solve, times_gram, minimize = (oracle._projected_gradient_batch, oracle._times_gram,
                                   oracle.minimize_q)

    def spy(a, q, n, starts, lower):
        runs.append(starts.shape)
        return solve(a, q, n, starts, lower)

    def count(x, *args):
        products.append(len(x))
        return times_gram(x, *args)

    def keep(*problem):
        products.clear()
        calls.append((minimize(*problem), list(products)))
        return calls[-1][0]

    monkeypatch.setattr(oracle, "_projected_gradient_batch", spy)
    monkeypatch.setattr(oracle, "_times_gram", count)
    monkeypatch.setattr(oracle, "minimize_q", keep)
    assert acceptance.check_oracle(0).ok
    assert runs == [(150, 25), (20, 16)]
    assert len(calls) == 58
    assert all(witness_products == [1] for _, witness_products in calls)
    assert all(res.converged and res.iterations == res.face_steps == 0 for res, _ in calls)


@pytest.mark.parametrize("problem", [
    (Channel(7, 0.1), 5.0, 2, 200, 0),
    (Channel(9, 0.3), 10.0, 2, 200, 0),
    (Channel(5, 0.1), 3.0, 3, 40, 0),
    (Channel(11, 0.1), 5.0, 1, 200, 0),
])
def test_stop_at_l_changes_nothing_where_no_row_reaches_l(problem, monkeypatch):
    # odd q past rho_bar, where min_Q stays above L
    with_stop = minimize_q(*problem)
    monkeypatch.setattr(oracle, "_search", _stop_free_search)
    without = minimize_q(*problem)
    assert with_stop.iterations > 0 and with_stop.min_q > with_stop.lower * 1.01
    assert with_stop.distribution.tobytes() == without.distribution.tobytes()
    assert (with_stop.min_q, with_stop.converged, with_stop.iterations, with_stop.face_steps) == (
        without.min_q, without.converged, without.iterations, without.face_steps)


# (ch, rho, n, restarts, seed, first start row)
@pytest.mark.parametrize("ch, rho, n, restarts, seed, first", [
    # check (c)'s two searches, from the random rows alone
    (Channel(5, 0.1), 2.0 * rho_bar(Channel(5, 0.1)), 2, 151, 0, 1),
    (Channel(4, 0.1), 2.0 * rho_bar(Channel(4, 0.1)), 2, 21, 0, 1),
    (Channel(5, 0.1), 2.0 * rho_bar(Channel(5, 0.1)), 2, 151, 7, 1),
    # one ulp past rho_bar, the uniform row is a saddle within 1e-15 of L
    (Channel(7, 0.1), math.nextafter(rho_bar(Channel(7, 0.1)), math.inf), 1, 8, 0, 0),
])
def test_stop_at_l_ends_the_search_within_certify_rtol_of_its_end(ch, rho, n, restarts, seed,
                                                                 first):
    starts = _start_points(ch, n, restarts, seed)[first:]
    _, values, conv, iterations, _ = oracle._search(ch, rho, n, starts)
    _, full, full_conv, full_iterations, _ = _stop_free_search(ch, rho, n, starts)
    lower = min_q_lower_bound(ch, rho, n)
    best, full_best = values.min(), full.min()
    assert iterations < full_iterations and full_conv.all()
    assert conv[np.argmin(values)] and best <= lower * (1.0 + CERTIFY_RTOL)
    assert best == pytest.approx(full_best, rel=CERTIFY_RTOL, abs=0.0)
    # check (c)'s verdict, within REGIME_RTOL of L, is the one the full search gives
    assert (abs(best - lower) <= REGIME_RTOL * lower) == (abs(full_best - lower) <= REGIME_RTOL * lower)


def test_a_row_still_moving_at_l_when_the_search_stops_is_certified_too():
    # even q past rho_bar, L = 1/3: when the first row freezes at L, a row still
    # moving already sits at L too and is the best; L certifies it as well
    ch, rho = Channel(6, 0.29004961705758286), 3.1722810699281485
    starts = _start_points(ch, 1, 11, 3267007164)
    _, values, conv, iterations, _ = oracle._search(ch, rho, 1, starts)
    full_iterations = _stop_free_search(ch, rho, 1, starts)[3]
    best = int(np.argmin(values))
    assert iterations < full_iterations
    assert conv[best] and values[best] <= min_q_lower_bound(ch, rho, 1) * (1.0 + CERTIFY_RTOL)


def test_batch_keeps_an_unconverged_problem_apart(monkeypatch):
    # q = 7 past rho_bar has no witness to mask a starved search; the uniform witness
    # certifies the convex problem without one
    ch7 = Channel(7, 0.1)
    monkeypatch.setattr(oracle, "MAX_ITER", 2)
    starved = minimize_q(ch7, 3.0 * rho_bar(ch7), 1, 8, 42)
    assert not starved.converged and starved.iterations == 2
    certified = minimize_q(Channel(4, 0.1), 1.0, 1, 4, 0)
    assert certified.converged and certified.iterations == 0


@pytest.mark.parametrize("problem, searched", [
    ((Channel(7, 0.1), 3.0 * rho_bar(Channel(7, 0.1)), 2, 10, 1), True),
    ((Channel(5, 0.1), 2.0, 2, 10, 0), False),
])
def test_result_owns_its_distribution(problem, searched):
    # a view into the search's stack of start rows would keep all of it alive
    res = minimize_q(*problem)
    assert (res.iterations > 0) == searched
    assert res.distribution.base is None and res.distribution.shape == (problem[0].q ** 2,)


def test_memory_at_the_size_cap_stays_a_few_rows_of_words(monkeypatch):
    # the dense Gram matrix alone is 78 MB at SIZE_CAP; 20 start rows of
    # 3125 words are 0.5 MB an array
    monkeypatch.setattr(oracle, "MAX_ITER", 50)
    tracemalloc.start()
    try:
        minimize_q(Channel(5, 0.1), 3.0, 5, restarts=20)  # odd n past rho_bar: searched
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _step(g):
    return 1.0 / (2.0 * float(np.max(np.sum(g, axis=1))))


def _minimizers(ch, rho, n, supports):
    """`_face_minimizers` on supports in the problem (ch, rho, n)."""
    return _face_minimizers(bhattacharyya(ch.epsilon) ** (1.0 / rho), ch.q, n, supports)


def test_face_minimizers_give_each_support_the_same_bits_in_any_stack():
    # the face step cuts its stacks by size alone, so a support's result may
    # not depend on which supports share its stack, or where it sits there
    rng = np.random.default_rng(7)
    supports = np.zeros((12, 25), dtype=bool)
    supports[:6] = True  # the uniform point is accepted on the full face where G is PSD
    for row in supports[6:]:
        row[rng.choice(25, size=25 if rng.random() < 0.5 else 9, replace=False)] = True
    supports = supports[np.argsort(supports.sum(axis=1), kind="stable")]
    accepted = 0
    for eps, rho in ((0.1, 1.0), (0.3, 4.0), (0.5, 1.2)):
        a = bhattacharyya(eps) ** (1.0 / rho)
        for size in (9, 25):
            same = supports[supports.sum(axis=1) == size]
            z, ok = _face_minimizers(a, 5, 2, same)
            accepted += ok.sum()
            zr, okr = _face_minimizers(a, 5, 2, same[::-1])
            assert np.array_equal(zr[::-1], z) and np.array_equal(okr[::-1], ok)
            for i in range(len(z)):
                zi, oki = _face_minimizers(a, 5, 2, same[i:i + 1])
                assert np.array_equal(zi[0], z[i]) and oki[0] == ok[i]
    assert accepted > 0


def test_face_step_refuses_a_saddle_and_a_point_off_the_simplex():
    # past rho_bar the uniform point is stationary on the full face (g 1 is
    # a multiple of 1) and nonnegative, but the face is indefinite there
    ch = Channel(5, 0.1)
    rho = 2.0 * rho_bar(ch)
    g = gram_matrix(ch, rho, 1)
    full = np.ones((1, 5), dtype=bool)
    basis = np.eye(5)[:, :4] - np.eye(5)[:, [4]]
    assert np.linalg.eigvalsh(basis.T @ g @ basis).min() < -0.1
    x = np.full((1, 5), 0.2)
    d = _project_simplex_rows(x - 2.0 * _step(g) * (x @ g)) - x
    assert _stationary(x, d, _step(g), GRAD_MAP_TOL)[0]
    z, ok = _minimizers(ch, rho, 1, full)
    assert np.allclose(z, x) and not ok[0]
    # on {0, 1, 2} with a = alpha^(1/rho) in (1/2, 1/sqrt 2) the face is
    # positive definite, but its minimizer puts weight (1 - 2a)/(3 - 4a) < 0 on 1
    g = gram_matrix(Channel(5, 0.5), 1.5, 1)
    face = np.array([[True, True, True, False, False]])
    assert np.linalg.eigvalsh(g[:3, :3]).min() > 0.0
    z, ok = _minimizers(Channel(5, 0.5), 1.5, 1, face)
    assert not ok[0] and z[0, 1] < 0.0


def test_face_step_refuses_a_face_minimum_the_simplex_undercuts():
    # {0, 2} are not neighbours, so g_SS = I and the face minimizer puts 1/2 on
    # each; it is nonnegative on a definite face, but (g z)_3 = a/2 < 1/2, so
    # moving weight onto 3 lowers the form and the stopping test fails there
    z, ok = _minimizers(Channel(5, 0.1), 1.5, 1, np.array([[True, False, True, False, False]]))
    assert np.allclose(z, [[0.5, 0.0, 0.5, 0.0, 0.0]]) and not ok[0]


def test_face_step_skips_a_face_too_large_for_one_stack():
    # with base weight 0, G is the identity on q = 1100 one-letter words; the
    # uniform point is the exact minimizer on the full face, but the face's
    # Gram block alone would exceed FACE_BYTES, so it is not solved
    m = 1100
    assert 8 * m * m > FACE_BYTES
    x = np.full((1, m), 1.0 / m)
    faces = {}
    z, _, took = _face_steps(0.0, m, 1, x, x, faces)
    assert not took[0] and not faces


def test_face_step_accepts_definite_and_singular_convex_faces():
    for ch, rho in ((Channel(5, 0.1), 1.5), (Channel(4, 0.1), rho_bar(Channel(4, 0.1)))):
        g = gram_matrix(ch, rho, 2)
        m = ch.q**2
        z, ok = _minimizers(ch, rho, 2, np.ones((1, m), dtype=bool))
        assert ok[0] and z.min() >= 0.0
        assert z[0] @ g @ z[0] == pytest.approx(_uniform_value(ch, rho, 2), rel=1e-14)


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


def test_batch_refuses_a_bad_problem_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    # neither a witness product nor a search runs
    monkeypatch.setattr(oracle, "_times_gram", no_work)
    monkeypatch.setattr(oracle, "_projected_gradient_batch", no_work)
    for bad, match in (((Channel(5, 0.1), -1.0, 1, 4, 0), "positive"),
                       ((Channel(5, 0.1), 2.0, 1, 0, 0), "restart"),
                       ((Channel(5, 0.1), 2.0, 6, 4, 0), "size cap"),
                       ((Channel(5, 0.1), 2.0, 5, 400, 0), "restarts")):
        with pytest.raises(ValueError, match=match):
            minimize_q(*bad)
