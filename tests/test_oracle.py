import math

import numpy as np
import pytest
from gram_oracles import evaluate_quadratic_slow, gram_matrix_direct

from relbound.channel import Channel, bhattacharyya
from relbound.classical import rho_bar
from relbound.oracle import (
    eigenvalues_g1,
    expurgated_oracle_ex,
    gram_base,
    gram_matrix,
    minimize_q,
    uniform_value,
)


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
    with pytest.raises(ValueError):
        gram_matrix(Channel(5, 0.1), 1.0, 6)


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
