import math

import numpy as np
import pytest

from relbound.channel import Channel, bhattacharyya, capacity, entropy_h, gv_delta
from relbound.classical import (
    bsc_expurgated_exponent,
    expurgated_exponent,
    expurgated_junction_rate,
)
from relbound.codes import make_code, random_linear_code
from relbound.lower_bounds import (
    coset_spectrum_check,
    junction_rate_even,
    junction_rate_q5,
    lower_bound_even,
    lower_bound_q5,
)


def test_lower_bound_even_examples():
    ch = Channel(4, 0.1)
    assert lower_bound_even(ch, 1.2) == pytest.approx(math.log2(2.0 / 1.6) - 0.2, abs=1e-12)
    ch = Channel(4, 0.01)
    expected = -gv_delta(2.0, 0.01) * math.log2(2.0 * bhattacharyya(0.01))
    assert lower_bound_even(ch, 1.01) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        lower_bound_even(Channel(5, 0.1), 1.5)
    with pytest.raises(ValueError):
        lower_bound_even(ch, 0.9)


def test_lower_bound_even_is_shifted_bsc_curve():
    ch = Channel(6, 0.07)
    shift = math.log2(3.0)
    for r in np.linspace(shift + 1e-6, capacity(ch), 50):
        assert lower_bound_even(ch, float(r)) == bsc_expurgated_exponent(0.07, float(r) - shift)


def test_junction_ordering_even():
    # the coset bound departs from the straight line later than the
    # expurgated bound does, by exactly 2a/(1+2a) for even q
    for eps in np.linspace(0.001, 0.45, 50):
        eps = float(eps)
        a = bhattacharyya(eps)
        gap = junction_rate_even(eps, 4) - expurgated_junction_rate(eps, 4)
        assert gap == pytest.approx(2 * a / (1 + 2 * a), abs=1e-12)
        assert gap > 0


def test_junction_rate_q5():
    assert junction_rate_q5(0.5) == pytest.approx(1.1662890326577957, abs=1e-12)
    # formula check at eps = 1/2: argument is exactly 3/4
    expected = math.log2(5.0) - 0.5 * entropy_h(5.0, 0.75)
    assert junction_rate_q5(0.5) == pytest.approx(expected, abs=1e-15)
    # slow convergence to log2(5) as the crossover vanishes
    assert junction_rate_q5(1e-9) == pytest.approx(math.log2(5.0), abs=5e-3)
    for eps in np.linspace(0.001, 0.5, 60):
        assert junction_rate_q5(float(eps)) > 0.5 * math.log2(5.0)


def test_lower_bound_q5():
    # junction continuity
    for eps in (0.01, 0.1, 0.5):
        j = junction_rate_q5(eps)
        lo = lower_bound_q5(eps, j - 1e-9)
        hi = lower_bound_q5(eps, j + 1e-9)
        assert lo == pytest.approx(hi, abs=1e-8)
    # composition against the distance guarantee
    alpha = bhattacharyya(0.01)
    expected = -0.5 * gv_delta(5.0, 2 * 1.2 - math.log2(5.0)) * math.log2(alpha * (1 + alpha))
    assert lower_bound_q5(0.01, 1.2) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        lower_bound_q5(0.01, 1.0)


def test_lower_bound_q5_beats_expurgated():
    ch = Channel(5, 0.01)
    margin = lower_bound_q5(0.01, 1.3) - expurgated_exponent(ch, 1.3)
    assert margin > 0.05


def test_lower_bound_q5_follows_straight_line_above_junction():
    ch = Channel(5, 0.01)
    j = junction_rate_q5(0.01)
    for r in np.linspace(j, 2.05, 12):  # stop before the line's zero crossing
        assert lower_bound_q5(0.01, float(r)) == pytest.approx(
            expurgated_exponent(ch, float(r)), abs=1e-12
        )


def test_lower_bound_q5_nonnegative_continuous():
    lo = 0.5 * math.log2(5.0)
    for eps in (0.01, 0.5):
        cap = math.log2(5.0) - entropy_h(2.0, eps)
        grid = np.linspace(lo, cap, 200)
        vals = [lower_bound_q5(eps, float(r)) for r in grid]
        assert min(vals) >= 0.0
        # square-root cusp at the left endpoint, smooth elsewhere
        jumps = np.abs(np.diff(vals))
        assert np.max(jumps[1:]) < 0.05
        assert abs(lower_bound_q5(eps, lo + 1e-12) - lower_bound_q5(eps, lo)) < 1e-5


def test_coset_spectrum_check_examples():
    # trivial shift code: a pure zero-error code, empty spectrum
    res = coset_spectrum_check(make_code([(0, 0, 0)], 2), 4)
    assert res.ok and res.table == {}
    # length-3 repetition code
    res = coset_spectrum_check(make_code([(0, 0, 0), (1, 1, 1)], 2), 4)
    assert res.ok
    assert res.table[3] == (8, 1)
    # full binary space of length 2
    res = coset_spectrum_check(make_code([(0, 0), (0, 1), (1, 0), (1, 1)], 2), 4)
    assert res.ok
    assert res.table[1] == (4, 2)
    with pytest.raises(ValueError):
        coset_spectrum_check(make_code([(0, 0), (1, 1), (1, 0)], 2), 4)  # not linear


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_coset_spectrum_relation_random_linear(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(0, n + 1))
    c2 = random_linear_code(2, n, k, seed=seed)
    for q in (4, 6):
        assert coset_spectrum_check(c2, q).ok
