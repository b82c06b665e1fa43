import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import entropy_h as scalar_entropy_h
from scalar_oracles import pairwise_error_bound, semidistance, transition_prob

from relbound.channel import (
    INF,
    Channel,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    entropy_h_inv,
    gv_delta,
    theta_cycle,
    zero_error_capacity,
)
from relbound.solvers import bracket

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)
# q' > 1; the bounds use 2, 3, 5 and q/theta, which lies in (2, 2.24) for odd q
ALPHABETS = st.floats(min_value=1.01, max_value=12.0)
FRACTIONS = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8)


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(3, 0.1)
    with pytest.raises(ValueError):
        Channel(4, 0.0)
    with pytest.raises(ValueError):
        Channel(4, 0.6)
    Channel(4, 0.5)  # boundary allowed


def test_transition_prob_values():
    ch = Channel(5, 0.1)
    assert transition_prob(ch, 0, 0) == pytest.approx(0.9)
    assert transition_prob(ch, 1, 0) == pytest.approx(0.1)
    assert transition_prob(ch, 3, 0) == 0.0
    assert transition_prob(ch, 0, 4) == pytest.approx(0.1)  # wraparound
    with pytest.raises(ValueError):
        transition_prob(ch, 5, 0)


@pytest.mark.parametrize("q", [4, 5, 6, 9])
@pytest.mark.parametrize("eps", [0.01, 0.3, 0.5])
def test_rows_sum_to_one(q, eps):
    ch = Channel(q, eps)
    for x in range(q):
        assert sum(transition_prob(ch, y, x) for y in range(q)) == pytest.approx(1.0)


def test_bhattacharyya():
    assert bhattacharyya(0.5) == 0.5
    assert bhattacharyya(0.1) == pytest.approx(0.3)
    assert bhattacharyya(0.01) == pytest.approx(0.0994987, abs=1e-7)
    with pytest.raises(ValueError):
        bhattacharyya(0.0)


def test_semidistance_examples():
    assert semidistance((0, 1, 3), (1, 2, 3), 5) == 2
    assert semidistance((0,), (2,), 5) == INF
    assert semidistance((0, 1, 3), (0, 1, 3), 5) == 0
    with pytest.raises(ValueError):
        semidistance((0, 1), (0,), 5)


def test_semidistance_is_symmetric_with_identity():
    # only a semidistance: d(0,2) = inf exceeds d(0,1) + d(1,2) = 2, so no
    # triangle inequality is asserted
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = int(rng.integers(4, 8))
        n = int(rng.integers(1, 5))
        a = tuple(int(s) for s in rng.integers(0, q, n))
        b = tuple(int(s) for s in rng.integers(0, q, n))
        assert semidistance(a, b, q) == semidistance(b, a, q)
        assert (semidistance(a, b, q) == 0) == (a == b)


def _bhatta_by_enumeration(ch, w1, w2):
    """Direct sum over outputs of sqrt(W(y|w1) W(y|w2)), the defining form."""
    total = 0.0
    n = len(w1)
    for y in product(range(ch.q), repeat=n):
        p1 = math.prod(transition_prob(ch, y[k], w1[k]) for k in range(n))
        p2 = math.prod(transition_prob(ch, y[k], w2[k]) for k in range(n))
        total += math.sqrt(p1 * p2)
    return total


@pytest.mark.parametrize("q,eps", [(4, 0.1), (5, 0.01), (6, 0.5)])
def test_pairwise_bound_matches_bhattacharyya_sum(q, eps):
    ch = Channel(q, eps)
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        w1 = tuple(int(s) for s in rng.integers(0, q, n))
        w2 = tuple(int(s) for s in rng.integers(0, q, n))
        direct = _bhatta_by_enumeration(ch, w1, w2)
        assert pairwise_error_bound(ch, w1, w2) == pytest.approx(direct, abs=1e-12)


def test_pairwise_bound_edge_values():
    ch = Channel(5, 0.1)
    assert pairwise_error_bound(ch, (2, 2), (2, 2)) == 1.0
    assert pairwise_error_bound(ch, (0,), (2,)) == 0.0  # infinite distance
    assert pairwise_error_bound(ch, (0, 1), (1, 2)) == pytest.approx(0.09)


def test_entropy_h():
    assert entropy_h(2.0, 0.5) == pytest.approx(1.0)
    assert entropy_h(5.0, 0.0) == 0.0
    assert entropy_h(5.0, 1.0) == pytest.approx(2.0)
    for qp in (2.0, math.sqrt(5.0), 3.7):
        top = (qp - 1.0) / qp
        assert entropy_h(qp, top) == pytest.approx(math.log2(qp), abs=1e-12)
    with pytest.raises(ValueError):
        entropy_h(1.0, 0.5)
    with pytest.raises(ValueError):
        entropy_h(2.0, 1.5)


def test_entropy_h_concave_with_interior_max():
    qp = math.sqrt(5.0)
    xs = np.linspace(0.0, 1.0, 101)
    ys = [entropy_h(qp, float(x)) for x in xs]
    second = np.diff(ys, 2)
    assert np.all(second < 1e-9)
    assert max(ys) <= math.log2(qp) + 1e-12


@PROPERTY
@given(ALPHABETS, st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16))
def test_entropy_h_on_arrays_matches_the_scalar_definition(qp, xs):
    x = np.array(xs)
    h = entropy_h(qp, x)
    assert h.shape == x.shape
    # one rounding order differs from the definition; a few ulps of log2 q' bound it
    for value, xi in zip(h, xs):
        assert value == entropy_h(qp, xi)
        assert abs(value - scalar_entropy_h(qp, xi)) <= 8 * math.ulp(max(1.0, math.log2(qp)))
    with pytest.raises(ValueError, match="got 1.5"):
        entropy_h(qp, np.append(x, 1.5))
    with pytest.raises(ValueError):
        entropy_h(qp, np.append(x, np.nan))


@PROPERTY
@given(ALPHABETS, FRACTIONS)
def test_bracket_ends_are_adjacent_floats_around_the_crossing(qp, fracs):
    xmax = (qp - 1.0) / qp
    top = entropy_h(qp, xmax)
    y = np.array(fracs) * top
    y = y[y < top]  # the crossing lies inside [0, xmax]

    def h(x):
        return entropy_h(qp, x)

    lo, hi = bracket(h, y, 0.0, xmax)
    assert np.all(h(lo) <= y) and np.all(y < h(hi))
    assert np.array_equal(hi, np.nextafter(lo, np.inf))


@PROPERTY
@given(ALPHABETS, FRACTIONS)
def test_entropy_h_inv_and_gv_delta_round_down(qp, fracs):
    top = math.log2(qp)
    xmax = (qp - 1.0) / qp
    y = np.array(fracs) * top
    x = entropy_h_inv(qp, y)
    # float-exact: on the safe side, and the next float up is past the crossing
    assert np.all(entropy_h(qp, x) <= y)
    assert np.all((x == xmax) | (entropy_h(qp, np.nextafter(x, np.inf)) > y))
    d = gv_delta(qp, y)
    assert np.all(entropy_h(qp, d) <= top - y)
    assert [gv_delta(qp, float(r)) for r in y] == d.tolist()


def test_entropy_h_inv_roundtrip():
    for qp in (2.0, math.sqrt(5.0), 2.4, 5.0):
        assert entropy_h_inv(qp, 0.0) == 0.0
        assert entropy_h_inv(qp, math.log2(qp)) == pytest.approx((qp - 1) / qp)
        for x in np.linspace(0.0, (qp - 1) / qp, 23):
            y = entropy_h(qp, float(x))
            assert entropy_h_inv(qp, y) == pytest.approx(float(x), abs=1e-10)
    # small values keep their relative precision
    for y in (5e-13, 1e-30):
        assert entropy_h(2.0, entropy_h_inv(2.0, y)) == pytest.approx(y, rel=1e-9)
    with pytest.raises(ValueError):
        entropy_h_inv(2.0, 1.5)


def test_gv_delta():
    assert gv_delta(2.0, 0.0) == pytest.approx(0.5)
    assert gv_delta(2.0, 1.0) == pytest.approx(0.0)
    r = math.log2(5.0) - entropy_h(5.0, 0.3)
    assert gv_delta(5.0, r) == pytest.approx(0.3, abs=1e-10)
    assert gv_delta(2.0, 0.5) == pytest.approx(0.110028, abs=1e-6)
    for r in (0.4, 1.0, 1.8):
        d = gv_delta(5.0, r)
        assert 1.0 - entropy_h(2.0, gv_delta(2.0, r / 2.5)) == pytest.approx(r / 2.5, abs=1e-10)
        # over Z_5, h5(d) = h2(d) + 2d
        assert entropy_h(5.0, d) == pytest.approx(entropy_h(2.0, d) + 2.0 * d, abs=1e-12)
    with pytest.raises(ValueError):
        gv_delta(2.0, 1.5)


def test_capacity():
    assert capacity(Channel(4, 0.5)) == pytest.approx(1.0)
    assert capacity(Channel(5, 0.5)) == pytest.approx(math.log2(5.0) - 1.0)
    expected = 2.0 - entropy_h(2.0, 0.01)
    assert capacity(Channel(4, 0.01)) == pytest.approx(expected, abs=1e-12)
    assert capacity(Channel(4, 0.01)) == pytest.approx(1.919207, abs=1e-6)


def test_theta_cycle():
    assert theta_cycle(4) == 2.0
    assert theta_cycle(5) == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert theta_cycle(7) == pytest.approx(3.317667, abs=1e-6)
    with pytest.raises(ValueError):
        theta_cycle(3)


@pytest.mark.parametrize("q", range(4, 12))
def test_cycle_constants_ratio_identity(q):
    cc = cycle_constants(Channel(q, 0.2))
    ratio = (q - cc.theta) / (2.0 * cc.theta)
    if q % 2 == 0:
        assert ratio == pytest.approx(0.5, abs=1e-12)
    else:
        assert ratio == pytest.approx(1.0 / (2.0 * math.cos(math.pi / q)), abs=1e-12)
        assert cc.phi == pytest.approx(ratio, abs=1e-12)
    # q' - 1 = 2 phi links the two entropy scales
    assert cc.q_prime - 1.0 == pytest.approx(2.0 * cc.phi, abs=1e-12)


def test_zero_error_capacity():
    assert zero_error_capacity(Channel(6, 0.5)).value == pytest.approx(math.log2(3.0), abs=1e-12)
    assert zero_error_capacity(Channel(5, 0.3)).value == pytest.approx(
        0.5 * math.log2(5.0), abs=1e-12
    )
    br = zero_error_capacity(Channel(7, 0.5))
    assert not br.exact
    assert br.lower == pytest.approx(math.log2(3.0))
    assert br.upper == pytest.approx(math.log2(theta_cycle(7)))
    with pytest.raises(ValueError):
        _ = br.value
