import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import plain_bracket

from relbound import classical, upper_bounds
from relbound.channel import Channel, _entropy
from relbound.classical import _h2
from relbound.solvers import bracket

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def _pattern(x):
    return int(np.float64(x).view(np.int64))


def _same_bits(got, want):
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.dtype == np.float64
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_bracket_turns_minus_zero_to_zero_and_refuses_invalid_ends():
    # -0.0's bit pattern is 2^63, above every other end's
    lo, hi = bracket(_h2, 0.5, -0.0, 0.5)
    _same_bits((lo, hi), bracket(_h2, 0.5, 0.0, 0.5))
    assert 0.0 <= lo < hi <= 0.5 and _h2(lo) <= 0.5 < _h2(hi)
    with pytest.raises(ValueError, match="lo >= 0, got nan"):
        bracket(_h2, 0.5, np.nan, 0.5)
    with pytest.raises(ValueError, match="hi >= lo, got 0.1"):
        bracket(_h2, 0.5, 0.5, 0.1)
    with pytest.raises(ValueError, match="lo >= 0, got -1e-300"):
        bracket(_h2, [0.5, 0.5], [0.0, -1e-300], 0.5)
    with pytest.raises(ValueError, match="hi >= lo, got nan"):
        bracket(_h2, 0.5, 0.0, np.nan)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (3,), (2, 4)])
@pytest.mark.parametrize("lo, hi, passes", [(1.0, 2.0, 53), (0.0, 0.5, 62), (0.25, 0.25, 0)])
def test_bracket_calls_f_once_per_bit_of_the_widest_gap(shape, lo, hi, passes):
    seen = []

    def f(x):
        seen.append((type(x), x.dtype, x.shape))
        return x

    assert (_pattern(hi) - _pattern(lo)).bit_length() == passes
    ends = bracket(f, np.full(shape, 0.5 * (lo + hi)), lo, hi)
    # f sees float64 arrays of the broadcast shape, on a single point too
    assert seen == [(np.ndarray, np.float64, shape)] * passes
    assert all(e.shape == shape for e in ends)


def test_bracket_passes_follow_the_widest_gap_of_all_entries():
    calls = []
    bracket(lambda x: calls.append(1) or x, 0.3, [1.0, 0.0, 0.3], [2.0, 0.5, 0.3])
    assert len(calls) == 62


def _captured_f(module, call):
    """The f that `call` hands to module.bracket (its only bracket call)."""
    seen = []
    real = module.bracket

    def spy(f, *rest):
        seen.append(f)
        return real(f, *rest)

    module.bracket = spy
    try:
        call()
    finally:
        module.bracket = real
    (f,) = seen
    return f


def _lp1_case(q_prime):
    dmax = (q_prime - 1.0) / q_prime
    # lp1_rate falls with d: its bracket runs on -lp1_rate and -rate
    return (lambda d: -upper_bounds._lp1_rate(q_prime, d)), dmax, -math.log2(q_prime), 0.0


def _cases():
    ch = Channel(5, 0.01)
    line_f = _captured_f(upper_bounds, lambda: upper_bounds.theta_anchored_line.__wrapped__(ch))
    excess = _captured_f(classical, lambda: classical.eps_bar.__wrapped__(7))
    cases = {
        "h2": (_h2, 0.5, 0.0, 1.0),
        "lp1_q2": _lp1_case(2.0),
        "lp1_q5_theta": _lp1_case(5.0 / math.sqrt(5.0)),
        # right_of_tangency reads 0 left of the tangency and -g right of it
        "line": (line_f, 1.0, -0.1, 0.1),
        "excess": (excess, 0.5, -0.5, 0.5),
    }
    for qp in (2.0, math.sqrt(5.0), 3.0):
        cases[f"entropy_{qp:.3f}"] = (
            lambda x, qp=qp: _entropy(qp, x), (qp - 1.0) / qp, 0.0, math.log2(qp),
        )
    return cases


CASES = _cases()
# eps_bar's excess takes float(eps), so it only runs on a 0-d point
ZERO_D_ONLY = {"excess"}
SHAPES = st.sampled_from([(), (1,), (1, 1)]) | st.tuples(st.integers(1, 3), st.integers(2, 6))


@st.composite
def bracket_problems(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    f, hi, y_lo, y_hi = CASES[name]
    shape = () if name in ZERO_D_ONLY else draw(SHAPES)
    size = math.prod(shape)
    width = y_hi - y_lo
    # inside the range, on flat tops just under its top and outside it
    ys = st.one_of(
        st.floats(y_lo, y_hi),
        st.integers(1, 15).map(lambda k: y_hi - width * 10.0**-k),
        st.floats(y_hi, y_hi + width) | st.floats(y_lo - width, y_lo),
    )
    y = np.array(draw(st.lists(ys, min_size=size, max_size=size)), dtype=float).reshape(shape)
    # lo is 0 or a fraction of hi, one for all entries or one per entry
    fracs = st.just(0.0) | st.floats(0.0, 0.99)
    if draw(st.booleans()):
        lo = draw(fracs) * hi
    else:
        lo = np.array(draw(st.lists(fracs, min_size=size, max_size=size))).reshape(shape) * hi
    return f, y, lo, hi


@PROPERTY
@given(bracket_problems())
def test_bracket_matches_the_plain_bisection_bit_for_bit(problem):
    f, y, lo, hi = problem
    _same_bits(bracket(f, y, lo, hi), plain_bracket(f, y, lo, hi))
