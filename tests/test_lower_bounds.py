import math

import code_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbound import codes as codes_mod
from relbound.acceptance import _binary_subspace_stacks
from relbound.channel import Channel, bhattacharyya, capacity, entropy_h, gv_delta
from relbound.classical import (
    bsc_expurgated_exponent,
    expurgated_exponent,
    expurgated_junction_rate,
)
from relbound.codes import (
    CODE_CAP,
    all_words,
    build_coset_code,
    make_code,
    random_generator_matrix,
    random_linear_code,
    spectrum,
)
from relbound.lower_bounds import (
    _check_chunk,
    coset_spectra,
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


def test_subspace_sweep_counts_every_binary_subspace():
    # Gaussian binomial sums: the number of subspaces of F_2^n, n = 1..6
    counts = [sum(stack.shape[0] for stack in _binary_subspace_stacks(n)) for n in range(1, 7)]
    assert counts == [2, 5, 16, 67, 374, 2825] and sum(counts) == 3289
    for n in range(1, 5):
        seen = set()
        for k, stack in enumerate(_binary_subspace_stacks(n)):
            assert stack.shape[1:] == (2**k, n)
            seen |= {frozenset(map(tuple, words.tolist())) for words in stack}
        assert len(seen) == counts[n - 1]  # no subspace twice


@pytest.mark.parametrize("q", [4, 6])
def test_stacked_sweep_matches_per_code_check(q):
    for n in range(1, 5):
        for stack in _binary_subspace_stacks(n):
            sweep = coset_spectra(stack, q)
            assert sweep.ok.all()
            for s, words in enumerate(stack):
                c2 = make_code(words, 2)
                res = sweep.check(s)
                assert res == coset_spectrum_check(c2, q)
                # independently: A_z is the pairwise spectrum of the lift, B_z the Hamming weights
                lift = spectrum(make_code(build_coset_code(c2, q).array, q))
                pairs = {z: a for z, a in enumerate(lift[:-1].tolist()) if a}
                hamming = np.bincount(words.sum(axis=1), minlength=n + 1)
                assert {z: a for z, (a, _) in res.table.items() if a} == pairs
                assert {z: b for z, (_, b) in res.table.items() if b} == {
                    z: int(c) for z, c in enumerate(hamming) if c and z
                }


def test_stacked_sweep_in_small_chunks(monkeypatch):
    stack = list(_binary_subspace_stacks(5))[2]
    whole = coset_spectra(stack, 4)
    monkeypatch.setattr(codes_mod, "BLOCK_BYTES", 1)  # one code per chunk
    part = coset_spectra(stack, 4)
    assert np.array_equal(part.a, whole.a) and np.array_equal(part.b, whole.b)


def test_stacked_sweep_refuses_like_the_per_code_check():
    linear = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    not_closed = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    with pytest.raises(ValueError, match="not linear"):
        coset_spectrum_check(make_code(not_closed, 2), 4)
    with pytest.raises(ValueError, match="not linear"):
        coset_spectra([linear, not_closed], 4)
    repeated = [(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 0, 0)]  # closed as a multiset
    with pytest.raises(ValueError, match="duplicate word"):
        make_code(repeated, 2)
    with pytest.raises(ValueError, match="binary code 1 has a duplicate word"):
        coset_spectra([linear, repeated], 4)
    with pytest.raises(ValueError, match="binary"):
        coset_spectrum_check(make_code([(0, 2)], 3), 4)
    with pytest.raises(ValueError, match="binary"):
        coset_spectra([[(0, 2)]], 4)
    with pytest.raises(ValueError, match="cap"):
        coset_spectrum_check(make_code([(0,) * 17], 2), 4)
    with pytest.raises(ValueError, match="cap"):
        coset_spectra(np.zeros((2, 1, 17), dtype=np.int64), 4)
    with pytest.raises(ValueError, match="even alphabet"):
        coset_spectra([linear], 5)


def test_stacked_sweep_names_the_refused_code_across_chunks():
    # at q = 8 and n = 7 a chunk holds one code, so a chunk-local number would read 0
    rng = np.random.default_rng(7)
    stack = np.array(
        [all_words((0, 1), 2) @ random_generator_matrix(2, 7, 2, rng) % 2 for _ in range(10)]
    )
    stack[7, 3] = stack[7, 1]
    with pytest.raises(ValueError, match="binary code 7 has a duplicate word"):
        coset_spectra(stack, 8)


@st.composite
def binary_code_stacks(draw, q):
    """uint8 stack of S random k-dim binary subspaces of F_2^n, some stacks corrupted.

    The codes lie in one random (k + spare)-dimensional space: with no
    spare dimension they share every word, with n - k spare ones they are
    independent subspaces of F_2^n and share few.
    """
    n = draw(st.integers(1, 7))
    half = (q // 2) ** n
    k = draw(st.integers(0, min(n, (CODE_CAP // half).bit_length() - 1)))
    # at most 2^18 lifted words in all, so the per-code reference stays small
    count = draw(st.integers(1, max(1, min(20, (1 << 18) // (half << k)))))
    spare = draw(st.integers(0, n - k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    space = random_generator_matrix(2, n, k + spare, rng)
    stack = np.array([
        rng.permutation(all_words((0, 1), k) @ random_generator_matrix(2, k + spare, k, rng) @ space % 2)
        for _ in range(count)
    ], dtype=np.uint8)
    fault = draw(st.sampled_from((None, "repeat a word", "flip a bit")))
    s, i, j = rng.integers(count), rng.integers(1 << k), rng.integers(1 << k)
    if fault == "repeat a word" and i != j:
        stack[s, j] = stack[s, i]
    elif fault == "flip a bit":  # leaves the code not closed, or repeats a word
        stack[s, j, rng.integers(n)] ^= 1
    return stack


def _outcome(check, stack, q):
    try:
        return check(stack, q)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("q", [4, 6, 8])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_lift_matches_per_code_reference(q, data):
    stack = data.draw(binary_code_stacks(q))
    got, want = _outcome(_check_chunk, stack, q), _outcome(oracle.coset_check_chunk, stack, q)
    if isinstance(want, str):
        assert got == want
        return
    for chunk in (got, coset_spectra(stack, q)):
        for x, y in zip(chunk, want, strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("collide", ["within one word's lift", "across two words' lifts"])
def test_coset_spectra_refuses_a_lift_with_colliding_words(monkeypatch, collide):
    real = codes_mod.coset_lift

    def colliding_lift(stack, q):
        out = real(stack, q)
        out[(0, 1) if collide == "within one word's lift" else (-1, -1)] = out[0, 0]
        return out

    monkeypatch.setattr(codes_mod, "coset_lift", colliding_lift)
    c2 = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    with pytest.raises(ValueError, match="coset lift"):
        coset_spectra([c2], 4)
    with pytest.raises(ValueError, match="coset lift"):
        coset_spectrum_check(make_code(c2, 2), 6)
