import math
import tracemalloc

import code_oracles as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_oracles import semidistance

from relbound import codes as codes_mod
from relbound.channel import Channel
from relbound.codes import (
    all_words,
    build_coset_code,
    build_q5_code,
    exact_pe,
    exact_word_errors,
    make_code,
    mc_pe,
    parse_code,
    pentagon_code,
    q5_weight_census,
    random_coset_code,
    random_generator_matrix,
    random_linear_code,
    random_q5_code,
    rank_mod_p,
    spectrum,
    union_bound_pe,
    weight_counts,
    word_indices,
)

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


def test_code_validation():
    with pytest.raises(ValueError):
        make_code([(0, 1), (0, 1)], 4)  # duplicate
    with pytest.raises(ValueError):
        make_code([(0, 1), (0,)], 4)  # ragged
    with pytest.raises(ValueError):
        make_code([(0, 4)], 4)  # symbol out of range
    with pytest.raises(ValueError):
        make_code([], 4)
    with pytest.raises(ValueError):
        make_code([(0.5, 1.0)], 4)  # not integers
    # a duplicate past the int64 range of word indices (q^n >= 2^63)
    big = np.zeros((3, 70), dtype=np.int64)
    big[1, 0] = 1
    with pytest.raises(ValueError, match="duplicate"):
        make_code(big, 2)
    big[2, 1] = 1
    assert make_code(big, 2).M == 3


def test_code_owns_a_read_only_array():
    words = np.array([[0, 1], [2, 3]])
    code = make_code(words, 4)
    words[0, 0] = 3  # the caller's array is not shared
    assert code.array.tolist() == [[0, 1], [2, 3]]
    assert code.array.dtype == np.int64 and code.array.shape == (2, 2)
    with pytest.raises(ValueError):
        code.array[0, 0] = 1
    assert code == make_code([(0, 1), (2, 3)], 4) and code != make_code([(0, 1), (2, 3)], 5)
    assert len({code, make_code(code.array.tolist(), 4)}) == 1


@st.composite
def word_lists(draw):
    """Lists of integer words, mostly valid, some ragged, out of range or repeated."""
    q = draw(st.integers(min_value=2, max_value=9))
    n = draw(st.integers(min_value=0, max_value=4))
    lengths = st.integers(min_value=max(n - 1, 0), max_value=n + 1) if draw(st.booleans()) else st.just(n)
    symbols = st.integers(min_value=-1, max_value=q) if draw(st.booleans()) else st.integers(0, q - 1)
    words = draw(st.lists(lengths.flatmap(lambda k: st.lists(symbols, min_size=k, max_size=k)), max_size=8))
    return [tuple(w) for w in words], q


def _refused(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return True
    return False


@PROPERTY
@given(word_lists())
def test_array_validation_refuses_what_tuple_validation_refused(case):
    words, q = case
    refused = _refused(oracle.validate_words, words, q)
    assert _refused(make_code, words, q) == refused
    if not refused:
        assert make_code(words, q).array.tolist() == list(map(list, oracle.validate_words(words, q)))


def _random_code(rng, q, n, m):
    idx = rng.choice(q**n, size=m, replace=False)
    return make_code(all_words(range(q), n)[idx], q)


def _exact_spectrum(code):
    """The tuple oracle's exact Fractions, each rounded once to a float."""
    return [float(a) for a in oracle.spectrum(code)]


@pytest.mark.parametrize("q", range(2, 10))
def test_spectrum_matches_tuple_oracle(q):
    rng = np.random.default_rng(q)
    for n in (1, 2, 3, 4):
        for m in sorted({1, 2, min(q**n, 7), min(q**n, 60)}):
            code = _random_code(rng, q, n, m)
            assert spectrum(code).tolist() == _exact_spectrum(code)
        with pytest.raises(ValueError):
            make_code([(q - 1,) * n, (0,) * n, (q - 1,) * n], q)  # duplicates refused


def test_spectrum_works_in_bounded_row_blocks(monkeypatch):
    # rebuilt by make_code, so not marked linear: the pairwise kernel runs
    code = make_code(build_coset_code(random_linear_code(2, 5, 3, seed=2), 4).array, 4)
    whole = spectrum(code)
    monkeypatch.setattr(codes_mod, "BLOCK_BYTES", 3 * code.M * 16)
    assert np.array_equal(spectrum(code), whole) and whole.tolist() == _exact_spectrum(code)


def _spec_code(spec):
    kind, *args = spec
    if kind == "coset":
        return random_coset_code(*args[:3], seed=args[3])[0]
    if kind == "linear":
        return random_linear_code(*args[:3], seed=args[3])
    if kind == "q5":
        return random_q5_code(*args[:2], seed=args[2])
    return make_code(*args)


THREE_WORDS = ("words", [(0, 0), (1, 2), (3, 1)], 4)


@pytest.mark.parametrize(
    "code_spec, eps",
    [(("coset", 4, 3, 2, 1), 0.1), (("coset", 6, 2, 1, 7), 0.5), (("q5", 2, 1, 3), 0.2),
     (("q5", 2, 0, 0), 0.5), (("coset", 4, 2, 0, 5), 0.5),
     # a long code, and likelihoods that underflow to 0 from two flips on and tie
     (("linear", 5, 16, 2, 0), 0.1), (("coset", 4, 3, 2, 1), 1e-300),
     # every row ties: each output is reached from 2^k = 4 codewords
     (("coset", 4, 4, 2, 3), 0.5),
     # a 3-word code, whose rows, once scanned, give short runs of tied and
     # untied rows, and a single word
     (THREE_WORDS, 0.3), (THREE_WORDS, 0.5), (("words", [(2, 0, 1)], 4), 0.3)],
)
def test_mc_pe_matches_tuple_oracle_bit_for_bit(code_spec, eps, monkeypatch):
    code = _spec_code(code_spec)
    ch = Channel(code.q, eps)
    # trial counts below, at and off multiples of the 16384-trial draw
    for seed, trials in ((0, 1), (1, 999), (2, 16384), (3, 16385), (4, 40000)):
        assert mc_pe(code, ch, trials, seed=seed) == oracle.mc_pe(code, ch, trials, seed=seed)
    # many small row blocks give each trial the count and sender of its own row
    monkeypatch.setattr(codes_mod, "_MC_BLOCK_BYTES", 7 * code.M * 48)
    assert mc_pe(code, ch, 20001, seed=5) == oracle.mc_pe(code, ch, 20001, seed=5)
    # and so do those blocks within draws of 100 trials, whose edges they cross
    for draw, seed in ((codes_mod.MC_DRAW, 6), (100, 7)):
        monkeypatch.setattr(codes_mod, "MC_DRAW", draw)
        assert mc_pe(code, ch, 999, seed=seed) == oracle.mc_pe(code, ch, 999, seed=seed, block=draw)


@pytest.mark.parametrize("draw", [7, 1])
def test_mc_pe_keeps_the_buffered_half_across_odd_draws(draw, monkeypatch):
    # an odd draw of senders leaves half of a 64-bit word buffered for the
    # next draw's senders, which the noise and tie-break draws between must
    # not disturb
    monkeypatch.setattr(codes_mod, "MC_DRAW", draw)
    for spec, eps in ((("coset", 4, 3, 2, 1), 0.3), (("q5", 2, 1, 3), 0.2), (THREE_WORDS, 0.5)):
        code = _spec_code(spec)
        ch = Channel(code.q, eps)
        for seed, trials in ((0, 1), (1, 2), (2, 61), (3, 200)):
            expected = oracle.mc_pe(code, ch, trials, seed=seed, block=draw)
            assert mc_pe(code, ch, trials, seed=seed) == expected


def test_mc_pe_where_every_likelihood_underflows_matches_tuple_oracle(monkeypatch):
    # at length 2200 and eps 0.3 every noise pattern's likelihood underflows
    # to 0, so each row's best rank is 0 and all M codewords tie; with
    # draws of 7 and 1 trials, rows cross draw edges
    code = random_linear_code(5, 2200, 1, seed=0)
    ch = Channel(5, 0.3)
    assert not codes_mod._weight_ranks(code.n, ch.epsilon).any()
    assert mc_pe(code, ch, 300, seed=1) == oracle.mc_pe(code, ch, 300, seed=1)
    for draw in (7, 1):
        monkeypatch.setattr(codes_mod, "MC_DRAW", draw)
        assert mc_pe(code, ch, 60, seed=draw) == oracle.mc_pe(code, ch, 60, seed=draw, block=draw)


@pytest.mark.parametrize("draw", [7, 1])
def test_a_trial_where_all_tie_errs_exactly_when_its_uniform_times_m_reaches_1(draw, monkeypatch):
    # every rank 0: every row is an M-way tie holding its sender, so a
    # trial errs iff u M >= 1 for its uniform u, drawn after its draw's
    # senders and noise. THREE_WORDS is decoded by the kernel, coset:2:1
    # by candidate lookup and the pentagon by the kernel; the two linear
    # codes are decoded from their 4 patterns in draws of 7 from 8 trials
    # on, and trial by trial otherwise
    monkeypatch.setattr(codes_mod, "_weight_ranks", lambda n, eps: np.zeros(n + 1, dtype=np.uint8))
    monkeypatch.setattr(codes_mod, "MC_DRAW", draw)
    for code in (_spec_code(THREE_WORDS), random_coset_code(4, 2, 1, seed=0)[0], pentagon_code()):
        ch = Channel(code.q, 0.3)
        for seed, trials in ((0, 1), (1, 8), (2, 61), (3, 200)):
            rng = np.random.default_rng(seed)
            errors = 0
            for done in range(0, trials, draw):
                b = min(draw, trials - done)
                rng.integers(0, code.M, size=b)
                rng.random((b, code.n))
                errors += int(np.count_nonzero(rng.random(b) * code.M >= 1.0))
            assert mc_pe(code, ch, trials, seed=seed).errors == errors

    class Quarters:
        """A stand-in generator: sender 0, and every uniform 1/4."""

        def integers(self, low, high, size):
            return np.zeros(size, dtype=np.int64)

        def random(self, size):
            return np.full(size, 0.25)

    # u M = 1 exactly, at 4 words (the second decoded from its 2 patterns
    # in draws of 7): the sender loses
    codes = (make_code([(0,), (1,), (2,), (3,)], 4), random_coset_code(4, 1, 1, seed=0)[0])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Quarters())
    for code in codes:
        assert code.M == 4 and mc_pe(code, Channel(4, 0.3), 9).errors == 9


# at eps 1/2 every row of the coset code ties (4 maximizers; exact error
# 3/4), and about a sixth of THREE_WORDS' rows do
@pytest.mark.parametrize("spec", [THREE_WORDS, ("coset", 4, 4, 2, 3)])
def test_mc_pe_where_rows_tie_lands_within_5_sigma_of_exact_pe(spec):
    code = _spec_code(spec)
    ch = Channel(code.q, 0.5)
    avg, _ = exact_pe(code, ch)
    trials = 200000
    mc = mc_pe(code, ch, trials, seed=11)
    assert abs(mc.estimate - avg) <= 5 * math.sqrt(avg * (1 - avg) / trials)


def test_mc_pe_builds_no_array_of_trials_by_codewords(monkeypatch):
    # q5plus:3:1 (M = 625): a (MC_DRAW, M) array of even one byte an entry
    # would be 10 MB, above BLOCK_BYTES; the row blocks stay far below it
    code = random_q5_code(3, 1, seed=0)
    ch = Channel(5, 0.2)
    assert codes_mod.MC_DRAW * code.M > codes_mod.BLOCK_BYTES
    mc_pe(code, ch, 10)  # a first call, so that no one-time setup is traced
    assert _traced_peak(mc_pe, code, ch, 20000) < codes_mod.BLOCK_BYTES
    # every rank 0, as where every likelihood underflows: all M codewords
    # tie on every row, which counts M of them and lists none. (At eps =
    # 1e-300 no row ties at this length: a flip is never drawn, and one
    # flip's likelihood, 1e-300, does not underflow.)
    monkeypatch.setattr(codes_mod, "_weight_ranks", lambda n, eps: np.zeros(n + 1, dtype=np.uint8))
    assert _traced_peak(mc_pe, code, ch, codes_mod.MC_DRAW) < codes_mod.BLOCK_BYTES
    one = random_linear_code(5, 3, 0)  # the one-word code, where no row errs
    for c in (code, one):
        assert mc_pe(c, ch, 1000, seed=2) == mc_pe(make_code(c.array, 5), ch, 1000, seed=2)
    assert mc_pe(one, ch, 1000).errors == 0


def _bench_codes():
    """The linear codes of the benchmark's Monte-Carlo ops: coset:6:3 at q = 4, q5plus:3:1, pentagon."""
    return random_coset_code(4, 6, 3, seed=0)[0], random_q5_code(3, 1, seed=0), pentagon_code()


@pytest.mark.parametrize("eps", [1e-300, 0.01, 0.2, 0.5])
def test_pattern_decoder_matches_the_per_trial_decoder(eps):
    # the same words not marked linear are decoded trial by trial
    for code in _bench_codes():
        plain = make_code(code.array, code.q)
        assert code.linear and not plain.linear
        ch = Channel(code.q, eps)
        for seed, trials in ((0, 1), (1, 16384), (2, 16385), (3, 40000)):
            assert mc_pe(code, ch, trials, seed=seed) == mc_pe(plain, ch, trials, seed=seed)


def test_mc_pe_decodes_noise_patterns_only_for_linear_codes_with_few_of_them(monkeypatch):
    decoded = []
    real = codes_mod._decoded

    def recorded(maximizers, received, *args):
        decoded.append(len(received))
        return real(maximizers, received, *args)

    # the linear benchmark codes, and one whose word indices pass int64
    # (1009^7 > 2^63), decode their 2^n patterns in one call, and no trial
    monkeypatch.setattr(codes_mod, "_decoded", recorded)
    huge = random_linear_code(1009, 7, 1, seed=0)
    for code, trials in zip((*_bench_codes(), huge), (20000, 20000, 100000, 200)):
        decoded.clear()
        assert mc_pe(code, Channel(code.q, 0.2), trials, seed=1).trials == trials
        assert decoded == [1 << code.n]
    assert huge.linear and mc_pe(huge, Channel(huge.q, 0.5), 200, seed=1).errors == 0

    def never(*args):
        raise AssertionError("the pattern table was built")

    monkeypatch.setattr(codes_mod, "_pattern_table", never)
    coset = _bench_codes()[0]
    # not marked linear; 2^300 patterns; 2^6 patterns, more than the 63 trials
    for code, trials in ((_spec_code(THREE_WORDS), 2000), (random_linear_code(5, 300, 2, seed=0), 50),
                         (coset, 63)):
        assert mc_pe(code, Channel(code.q, 0.5), trials, seed=1).trials == trials


@st.composite
def mc_cases(draw):
    """Small codes, a channel, trials, seed and draw size.

    Half the codes are random words (q 4..7, n <= 3), decoded trial by
    trial; the others are built linear (coset lifts, q5plus codes, random
    linear codes over Z_5 and Z_7, the pentagon), decoded from their
    noise patterns where 2^n <= min(trials, draw size).
    """
    code_seed = draw(st.integers(0, 999))
    kind = draw(st.just("words") if draw(st.booleans())
                else st.sampled_from(["coset", "q5plus", "linear", "pentagon"]))
    if kind == "coset":
        n = draw(st.integers(1, 3))
        code = random_coset_code(draw(st.sampled_from([4, 6])), n, draw(st.integers(0, n)), seed=code_seed)[0]
    elif kind == "q5plus":
        n = draw(st.integers(1, 2))
        code = random_q5_code(n, draw(st.integers(0, 1)), seed=code_seed)
    elif kind == "linear":
        n = draw(st.integers(1, 3))
        code = random_linear_code(draw(st.sampled_from([5, 7])), n, draw(st.integers(0, min(n, 2))), seed=code_seed)
    elif kind == "pentagon":
        code = pentagon_code()
    else:
        q = draw(st.integers(4, 7))
        n = draw(st.integers(1, 3))
        m = draw(st.integers(1, q**n))
        code = _random_code(np.random.default_rng(draw(st.integers(0, 2**32))), q, n, m)
    q, n = code.q, code.n
    eps = draw(st.sampled_from([0.01, 0.3, 0.5]))
    # draws of MC_DRAW trials, or shorter ones to keep the oracle's arrays small
    block = draw(st.sampled_from([codes_mod.MC_DRAW, 1000, 7]))
    if block * code.M * n > 1 << 21:
        block = 1000
    trials = draw(st.integers(1, 40000 if block > 7 else 500))
    seed = draw(st.integers(0, 2**64 - 1))
    return code, Channel(q, eps), trials, seed, block


@settings(PROPERTY, max_examples=200)
@given(mc_cases())
def test_mc_pe_matches_tuple_oracle_on_generated_codes(case):
    code, ch, trials, seed, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes_mod, "MC_DRAW", block)
        assert mc_pe(code, ch, trials, seed=seed) == oracle.mc_pe(code, ch, trials, seed=seed, block=block)


@pytest.mark.parametrize("eps", [0.1, 1e-300])
def test_mc_pe_with_more_likelihoods_than_uint8_ranks_matches_tuple_oracle(eps):
    # n = 300 gives 302 likelihood levels at eps 0.1, so the ranks are uint16
    code = random_linear_code(5, 300, 2, seed=0)
    ch = Channel(5, eps)
    for seed, trials in ((0, 1), (1, 999)):  # the oracle holds trials x M x n integers
        assert mc_pe(code, ch, trials, seed=seed) == oracle.mc_pe(code, ch, trials, seed=seed)


@st.composite
def linear_codes(draw):
    """Codes the constructors build as subgroups: coset lifts, q5plus codes, random linear codes."""
    kind = draw(st.sampled_from(["coset", "q5plus", "linear"]))
    seed = draw(st.integers(0, 999))
    if kind == "coset":
        q = draw(st.sampled_from([4, 6, 8]))
        n = draw(st.integers(min_value=1, max_value={4: 5, 6: 4, 8: 3}[q]))
        return random_coset_code(q, n, draw(st.integers(0, n)), seed=seed)[0]
    if kind == "q5plus":
        n = draw(st.integers(min_value=1, max_value=2))
        return random_q5_code(n, draw(st.integers(0, n)), seed=seed)
    q = draw(st.sampled_from([5, 7, 11]))  # prime, and a channel alphabet
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=min(n, {5: 4, 7: 3, 11: 2}[q])))
    return random_linear_code(q, n, k, seed=seed)


# longer than a uint8 weight accumulator allows, and, built from one word of
# 218 symbols 1 and 82 zeros, with multiples whose symbol sums pass 2^16
@example(random_linear_code(5, 300, 2, seed=0), 0.1)
@example(codes_mod._constructed(np.outer(range(5), [1] * 218 + [0] * 82) % 5, 5, True), 0.3)
@PROPERTY
@given(linear_codes(), st.sampled_from([0.01, 0.1, 0.3, 0.5]))
def test_linear_code_spectrum_matches_pairwise_kernel(code, eps):
    assert code.linear
    plain = make_code(code.array, code.q)  # same words, not marked linear
    assert not plain.linear and plain == code and hash(plain) == hash(code)
    assert spectrum(code).tolist() == spectrum(plain).tolist()
    ch = Channel(code.q, eps)
    assert union_bound_pe(code, ch) == union_bound_pe(plain, ch)  # bit for bit
    back = parse_code(oracle.format_code(code))
    assert not back.linear and back == code


@PROPERTY
@given(linear_codes())
def test_linear_codes_are_closed_under_subtraction(code):
    # the mark lets spectrum and exact_word_errors work from the zero word
    # alone, which holds only for a subgroup of Z_q^n
    assert code.linear
    assert not code.array[0].any()  # listed from the zero word, codeword 0 of _pattern_table
    index = word_indices(code.array, code.q)
    for word in code.array:  # M^2 differences, a row of M at a time
        assert np.isin(word_indices((word - code.array) % code.q, code.q), index).all()


# the benchmark's coset:8:4 code and a q5plus:4:1 code, both within the
# addressing rule; random_q5_code(1, 0) is the pentagon, outside it, where
# a code marked linear enumerates its pairs too. The pentagon again with
# every pattern tied (eps = 1/2), then with every likelihood past one flip
# underflowing to 0 (eps = 1e-300), as for a q5plus:2:0 code (outside the
# rule) and a coset code (within it)
@example(random_coset_code(4, 8, 4, seed=293407)[0], 0.1)
@example(random_q5_code(4, 1, seed=0), 0.3)
@example(pentagon_code(), 0.5)
@example(pentagon_code(), 1e-300)
@example(random_q5_code(2, 0, seed=0), 1e-300)
@example(random_coset_code(4, 5, 2, seed=1)[0], 1e-300)
@PROPERTY
@given(linear_codes(), st.sampled_from([1e-300, 0.01, 0.3, 0.5]))
def test_linear_code_errors_match_the_enumeration(code, eps):
    ch = Channel(code.q, eps)
    plain = make_code(code.array, code.q)  # not marked linear: enumerates every codeword
    assert np.array_equal(exact_word_errors(code, ch), exact_word_errors(plain, ch))
    assert exact_pe(code, ch) == exact_pe(plain, ch)


def test_a_non_linear_code_marked_linear_gets_wrong_errors():
    # the property above can fail: the lift of a non-linear shift code,
    # within the addressing rule, forced through the linear path
    lift = build_coset_code(make_code([(0, 0), (0, 1), (1, 0)], 2), 4)
    forced = codes_mod._constructed(lift.array, 4, True)
    assert codes_mod._addressable(4, lift.n, lift.M)
    ch = Channel(4, 0.3)
    assert not np.array_equal(exact_word_errors(forced, ch), exact_word_errors(lift, ch))


def test_weight_counts_on_stacks_and_long_words():
    # one bin per weight 0..n, then infinite weight; leading axes are kept
    words = np.array([[[0, 0, 0], [1, 0, 4], [2, 0, 0]], [[3, 3, 3], [4, 4, 4], [1, 1, 0]]])
    assert weight_counts(words, 5).tolist() == [[1, 0, 1, 0, 1], [0, 0, 1, 1, 1]]
    assert weight_counts(words[None], 5).shape == (1, 2, 5)
    assert weight_counts(words[:, :, :2] % 3, 3).tolist() == [[1, 2, 0, 0], [1, 0, 2, 0]]
    # 218 symbols 2 sum to 218 (n + 1) = 65 618 > 2^16 at n = 300: still infinite
    word = np.array([[2] * 218 + [0] * 82])
    counts = weight_counts(word, 5)
    assert counts.shape == (302,) and counts[-1] == 1 and counts[:-1].sum() == 0
    assert weight_counts(np.array([[1] * 218 + [4] * 82]), 5)[300] == 1


def test_only_linear_constructions_are_marked_linear():
    c2 = random_linear_code(2, 3, 2, seed=1)
    assert c2.linear and pentagon_code().linear and build_q5_code(np.ones((1, 2))).linear
    assert build_coset_code(c2, 4).linear
    # a linear binary code given by its words is not marked, nor is its lift
    words = make_code(c2.array, 2)
    assert not words.linear and not build_coset_code(words, 4).linear
    # the lift of a non-linear shift code is not linear, and is not marked
    lift = build_coset_code(make_code([(0, 0), (0, 1), (1, 0)], 2), 4)
    assert not lift.linear and spectrum(lift).tolist() == _exact_spectrum(lift)
    with pytest.raises(AttributeError):
        c2.linear = False


def test_pentagon_code_is_shannons():
    code = pentagon_code()
    assert sorted(code.array.tolist()) == [[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]
    # zero-error: all pairs at infinite semidistance
    assert spectrum(code).tolist() == [0.0, 0.0, 0.0, 4.0]


def test_spectrum_examples():
    # A_0 .. A_n, then the mass at infinite distance, as a read-only float64 array
    sp = spectrum(make_code([(0, 0), (1, 1)], 4))
    assert sp.dtype == np.float64 and sp.tolist() == [0.0, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        sp[0] = 1.0
    assert spectrum(make_code([(2, 3)], 5)).tolist() == [0.0, 0.0, 0.0, 0.0]
    code = make_code([(0, 0), (0, 1), (2, 2)], 4)
    # each entry is the exact ratio rounded once: 2/3 pairs per word
    assert spectrum(code).tolist() == [0.0, 2 / 3, 0.0, 4 / 3]


def test_union_bound():
    ch = Channel(4, 0.1)
    assert union_bound_pe(make_code([(0, 0), (1, 1)], 4), ch) == pytest.approx(0.09)
    assert union_bound_pe(pentagon_code(), Channel(5, 0.1)) == 0.0


def test_exact_pe_two_word_example():
    # single-letter code {0, 1}: only output 1 is ambiguous
    ch = Channel(4, 0.1)
    code = make_code([(0,), (1,)], 4)
    avg, worst = exact_pe(code, ch)
    assert avg == pytest.approx(0.05, abs=1e-15)
    # only the lower word ever errs: its whole crossover mass is lost
    assert worst == pytest.approx(0.1, abs=1e-15)
    # with symmetric crossover the tie costs a quarter on average
    ch = Channel(4, 0.5)
    assert exact_pe(code, ch)[0] == pytest.approx(0.25, abs=1e-15)


def test_exact_pe_zero_error_exact():
    for code, q in ((pentagon_code(), 5), (build_coset_code(make_code([(0, 0, 0)], 2), 6), 6)):
        assert exact_pe(code, Channel(q, 0.3)) == (0.0, 0.0)
    assert exact_pe(build_q5_code(np.zeros((0, 2), dtype=np.int64)), Channel(5, 0.5)) == (0.0, 0.0)


def test_exact_pe_single_word():
    assert exact_pe(make_code([(1, 2, 3)], 5), Channel(5, 0.2)) == (0.0, 0.0)


def test_exact_pe_avg_never_rounds_above_max():
    # 18 words with error 0.01 each: their float mean is 0.010000000000000002
    code = random_coset_code(6, 2, 1, seed=0)[0]
    ch = Channel(6, 0.01)
    assert float(exact_word_errors(code, ch).mean()) > 0.01
    assert exact_pe(code, ch) == (0.01, 0.01)


def test_exact_pe_avg_below_max_and_union():
    rng = np.random.default_rng(11)
    ch = Channel(4, 0.12)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, min(8, 4**n - 1) + 1))
        words = set()
        while len(words) < m:
            words.add(tuple(int(s) for s in rng.integers(0, 4, n)))
        code = make_code(sorted(words), 4)
        avg, mx = exact_pe(code, ch)
        assert avg <= mx + 1e-15
        assert avg <= union_bound_pe(code, ch) + 1e-15


def test_exact_pe_pairwise_floor():
    # two confusable words: the worst-word error is at least eps^d / 2
    ch = Channel(5, 0.3)
    for w1, w2 in (((0, 0), (1, 1)), ((2,), (3,)), ((0, 1, 2), (1, 1, 2))):
        code = make_code([w1, w2], 5)
        d = semidistance(w1, w2, 5)
        assert exact_pe(code, ch)[1] >= 0.5 * ch.epsilon**d - 1e-15


def test_exact_pe_matches_tuple_oracles():
    # the coset code below and small codes with q^n above 2^22, which the
    # earlier implementation sent through its reachable-output dictionary
    ch = Channel(4, 0.15)
    codes = [(build_coset_code(make_code([(0, 0, 0, 0), (1, 1, 0, 1)], 2), 4), ch)]
    rng = np.random.default_rng(3)
    for q, n, m, eps in ((7, 8, 12, 0.3), (9, 7, 20, 0.5), (5, 3, 40, 0.5), (6, 4, 30, 0.1)):
        codes.append((_random_code(rng, q, n, m), Channel(q, eps)))
    # outputs labelled by their index where q^n <= M 2^n, by their rank among
    # the reached ones otherwise: both sides of that rule and its boundary,
    # with every pattern tied (eps = 1/2) and with likelihoods that underflow
    # to 0 from two flips on, so that ties form among them
    sides = set()
    for q, n, m in ((4, 2, 4), (4, 3, 8), (4, 3, 7), (5, 4, 39), (5, 4, 40), (8, 3, 60)):
        sides.add(q**n <= m * 2**n)
        for eps in (0.5, 1e-300, 0.2):
            codes.append((_random_code(rng, q, n, m), Channel(q, eps)))
    codes.append((make_code([(3,) * 6, (0, 3, 1, 3, 2, 3)], 4), Channel(4, 1e-300)))  # every wrap
    # more than 4096 words with M 2^n within REACH_CAP, labelled by index (8192 <= 5000 * 2)
    # and by rank (256^2 > 5000 * 4)
    for q, n in ((8192, 1), (256, 2)):
        codes.append((_random_code(rng, q, n, 5000), Channel(q, 0.3)))
    assert sides == {True, False}
    for code, ch in codes:
        errs = exact_word_errors(code, ch)
        assert np.array_equal(errs, oracle.exact_word_errors(code, ch, dense=True))
        assert np.allclose(errs, oracle.exact_word_errors(code, ch, dense=False), rtol=0, atol=1e-14)
        assert exact_pe(code, ch) == (min(float(errs.mean()), float(errs.max())), float(errs.max()))
    with pytest.raises(ValueError, match="enumeration"):
        exact_pe(random_q5_code(6, 0, seed=0), Channel(5, 0.1))  # M 2^n = 2^24


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_word_errors_memory():
    # two words with q^n = 5^10 outputs, near OUTPUT_CAP: a table over every
    # output would take 78 MB apiece, so the labels come from the reached ones
    sparse = make_code([(0,) * 10, (4,) * 10], 5)
    assert 5**10 <= codes_mod.OUTPUT_CAP
    assert _traced_peak(exact_word_errors, sparse, Channel(5, 0.1)) < 2e6
    # the benchmark's coset:8:4 code scores only its zero word: a 2^8 x 2^8
    # candidate grid and a 4^8 lookup table
    dense = random_coset_code(4, 8, 4, seed=293407)[0]
    assert dense.linear and _traced_peak(exact_word_errors, dense, Channel(4, 0.1)) < 4e6
    # its unmarked copy enumerates all 2^20 (word, pattern) pairs, and stays
    # well below the 50-52 MB the enumeration took when it sorted the pairs
    plain = make_code(dense.array, 4)
    assert _traced_peak(exact_word_errors, plain, Channel(4, 0.1)) < 45e6


def test_linear_exact_pe_refuses_a_pattern_table_above_its_cap_before_allocating(monkeypatch):
    # a linear code's table has 4^n candidates where its outputs are
    # addressed directly (coset:8:4 at q = 4, whose M 2^n = 2^20 pairs the
    # enumeration would need); outside that rule (a code over Z_7 with
    # 7^8 > 2401 * 2^8) it enumerates its M 2^n pairs, as any code does
    for code, entries, message in (
            (random_coset_code(4, 8, 4, seed=293407)[0], 4**8, "pattern table of 4\\^8 entries .* REACH_CAP = {}"),
            (random_linear_code(7, 8, 4, seed=0), 7**4 * 2**8, "reachable-output enumeration exceeds the cap")):
        ch = Channel(code.q, 0.1)
        monkeypatch.undo()
        whole = exact_pe(code, ch)
        monkeypatch.setattr(codes_mod, "REACH_CAP", entries - 1)

        def refused():
            with pytest.raises(ValueError, match=message.format(entries - 1)):
                exact_pe(code, ch)

        assert _traced_peak(refused) < entries  # under a byte per entry
        monkeypatch.setattr(codes_mod, "REACH_CAP", entries)
        assert exact_pe(code, ch) == whole


def test_linear_exact_pe_outside_the_addressing_rule_enumerates_its_pairs():
    # q^n = 211^3 > M 2^n = 211^2 * 8: the 356 168 (codeword, pattern) pairs,
    # not the pairwise kernel's (n q, M) key of 28 million entries
    code = random_linear_code(211, 3, 2, seed=0)
    ch = Channel(211, 0.3)
    assert code.linear and not codes_mod._addressable(211, 3, code.M)
    assert _traced_peak(exact_pe, code, ch) < 40e6
    assert exact_pe(code, ch) == exact_pe(make_code(code.array, 211), ch)
    # a one-word code over a prime alphabet wider than the kernel's cap
    one = random_linear_code(131101, 1, 0)
    assert one.q > codes_mod.WIDTH_CAP
    assert exact_pe(one, Channel(one.q, 0.3)) == (0.0, 0.0)


@pytest.mark.parametrize("n, k", [(10, 5), (10, 6), (11, 5)])
def test_exact_pe_of_coset_codes_past_the_pair_cap_matches_monte_carlo(n, k):
    # M = 2^(n + k) words at q = 4, whose M 2^n (codeword, pattern) pairs pass
    # REACH_CAP: only the zero word's 4^n-candidate pattern table is scored
    code = random_coset_code(4, n, k, seed=1)[0]
    assert code.M * 2**n > codes_mod.REACH_CAP
    ch = Channel(4, 0.1)
    avg, worst = exact_pe(code, ch)
    assert 0 < avg <= worst
    trials = codes_mod.MC_PAIR_CAP // code.M
    mc = mc_pe(code, ch, trials, seed=3)
    assert abs(mc.estimate - avg) <= 5 * math.sqrt(avg * (1 - avg) / trials)


def test_pairwise_kernel_refuses_a_code_wider_than_its_cap():
    cap = codes_mod.WIDTH_CAP
    widest = make_code([(0,), (1,)], cap)  # as wide as the widest constructed code
    assert spectrum(widest).tolist() == _exact_spectrum(widest)
    assert mc_pe(widest, Channel(cap, 0.5), 10, seed=0).trials == 10
    wide = make_code([(0, 0), (1, 1)], cap // 2 + 1)
    for call in (lambda: spectrum(wide), lambda: mc_pe(wide, Channel(wide.q, 0.1), 10)):
        with pytest.raises(ValueError, match=f"cap {cap}"):
            call()


def test_pairwise_kernel_refuses_a_key_above_its_cap_before_allocating(monkeypatch):
    rng = np.random.default_rng(0)
    ch = Channel(4, 0.1)

    def refused_below(code, call):
        """call() is refused with KEY_CAP one entry short of the code's key, then runs at it."""
        entries = code.n * code.q * code.M
        monkeypatch.setattr(codes_mod, "KEY_CAP", entries - 1)

        def refused():
            with pytest.raises(ValueError, match=f"cap {entries - 1} entries"):
                call()

        assert _traced_peak(refused) < entries  # under an eighth of the key's bytes
        monkeypatch.setattr(codes_mod, "KEY_CAP", entries)

    # spectrum builds the key for any code not marked linear (a key of 1 MB)
    code = make_code(np.unique(rng.integers(0, 4, (4096, 8)), axis=0), 4)
    refused_below(code, lambda: spectrum(code))
    assert spectrum(code).tolist() == _exact_spectrum(code)
    # mc_pe builds it only for a code it cannot address directly: here
    # q^n = 4^10 > M 2^10, as M < 1024 (a key of 320 KB)
    code = make_code(np.unique(rng.integers(0, 4, (1000, 10)), axis=0), 4)
    assert not codes_mod._addressable(code.q, code.n, code.M)
    refused_below(code, lambda: mc_pe(code, ch, 10))
    assert mc_pe(code, ch, 10, seed=1) == oracle.mc_pe(code, ch, 10, seed=1)


def test_candidate_path_never_builds_the_key(monkeypatch):
    def no_key(*args):
        raise AssertionError("the pairwise kernel's key was built")

    monkeypatch.setattr(codes_mod, "_pair_key", no_key)
    for code, eps in ((random_coset_code(4, 6, 3, seed=1)[0], 0.1), (random_q5_code(3, 1, seed=2), 0.2)):
        assert codes_mod._addressable(code.q, code.n, code.M)
        assert mc_pe(code, Channel(code.q, eps), 2000, seed=3).trials == 2000
    with pytest.raises(AssertionError, match="key was built"):  # q^n = 25 > 20 = M 2^n
        mc_pe(pentagon_code(), Channel(5, 0.2), 10)


@pytest.mark.parametrize("eps", [0.01, 0.3, 0.5])
@pytest.mark.parametrize("q, n", [(4, 3), (6, 2), (5, 2)])
def test_mc_pe_matches_tuple_oracle_on_both_sides_of_the_addressing_rule(q, n, eps):
    # M = ceil(q^n / 2^n) words is the smallest code scored by candidate
    # lookup (exactly q^n = M 2^n for even q); one word fewer takes the kernel
    rng = np.random.default_rng(q * n)
    at = -(-(q**n) // 2**n)
    ch = Channel(q, eps)
    for m, candidates in ((at, True), (at - 1, False)):
        code = _random_code(rng, q, n, m)
        assert codes_mod._addressable(q, n, m) == candidates
        for seed, trials in ((0, 999), (1, 16385)):
            assert mc_pe(code, ch, trials, seed=seed) == oracle.mc_pe(code, ch, trials, seed=seed)
        # an odd draw leaves a buffered half that the next draw's senders read
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes_mod, "MC_DRAW", 7)
            assert mc_pe(code, ch, 200, seed=2) == oracle.mc_pe(code, ch, 200, seed=2, block=7)


def test_candidate_scores_rank_underflowed_likelihoods_with_the_unreachable():
    # {0, 2}^3 over Z_4, at the rule: q^n = 64 = M 2^n. Each received row
    # is two or three flips from its one candidate codeword, and those
    # likelihoods underflow to 0 at eps = 1e-200, so all M codewords tie
    code = random_coset_code(4, 3, 0)[0]
    assert codes_mod._addressable(code.q, code.n, code.M)
    rank = codes_mod._weight_ranks(3, 1e-200)
    assert rank.tolist() == [2, 1, 0, 0]
    received = np.array([(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (3, 3, 3), (3, 1, 2)])
    for maximizers in (codes_mod._candidate_maximizers, codes_mod._kernel_maximizers):
        rows, cols, open_rows = maximizers(code, rank)(received)
        assert rows.size == cols.size == 0
        assert open_rows.tolist() == list(range(len(received)))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_word_indices_match_the_matmul_on_stacks(dtype):
    # the column-by-column Horner sum gives the integers of the matmul
    # with the powers of q, on stacks up to n = 16
    rng = np.random.default_rng(7)
    for q in (2,) if dtype is bool else (2, 4, 7, 15, 255):
        for n in (n for n in range(1, 17) if codes_mod._power_within(q, n, codes_mod._INT64_MAX)):
            words = rng.integers(0, q, (3, 5, n)).astype(dtype)
            got = codes_mod.word_indices(words, q)
            assert got.dtype == np.int64 and got.shape == (3, 5)
            expected = words.astype(np.int64) @ q ** np.arange(n - 1, -1, -1, dtype=np.int64)
            assert np.array_equal(got, expected)


def test_pattern_outputs_address_word_plus_and_minus_each_pattern():
    rng = np.random.default_rng(0)
    pats = all_words((0, 1), 4)
    for q in (4, 5, 7):
        words = rng.integers(0, q, (50, 4))
        words[:5] = 0
        words[5:10] = q - 1
        for sign in (1, -1):
            expected = codes_mod.word_indices((words[:, None, :] + sign * pats) % q, q)
            assert np.array_equal(codes_mod._pattern_outputs(words, q, sign), expected)


@st.composite
def builtin_codes(draw):
    if draw(st.booleans()):
        q = draw(st.sampled_from([4, 6]))
        n = draw(st.integers(min_value=1, max_value=4))
        code = random_coset_code(q, n, draw(st.integers(0, n)), seed=draw(st.integers(0, 99)))[0]
    else:
        n = draw(st.integers(min_value=1, max_value=2))
        code = random_q5_code(n, draw(st.integers(0, n)), seed=draw(st.integers(0, 99)))
    eps = draw(st.sampled_from([0.01, 0.1, 0.3, 0.5]))
    return code, Channel(code.q, eps)


@PROPERTY
@given(builtin_codes())
def test_exact_pe_below_union_bound_and_max_above_avg(case):
    code, ch = case
    avg, worst = exact_pe(code, ch)
    assert avg <= union_bound_pe(code, ch) + 1e-15
    assert worst >= avg
    assert union_bound_pe(code, ch, spectrum(code)) == union_bound_pe(code, ch)


def test_mc_pe_zero_error_and_determinism():
    mc = mc_pe(pentagon_code(), Channel(5, 0.25), trials=500, seed=3)
    assert mc.estimate == 0.0
    assert mc.lower == 0.0 and mc.upper > 0.0
    again = mc_pe(pentagon_code(), Channel(5, 0.25), trials=500, seed=3)
    assert mc == again
    with pytest.raises(ValueError):
        mc_pe(pentagon_code(), Channel(5, 0.25), trials=0)


def test_mc_pe_refuses_work_beyond_the_pair_cap(monkeypatch):
    code, ch = pentagon_code(), Channel(5, 0.25)
    with pytest.raises(ValueError, match="exceeds the cap"):
        mc_pe(code, ch, trials=codes_mod.MC_PAIR_CAP // code.M + 1)
    monkeypatch.setattr(codes_mod, "MC_PAIR_CAP", 1000)
    assert mc_pe(code, ch, trials=200).trials == 200  # exactly at the cap
    with pytest.raises(ValueError, match="exceeds the cap"):
        mc_pe(code, ch, trials=201)


def test_mc_pe_interval_calibration():
    """Wilson 95% intervals should cover the exact value nearly always."""
    ch = Channel(4, 0.2)
    c2 = random_linear_code(2, 3, 1, seed=5)
    code = build_coset_code(c2, 4)
    exact, _ = exact_pe(code, ch)
    hits = sum(
        1
        for s in range(100)
        if mc_pe(code, ch, trials=2000, seed=s).lower <= exact <= mc_pe(code, ch, trials=2000, seed=s).upper
    )
    assert hits >= 93


def test_build_coset_code():
    c2 = make_code([(0, 0, 0), (1, 1, 1)], 2)
    code = build_coset_code(c2, 4)
    assert code.M == 2**3 * 2 and code.n == 3 and code.q == 4
    # rate decomposes exactly
    assert math.log2(code.M) / code.n == pytest.approx(1.0 + 1.0 / 3.0)
    # linear shift code gives a linear lift: closed under q-ary addition
    words = set(map(tuple, code.array.tolist()))
    arr = code.array
    sums = (arr[:, None, :] + arr[None, :, :]) % 4
    for row in sums.reshape(-1, 3):
        assert tuple(int(x) for x in row) in words
    with pytest.raises(ValueError):
        build_coset_code(c2, 5)
    with pytest.raises(ValueError):
        build_coset_code(make_code([(0, 1, 2)], 4), 4)


def test_build_q5_code_and_census():
    g = np.array([[1, 2, 0]], dtype=np.int64)
    code = build_q5_code(g)
    assert code.M == 5**4 and code.n == 6
    ok, failures = q5_weight_census(g)
    assert ok, failures
    # k = 0 reproduces powers of the two-letter zero-error code
    power = build_q5_code(np.zeros((0, 2), dtype=np.int64))
    assert power.M == 25
    # zero-error: every nonzero word has infinite weight
    assert weight_counts(power.array, 5).tolist() == [1, 0, 0, 0, 0, 24]
    with pytest.raises(ValueError):
        build_q5_code(np.array([[1, 2], [2, 4]], dtype=np.int64))  # rank deficient


def test_q5_census_matches_per_suffix_reference():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        for k in range(0, n + 1):
            if n + k > 6:
                continue
            g = random_generator_matrix(5, n, k, rng)
            assert q5_weight_census(g) == oracle.q5_weight_census(g) == (True, [])
    empty = np.zeros((0, 0), dtype=np.int64)
    assert q5_weight_census(empty) == oracle.q5_weight_census(empty) == (True, [])
    with pytest.raises(ValueError, match="cap"):
        q5_weight_census(np.ones((2, 8), dtype=np.int64))  # 5^10 words


def test_q5_census_reports_failures_per_suffix(monkeypatch):
    g = np.array([[1, 0, 3], [0, 2, 2]], dtype=np.int64)
    real = codes_mod.weight_counts

    def one_word_too_many(words, q):
        counts = real(words, q)
        counts[3, 2] += 1  # suffix (0, 3), image (0, 1, 1) of weight 2
        return counts

    monkeypatch.setattr(codes_mod, "weight_counts", one_word_too_many)
    ok, failures = q5_weight_census(g)
    law = {2: 1, 3: 2, 4: 1}
    # the tuples, with plain ints, that the per-suffix census builds
    assert not ok
    assert repr(failures) == repr([((0, 3), 2, {**law, 2: 2}, law)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_q5_census_random_generators(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3):
        for k in range(0, min(n, 2) + 1):
            from relbound.codes import random_generator_matrix

            g = random_generator_matrix(5, n, k, rng)
            ok, failures = q5_weight_census(g)
            assert ok, failures


def test_random_linear_code():
    assert random_linear_code(2, 4, 0, seed=1).array.tolist() == [[0, 0, 0, 0]]
    full = random_linear_code(2, 3, 3, seed=1)
    assert full.M == 8
    code = random_linear_code(5, 4, 2, seed=9)
    assert code.M == 25
    assert rank_mod_p(code.array[:3], 5) >= 1
    with pytest.raises(ValueError):
        random_linear_code(4, 3, 1, seed=0)  # alphabet not prime
    with pytest.raises(ValueError):
        random_linear_code(2, 3, 4, seed=0)
    with pytest.raises(ValueError):
        random_generator_matrix(5, 1, 2, np.random.default_rng(0))  # k > n: no full rank exists
    with pytest.raises(ValueError, match="cap"):
        random_linear_code(2, 40, 20, seed=0)


def test_gv_spectrum_concentration():
    """Sampled weight counts track the exact linear-ensemble expectation."""
    n, k, z = 14, 7, 4
    counts = []
    for seed in range(200):
        code = random_linear_code(2, n, k, seed=seed)
        counts.append(int(weight_counts(code.array, 2)[z]))
    mean = float(np.mean(counts))
    expected = math.comb(n, z) * (2**k - 1) / 2**n
    assert abs(math.log2(mean) - math.log2(expected)) / n <= 0.08


def test_code_serialization_roundtrip():
    code = build_coset_code(random_linear_code(2, 3, 2, seed=4), 4)
    text = oracle.format_code(code)
    assert text.splitlines()[0] == "4 3 32"
    back = parse_code(text)
    assert back == code


@PROPERTY
@given(word_lists())
def test_format_parse_roundtrip_on_generated_codes(case):
    words, q = case
    try:
        code = make_code(words, q)
    except ValueError:
        return
    assert parse_code(oracle.format_code(code)) == code


def test_parse_code_errors_name_the_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_code("4 2 2\n0 1\n0 9\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_code("4 2 2\n0 1\n0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_code("nope\n")
    with pytest.raises(ValueError, match="announced"):
        parse_code("4 2 3\n0 1\n1 1\n")
