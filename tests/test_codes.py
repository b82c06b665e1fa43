import math
from fractions import Fraction

import code_oracles as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import semidistance

from relbound import codes as codes_mod
from relbound.channel import Channel
from relbound.codes import (
    all_words,
    build_coset_code,
    build_q5_code,
    code_weights,
    exact_pe,
    exact_pe_avg_max,
    exact_word_errors,
    format_code,
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
    assert code.words == ((0, 1), (2, 3))
    assert code.array.dtype == np.int64 and code.array.shape == (2, 2)
    with pytest.raises(ValueError):
        code.array[0, 0] = 1
    assert code == make_code([(0, 1), (2, 3)], 4) and code != make_code([(0, 1), (2, 3)], 5)
    assert len({code, make_code(code.words, 4)}) == 1


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
        assert make_code(words, q).words == oracle.validate_words(words, q)


def _random_code(rng, q, n, m):
    idx = rng.choice(q**n, size=m, replace=False)
    return make_code(all_words(range(q), n)[idx], q)


@pytest.mark.parametrize("q", range(2, 10))
def test_spectrum_matches_tuple_oracle(q):
    rng = np.random.default_rng(q)
    for n in (1, 2, 3, 4):
        for m in sorted({1, 2, min(q**n, 7), min(q**n, 60)}):
            code = _random_code(rng, q, n, m)
            assert spectrum(code) == oracle.spectrum(code)
        with pytest.raises(ValueError):
            make_code([(q - 1,) * n, (0,) * n, (q - 1,) * n], q)  # duplicates refused


def test_spectrum_works_in_bounded_row_blocks(monkeypatch):
    # rebuilt by make_code, so not marked linear: the pairwise kernel runs
    code = make_code(build_coset_code(random_linear_code(2, 5, 3, seed=2), 4).array, 4)
    whole = spectrum(code)
    monkeypatch.setattr(codes_mod, "BLOCK_BYTES", 3 * code.M * 16)
    assert spectrum(code) == whole == oracle.spectrum(code)


@pytest.mark.parametrize(
    "code_spec, eps",
    [(("coset", 4, 3, 2, 1), 0.1), (("coset", 6, 2, 1, 7), 0.5), (("q5", 2, 1, 3), 0.2),
     (("q5", 2, 0, 0), 0.5), (("coset", 4, 2, 0, 5), 0.5)],
)
def test_mc_pe_matches_tuple_oracle_bit_for_bit(code_spec, eps, monkeypatch):
    if code_spec[0] == "coset":
        code = random_coset_code(*code_spec[1:4], seed=code_spec[4])[0]
    else:
        code = random_q5_code(*code_spec[1:3], seed=code_spec[3])
    ch = Channel(code.q, eps)
    # trial counts below, at and off multiples of the 16384-trial draw
    for seed, trials in ((0, 1), (1, 999), (2, 16384), (3, 16385), (4, 40000)):
        assert mc_pe(code, ch, trials, seed=seed) == oracle.mc_pe(code, ch, trials, seed=seed)
    # many small row blocks draw the same tie-breaking stream
    monkeypatch.setattr(codes_mod, "BLOCK_BYTES", 7 * code.M * 48)
    assert mc_pe(code, ch, 20001, seed=5) == oracle.mc_pe(code, ch, 20001, seed=5)


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


@PROPERTY
@given(linear_codes(), st.sampled_from([0.01, 0.1, 0.3, 0.5]))
def test_linear_code_spectrum_matches_pairwise_kernel(code, eps):
    assert code.linear
    plain = make_code(code.array, code.q)  # same words, not marked linear
    assert not plain.linear and plain == code and hash(plain) == hash(code)
    assert spectrum(code) == spectrum(plain)
    assert list(spectrum(code).counts) == list(spectrum(plain).counts)  # same printing order
    ch = Channel(code.q, eps)
    assert union_bound_pe(code, ch) == union_bound_pe(plain, ch)  # bit for bit
    back = parse_code(format_code(code))
    assert not back.linear and back == code


def test_only_linear_constructions_are_marked_linear():
    c2 = random_linear_code(2, 3, 2, seed=1)
    assert c2.linear and pentagon_code().linear and build_q5_code(np.ones((1, 2))).linear
    assert build_coset_code(c2, 4).linear
    # a linear binary code given by its words is not marked, nor is its lift
    words = make_code(c2.array, 2)
    assert not words.linear and not build_coset_code(words, 4).linear
    # the lift of a non-linear shift code is not linear, and is not marked
    lift = build_coset_code(make_code([(0, 0), (0, 1), (1, 0)], 2), 4)
    assert not lift.linear and spectrum(lift) == oracle.spectrum(lift)
    with pytest.raises(AttributeError):
        c2.linear = False


def test_pentagon_code_is_shannons():
    code = pentagon_code()
    assert sorted(code.words) == [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]
    # zero-error: all pairs at infinite semidistance
    sp = spectrum(code)
    assert sp.counts == {}
    assert sp.infinite_count == Fraction(4)


def test_spectrum_examples():
    sp = spectrum(make_code([(0, 0), (1, 1)], 4))
    assert sp.counts == {2: Fraction(1)}
    assert spectrum(make_code([(2, 3)], 5)).counts == {}
    code = make_code([(0, 0), (0, 1), (2, 2)], 4)
    sp = spectrum(code)
    assert sp.total_pairs() == Fraction(3 * 2, 3)


def test_union_bound():
    ch = Channel(4, 0.1)
    assert union_bound_pe(make_code([(0, 0), (1, 1)], 4), ch) == pytest.approx(0.09)
    assert union_bound_pe(pentagon_code(), Channel(5, 0.1)) == 0.0


def test_exact_pe_two_word_example():
    # single-letter code {0, 1}: only output 1 is ambiguous
    ch = Channel(4, 0.1)
    code = make_code([(0,), (1,)], 4)
    assert exact_pe(code, ch, "avg") == pytest.approx(0.05, abs=1e-15)
    # only the lower word ever errs: its whole crossover mass is lost
    assert exact_pe(code, ch, "max") == pytest.approx(0.1, abs=1e-15)
    # with symmetric crossover the tie costs a quarter on average
    ch = Channel(4, 0.5)
    assert exact_pe(code, ch, "avg") == pytest.approx(0.25, abs=1e-15)


def test_exact_pe_zero_error_exact():
    for code, q in ((pentagon_code(), 5), (build_coset_code(make_code([(0, 0, 0)], 2), 6), 6)):
        for crit in ("avg", "max"):
            assert exact_pe(code, Channel(q, 0.3), crit) == 0.0
    assert exact_pe(build_q5_code(np.zeros((0, 2), dtype=np.int64)), Channel(5, 0.5)) == 0.0


def test_exact_pe_single_word():
    assert exact_pe(make_code([(1, 2, 3)], 5), Channel(5, 0.2)) == 0.0


def test_exact_pe_avg_never_rounds_above_max():
    # 18 words with error 0.01 each: their float mean is 0.010000000000000002
    code = random_coset_code(6, 2, 1, seed=0)[0]
    ch = Channel(6, 0.01)
    assert float(exact_word_errors(code, ch).mean()) > exact_pe(code, ch, "max")
    assert exact_pe(code, ch, "avg") == exact_pe(code, ch, "max") == 0.01


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
        avg = exact_pe(code, ch, "avg")
        mx = exact_pe(code, ch, "max")
        assert avg <= mx + 1e-15
        assert avg <= union_bound_pe(code, ch) + 1e-15


def test_exact_pe_pairwise_floor():
    # two confusable words: the worst-word error is at least eps^d / 2
    ch = Channel(5, 0.3)
    for w1, w2 in (((0, 0), (1, 1)), ((2,), (3,)), ((0, 1, 2), (1, 1, 2))):
        code = make_code([w1, w2], 5)
        d = semidistance(w1, w2, 5)
        assert exact_pe(code, ch, "max") >= 0.5 * ch.epsilon**d - 1e-15


def test_exact_pe_matches_tuple_oracles():
    # the coset code below and small codes with q^n above 2^22, which the
    # earlier implementation sent through its reachable-output dictionary
    ch = Channel(4, 0.15)
    codes = [(build_coset_code(make_code([(0, 0, 0, 0), (1, 1, 0, 1)], 2), 4), ch)]
    rng = np.random.default_rng(3)
    for q, n, m, eps in ((7, 8, 12, 0.3), (9, 7, 20, 0.5), (5, 3, 40, 0.5), (6, 4, 30, 0.1)):
        codes.append((_random_code(rng, q, n, m), Channel(q, eps)))
    for code, ch in codes:
        errs = exact_word_errors(code, ch)
        assert np.array_equal(errs, oracle.exact_word_errors(code, ch, dense=True))
        assert np.allclose(errs, oracle.exact_word_errors(code, ch, dense=False), rtol=0, atol=1e-14)
        assert exact_pe(code, ch, "avg") == min(float(errs.mean()), float(errs.max()))
        assert exact_pe(code, ch, "max") == float(errs.max())
    with pytest.raises(ValueError, match="enumeration"):
        exact_pe(random_q5_code(6, 0, seed=0), Channel(5, 0.1))  # M 2^n = 2^24


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
    avg, worst = exact_pe_avg_max(code, ch)
    assert avg <= union_bound_pe(code, ch) + 1e-15
    assert worst >= avg
    assert (avg, worst) == (exact_pe(code, ch, "avg"), exact_pe(code, ch, "max"))
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
    exact = exact_pe(code, ch, "avg")
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
    words = set(code.words)
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
    assert set(code_weights(power)) == {0.0, math.inf} or np.isinf(code_weights(power)[1:]).all()
    with pytest.raises(ValueError):
        build_q5_code(np.array([[1, 2], [2, 4]], dtype=np.int64))  # rank deficient


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
    assert random_linear_code(2, 4, 0, seed=1).words == ((0, 0, 0, 0),)
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
        w = code_weights(code)
        counts.append(int(np.sum(w == z)))
    mean = float(np.mean(counts))
    expected = math.comb(n, z) * (2**k - 1) / 2**n
    assert abs(math.log2(mean) - math.log2(expected)) / n <= 0.08


def test_code_serialization_roundtrip():
    code = build_coset_code(random_linear_code(2, 3, 2, seed=4), 4)
    text = format_code(code)
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
    assert parse_code(format_code(code)) == code


def test_parse_code_errors_name_the_line():
    with pytest.raises(ValueError, match="line 3"):
        parse_code("4 2 2\n0 1\n0 9\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_code("4 2 2\n0 1\n0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_code("nope\n")
    with pytest.raises(ValueError, match="announced"):
        parse_code("4 2 3\n0 1\n1 1\n")
