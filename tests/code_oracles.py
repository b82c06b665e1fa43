"""Tuple-era reference implementations of the code kernels.

These are the earlier per-word implementations of code validation,
spectrum, exact_pe, mc_pe, the per-suffix q = 5 weight census and the
per-code coset spectrum check, kept as oracles: the array kernels in
relbound.codes and relbound.lower_bounds must agree with them exactly
(bit for bit on floats). format_code writes the plain-text code files
that relbound.codes.parse_code reads; only tests write them.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from relbound.channel import INF
from relbound.codes import MCResult, coset_lift, weight_counts, wilson_interval, word_indices


def format_code(code):
    """Plain-text form: header 'q n M', then one word per line."""
    lines = [f"{code.q} {code.n} {code.M}"]
    for w in code.array.tolist():
        lines.append(" ".join(str(s) for s in w))
    return "\n".join(lines) + "\n"


def validate_words(words, q):
    """Tuple-by-tuple validation; raises ValueError where a code is refused."""
    words = tuple(tuple(int(s) for s in w) for w in words)
    if len(words) == 0:
        raise ValueError("a code needs at least one word")
    n = len(words[0])
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    seen = set()
    for w in words:
        if len(w) != n:
            raise ValueError("all words must have the same length")
        if any(not 0 <= s < q for s in w):
            raise ValueError(f"symbol out of range in word {w}")
        if w in seen:
            raise ValueError(f"duplicate word {w}")
        seen.add(w)
    return words


def spectrum(code):
    """Exact A_0 .. A_n and the infinite-distance mass, as Fractions, from pairwise differences.

    The semidistances come from broadcast differences, a block of rows at a time.
    """
    a = code.array
    m = code.M
    finite = {}
    inf_pairs = 0
    chunk = max(1, (1 << 22) // max(m * code.n, 1))
    for lo in range(0, m, chunk):
        block = a[lo : lo + chunk]
        diff = (block[:, None, :] - a[None, :, :]) % code.q
        sym = np.where(diff == 0, 0.0, np.where((diff == 1) | (diff == code.q - 1), 1.0, INF))
        d = sym.sum(axis=2)
        for i in range(block.shape[0]):
            d[i, lo + i] = INF  # drop the diagonal
        flat = d.ravel()
        inf_pairs += int(np.isinf(flat).sum()) - block.shape[0]
        vals = flat[np.isfinite(flat)].astype(np.int64)
        if vals.size:
            counts = np.bincount(vals)
            for z, c in enumerate(counts):
                if c:
                    finite[z] = finite.get(z, 0) + int(c)
    return [Fraction(finite.get(z, 0), m) for z in range(code.n + 1)] + [Fraction(inf_pairs, m)]


def _word_index(arr, q):
    return arr @ (q ** np.arange(arr.shape[-1] - 1, -1, -1, dtype=np.int64))


def exact_word_errors(code, ch, dense=True):
    """Per-word exact ML error: a dense output array, or a dict over reached outputs."""
    q, n, m = code.q, code.n, code.M
    arr = code.array
    pats = np.array(list(product((0, 1), repeat=n)), dtype=np.int64)
    weights = pats.sum(axis=1)
    eps = ch.epsilon
    pw = (1.0 - eps) ** (n - weights) * eps**weights
    reach = [(_word_index((arr[i] + pats) % q, q), pw) for i in range(m)]
    errs = np.empty(m)
    if dense:
        max_w = np.zeros(q**n)
        for idx, w in reach:
            np.maximum.at(max_w, idx, w)
        cnt = np.zeros(q**n, dtype=np.int64)
        for idx, w in reach:
            hit = w == max_w[idx]
            np.add.at(cnt, idx[hit], 1)
        for i, (idx, w) in enumerate(reach):
            share = np.where(w == max_w[idx], 1.0 / cnt[idx], 0.0)
            errs[i] = float(np.sum(w * (1.0 - share)))
        return errs
    best = {}
    for idx, w in reach:
        for o, wi in zip(idx.tolist(), w.tolist()):
            if wi > best.get(o, -1.0):  # an output whose likelihoods all underflow to 0 counts too
                best[o] = wi
    cnt = {}
    for idx, w in reach:
        for o, wi in zip(idx.tolist(), w.tolist()):
            if wi == best[o]:
                cnt[o] = cnt.get(o, 0) + 1
    for i, (idx, w) in enumerate(reach):
        e = 0.0
        for o, wi in zip(idx.tolist(), w.tolist()):
            e += wi * (1.0 - (1.0 / cnt[o] if wi == best[o] else 0.0))
        errs[i] = e
    return errs


def mc_pe(code, ch, trials, seed=0, block=1 << 14):
    """Monte-Carlo ML error with the full block x M x n difference array.

    After each block's senders and noise, one uniform u per trial: a
    trial is right when its sender ties for the best likelihood with K
    codewords in all and u K < 1.
    """
    rng = np.random.default_rng(seed)
    q, n, m = code.q, code.n, code.M
    eps = ch.epsilon
    pw = (1.0 - eps) ** (n - np.arange(n + 1)) * eps ** np.arange(n + 1)
    errors = 0
    done = 0
    arr = code.array
    while done < trials:
        b = min(block, trials - done)
        senders = rng.integers(0, m, size=b)
        noise = (rng.random((b, n)) < eps).astype(np.int64)
        y = (arr[senders] + noise) % q
        diff = (y[:, None, :] - arr[None, :, :]) % q
        valid = np.all(diff <= 1, axis=2)
        k = diff.sum(axis=2)
        scores = np.where(valid, pw[np.minimum(k, n)], 0.0)
        best = scores.max(axis=1, keepdims=True)
        tie = scores == best
        u = rng.random(b)
        errors += int(np.count_nonzero(~(tie[np.arange(b), senders] & (u * tie.sum(axis=1) < 1.0))))
        done += b
    lo, hi = wilson_interval(errors, trials)
    return MCResult(errors / trials, lo, hi, trials, errors)


def q5_weight_census(g):
    """The length-doubling weight census, one information suffix at a time."""
    g = np.asarray(g, dtype=np.int64) % 5
    k, n = g.shape
    failures = []
    prefixes = np.array(list(product(range(5), repeat=n)), dtype=np.int64).reshape(5**n, n)
    suffixes = np.array(list(product(range(5), repeat=k)), dtype=np.int64).reshape(5**k, k)
    for u2, nu in zip(suffixes, suffixes @ g % 5):
        d = int(np.count_nonzero(nu))
        both = np.concatenate([prefixes, (2 * prefixes + nu) % 5], axis=1)
        sym = np.where(both == 0, 0.0, np.where((both == 1) | (both == 4), 1.0, INF))
        w = sym.sum(axis=1)
        finite = w[np.isfinite(w)].astype(np.int64)
        expected = {d + t: math.comb(d, t) for t in range(d + 1)}
        got = {z: int(c) for z, c in enumerate(np.bincount(finite)) if c}
        if got != expected or len(finite) != 2**d:
            failures.append((tuple(int(s) for s in u2), d, got, expected))
    return len(failures) == 0, failures


def _require_distinct(idx, what):
    ordered = np.sort(idx, axis=1)
    repeat = ordered[:, 1:] == ordered[:, :-1]
    if repeat.any():
        s, j = np.argwhere(repeat)[0]
        raise ValueError(f"{what} {s} has a duplicate word (index {int(ordered[s, j])})")


def coset_check_chunk(c2, q):
    """(A, B) of a uint8 stack of binary codes, each code lifted, indexed and counted on its own."""
    s, m, n = c2.shape
    idx = word_indices(c2, 2)
    _require_distinct(idx, "binary code")
    member = np.zeros((s, 1 << n), dtype=bool)
    member[np.arange(s)[:, None], idx] = True
    if not member[np.arange(s)[:, None, None], idx[:, :, None] ^ idx[:, None, :]].all():
        raise ValueError("the binary code is not linear (closure fails)")
    lifted = coset_lift(c2, q)
    _require_distinct(word_indices(lifted, q), "coset lift")
    a, b = weight_counts(lifted, q)[:, :-1], weight_counts(c2, 2)[:, :-1]
    a[:, 0] = b[:, 0] = 0
    return a, b
