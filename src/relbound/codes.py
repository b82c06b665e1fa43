"""Explicit small codes: spectra, exact and Monte-Carlo ML error, constructions.

A code owns one validated, read-only int64 array of shape (M, n) over
Z_q; the constructions build it in numpy, a spectrum comes back as a
read-only float64 array and an exact error as floats. Spectra share one
pairwise kernel on one-hot encodings with the Monte-Carlo decoder where
it cannot address outputs directly, evaluated over row blocks of a
fixed byte budget; the spectrum of a code that is linear by
construction (`Code.linear`) is its weight distribution instead, from
`weight_counts`, the one counter of typewriter weights. The kernel
refuses codes whose one-hot width n q exceeds WIDTH_CAP, so that each
row block's one-hot rows stay within budget, and codes whose dense
(n q, M) key exceeds KEY_CAP entries.

The maximum-likelihood decoder breaks ties uniformly at random and the
exact error accounts for that exactly, term by term (so a zero-error
code really evaluates to 0.0, not to 1 minus float noise). Each output
letter comes from exactly two inputs, y and y - 1, so outputs are
addressed as word +- 0/1 noise pattern: `_pattern_outputs` gives the
base-q index of w + p or y - p, with the wraps or borrows tabulated
once per mask. One rule, `_addressable` (q^n <= M 2^n and q^n <=
OUTPUT_CAP), decides whether that index labels tables of q^n entries
directly. Within it the decoder finds a received row's maximizers among
its 2^n possible senders y - p by table lookup; otherwise it scores all
M codewords through the pairwise kernel, and only there do WIDTH_CAP
and KEY_CAP bind it. It finds ties among small-integer ranks of the
likelihoods, equal floats sharing a rank, and keeps of each row only
what the error needs (`_decoded`): its number of maximizers K, M where
all tie, and whether the sender is among them. A uniform tie-break
then picks the sender with probability 1/K, which the exact error
charges and Monte Carlo draws with one uniform per trial.

A code marked linear is geometrically uniform: translating by a
codeword maps every decision region, and every tie, onto another one.
So the decoder runs once on the zero word's 2^n outputs
(`_pattern_table`). Within the rule the exact error, which every
codeword shares, is read from it, and so, for 2^n <= min(trials,
MC_DRAW), is Monte Carlo: a trial sending c_s with pattern p has c_s
plus p's maximizers. Otherwise the exact error enumerates the M 2^n
(codeword, pattern) pairs, and Monte Carlo decodes each trial.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import bhattacharyya
from .constants import MC_PAIR_CAP

OUTPUT_CAP = 10**7
REACH_CAP = 1 << 22  # (codeword, pattern) pairs, or a linear code's pattern table, in exact_pe
CODE_CAP = 1 << 16  # words in a constructed code
BLOCK_BYTES = 1 << 23  # temporaries of one row block of the pairwise kernel
# one-hot columns n q of the pairwise kernel: the widest constructed code
# within CODE_CAP, a coset lift of length 1 with q = 2 CODE_CAP, fits
WIDTH_CAP = 2 * CODE_CAP
# entries n q M of the pairwise kernel's dense key (512 MiB of float64): the
# largest key of a builtin of length >= 2, coset:2:0:S at q = 512, fits
KEY_CAP = 1 << 26
MC_DRAW = 1 << 14  # trials per random draw in mc_pe; fixes its random stream
_INT64_MAX = (1 << 63) - 1
# temporaries of one mc_pe row block: within BLOCK_BYTES, and small enough
# that its arrays stay in cache and are not fresh pages
_MC_BLOCK_BYTES = 1 << 21


def _power_within(base, exponent, cap):
    """Whether base**exponent <= cap (exact for base >= 2), without raising a huge power."""
    # base**exponent > cap whenever exponent > cap.bit_length()
    return exponent <= cap.bit_length() and base**exponent <= cap


def word_indices(arr, q):
    """Base-q value of each word (last axis), first symbol most significant, as int64.

    By Horner's rule, column by column into one int64 array: no int64
    copy of a narrower stack is made.
    """
    out = np.zeros(arr.shape[:-1], dtype=np.int64)
    for j in range(arr.shape[-1]):
        out *= q
        out += arr[..., j]
    return out


def all_words(symbols, n):
    """Every length-n word over `symbols` in itertools.product order, as an int64 array."""
    symbols = np.asarray(symbols, dtype=np.int64)
    s = symbols.size
    digits = np.arange(s**n, dtype=np.int64)[:, None] // s ** np.arange(n - 1, -1, -1) % s
    return symbols[digits]


def _validated(words, q):
    """Read-only int64 (M, n) copy of words, refusing what is not a code over Z_q."""
    try:
        arr = np.asarray(words)
    except ValueError:
        raise ValueError("all words must have the same length") from None
    if arr.ndim != 2 or arr.shape[0] == 0:
        if arr.size == 0:
            raise ValueError("a code needs at least one word")
        raise ValueError("all words must have the same length")
    m, n = arr.shape
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    if arr.dtype.kind not in "iub":
        raise ValueError(f"symbols must be integers, got dtype {arr.dtype}")
    bad = (arr < 0) | (arr >= q)
    if bad.any():
        w = arr[bad.any(axis=1)][0]
        raise ValueError(f"symbol out of range in word {tuple(int(s) for s in w)}")
    arr = arr.astype(np.int64)
    if m > 1:
        if _power_within(q, n, _INT64_MAX):
            _, first, counts = np.unique(word_indices(arr, q), return_index=True, return_counts=True)
        else:
            _, first, counts = np.unique(arr, axis=0, return_index=True, return_counts=True)
        if counts.size < m:
            w = arr[first[counts.argmax()]]
            raise ValueError(f"duplicate word {tuple(int(s) for s in w)}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Code:
    """Distinct equal-length words over Z_q, held as a read-only (M, n) int64 array."""

    array: np.ndarray
    q: int
    _linear = False  # set only by _constructed; not a field, so not in __init__ or __eq__

    def __post_init__(self):
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "array", _validated(self.array, self.q))

    @property
    def n(self):
        return self.array.shape[1]

    @property
    def M(self):
        return self.array.shape[0]

    @property
    def linear(self):
        """Whether a constructor built the words as a subgroup of Z_q^n, listed from the zero word.

        Only random_linear_code, build_q5_code and build_coset_code (from
        a linear shift code) set it; codes from make_code and parse_code,
        and so every code a user supplies, never have it.
        """
        return self._linear

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.q, self.array.shape, self.array.tobytes()))


def make_code(words, q):
    """A Code from any (M, n) integer array-like of words over Z_q."""
    return Code(words, q)


def _constructed(words, q, linear):
    """make_code(words, q), marked linear when the caller built a subgroup of Z_q^n."""
    code = make_code(words, q)
    object.__setattr__(code, "_linear", bool(linear))
    return code


def weight_counts(words, q):
    """Per code of a (..., L, n) stack of words over Z_q, the count at each weight 0..n, then inf.

    A word's weight is its semidistance to the zero word: a symbol 0
    costs 0, a symbol +-1 costs 1 and any other makes it infinite.
    """
    *lead, length, n = words.shape
    # symbol weights 0, 1 and n + 1, in a dtype that holds the largest sum, n (n + 1)
    sym = np.full(q, n + 1, dtype=np.min_scalar_type(n * (n + 1)))
    sym[[0, 1, q - 1]] = (0, 1, 1)
    w = np.zeros(words.shape[:-1], dtype=sym.dtype)
    for j in range(n):  # column by column: faster than a sum over a short last axis
        w += sym[words[..., j]]
    codes = math.prod(lead)
    w = np.minimum(w, n + 1).reshape(codes, length) + (n + 2) * np.arange(codes)[:, None]
    return np.bincount(w.ravel(), minlength=codes * (n + 2)).reshape(*lead, n + 2)


# The pairwise kernel. With X the one-hot encoding of words (column
# j*q + s set when coordinate j holds symbol s), a row y against the key
#   K = (n + 1) X + sum over shifts t of X shifted by t
# gives v = (n + 1) same + near, where `same` counts coordinates with
# y - x = 0 and `near` those with y - x among the shifts (mod q). Each
# coordinate counts at most once, so the pair is at finite distance iff
# same + near == n, and that distance is `near`. Every v is a small
# integer, exact in float64.


def _one_hot(words, q):
    rows, n = words.shape
    out = np.zeros((rows, n * q))
    out[np.arange(rows)[:, None], np.arange(n) * q + words] = 1.0
    return out


def _pair_key(words, q, shifts):
    """(n*q, M) right factor of the kernel for the given symbol shifts.

    Refuses, before any work, a code whose one-hot width n*q exceeds
    WIDTH_CAP (each row block holds one-hot rows of that width) or whose
    key of n*q*M entries exceeds KEY_CAP.
    """
    m, n = words.shape
    if n * q > WIDTH_CAP:
        raise ValueError(f"one-hot width n*q = {n}*{q} exceeds the pairwise kernel cap {WIDTH_CAP}")
    if n * q * m > KEY_CAP:
        raise ValueError(f"kernel key n*q*M = {n}*{q}*{m} exceeds the cap {KEY_CAP} entries")
    key = np.zeros((n * q, m))
    rows, cols = np.arange(m), np.arange(n)[:, None] * q
    key[cols + words.T % q, rows] = n + 1
    for t in shifts:  # nonzero mod q, so never an entry set above
        key[cols + (words.T + t) % q, rows] = 1.0
    return key


def _kernel_split(n):
    """(same, near) for every kernel value 0 .. n (n + 1)."""
    return np.divmod(np.arange(n * (n + 1) + 1), n + 1)


def _row_blocks(rows, cols, bytes_per_entry, width, budget=None):
    """Row ranges whose (rows, cols) temporaries and (rows, width) one-hot rows fit budget, or BLOCK_BYTES."""
    step = max(1, (budget or BLOCK_BYTES) // (cols * bytes_per_entry + width * 8))
    for lo in range(0, rows, step):
        yield lo, min(rows, lo + step)


def spectrum(code):
    """A_0 .. A_n, A_z = |{(i, j): i != j, d = z}| / M, then the mass at infinite distance.

    A read-only float64 array of length n + 2; each entry is its exact
    ratio of integers rounded once (both are below 2^53).

    A code that is linear by construction takes its O(M n) weight
    distribution: a subgroup holds x - y for every pair, and each of its
    words is the difference of exactly M ordered pairs. The semidistance
    depends only on x - y mod q, so the pair counts are M times the
    weight counts, the zero word standing for the diagonal. Every other
    code takes the pairwise kernel.
    """
    a, q, n, m = code.array, code.q, code.n, code.M
    if code.linear:
        counts, scale = weight_counts(a, q), 1  # words, each standing for M pairs
    else:
        key = _pair_key(a, q, {1 % q, -1 % q} - {0})
        hist = np.zeros(n * (n + 1) + 1, dtype=np.int64)
        for lo, hi in _row_blocks(m, m, 16, n * q):
            v = _one_hot(a[lo:hi], q) @ key
            hist += np.bincount(v.astype(np.intp).ravel(), minlength=hist.size)
        same, near = _kernel_split(n)
        counts = np.zeros(n + 2, dtype=np.int64)  # finite distances 0..n, then inf
        np.add.at(counts, np.where(same + near == n, near, n + 1), hist)
        scale = m
    counts[0] -= scale  # the diagonal; distinct words are never at distance 0
    spec = counts / scale
    spec.flags.writeable = False
    return spec


def union_bound_pe(code, ch, spec=None):
    """Spectrum-weighted pairwise bound: sum of A_z alpha^z over the finite z with A_z > 0.

    spec is spectrum(code), when the caller already has it.
    """
    if code.q != ch.q:
        raise ValueError("code and channel alphabet sizes differ")
    if spec is None:
        spec = spectrum(code)
    alpha = bhattacharyya(ch.epsilon)
    return float(sum(a * alpha**z for z, a in enumerate(spec[:-1].tolist()) if a))


def _addressable(q, n, m):
    """Whether both decoders label outputs by their base-q index: q^n <= M 2^n and q^n <= OUTPUT_CAP.

    Tables over the q^n outputs are then no longer than the M 2^n
    (codeword, noise pattern) pairs, and as q >= 4 the 2^n patterns are
    no more than the M codewords.
    """
    return _power_within(q, n, OUTPUT_CAP) and q**n <= m << n


def _pattern_outputs(words, q, sign, digits):
    """Base-q index of w + sign p mod q for each word w (row) and 0/1 pattern p (column).

    The patterns are in all_words((0, 1), n) order, so a pattern's
    position is its 0/1 mask; digits holds their base-q indices. Adding
    p (sign 1) wraps where w_j = q - 1 meets p_j = 1, and subtracting it
    (sign -1) borrows where w_j = 0 does:
      idx(w + p) = idx(w) + idx(p) - q idx(p AND [w == q - 1]),
      idx(w - p) = idx(w) - idx(p) + q idx(p AND [w == 0]).
    A word's wraps or borrows depend only on its mask of those symbols,
    so they are tabulated once per distinct mask (_pattern_shifts).
    """
    index, shift, kind = _pattern_shifts(words, q, sign, digits)
    return index[:, None] + shift[kind]


def _pattern_shifts(words, q, sign, digits):
    """(index, shift, kind) with index[i] + shift[kind[i], p] the _pattern_outputs of word i and pattern p.

    index is each word's base-q index; shift has a row per distinct
    mask of wraps or borrows, in increasing mask order, and a column per
    pattern, and kind gives each word's row. The distinct masks are read
    from an occupancy table over the 2^n masks, not sorted: every caller
    has q^n <= OUTPUT_CAP, so the table is no longer than digits.
    """
    wraps = word_indices(words == (q - 1 if sign > 0 else 0), 2)
    seen = np.zeros(digits.size, dtype=bool)
    seen[wraps] = True
    masks = np.flatnonzero(seen)
    kind = np.cumsum(seen, dtype=np.intp)[wraps] - 1  # each mask's row among the distinct masks
    shift = sign * (digits - q * digits[masks[:, None] & np.arange(digits.size)])
    return word_indices(words, q), shift, kind


def exact_word_errors(code, ch):
    """Exact ML error probability of each codeword, by output enumeration.

    Ties are charged their exact expected cost under a uniformly random
    choice among the maximizers. A code marked linear is a subgroup of
    Z_q^n, and the channel adds its noise mod q, so each codeword has
    the error of the zero word. Where the outputs can be addressed
    directly (`code.linear and _addressable`), that error is read from
    the _pattern_table: pattern p loses its likelihood pw(p) unless the
    zero word is among p's count[p] maximizers, and then loses it with
    probability 1 - 1/count[p]. With the ops and the pattern-order sum
    of _tie_losses, this has the bits the enumeration gives. REACH_CAP
    caps the table's 2^n x 2^n = 4^n candidates (4^n <= q^n, so at the
    default caps OUTPUT_CAP refuses first). Every other code enumerates
    its M 2^n (codeword, pattern) pairs, within the same cap.
    """
    if code.q != ch.q:
        raise ValueError("code and channel alphabet sizes differ")
    q, n, m = code.q, code.n, code.M
    if not _power_within(q, n, OUTPUT_CAP):
        raise ValueError(f"q^n = {q}^{n} exceeds the enumeration cap {OUTPUT_CAP}")
    table = code.linear and _addressable(q, n, m)
    if table and 4**n > REACH_CAP:
        raise ValueError(f"pattern table of 4^{n} entries exceeds the cap REACH_CAP = {REACH_CAP}")
    if not table and m << n > REACH_CAP:
        raise ValueError("reachable-output enumeration exceeds the cap")
    likelihood = _likelihoods(n, ch.epsilon)
    patterns = all_words((0, 1), n)
    pw = likelihood[patterns.sum(axis=1)]  # of each pattern, whose position is its 0/1 mask
    if table:
        # the likelihoods order and tie as their _weight_ranks do
        maximizers = _candidate_maximizers(code, likelihood, patterns)
        count, right = _pattern_table(code, maximizers, (1 << n, 24, 0), patterns)
        share = np.where(right, 1.0 / count, 0.0)
        loss = np.subtract(1.0, share, out=share)
        loss *= pw
        return np.full(m, loss.sum())
    # output index of every (codeword, noise pattern) pair, in the order of
    # all_words((0, 1), n); a word reaches distinct outputs through distinct
    # patterns. Dense output labels: the index itself where the outputs can
    # be addressed directly, else the rank among the reached outputs; so no
    # table below is longer than reach
    reach = _pattern_outputs(code.array, q, 1, word_indices(patterns, q)).ravel()
    if _addressable(q, n, m):
        size, out = q**n, reach
    else:
        outputs, out = np.unique(reach, return_inverse=True)
        size = outputs.size
    return _tie_losses(out, np.tile(pw, m), size).reshape(m, -1).sum(axis=1)


def _tie_losses(out, w, size):
    """Expected ML loss of each (codeword, pattern) pair, of likelihood w, at its output out < size.

    A pair loses its likelihood unless it is one of the cnt maximizers
    at its output, and then loses it with probability 1 - 1/cnt under a
    uniformly random choice among them.
    """
    best = np.zeros(size)
    np.maximum.at(best, out, w)
    hit = w == best[out]
    cnt = np.bincount(out[hit], minlength=size)
    share = np.where(hit, (1.0 / np.maximum(cnt, 1))[out], 0.0)
    loss = np.subtract(1.0, share, out=share)
    loss *= w
    return loss


def exact_pe(code, ch):
    """(average, worst) exact ML error over the codewords, from one exact_word_errors call."""
    errs = exact_word_errors(code, ch)
    worst = float(errs.max())
    # the rounded mean of equal errors can come out an ulp above them
    return min(float(errs.mean()), worst), worst


class MCResult(NamedTuple):
    """Monte-Carlo estimate with a Wilson 95 percent interval."""

    estimate: float
    lower: float
    upper: float
    trials: int
    errors: int


_Z95 = 1.959963984540054


def wilson_interval(errors, trials):
    z = _Z95
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def _likelihoods(n, eps):
    """Likelihood of a 0/1 noise pattern of each weight 0..n."""
    return (1.0 - eps) ** (n - np.arange(n + 1)) * eps ** np.arange(n + 1)


def _weight_ranks(n, eps):
    """Rank of the likelihood of each noise-pattern weight 0..n among those and 0.

    An output a word cannot reach has likelihood 0, which is the least
    level and so rank 0. Equal floats share a rank: a likelihood that
    underflows to 0 ties with the unreachable outputs.
    """
    levels, rank = np.unique(np.append(_likelihoods(n, eps), 0.0), return_inverse=True)
    return rank[:-1].astype(np.min_scalar_type(levels.size - 1))


def _maximizers(scores):
    """Flat indices of the maximizers in each column of a (K, rows) score array, and the columns of maximum 0.

    The columns of maximum 0 are left out of the indices. The layout,
    a row per candidate sender, makes each reduction over the senders
    run along the received rows, which is fast however few the senders.
    """
    best = scores.max(axis=0)
    hit = scores == best
    open_rows = np.flatnonzero(best == 0)
    hit[:, open_rows] = False
    return np.flatnonzero(hit), open_rows


def _kernel_maximizers(code, rank):
    """Maximum-likelihood senders of received rows (reduced mod q), by the pairwise kernel on every codeword.

    It returns (rows, cols, open): the (row, codeword) pairs of greatest
    likelihood rank of the rows whose greatest rank is above 0, and the
    rows whose greatest rank is 0, where all M codewords tie. `rank` is
    _weight_ranks of the code's length; the key is built here, once.
    """
    same, near = _kernel_split(code.n)
    # rank of the likelihood by kernel value: the output is the word plus
    # a 0/1 noise pattern of weight `near`, or unreachable
    by_value = np.where(same + near == code.n, rank[near], 0).astype(rank.dtype)
    key = _pair_key(code.array, code.q, {1})

    def maximizers(received):
        flat, open_rows = _maximizers(by_value[(key.T @ _one_hot(received, code.q).T).astype(np.intp)])
        cols, rows = np.divmod(flat, len(received))
        return rows, cols, open_rows

    return maximizers


def _candidate_maximizers(code, rank, patterns):
    """What _kernel_maximizers returns, from each received row's 2^n possible senders y - p.

    patterns is all_words((0, 1), n), built once by the caller.
    A q^n table maps each candidate's index to its codeword number, or
    to M where the candidate is not in the code, which has likelihood 0
    (rank 0). Distinct patterns give distinct candidates, so a row never
    lists a codeword twice. `rank` is _weight_ranks, or the likelihoods
    of weights 0..n themselves, which order and tie as those do.
    """
    arr, q, n, m = code.array, code.q, code.n, code.M
    table = np.full(q**n, m, dtype=np.min_scalar_type(m))
    table[word_indices(arr, q)] = np.arange(m)
    pattern_rank = rank[patterns.sum(axis=1)][:, None]
    digits = word_indices(patterns, q)

    def maximizers(received):
        index, shift, kind = _pattern_shifts(received, q, -1, digits)
        cand = np.ascontiguousarray(shift.T).take(kind, axis=1)  # a row per pattern
        cand += index
        cand = table[cand]
        flat, open_rows = _maximizers(np.where(cand < m, pattern_rank, 0))
        return flat % len(received), cand.ravel()[flat].astype(np.intp), open_rows

    return maximizers


def _decoded(maximizers, received, senders, blocks, m):
    """(count, right) of each received row: its number of maximizers, m where all tie, and whether its sender is one.

    The rows are scored in row blocks of _MC_BLOCK_BYTES, blocks being
    the (columns, bytes per entry, one-hot width) of their temporaries.
    A uniformly random choice among a row's maximizers picks its sender
    with probability right / count.
    """
    count = np.empty(len(received), dtype=np.intp)
    right = np.zeros(len(received), dtype=bool)
    for lo, hi in _row_blocks(len(received), *blocks, _MC_BLOCK_BYTES):
        rows, cols, open_rows = maximizers(received[lo:hi])
        count[lo:hi] = np.bincount(rows, minlength=hi - lo)
        count[open_rows + lo] = m
        right[rows[cols == senders[lo:hi][rows]] + lo] = True
        right[open_rows + lo] = True
    return count, right


def _pattern_table(code, maximizers, blocks, patterns):
    """_decoded of a linear code's 2^n noise patterns, each received as sent from the zero word, codeword 0.

    The patterns are all_words((0, 1), n), so a pattern's position is
    its 0/1 mask.
    """
    return _decoded(maximizers, patterns, np.zeros(len(patterns), dtype=np.intp), blocks, code.M)


def mc_pe(code, ch, trials, seed=0):
    """Monte-Carlo average ML error with randomized tie-breaking.

    Each draw of MC_DRAW trials takes the senders, then the noise, then
    one uniform u per trial. A trial is right when its sender is among
    the K maximizers of its received row (K = M at an open row, where
    every codeword ties) and u K < 1: a uniformly random tie-break picks
    the sender with probability 1/K, and which wrong codeword it would
    pick never changes the count. So the estimate is unbiased for
    exact_pe's average and depends only on the seed.
    A received word y can only have been sent as one of the 2^n words
    y - p, p a 0/1 noise pattern. Where the outputs can be addressed
    directly (_addressable, the rule exact_word_errors also follows),
    each row's maximizers are found among those candidates by table
    lookup; otherwise, as for pentagon (q^n = 25 > 20 = M 2^n), among
    all M codewords through the pairwise kernel. Both find the same
    maximizers, so the path does not change the result. The work,
    trials x M pairs, is capped at MC_PAIR_CAP; on the kernel path
    only, the code's one-hot width n q is capped at WIDTH_CAP and its
    key at KEY_CAP.
    A code marked linear decodes its noise patterns instead of its
    trials. A trial that sends c_s with pattern p receives y = c_s + p,
    and y - c = p - (c - c_s) with c - c_s again a codeword, so the
    maximizers at y are c_s plus the maximizers at p, open rows
    included: as many, and c_s among them exactly when the zero word is
    among p's. So the 2^n patterns are decoded once (_pattern_table,
    which exact_word_errors reads too). This holds where 2^n <=
    min(trials, MC_DRAW), so that decoding the patterns costs no more
    than decoding the trials; every other code, and a linear one such
    as random_linear_code(5, 300, 2), is decoded trial by trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if code.q != ch.q:
        raise ValueError("code and channel alphabet sizes differ")
    if trials * code.M > MC_PAIR_CAP:
        raise ValueError(
            f"{trials} trials x {code.M} codewords exceeds the cap of {MC_PAIR_CAP} scored pairs"
        )
    q, n, m = code.q, code.n, code.M
    arr = code.array.astype(np.min_scalar_type(q))  # received words in the smallest dtype that holds q
    eps = ch.epsilon
    # ties are equal likelihoods, found among small-integer ranks
    rank = _weight_ranks(n, eps)
    addressable = _addressable(q, n, m)
    by_pattern = code.linear and _power_within(2, n, min(trials, MC_DRAW))
    # both paths that read the patterns have 2^n <= q^n <= OUTPUT_CAP or 2^n <= MC_DRAW
    patterns = all_words((0, 1), n) if addressable or by_pattern else None
    if addressable:
        maximizers, blocks = _candidate_maximizers(code, rank, patterns), (1 << n, 24, 0)
    else:
        maximizers, blocks = _kernel_maximizers(code, rank), (m, 48, n * q)
    if by_pattern:
        pattern_count, pattern_right = _pattern_table(code, maximizers, blocks, patterns)

        def decode(senders, noise):
            masks = word_indices(noise, 2)  # a pattern's position is its 0/1 mask
            return pattern_count[masks], pattern_right[masks]
    else:
        def decode(senders, noise):
            return _decoded(maximizers, (arr[senders] + noise) % q, senders, blocks, m)
    rng = np.random.default_rng(seed)
    errors = 0
    done = 0
    while done < trials:
        b = min(MC_DRAW, trials - done)
        senders = rng.integers(0, m, size=b)
        noise = rng.random((b, n)) < eps
        u = rng.random(b)
        count, right = decode(senders, noise)
        errors += int(np.count_nonzero(~right | (u * count >= 1.0)))
        done += b
    lo, hi = wilson_interval(errors, trials)
    return MCResult(errors / trials, lo, hi, trials, errors)


def _check_coset_alphabet(q):
    if q % 2 != 0 or q < 4:
        raise ValueError(f"need an even alphabet size >= 4, got {q}")


def coset_size(q, n, m):
    """(q/2)^n m, the size of the coset lift of an m-word binary code of length n.

    Refuses an alphabet that is not even and >= 4, and a size past CODE_CAP.
    """
    _check_coset_alphabet(q)
    if not _power_within(q // 2, n, CODE_CAP // m):
        raise ValueError(f"coset code size {q // 2}^{n} * {m} exceeds the cap {CODE_CAP}")
    return (q // 2) ** n * m


def coset_lift(stack, q):
    """Words c0 + c2 of the coset lift of each binary code in an (S, M, n) stack.

    c0 runs over {0, 2, ..., q-2}^n, slowest, and c2 over the code's
    words; the result has shape (S, (q/2)^n M, n) in the smallest
    unsigned dtype that holds q - 1. For 0/1 words c0 + c2 <= q - 1, so
    no reduction mod q is needed. Sizes are the caller's to check.
    """
    s, _, n = stack.shape
    dtype = np.min_scalar_type(q - 1)
    even = all_words(range(0, q, 2), n).astype(dtype)
    return (even[None, :, None, :] + stack.astype(dtype)[:, None, :, :]).reshape(s, -1, n)


def build_coset_code(c2, q):
    """Union of shifts of the even-symbol zero-error code by a binary code.

    Every word is c0 + c2 in Z_q with c0 drawn from {0, 2, ..., q-2}^n;
    the (parity) decomposition is unique, so the size is (q/2)^n * |c2|
    and the rate is exactly log2(q/2) plus the binary rate. The lift of a
    linear c2 is linear over Z_q (a + b = (a XOR b) + 2 (a AND b) for 0/1
    words), so it is marked linear when c2 is.
    """
    if c2.q != 2:
        raise ValueError("the shift code must be binary")
    coset_size(q, c2.n, c2.M)
    return _constructed(coset_lift(c2.array[None], q)[0], q, c2.linear)


def random_coset_code(q, n, k, seed=0):
    """(build_coset_code(c2, q), c2) for c2 = random_linear_code(2, n, k, seed).

    Sizes are checked before anything is drawn or built.
    """
    _check_coset_alphabet(q)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not _power_within(q // 2, n, CODE_CAP >> k):
        raise ValueError(f"coset code size {q // 2}^{n} * 2^{k} exceeds the cap {CODE_CAP}")
    c2 = random_linear_code(2, n, k, seed=seed)
    return build_coset_code(c2, q), c2


def q5_generator_plus(g):
    """Stacked generator [[I, 2I], [0, G]] for the length-doubling construction."""
    g = np.asarray(g, dtype=np.int64) % 5
    k, n = g.shape
    top = np.hstack([np.eye(n, dtype=np.int64), 2 * np.eye(n, dtype=np.int64)])
    if k == 0:
        return top
    bottom = np.hstack([np.zeros((k, n), dtype=np.int64), g])
    return np.vstack([top, bottom])


def build_q5_code(g):
    """Length-2n code over Z_5 generated by [[I, 2I], [0, G]].

    G must be a full-rank k x n matrix over Z_5 (k = 0 gives the n-fold
    power of the two-letter zero-error code). Size is 5^(n+k).
    """
    g = np.asarray(g, dtype=np.int64) % 5
    if g.ndim != 2:
        raise ValueError("generator must be a 2-D matrix")
    k, n = g.shape
    if not _power_within(5, n + k, CODE_CAP):
        raise ValueError(f"code size 5^{n + k} exceeds the cap {CODE_CAP}")
    if k and rank_mod_p(g, 5) != k:
        raise ValueError("generator must have full rank over Z_5")
    # the row space of a full-rank generator: a subgroup of Z_5^(2n)
    return _constructed(all_words(range(5), n + k) @ q5_generator_plus(g) % 5, 5, True)


def random_q5_code(n, k, seed=0):
    """build_q5_code of random_generator_matrix(5, n, k, default_rng(seed)).

    The size is checked before anything is drawn or built.
    """
    if not _power_within(5, n + k, CODE_CAP):
        raise ValueError(f"code size 5^{n + k} exceeds the cap {CODE_CAP}")
    return build_q5_code(random_generator_matrix(5, n, k, np.random.default_rng(seed)))


def pentagon_code():
    """Shannon's five-word zero-error code of length 2 over Z_5."""
    return build_q5_code(np.zeros((0, 1), dtype=np.int64))


def q5_weight_census(g):
    """Exhaustive weight check of the length-doubling construction.

    For every information suffix with image of Hamming weight d, the
    completions of finite weight must number C(d, t) at weight d + t
    for t = 0..d, all others infinite. Returns (ok, failures). The
    5^(n+k) words are counted in one stack, capped at CODE_CAP.
    """
    g = np.asarray(g, dtype=np.int64) % 5
    k, n = g.shape
    if not _power_within(5, n + k, CODE_CAP):
        raise ValueError(f"census size 5^{n + k} exceeds the cap {CODE_CAP}")
    suffixes = all_words(range(5), k)
    images = suffixes @ g % 5
    prefixes = all_words(range(5), n)
    # one code per suffix: the completions (u1, 2 u1 + nu) of its image nu
    both = np.broadcast_arrays(prefixes, (2 * prefixes + images[:, None]) % 5)
    got = weight_counts(np.concatenate(both, axis=2), 5)[:, :-1]
    d = np.count_nonzero(images, axis=1)
    # row e: C(e, t) at weight e + t
    law = np.array([[math.comb(e, z - e) if e <= z <= 2 * e else 0 for z in range(2 * n + 1)]
                    for e in range(n + 1)])
    failures = [
        (tuple(int(s) for s in suffixes[i]), int(d[i]),
         *({z: int(c) for z, c in enumerate(row) if c} for row in (got[i], law[d[i]])))
        for i in np.flatnonzero((got != law[d]).any(axis=1))
    ]
    return len(failures) == 0, failures


def is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def rank_mod_p(mat, p):
    """Rank over the prime field Z_p by Gaussian elimination."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank] = a[rank] * inv % p
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] = (a[r] - a[r, c] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def random_generator_matrix(q_prime, n, k, rng):
    """Uniform random k x n matrix over Z_q', resampled until full rank."""
    if not is_prime(q_prime):
        raise ValueError(f"alphabet size must be prime for rank checks, got {q_prime}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return np.zeros((0, n), dtype=np.int64)
    while True:
        g = rng.integers(0, q_prime, size=(k, n), dtype=np.int64)
        if rank_mod_p(g, q_prime) == k:
            return g


def random_linear_code(q_prime, n, k, seed=0):
    """Code spanned by a random full-rank generator (deterministic per seed)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not _power_within(q_prime, k, CODE_CAP):
        raise ValueError(f"code size {q_prime}^{k} exceeds the cap {CODE_CAP}")
    g = random_generator_matrix(q_prime, n, k, np.random.default_rng(seed))
    return _constructed(all_words(range(q_prime), k) @ g % q_prime, q_prime, True)


def parse_code(text):
    """The code in a plain-text code file: header 'q n M', then one word of n symbols per line.

    Errors carry the offending line number.
    """
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ValueError("line 1: expected header 'q n M'")
    try:
        q, n, m = (int(x) for x in lines[0].split())
    except ValueError:
        raise ValueError(f"line 1: malformed header {lines[0]!r}") from None
    words = []
    row = 0
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"line {i}: expected {n} symbols, got {len(parts)}")
        try:
            w = tuple(int(x) for x in parts)
        except ValueError:
            raise ValueError(f"line {i}: non-integer symbol in {ln!r}") from None
        if any(not 0 <= s < q for s in w):
            raise ValueError(f"line {i}: symbol out of range 0..{q - 1}")
        words.append(w)
        row += 1
    if row != m:
        raise ValueError(f"header announced {m} words but found {row}")
    return make_code(words, q)
