"""Named acceptance checks runnable from the CLI and from pytest.

Each check returns a CheckResult with one line per measured quantity so
the verify command can print measured-vs-expected detail. Checks are
deterministic for a fixed seed.
"""

import math
import time
import traceback
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import channel as chn
from . import classical as cls
from . import codes as cod
from . import lower_bounds as lob
from . import oracle as orc
from . import upper_bounds as upb
from .channel import Channel
from .constants import CRITERIA_ABOUT


@dataclass
class CheckResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    seconds: float = 0.0


class _Recorder:
    def __init__(self):
        self.lines = []
        self.ok = True

    def expect(self, label, measured, expected, tol):
        good = abs(measured - expected) <= tol
        self.ok &= good
        self.lines.append(
            f"{'PASS' if good else 'FAIL'} {label}: measured {measured!r}, "
            f"expected {expected!r} (tol {tol:g})"
        )

    def require(self, label, condition, detail=""):
        self.ok &= bool(condition)
        suffix = f": {detail}" if detail else ""
        self.lines.append(f"{'PASS' if condition else 'FAIL'} {label}{suffix}")


def check_theta(seed=0):
    rec = _Recorder()
    rec.expect("theta_cycle(5) = sqrt(5)", chn.theta_cycle(5), math.sqrt(5.0), 1e-12)
    rec.require(
        "theta_cycle(4) = 2 exactly",
        chn.theta_cycle(4) == 2.0,
        f"measured {chn.theta_cycle(4)!r}",
    )
    c0 = chn.zero_error_capacity(Channel(6, 0.5))
    rec.expect("zero_error_capacity(q=6) = log2(3)", c0.value, math.log2(3.0), 1e-12)
    return rec


def check_eps_bar(seed=0):
    rec = _Recorder()
    for q in (4, 6):
        rec.expect(f"eps_bar(q={q})", cls.eps_bar(q), 0.0220, 5e-4)
    a4 = chn.bhattacharyya(cls.eps_bar(4))
    rec.expect("(1+2a)/(4a) at eps_bar, even q", (1 + 2 * a4) / (4 * a4), 2.2017, 5e-3)
    a5 = chn.bhattacharyya(cls.eps_bar(5))
    rec.expect("(1+2a)/(5a) at eps_bar(5)", (1 + 2 * a5) / (5 * a5), 1.3752, 5e-3)
    return rec


def check_oracle(seed=0):
    rec = _Recorder()
    eps_grid = (0.01, 0.1, 0.5)
    checks = []  # (label, problem), each checked by oracle.regime_check
    for q, eps in product((4, 5, 6), eps_grid):
        ch = Channel(q, eps)
        rb = cls.rho_bar(ch)
        for rho in sorted({1.0, 0.5 * (1.0 + rb), rb}):
            if rho < 1.0:
                continue
            for n in (1, 2):
                checks.append((f"(a) q={q} eps={eps} rho={rho:.4f} n={n}", (ch, rho, n, 6, seed)))
    for q, eps in product((4, 6), eps_grid):
        ch = Channel(q, eps)
        rb = cls.rho_bar(ch)
        for mult in (1.5, 3.0):
            rho = mult * rb
            checks.append((f"(b) q={q} eps={eps} rho={rho:.3f} n=1", (ch, rho, 1, 16, seed)))
    t0 = time.time()
    for label, problem in checks:
        rec.require(label, *orc.regime_check(problem[0], orc.minimize_q(*problem)))
    # (c): random rows alone, with no witness and no certification, must find L. At
    # 2 rho_bar, a = phi^(1/2) depends on q alone, so one eps stands for all. On the
    # pentagon about 1 row in 10 reaches L, so 150 rows all miss with probability ~3e-7
    # (seeds 0-999 each had 5 to 27 hits)
    for q, rows in ((5, 150), (4, 20)):
        ch = Channel(q, 0.1)
        rec.require(f"(c) q={q} n=2 rho=2 rho_bar, random rows only",
                    *orc.search_check(ch, 2.0 * cls.rho_bar(ch), 2, rows, seed))
    dt = time.time() - t0
    rec.require("(c) runtime <= 60 s (the whole criterion)", dt <= 60.0, f"{dt:.1f} s")
    return rec


def check_psd_boundary(seed=0):
    rec = _Recorder()
    for q in range(4, 10):
        ch = Channel(q, 0.1)
        lam = orc.eigenvalues_g1(ch, cls.rho_bar(ch))
        rec.expect(f"min eigenvalue at rho_bar, q={q}", float(np.min(lam)), 0.0, 1e-10)
    return rec


def check_endpoints(seed=0):
    rec = _Recorder()
    for qp in (2.0, math.sqrt(5.0), 2.4):
        rec.expect(f"lp1_rate(q'={qp:.4f}, 0)", upb.lp1_rate(qp, 0.0), math.log2(qp), 1e-10)
        rec.expect(
            f"lp1_rate(q'={qp:.4f}, (q'-1)/q')",
            upb.lp1_rate(qp, (qp - 1) / qp),
            0.0,
            1e-10,
        )
    rec.expect("delta_lp2(0)", upb.delta_lp2(0.0), 0.5, 1e-6)
    rec.expect("delta_lp2(1)", upb.delta_lp2(1.0), 0.0, 1e-6)
    taus = np.linspace(0.0, 1.0, 1000)
    for q in (5, 7, 9):
        cc = chn.cycle_constants(Channel(q, 0.5))
        lhs = chn.entropy_h(cc.q_prime, taus) - taus * math.log2(cc.phi)
        worst = float(np.max(np.abs(lhs - chn.entropy_h(3.0, taus))))
        rec.expect(f"h_q'(t) - t log2(phi) = h3(t), q={q} (max abs dev)", worst, 0.0, 1e-10)
    return rec


def check_counterexample(seed=0):
    rec = _Recorder()
    ch4 = Channel(4, 0.01)
    r_lo = cls.expurgated_junction_rate(0.01, 4)
    r_hi = lob.junction_rate_even(0.01, 4)
    rates = np.linspace(r_lo, r_hi, 200)[1:-1]
    margin = float(np.max(lob.lower_bound_even(ch4, rates) - cls.expurgated_exponent(ch4, rates)))
    rec.require(
        "q=4 eps=0.01: coset bound beats expurgated by >= 0.01 bits inside the junction gap",
        margin >= 0.01,
        f"max margin {margin:.6f} on ({r_lo:.6f}, {r_hi:.6f})",
    )
    for q in (4, 5):
        eps_grid = np.linspace(0.001, 0.45, 50)
        jr = (lambda e: lob.junction_rate_even(e, 4)) if q == 4 else lob.junction_rate_q5
        ok = all(jr(float(e)) > cls.expurgated_junction_rate(float(e), q) for e in eps_grid)
        rec.require(
            f"q={q}: new-bound junction exceeds expurgated junction on the eps grid", ok
        )
    ch5 = Channel(5, 0.01)
    lo5 = 0.5 * math.log2(5.0)
    hi5 = lob.junction_rate_q5(0.01)
    rates = np.linspace(lo5, hi5, 200)[1:-1]
    margin = float(np.max(lob.lower_bound_q5(0.01, rates) - cls.expurgated_exponent(ch5, rates)))
    rec.require(
        "q=5 eps=0.01: coset bound beats expurgated by >= 0.01 bits on its domain",
        margin >= 0.01,
        f"max margin {margin:.6f} on ({lo5:.6f}, {hi5:.6f})",
    )
    return rec


def check_shift_laws(seed=0):
    rec = _Recorder()
    ch4 = Channel(4, 0.01)
    shift = math.log2(ch4.q / 2)
    rates = np.linspace(shift + 1e-6, chn.capacity(ch4), 50)
    lhs = lob.lower_bound_even(ch4, rates)
    rhs = cls.bsc_expurgated_exponent(0.01, rates - shift)
    worst = float(np.max(np.abs(lhs - rhs)))
    rec.expect("coset bound = shifted BSC expurgated bound (max abs dev)", worst, 0.0, 1e-12)
    for eps in (0.01, 0.1):
        small, big = Channel(4, eps), Channel(8, eps)
        rates = np.linspace(1e-3, chn.capacity(small), 60)
        rc = cls.random_coding_exponent(small, rates) - cls.random_coding_exponent(big, rates + 1.0)
        worst_r = float(np.max(np.abs(rc)))
        a = cls.sphere_packing_exponent(small, rates)
        b = cls.sphere_packing_exponent(big, rates + 1.0)
        both_inf = np.isinf(a) & np.isinf(b)
        worst_sp = float(np.max(np.abs(a[~both_inf] - b[~both_inf]), initial=0.0))
        rec.expect(f"random coding +1 bit shift law, eps={eps}", worst_r, 0.0, 1e-10)
        rec.expect(f"sphere packing +1 bit shift law, eps={eps}", worst_sp, 0.0, 1e-10)
    return rec


def check_envelope(seed=0):
    rec = _Recorder()
    for q, eps in ((4, 0.01), (5, 0.01), (5, 0.5)):
        ch = Channel(q, eps)
        cap = chn.capacity(ch)
        grid = np.linspace(1e-3, cap, 200)
        lo, up = upb.envelope(ch, grid)
        bad = [float(r) for r in grid[np.isfinite(lo) & np.isfinite(up) & (lo > up)]]
        rec.require(
            f"q={q} eps={eps}: lower envelope <= upper envelope wherever both finite",
            not bad,
            f"violations at {bad[:3]}" if bad else "200-point grid clean",
        )
    ch4 = Channel(4, 0.01)
    r = math.log2(ch4.q / 2) + 1e-10
    ratio = cls.sphere_packing_exponent(ch4, r) / lob.lower_bound_even(ch4, r)
    rec.expect("sphere packing / coset bound as R drops to log2(q/2)", ratio, 2.0, 1e-4)
    return rec


def _binary_subspace_stacks(n):
    """Every linear subspace of F_2^n once, via reduced echelon forms.

    Yields one (S, 2^k, n) uint8 stack of the S subspaces of each
    dimension k = 0..n, words in counting order of their coordinates.
    """
    yield np.zeros((1, 1, n), dtype=np.uint8)
    for k in range(1, n + 1):
        gens = []
        for pivots in combinations(range(n), k):
            free = [
                (i, j)
                for i in range(k)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            # one generator per assignment of the free entries, in counting order
            bits = cod.all_words((0, 1), len(free))[:, ::-1]
            g = np.zeros((len(bits), k, n), dtype=np.uint8)
            g[:, np.arange(k), list(pivots)] = 1
            if free:
                rows, cols = zip(*free)
                g[:, list(rows), list(cols)] = bits
            gens.append(g)
        yield cod.all_words((0, 1), k).astype(np.uint8) @ np.concatenate(gens) % 2


def check_simulator(seed=0):
    rec = _Recorder()
    pent = cod.pentagon_code()
    for crit, pe in zip(("avg", "max"), cod.exact_pe(pent, Channel(5, 0.1))):
        rec.require(f"pentagon exact_pe({crit}) = 0 exactly", pe == 0.0, f"measured {pe!r}")

    rng = np.random.default_rng(seed)
    worst_gap = math.inf
    ok_union = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, n + 1))
        c2 = cod.random_linear_code(2, n, k, seed=int(rng.integers(0, 2**31)))
        code = cod.build_coset_code(c2, 4)
        ch = Channel(4, float(rng.choice([0.01, 0.1, 0.3, 0.5])))
        exact, _ = cod.exact_pe(code, ch)
        union = cod.union_bound_pe(code, ch)
        ok_union &= exact <= union + 1e-15
        worst_gap = min(worst_gap, union - exact)
    rec.require(
        "50 seeded coset codes: exact_pe(avg) <= union bound",
        ok_union,
        f"min slack {worst_gap:.3e}",
    )

    checked = 0
    ok_rel = True
    for n in range(1, 7):
        for stack in _binary_subspace_stacks(n):
            ok = lob.coset_spectra(stack, 4).ok
            ok_rel &= bool(ok.all())
            checked += ok.size
    rec.require(
        "A_z = 2^z B_z for every linear binary code of length <= 6",
        ok_rel,
        f"{checked} subspaces checked",
    )

    ok_census = True
    cases = 0
    rng2 = np.random.default_rng(seed + 1)
    for n in range(1, 4):
        for k in range(0, min(n, 2) + 1):
            for _ in range(3 if k else 1):
                g = cod.random_generator_matrix(5, n, k, rng2)
                ok, failures = cod.q5_weight_census(g)
                ok_census &= ok
                cases += 1
    rec.require(
        "length-doubling construction weight census matches the C(d,t) law",
        ok_census,
        f"{cases} generators checked (n <= 3, k <= 2)",
    )
    return rec


def check_fig7_ordering(seed=0):
    rec = _Recorder()
    ch = Channel(5, 0.5)
    lo = 0.5 * math.log2(5.0) + 0.01
    hi = math.log2(5.0) - 1.0 - 0.01
    grid = np.linspace(lo, hi, 40)
    low = upb.envelope(ch, grid, "lower")
    spec_v = upb.spectrum_half_bound(5, grid)
    dist_v = upb.min_distance_bound(ch, grid)
    ok_order = bool(np.all(spec_v <= dist_v + 1e-12))
    ok_env = bool(np.all((spec_v >= low - 1e-12) & (dist_v >= low - 1e-12)))
    rec.require("spectrum bound <= distance bound on the q=5, eps=1/2 grid", ok_order)
    rec.require("both converses dominate the lower envelope on the grid", ok_env)
    return rec


# each criterion's check is the function named check_<name>
CRITERIA = [(name, about, globals()[f"check_{name}"]) for name, about in CRITERIA_ABOUT.items()]


def run_checks(only=None, seed=0):
    """Run all (or a name-filtered subset of) acceptance checks.

    A check that raises fails with one line naming the exception, and the
    other checks still run; the traceback goes to stderr.
    """
    results = []
    for name, _desc, fn in CRITERIA:
        if only and only != name:
            continue
        t0 = time.time()
        try:
            rec = fn(seed=seed)
        except Exception as exc:
            traceback.print_exc()
            rec = _Recorder()
            rec.require(f"criterion raised {type(exc).__name__}: {exc}", False)
        results.append(
            CheckResult(name=name, passed=rec.ok, lines=rec.lines, seconds=time.time() - t0)
        )
    if only and not results:
        known = ", ".join(name for name, _, _ in CRITERIA)
        raise ValueError(f"unknown criterion {only!r}; known: {known}")
    return results
