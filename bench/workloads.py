"""Workload plans (CLI argument lists made from the benchmark seed) and output checks.

A plan is a list of ops; each op is the argv a user would type after
`relbound`, plus what its check needs. Checks take an op and the text
the call produced and return a list of problems; an op with any problem,
or with a nonzero exit, counts as failed.
"""

import json
import math
import random
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference_curves.json"

# The ROADMAP channels for curve work.
CHANNELS = [(4, 0.01), (5, 0.01), (5, 0.5), (6, 0.1), (7, 0.1)]
POINTS = 200
# The seed moves each channel's grid down by 0..MAX_SHIFT whole grid steps,
# so every grid keeps the reference rates as exact grid points.
MAX_SHIFT = 4
CURVE_TOL = 1e-6

CRITERIA = [
    "theta", "eps_bar", "oracle", "psd_boundary", "endpoints",
    "counterexample", "shift_laws", "envelope", "simulator", "fig7_ordering",
]
# The simulator criterion's run time swings from 9 to 25 s with its seed,
# with the number of 4096-word coset codes it happens to draw; it runs at
# seed 0, the seed `relbound verify` and the test suite use, so that runs
# at different benchmark seeds measure the same work.
SIMULATOR_SEED = 0

MC_SIGMAS = 5.0


def capacity(q, eps):
    """log2 q - h2(eps), evaluated in the same order as relbound.channel.capacity."""
    h = 0.0 - eps * math.log2(eps)
    h -= (1.0 - eps) * math.log2(1.0 - eps)
    return math.log2(q) - h


def grid_ends(q, eps, shift):
    """The default grid (C/50 .. C) moved down by `shift` grid steps."""
    cap = capacity(q, eps)
    step = (cap - cap / 50.0) / (POINTS - 1)
    return cap / 50.0 - shift * step, cap - shift * step


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def curves_op(q, eps, shift, bounds, workdir):
    rmin, rmax = grid_ends(q, eps, shift)
    out = Path(workdir) / f"curves-q{q}-eps{eps}.csv"
    argv = [
        "bounds", "--q", str(q), "--eps", repr(eps), "--points", str(POINTS),
        "--rmin", repr(rmin), "--rmax", repr(rmax), "--bounds", ",".join(bounds), "--out", str(out),
    ]
    return {"kind": "curves", "argv": argv, "out": str(out), "q": q, "eps": eps,
            "shift": shift, "bounds": bounds}


def curves_plan(seed, workdir, reference):
    rng = random.Random(seed)
    return [
        curves_op(e["q"], e["eps"], rng.randint(0, MAX_SHIFT), e["bounds"], workdir)
        for e in reference["channels"]
    ]


def verify_plan(seed):
    run_seed = random.Random(seed).randrange(2**31)
    return [
        {"kind": "verify", "criterion": name,
         "argv": ["verify", "--only", name, "--seed", str(SIMULATOR_SEED if name == "simulator" else run_seed)]}
        for name in CRITERIA
    ]


def simulate_plan(seed):
    rng = random.Random(seed)
    code_seed = [rng.randrange(10**6) for _ in range(3)]
    mc_seed = [rng.randrange(10**6) for _ in range(3)]
    ops = [
        {"argv": ["--code", f"coset:8:4:{code_seed[0]}", "--q", "4", "--eps", "0.1"], "trials": 0},
        {"argv": ["--code", f"coset:6:3:{code_seed[1]}", "--q", "4", "--eps", "0.1",
                  "--trials", "20000", "--seed", str(mc_seed[0])], "trials": 20000},
        {"argv": ["--code", f"q5plus:3:1:{code_seed[2]}", "--eps", "0.2",
                  "--trials", "20000", "--seed", str(mc_seed[1])], "trials": 20000},
        {"argv": ["--code", "pentagon", "--eps", "0.2",
                  "--trials", "100000", "--seed", str(mc_seed[2])], "trials": 100000},
    ]
    for op in ops:
        code = op["argv"][1]
        op.update(kind="simulate", argv=["simulate"] + op["argv"],
                  coset=code.startswith("coset:"), zero_error=code == "pentagon")
    return ops


def plan(workload, seed, workdir, reference=None):
    if workload == "curves":
        return curves_plan(seed, workdir, reference)
    if workload == "verify":
        return verify_plan(seed)
    if workload == "simulate":
        return simulate_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")


def check_curves(op, text, reference):
    """CSV round trip, envelope ordering, and reference values at fixed rates."""
    from relbound.curves import csv_to_curves, curves_to_csv

    try:
        curves = csv_to_curves(text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    problems = []
    if curves_to_csv(curves) != text:
        problems.append("CSV does not round-trip through csv_to_curves")
    by_name = {c.name: c for c in curves}
    if list(by_name) != op["bounds"]:
        return problems + [f"curves {list(by_name)} differ from the requested {op['bounds']}"]
    for c in curves:
        if (c.channel.q, c.channel.epsilon) != (op["q"], op["eps"]) or len(c.points) != POINTS:
            problems.append(f"{c.name}: wrong channel or point count")
    if problems:
        return problems
    if "envelope_lower" in by_name and "envelope_upper" in by_name:
        ups = by_name["envelope_upper"].values
        for (r, lo), up in zip(by_name["envelope_lower"].points, ups):
            if math.isfinite(lo) and math.isfinite(up) and lo > up:
                problems.append(f"envelope_lower {lo!r} > envelope_upper {up!r} at R={r!r}")
    entry = next(e for e in reference["channels"] if (e["q"], e["eps"]) == (op["q"], op["eps"]))
    for name in op["bounds"]:
        points = by_name[name].points
        for idx, rate, want in zip(reference["ref_index"], entry["rates"], entry["values"][name]):
            r, got = points[idx + op["shift"]]
            if abs(r - rate) > 1e-12 * max(1.0, rate):
                problems.append(f"{name}: grid point {idx} at R={r!r}, reference rate {rate!r}")
            elif want == "inf":
                if got != math.inf:
                    problems.append(f"{name} at R={rate!r}: {got!r}, reference inf")
            elif not abs(got - want) <= CURVE_TOL:
                problems.append(f"{name} at R={rate!r}: {got!r}, reference {want!r}")
    return problems


def check_verify(op, text):
    if f"PASS {op['criterion']} " not in text or "PASS: 1 criteria run" not in text:
        return [f"criterion {op['criterion']} did not pass"]
    return []


_FLOAT = r"([-+0-9.eE]+|inf|nan)"


def _field(text, label):
    m = re.search(re.escape(label) + r": " + _FLOAT, text)
    return float(m.group(1)) if m else None


def check_simulate(op, text):
    """Exact <= union bound, max >= avg, Monte Carlo within 5 sigma, constructions hold."""
    problems = []
    union = _field(text, "union bound on avg error")
    avg = _field(text, "exact avg ML error")
    worst = _field(text, "exact max ML error")
    if None in (union, avg, worst):
        return ["missing union bound or exact error line"]
    if not avg <= union + 1e-15:
        problems.append(f"exact avg {avg!r} exceeds union bound {union!r}")
    if not worst >= avg:
        problems.append(f"exact max {worst!r} below exact avg {avg!r}")
    est = None
    if op["trials"]:
        m = re.search(r"monte carlo avg error: " + _FLOAT + r" .*?(\d+) trials", text)
        if m is None or int(m.group(2)) != op["trials"]:
            return problems + ["missing or short Monte-Carlo line"]
        est = float(m.group(1))
        sigma = math.sqrt(avg * (1.0 - avg) / op["trials"])
        if not abs(est - avg) <= MC_SIGMAS * sigma:
            problems.append(f"Monte-Carlo {est!r} more than {MC_SIGMAS:g} sigma from exact {avg!r}")
    if op["zero_error"] and (avg != 0.0 or worst != 0.0 or est not in (None, 0.0)):
        problems.append("zero-error code reported errors")
    if op["coset"] and "A_z = 2^z B_z: holds" not in text:
        problems.append("coset spectrum relation does not hold")
    return problems


def check_op(op, result, reference=None):
    """Problems with one op's result; [] means the op succeeded."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"]
    if op["kind"] == "curves":
        with open(BENCH_DIR.parent / op["out"], encoding="utf-8") as fh:
            return check_curves(op, fh.read(), reference)
    if op["kind"] == "verify":
        return check_verify(op, result["stdout"])
    return check_simulate(op, result["stdout"])
