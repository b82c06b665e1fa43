"""Command-line interface: bounds | oracle | simulate | verify | plot.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
Option precedence is flags over config file over built-in defaults; the
config file is flat key=value text.
"""

import argparse
import math
import os
import sys

from . import codes as cod
from . import curves as crv
from .acceptance import CRITERIA, run_checks
from .channel import Channel, capacity, cycle_constants
from .classical import rho_bar
from .oracle import BATCH_CAP, minimize_q, uniform_value, word_count
from .svgplot import render_svg

DEFAULTS = {
    "q": 4,
    "eps": 0.1,
    "rmin": None,
    "rmax": None,
    "points": 200,
    "bounds": "all",
    "seed": 0,
    "rho": None,
    "n": 1,
    "restarts": 200,
    "trials": 0,
    "code": None,
    "out": None,
    "format": None,
    "only": None,
    "ceiling": None,
}

_TYPES = {
    "q": int, "eps": float, "rmin": float, "rmax": float, "points": int,
    "bounds": str, "seed": int, "rho": float, "n": int, "restarts": int,
    "trials": int, "code": str, "out": str, "format": str, "only": str,
    "ceiling": float,
}


class UsageError(ValueError):
    pass


def _add_common(p):
    p.add_argument("--q", type=int, default=None, help="alphabet size (>= 4)")
    p.add_argument("--eps", type=float, default=None, help="crossover probability in (0, 1/2]")
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="relbound",
        description="Reliability-function bounds for q-ary cyclic-shift channels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("bounds", "evaluate bound curves on a rate grid (CSV or SVG)"),
        ("plot", "like bounds, but defaults to SVG output"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        p.add_argument("--rmin", type=float, default=None, help="grid start (default C/50)")
        p.add_argument("--rmax", type=float, default=None, help="grid end (default capacity)")
        p.add_argument("--points", type=int, default=None,
                       help=f"grid size (2 to {crv.MAX_GRID_POINTS})")
        p.add_argument("--bounds", type=str, default=None,
                       help="comma list of bound names, or 'all'")
        p.add_argument("--format", type=str, default=None, choices=("csv", "svg"))
        p.add_argument("--ceiling", type=float, default=None,
                       help="SVG clipping ceiling for infinite/large values")

    p = sub.add_parser("oracle", help="brute-force expurgated exponent at small blocklength")
    _add_common(p)
    p.add_argument("--rho", type=float, default=None, help="slope parameter (>= 1)")
    p.add_argument("--n", type=int, default=None, help="blocklength (q^n capped)")
    p.add_argument("--restarts", type=int, default=None,
                   help=f"multistart count (restarts x q^n at most {BATCH_CAP})")

    p = sub.add_parser("simulate", help="exact/Monte-Carlo error of an explicit code")
    _add_common(p)
    p.add_argument("--code", type=str, default=None,
                   help="code file path, or builtin: pentagon | coset:N:K:SEED | q5plus:N:K:SEED")
    p.add_argument("--trials", type=int, default=None,
                   help=f"Monte-Carlo trials (0 = skip; trials x M at most {cod.MC_PAIR_CAP})")

    p = sub.add_parser("verify", help="run the acceptance suite")
    _add_common(p)
    p.add_argument("--only", type=str, default=None,
                   help="run a single criterion: " + ", ".join(n for n, _, _ in CRITERIA))
    return ap


def load_config(path):
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{i}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise UsageError(f"{path}:{i}: unknown key {key!r}")
            try:
                settings[key] = _TYPES[key](value.strip())
            except ValueError:
                raise UsageError(f"{path}:{i}: bad value for {key}: {value.strip()!r}") from None
    return settings


def effective_settings(args):
    """Flags beat config-file values beat defaults."""
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else cfg.get(key, default)
    return merged


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _channel(s):
    try:
        return Channel(s["q"], s["eps"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_bounds(args, default_format="csv"):
    s = effective_settings(args)
    ch = _channel(s)
    cap = capacity(ch)
    rmin = s["rmin"] if s["rmin"] is not None else cap / 50.0
    rmax = s["rmax"] if s["rmax"] is not None else cap
    if rmax > cap + 1e-9:
        raise UsageError(f"rmax {rmax} exceeds capacity {cap}")
    if not 0.0 < rmin < rmax:
        raise UsageError(f"need 0 < rmin < rmax, got {rmin}, {rmax}")
    try:
        names = crv.resolve_selection(ch, s["bounds"])
        grid = crv.rate_grid(rmin, min(rmax, cap), s["points"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    curves = crv.evaluate_curves(ch, names, grid)
    fmt = s["format"] or default_format
    if fmt == "csv":
        _emit(crv.curves_to_csv(curves), s["out"])
    elif fmt == "svg":
        try:
            svg = render_svg(curves, ceiling=s["ceiling"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _emit(svg, s["out"])
    else:
        raise UsageError(f"unknown format {fmt!r} (csv or svg)")
    return 0


def cmd_oracle(args):
    s = effective_settings(args)
    ch = _channel(s)
    if s["rho"] is None:
        raise UsageError("oracle requires --rho")
    try:
        word_count(ch.q, s["n"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not 1.0 <= s["rho"] < math.inf:
        raise UsageError(f"slope parameter must satisfy 1 <= rho < inf, got {s['rho']}")
    try:
        res = minimize_q(ch, s["rho"], s["n"], restarts=s["restarts"], seed=s["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rb = rho_bar(ch)
    theta = cycle_constants(ch).theta
    lines = [
        f"q={ch.q} eps={ch.epsilon:g} rho={res.rho:g} n={res.n} restarts={res.restarts}",
        f"min_Q = {res.min_q:.12g}",
        f"Ex_n  = {res.ex_n:.12g} bits",
        f"converged = {res.converged}",
        f"regime = {'convex (rho <= rho_bar)' if res.convex else 'nonconvex (rho > rho_bar)'}"
        f", rho_bar = {rb:.6g}",
        "distribution support = "
        + str(int((res.distribution > 1e-9).sum()))
        + f" of {ch.q ** res.n} points",
    ]
    ok = True
    if res.convex:
        target = uniform_value(ch, res.rho, res.n)
        good = abs(res.min_q - target) <= 1e-9
        ok &= good
        lines.append(
            f"{'PASS' if good else 'FAIL'} convex regime: min_Q vs uniform closed form "
            f"{target:.12g} (tol 1e-9)"
        )
    elif ch.q % 2 == 0:
        target = res.rho * math.log2(ch.q / 2)
        good = abs(res.ex_n - target) <= 1e-4
        ok &= good
        lines.append(
            f"{'PASS' if good else 'FAIL'} even q: Ex_n vs rho log2(q/2) = {target:.8g} (tol 1e-4)"
        )
    elif ch.q == 5 and res.n % 2 == 0:
        target = 5.0 ** (-res.n / 2)
        good = abs(res.min_q - target) <= 1e-5
        ok &= good
        lines.append(
            f"{'PASS' if good else 'FAIL'} q=5 even n: min_Q vs 5^(-n/2) = {target:.8g} (tol 1e-5)"
        )
    else:
        cap_ex = res.rho * math.log2(theta)
        good = res.ex_n <= cap_ex + 1e-6
        ok &= good
        lines.append(
            f"{'PASS' if good else 'FAIL'} odd q: Ex_n <= rho log2(theta) = {cap_ex:.8g} "
            "(upper bound only)"
        )
    _emit("\n".join(lines) + "\n", s["out"])
    return 0 if ok else 1


def _load_code(spec, s):
    if spec is None:
        raise UsageError("simulate requires --code (file path or builtin name)")
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            try:
                return cod.parse_code(fh.read()), None
            except ValueError as exc:
                raise UsageError(f"{spec}: {exc}") from None
    parts = spec.split(":")
    if parts[0] == "pentagon":
        return cod.pentagon_code(), None
    if parts[0] in ("coset", "q5plus"):
        if len(parts) != 4:
            raise UsageError(f"builtin spec must be {parts[0]}:N:K:SEED, got {spec!r}")
        try:
            n, k, seed = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise UsageError(f"non-integer field in builtin spec {spec!r}") from None
        try:
            if parts[0] == "coset":
                return cod.random_coset_code(s["q"], n, k, seed=seed)
            return cod.random_q5_code(n, k, seed=seed), None
        except ValueError as exc:
            raise UsageError(f"{spec}: {exc}") from None
    raise UsageError(
        f"--code {spec!r} is neither a file nor a builtin "
        "(pentagon | coset:N:K:SEED | q5plus:N:K:SEED)"
    )


def cmd_simulate(args):
    s = effective_settings(args)
    code, c2 = _load_code(s["code"], s)
    try:
        ch = Channel(code.q, s["eps"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if s["trials"] < 0:
        raise UsageError(f"--trials must be >= 0 (0 skips Monte Carlo), got {s['trials']}")
    try:
        mc = cod.mc_pe(code, ch, s["trials"], seed=s["seed"]) if s["trials"] else None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = [f"code: q={code.q} n={code.n} M={code.M}"]
    spec = cod.spectrum(code)
    lines.append("spectrum (finite z): " + (
        " ".join(f"A_{z}={float(a):g}" for z, a in spec.counts.items()) or "none"
    ))
    lines.append(f"pairs at infinite distance per word: {float(spec.infinite_count):g}")
    lines.append(f"union bound on avg error: {cod.union_bound_pe(code, ch, spec):.12g}")
    try:
        avg, worst = cod.exact_pe_avg_max(code, ch)
        lines.append(f"exact avg ML error: {avg:.12g}")
        lines.append(f"exact max ML error: {worst:.12g}")
    except ValueError as exc:
        lines.append(f"exact enumeration skipped: {exc}")
    if mc is not None:
        lines.append(
            f"monte carlo avg error: {mc.estimate:.6g} "
            f"(95% interval [{mc.lower:.6g}, {mc.upper:.6g}], {mc.trials} trials)"
        )
    if c2 is not None:
        from .lower_bounds import coset_spectrum_check

        res = coset_spectrum_check(c2, code.q)
        lines.append(f"coset spectrum relation A_z = 2^z B_z: {'holds' if res.ok else 'FAILS'}")
        for z, (az, bz) in res.table.items():
            lines.append(f"  z={z}: A_z={az} B_z={bz} 2^z*B_z={(2 ** z) * bz}")
    _emit("\n".join(lines) + "\n", s["out"])
    return 0


def cmd_verify(args):
    s = effective_settings(args)
    try:
        results = run_checks(only=s["only"], seed=s["seed"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = []
    failed = False
    for res in results:
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.name} ({res.seconds:.1f}s)")
        for detail in res.lines:
            lines.append("  " + detail)
        failed |= not res.passed
    lines.append(("FAIL" if failed else "PASS") + f": {len(results)} criteria run")
    _emit("\n".join(lines) + "\n", s["out"])
    return 1 if failed else 0


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "bounds":
            return cmd_bounds(args, default_format="csv")
        if args.command == "plot":
            return cmd_bounds(args, default_format="svg")
        if args.command == "oracle":
            return cmd_oracle(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
