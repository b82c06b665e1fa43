"""Command-line interface: bounds | plot | oracle | simulate | verify.

`bounds` writes the selected curves as CSV and `plot` draws the same
curves as SVG; the other three print a text report.

Each option is one OPTIONS entry and each subcommand one COMMANDS entry;
the parser, the config file and the merged settings all read these two
tables. Option precedence is flags over config file over the OPTIONS
defaults; the config file is flat key=value text that may set any
option but config. A flag value of `--` is refused.

Exit codes: 0 on success; 1 when `oracle` or `verify` prints a FAIL line,
a verify criterion that raised included; 2 on any refused input, an
unreadable config or code file and an unwritable --out included. `main`
is the one place that turns a ValueError or OSError into
`error: <message>` on stderr and exit 2.

`acceptance`, `codes`, `oracle` and `svgplot` are lazy modules (see the
package docstring): this module binds them at import and reads their
attributes only inside the `cmd_*` that runs them, and `main` builds the
options of the one command it runs.
"""

import argparse
import math
import os
import sys

from . import acceptance as acc
from . import codes as cod
from . import curves as crv
from . import oracle as orc
from . import svgplot
from .channel import Channel, capacity
from .classical import rho_bar
from .constants import BATCH_CAP, CRITERIA_ABOUT, MC_PAIR_CAP
from .lower_bounds import coset_spectrum_check

# name: (type, default, help), in --help order
OPTIONS = {
    "q": (int, 4, "alphabet size (>= 4)"),
    "eps": (float, 0.1, "crossover probability in (0, 1/2]"),
    "seed": (int, 0, "master random seed"),
    "out": (str, None, "output path (default stdout)"),
    "config": (str, None, "flat key=value config file"),
    "rmin": (float, None, "grid start (default C/50)"),
    "rmax": (float, None, "grid end (default capacity)"),
    "points": (int, 200, f"grid size (2 to {crv.MAX_GRID_POINTS})"),
    "bounds": (str, "all", "comma list of bound names, or 'all'"),
    "ceiling": (float, None, "SVG clipping ceiling for infinite/large values"),
    "rho": (float, None, "slope parameter (>= 1)"),
    "n": (int, 1, "blocklength (q^n capped)"),
    "restarts": (int, 200, "start rows of a search, the uniform row first; unused where a "
                 f"witness attains the lower bound L (restarts x q^n at most {BATCH_CAP})"),
    "code": (str, None, "code file path, or builtin: pentagon | coset:N:K:SEED | q5plus:N:K:SEED"),
    "trials": (int, 0, f"Monte-Carlo trials (0 = skip; trials x M at most {MC_PAIR_CAP})"),
    "only": (str, None, "run a single criterion: " + ", ".join(CRITERIA_ABOUT)),
}
COMMON = ("q", "eps", "seed", "out", "config")
_GRID = ("rmin", "rmax", "points", "bounds")
# name: (help, its options after the common ones)
COMMANDS = {
    "bounds": ("evaluate bound curves on a rate grid as CSV", _GRID),
    "plot": ("draw bound curves on a rate grid as SVG", _GRID + ("ceiling",)),
    "oracle": ("brute-force expurgated exponent at small blocklength", ("rho", "n", "restarts")),
    "simulate": ("exact/Monte-Carlo error of an explicit code", ("code", "trials")),
    "verify": ("run the acceptance suite", ("only",)),
}


def build_parser(command=None):
    """The CLI's parser; given a command, only that subcommand gets its options."""
    ap = argparse.ArgumentParser(
        prog="relbound",
        description="Reliability-function bounds for q-ary cyclic-shift channels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (about, own) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        if command not in (None, name):
            continue
        for opt in COMMON + own:
            typ, _, helptext = OPTIONS[opt]
            p.add_argument(f"--{opt}", type=typ, help=helptext)
    return ap


def load_config(path):
    """The options a flat key=value file sets; ValueError, prefixed with the path, on a bad file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    settings = {}
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in OPTIONS or key == "config":
            raise ValueError(f"{path}:{i}: unknown key {key!r}")
        try:
            settings[key] = OPTIONS[key][0](value)
        except ValueError:
            raise ValueError(f"{path}:{i}: bad value for {key}: {value!r}") from None
    return settings


def effective_settings(args):
    """Flags beat config-file values beat defaults.

    A flag that holds no single value is refused (argparse hands
    `--opt=--` over as []), before the config file is read; so is a
    negative seed.
    """
    flags = {key: getattr(args, key, None) for key in OPTIONS}
    for key, flag in flags.items():
        if isinstance(flag, list):
            raise ValueError(f"--{key} takes one value, got {flag!r}")
    cfg = load_config(flags["config"]) if flags["config"] else {}
    merged = {}
    for key, (_, default, _) in OPTIONS.items():
        merged[key] = flags[key] if flags[key] is not None else cfg.get(key, default)
    if merged["seed"] < 0:
        raise ValueError(f"--seed must be >= 0, got {merged['seed']}")
    return merged


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _curves(s):
    """The selected curves on the checked rate grid of s."""
    ch = Channel(s["q"], s["eps"])
    cap = capacity(ch)
    rmin = s["rmin"] if s["rmin"] is not None else cap / 50.0
    rmax = s["rmax"] if s["rmax"] is not None else cap
    if rmax > cap + 1e-9:
        raise ValueError(f"rmax {rmax} exceeds capacity {cap}")
    if not 0.0 < rmin < rmax:
        raise ValueError(f"need 0 < rmin < rmax, got {rmin}, {rmax}")
    names = crv.resolve_selection(ch, s["bounds"])
    grid = crv.rate_grid(rmin, min(rmax, cap), s["points"])
    return crv.evaluate_curves(ch, names, grid)


def cmd_bounds(s):
    _emit(crv.curves_to_csv(_curves(s)), s["out"])
    return 0


def cmd_plot(s):
    _emit(svgplot.render_svg(_curves(s), ceiling=s["ceiling"]), s["out"])
    return 0


def cmd_oracle(s):
    ch = Channel(s["q"], s["eps"])
    if s["rho"] is None:
        raise ValueError("oracle requires --rho")
    if not 1.0 <= s["rho"] < math.inf:
        raise ValueError(f"slope parameter must satisfy 1 <= rho < inf, got {s['rho']}")
    res = orc.minimize_q(ch, s["rho"], s["n"], restarts=s["restarts"], seed=s["seed"])
    rb = rho_bar(ch)
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
    ok, check = orc.regime_check(ch, res)
    lines.append(f"{'PASS' if ok else 'FAIL'} {check}")
    _emit("\n".join(lines) + "\n", s["out"])
    return 0 if ok else 1


def _load_code(spec, q):
    if spec is None:
        raise ValueError("simulate requires --code (file path or builtin name)")
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                return cod.parse_code(fh.read()), None
        except ValueError as exc:
            raise ValueError(f"{spec}: {exc}") from None
    parts = spec.split(":")
    if parts[0] == "pentagon":
        return cod.pentagon_code(), None
    if parts[0] in ("coset", "q5plus"):
        if len(parts) != 4:
            raise ValueError(f"builtin spec must be {parts[0]}:N:K:SEED, got {spec!r}")
        try:
            n, k, seed = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ValueError(f"non-integer field in builtin spec {spec!r}") from None
        try:
            if parts[0] == "coset":
                return cod.random_coset_code(q, n, k, seed=seed)
            return cod.random_q5_code(n, k, seed=seed), None
        except ValueError as exc:
            raise ValueError(f"{spec}: {exc}") from None
    raise ValueError(
        f"--code {spec!r} is neither a file nor a builtin "
        "(pentagon | coset:N:K:SEED | q5plus:N:K:SEED)"
    )


def cmd_simulate(s):
    code, c2 = _load_code(s["code"], s["q"])
    ch = Channel(code.q, s["eps"])
    if s["trials"] < 0:
        raise ValueError(f"--trials must be >= 0 (0 skips Monte Carlo), got {s['trials']}")
    spec = cod.spectrum(code)
    mc = cod.mc_pe(code, ch, s["trials"], seed=s["seed"]) if s["trials"] else None
    lines = [f"code: q={code.q} n={code.n} M={code.M}"]
    lines.append("spectrum (finite z): " + (
        " ".join(f"A_{z}={a:g}" for z, a in enumerate(spec[:-1].tolist()) if a) or "none"
    ))
    lines.append(f"pairs at infinite distance per word: {spec[-1]:g}")
    lines.append(f"union bound on avg error: {cod.union_bound_pe(code, ch, spec):.12g}")
    try:
        avg, worst = cod.exact_pe(code, ch)
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
        res = coset_spectrum_check(c2, code.q)
        lines.append(f"coset spectrum relation A_z = 2^z B_z: {'holds' if res.ok else 'FAILS'}")
        for z, (az, bz) in res.table.items():
            lines.append(f"  z={z}: A_z={az} B_z={bz} 2^z*B_z={(2 ** z) * bz}")
    _emit("\n".join(lines) + "\n", s["out"])
    return 0


def cmd_verify(s):
    results = acc.run_checks(only=s["only"], seed=s["seed"])
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command builds only its own options; --help or a bad command gets them all
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        command = {"bounds": cmd_bounds, "plot": cmd_plot, "oracle": cmd_oracle,
                   "simulate": cmd_simulate, "verify": cmd_verify}
        return command[args.command](effective_settings(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
