import contextlib
import dataclasses
import io
import math
import os
import re
import resource
import subprocess
import sys
import time
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from code_oracles import format_code
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relbound
from relbound import acceptance, cli
from relbound import codes as codes_mod
from relbound import oracle as oracle_mod
from relbound.channel import Channel, bhattacharyya, cycle_constants, theta_cycle
from relbound.classical import rho_bar
from relbound.constants import CRITERIA_ABOUT
from relbound.cli import (COMMANDS, COMMON, OPTIONS, build_parser, effective_settings, load_config,
                          main, parse_args)
from relbound.cli import run as run_cli
from relbound.codes import KEY_CAP, WIDTH_CAP, make_code, pentagon_code
from relbound.curves import CSV_HEADER, csv_to_curves
from relbound.oracle import REGIME_RTOL, _witness_name, minimize_q


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bounds_csv_stdout(capsys):
    rc, out, err = run(capsys, "bounds", "--q", "4", "--eps", "0.01", "--points", "4")
    assert rc == 0
    curves = csv_to_curves(out)
    assert len(curves) == 6  # the full even-q cast
    assert {c.name for c in curves} >= {"random_coding", "sphere_packing", "coset_even"}


def test_bounds_to_file_and_selection(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main([
        "bounds", "--q", "5", "--eps", "0.5", "--points", "3",
        "--bounds", "spectrum_half,min_distance", "--rmin", "1.2", "--rmax", "1.3",
        "--out", str(out),
    ])
    assert rc == 0
    curves = csv_to_curves(out.read_text())
    assert [c.name for c in curves] == ["spectrum_half", "min_distance"]


def test_bounds_refuses_inapplicable(capsys):
    rc, out, err = run(capsys, "bounds", "--q", "4", "--eps", "0.3",
                       "--bounds", "spectrum_half")
    assert rc == 2
    assert "eps = 1/2" in err


def test_bounds_rejects_rmax_above_capacity(capsys):
    rc, out, err = run(capsys, "bounds", "--q", "4", "--eps", "0.5", "--rmax", "1.5")
    assert rc == 2
    assert "capacity" in err


def test_bounds_refuses_huge_grid_quickly(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "bounds", "--q", "4", "--eps", "0.01", "--points", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "grid points" in err and out == ""


def test_plot_svg(tmp_path):
    out = tmp_path / "plot.svg"
    rc = main(["plot", "--q", "4", "--eps", "0.01", "--points", "30", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("<svg")


def test_oracle_report(capsys):
    rc, out, err = run(capsys, "oracle", "--q", "5", "--eps", "0.1", "--rho", "6.0",
                       "--n", "2", "--restarts", "40", "--seed", "1")
    assert rc == 0
    assert "min_Q = 0.2" in out
    assert "PASS" in out


def test_oracle_convex_report(capsys):
    rc, out, err = run(capsys, "oracle", "--q", "4", "--eps", "0.1", "--rho", "1.0",
                       "--restarts", "4")
    assert rc == 0
    assert "convex" in out and "PASS" in out


@pytest.mark.parametrize("q, rho", [(6, "1e12"), (4, "1e300")])
def test_oracle_even_q_check_holds_at_huge_rho(capsys, q, rho):
    # one ulp of Ex_n = rho log2(q/2) there exceeds any fixed absolute
    # tolerance; min_Q is 1/3 and one ulp under 1/2
    rc, out, err = run(capsys, "oracle", "--q", str(q), "--eps", "0.1", "--rho", rho, "--n", "1")
    assert rc == 0, out + err
    assert re.search(r"^PASS min_Q .*; two-sided: the even-symbol product attains L\)$", out, re.M)
    assert "FAIL" not in out


# (argv, what the check line names, closed form of min_Q); q = 5 with odd n has no witness
ORACLE_REGIMES = [
    (("--q", "4", "--eps", "0.1", "--rho", "1.5", "--n", "2", "--restarts", "4"),
     "two-sided: the uniform row", ((1.0 + 2.0 * bhattacharyya(0.1) ** (1.0 / 1.5)) / 4.0) ** 2),
    (("--q", "6", "--eps", "0.1", "--rho", "3", "--n", "1"), "two-sided: the even-symbol product",
     1.0 / 3.0),
    (("--q", "5", "--eps", "0.1", "--rho", "6", "--n", "2", "--restarts", "40"),
     "two-sided: the pentagon product", 5.0 ** -1),
    (("--q", "7", "--eps", "0.1", "--rho", "5", "--n", "1"), "one-sided", 1.0 / theta_cycle(7)),
    (("--q", "5", "--eps", "0.1", "--rho", "6", "--n", "1"), "one-sided", 5.0 ** -0.5),
    # huge rho, where one ulp of Ex_n exceeds any fixed absolute tolerance
    (("--q", "7", "--eps", "0.1", "--rho", "1e12", "--n", "1"), "one-sided", 1.0 / theta_cycle(7)),
    (("--q", "5", "--eps", "0.1", "--rho", "1e12", "--n", "2", "--restarts", "20"),
     "two-sided: the pentagon product", 5.0 ** -1),
]


@pytest.mark.parametrize("argv, how, target", ORACLE_REGIMES)
def test_oracle_fails_a_min_q_off_by_twice_the_regime_tolerance(capsys, monkeypatch, argv, how,
                                                                target):
    rc, out, err = run(capsys, "oracle", *argv)
    assert rc == 0 and re.search(f"^PASS min_Q .*; {how}", out, re.M) and "FAIL" not in out

    def off(*args, **kwargs):
        return dataclasses.replace(minimize_q(*args, **kwargs),
                                   min_q=target * (1.0 - 2.0 * REGIME_RTOL))

    monkeypatch.setattr(oracle_mod, "minimize_q", off)
    rc, out, err = run(capsys, "oracle", *argv)
    assert rc == 1 and re.search(f"^FAIL min_Q .*; {how}", out, re.M)


def test_oracle_and_verify_print_the_same_check(capsys):
    # the (b) problem at eps = 0.1, 3 rho_bar and seed 0 is the same program, so it gives
    # the same bits
    rho = 3.0 * rho_bar(Channel(4, 0.1))
    label = f"PASS (b) q=4 eps=0.1 rho={rho:.3f} n=1: "
    (line,) = [line for line in acceptance.check_oracle(0).lines if line.startswith(label)]
    rc, out, err = run(capsys, "oracle", "--q", "4", "--eps", "0.1", "--rho", repr(rho), "--n", "1",
                       "--restarts", "16", "--seed", "0")
    (check,) = [row for row in out.splitlines() if row.startswith("PASS ")]
    assert rc == 0 and line == label + check[len("PASS "):]


def test_oracle_finishes_where_every_search_row_once_ran_to_the_cap(capsys):
    # min_Q = 1/4 exactly; the even-symbol product certifies it before any search
    rc, out, err = run(capsys, "oracle", "--q", "8", "--eps", "0.01", "--rho", "1e9", "--n", "1")
    assert rc == 0 and "min_Q = 0.25\n" in out and "FAIL" not in out


def test_oracle_prints_how_far_a_search_without_a_witness_stays_above_l(capsys):
    # the lone start is the uniform row, a saddle past rho_bar about 17% above L
    rc, out, err = run(capsys, "oracle", "--q", "3125", "--eps", "0.1", "--rho", "3", "--n", "1",
                       "--restarts", "1")
    gap = float(re.search(r"^PASS min_Q .* min_Q/L - 1 = (\S+) .*one-sided", out, re.M).group(1))
    assert rc == 0 and gap == pytest.approx(0.17, abs=0.005)


@pytest.mark.parametrize("argv, found_by", [
    (("--q", "5", "--eps", "0.1", "--rho", "6", "--n", "2"),
     "the pentagon product, which attains L; no search"),
    (("--q", "7", "--eps", "0.1", "--rho", "5", "--n", "1", "--restarts", "20"),
     r"a search of [1-9]\d* iterations and \d+ face steps"),
    # one ulp past rho_bar the uniform row, a saddle, is within 1e-15 of L and freezes at once
    (("--q", "7", "--eps", "0.1", "--rho", repr(math.nextafter(rho_bar(Channel(7, 0.1)), math.inf)),
      "--n", "1", "--restarts", "8"), "a search stopped at L after 1 iterations"),
])
def test_oracle_says_how_it_found_its_result(capsys, argv, found_by):
    rc, out, err = run(capsys, "oracle", *argv)
    assert rc == 0 and err == ""
    assert re.search(f"^converged = True\nfound by = {found_by}\nregime = ", out, re.M), out


def test_oracle_usage_errors(capsys):
    rc, _, err = run(capsys, "oracle", "--q", "5", "--eps", "0.1")
    assert rc == 2 and "--rho" in err
    rc, _, err = run(capsys, "oracle", "--q", "5", "--eps", "0.1", "--rho", "2.0", "--n", "0")
    assert rc == 2
    rc, _, err = run(capsys, "oracle", "--q", "5", "--eps", "0.1", "--rho", "2.0", "--n", "9")
    assert rc == 2 and "cap" in err


def test_simulate_pentagon(capsys):
    rc, out, err = run(capsys, "simulate", "--code", "pentagon", "--eps", "0.2",
                       "--trials", "500")
    assert rc == 0
    assert "exact avg ML error: 0" in out
    assert "monte carlo" in out


def test_simulate_coset_builtin_prints_relation(capsys):
    rc, out, err = run(capsys, "simulate", "--code", "coset:3:2:5", "--q", "4",
                       "--eps", "0.1")
    assert rc == 0
    assert "A_z = 2^z B_z: holds" in out


def test_simulate_code_file(tmp_path, capsys):
    path = tmp_path / "code.txt"
    path.write_text(format_code(pentagon_code()))
    rc, out, err = run(capsys, "simulate", "--code", str(path), "--eps", "0.3")
    assert rc == 0
    assert "q=5 n=2 M=5" in out


def test_simulate_takes_both_exact_lines_from_one_exact_pe_call(capsys, monkeypatch):
    # codes.exact_pe is the name the traced benchmark wraps: one call per run
    argv = ("simulate", "--code", "coset:4:2:7", "--q", "4", "--eps", "0.1")
    rc, plain, _ = run(capsys, *argv)
    real, calls = codes_mod.exact_pe, []

    def counted(code, ch):
        calls.append(code.M)
        return real(code, ch)

    monkeypatch.setattr(codes_mod, "exact_pe", counted)
    rc2, counted_out, _ = run(capsys, *argv)
    assert rc == rc2 == 0 and counted_out == plain
    assert calls == [64]
    assert "exact avg ML error: " in plain and "exact max ML error: " in plain


def test_simulate_gives_the_exact_error_of_a_coset_code_past_the_pair_cap(capsys):
    # 2^15 words of length 10: M 2^n = 2^25 (codeword, pattern) pairs, past
    # REACH_CAP, but its pattern table has only 4^10 candidates
    rc, out, err = run(capsys, "simulate", "--code", "coset:10:5:1", "--q", "4", "--eps", "0.1")
    assert rc == 0 and "q=4 n=10 M=32768" in out
    assert "exact avg ML error: " in out and "exact enumeration skipped:" not in out


def test_simulate_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("5 2 2\n0 0\n9 9\n")
    rc, out, err = run(capsys, "simulate", "--code", str(path), "--eps", "0.3")
    assert rc == 2
    assert "line 3" in err


@pytest.mark.parametrize("extra", [(), ("--trials", "16384")])
def test_simulate_refuses_a_code_too_wide_for_the_pairwise_kernel(tmp_path, capsys, extra):
    # 20 KB of text: two words of length 5000 over q = 1000, whose one-hot rows
    # are 5 million floats wide
    rng = np.random.default_rng(0)
    path = tmp_path / "wide.txt"
    path.write_text(format_code(make_code(rng.integers(0, 1000, (2, 5000)), 1000)))
    start = time.perf_counter()
    rc, out, err = run(capsys, "simulate", "--code", str(path), "--eps", "0.1", *extra)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"cap {WIDTH_CAP}" in err


def test_simulate_runs_a_builtin_past_the_key_cap_and_refuses_a_file_code_above_it(tmp_path):
    # under a 2 GiB address-space limit a missing check fails fast instead of paging
    src = str(Path(relbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")  # per-thread buffers count against the limit

    def simulate(*argv):
        return subprocess.run(
            [sys.executable, "-m", "relbound", "simulate", *argv, "--eps", "0.1"], capture_output=True,
            text=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )

    # 65536 words of length 1 over q = 131072 would need a 64 GiB key, but
    # q^n = M 2^n: mc_pe looks up each trial's candidates instead, and the
    # spectrum of a linear code needs no key either
    proc = simulate("--code", "coset:1:0:0", "--q", "131072", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert "monte carlo avg error" in proc.stdout
    # 1024 words of length 2 over q = 65536: a key of n q M = 2^27 entries,
    # one-hot rows within WIDTH_CAP, and q^n past OUTPUT_CAP
    words = np.random.default_rng(0).choice(65536**2, size=1024, replace=False)
    path = tmp_path / "wide.txt"
    path.write_text(format_code(make_code(np.stack(np.divmod(words, 65536), axis=1), 65536)))
    proc = simulate("--code", str(path), "--trials", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and f"cap {KEY_CAP} entries" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--code", "q5plus:1:2:0"),  # k > n: no full-rank generator exists
        ("simulate", "--code", "coset:3:5:0", "--q", "4"),
        ("simulate", "--code", "coset:3:2:0", "--q", "5"),
        ("simulate", "--code", "coset:1000000000:1:0", "--q", "4"),
        ("simulate", "--code", "q5plus:1000000000:3:0"),
        ("oracle", "--rho", "2", "--restarts", "0"),
        # a bound named twice, or none: the CSV would not parse back
        ("bounds", "--points", "5", "--bounds", "sphere_packing,sphere_packing"),
        ("bounds", "--points", "5", "--bounds", ","),
        # a slope outside 1 <= rho < inf
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "nan", "--n", "1"),
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "inf", "--n", "1"),
        # an SVG ceiling that is not finite and > 0
        ("plot", "--ceiling", "nan"),
        ("plot", "--ceiling", "0"),
        ("plot", "--ceiling", "-1"),
        # q^n past oracle.SIZE_CAP with a power too big to form, and restarts x q^n
        # past oracle.BATCH_CAP
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "2", "--n", "100000000"),
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "2", "--n", "5", "--restarts", "100000000"),
        # Monte-Carlo work beyond codes.MC_PAIR_CAP, and negative trials
        ("simulate", "--code", "pentagon", "--eps", "0.2", "--trials", "1000000000"),
        ("simulate", "--code", "pentagon", "--eps", "0.2", "--trials", "-1"),
        # a negative seed, refused before any subcommand that takes --seed runs
        ("verify", "--seed", "-1", "--only", "theta"),
        ("verify", "--seed", "-1", "--only", "oracle"),
        ("oracle", "--rho", "2", "--restarts", "10", "--seed", "-5"),
        ("simulate", "--code", "pentagon", "--trials", "10", "--seed", "-3"),
    ],
)
def test_bad_specs_refused_quickly_with_usage_exit(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert err.startswith("error: ") and out == ""
    if "--seed" in argv:
        assert "--seed" in err


# the tangency's slope grows about as q^2: -5.3e5 at q = 851 and -1.0e6 at
# q = 1175 (eps = 0.1), -7.3e11 at q = 10^6 + 1
@pytest.mark.parametrize(
    "q, eps",
    [(851, "0.1"), (1173, "0.1"), (1175, "0.1"), (1887, "0.5"), (773, "0.001"), (909, "0.01"),
     (5001, "0.1"), (1000001, "0.1")],
)
def test_theta_line_at_every_odd_q(capsys, q, eps):
    channel = ("--q", str(q), "--eps", eps, "--points", "5")
    rc, out, err = run(capsys, "bounds", *channel)
    assert rc == 0 and err == ""
    names = {c.name for c in csv_to_curves(out)}
    assert {"min_distance", "straight_line_theta"} <= names
    picks = "straight_line_theta,envelope_lower,envelope_upper"
    rc, out, err = run(capsys, "bounds", *channel, "--bounds", picks)
    assert rc == 0 and len(csv_to_curves(out)) == 3
    rc, out, err = run(capsys, "plot", *channel)
    assert rc == 0 and out.startswith("<svg")


# log2(theta) rounds onto log2(q/2); at eps = 1/2 also onto capacity, where
# the line would be empty and is refused
@pytest.mark.parametrize("q", [10**9 + 1, 2**62 - 1])
def test_theta_line_where_its_anchor_rounds_onto_the_curve_s_end(capsys, q):
    for eps in ("0.1", "0.001"):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, out, err = run(capsys, "bounds", "--q", str(q), "--eps", eps, "--points", "5")
        assert time.perf_counter() - start < 1.0
        assert rc == 0 and err == ""
        (line,) = [c for c in csv_to_curves(out) if c.name == "straight_line_theta"]
        params = dict(line.params)
        assert float(params["r1"]) < float(params["r2"])
    half = ("--q", str(q), "--eps", "0.5", "--points", "5")
    rc, out, err = run(capsys, "bounds", *half)
    assert rc == 0 and "straight_line_theta" not in out
    rc, out, err = run(capsys, "bounds", *half, "--bounds", "straight_line_theta")
    assert rc == 2 and "log2(theta) below capacity" in err


@pytest.mark.parametrize("command", ["bounds", "plot", "oracle", "simulate", "verify"])
def test_negative_seed_from_config_names_the_option(tmp_path, capsys, command):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-4\n")
    rc, out, err = run(capsys, command, "--config", str(cfg))
    assert rc == 2 and out == ""
    assert err == "error: --seed must be >= 0, got -4\n"


@pytest.mark.parametrize("argv", [("bounds", "--format", "svg"), ("bounds", "--ceiling", "2"),
                                  ("plot", "--format", "csv")])
def test_each_grid_command_has_its_one_output_format(capsys, argv):
    # bounds writes CSV and plot SVG; neither takes --format, and only plot --ceiling
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and f"unrecognized arguments: {argv[1]}" in err


# a command takes only the options it reads: verify checks fixed channels, and
# bounds and plot draw no random numbers, so each of these would be ignored
@pytest.mark.parametrize("argv", [("verify", "--q", "5"), ("verify", "--eps", "0.1"),
                                  ("bounds", "--seed", "1"), ("plot", "--seed", "1"),
                                  ("bounds", "--seed", "-2"), ("plot", "--seed", "-2")])
def test_a_command_refuses_an_option_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("command", ["bounds", "plot"])
def test_format_in_a_config_file_is_an_unknown_key(tmp_path, capsys, command):
    cfg = tmp_path / "format.cfg"
    cfg.write_text("format=svg\n")
    rc, out, err = run(capsys, command, "--config", str(cfg))
    assert rc == 2 and out == "" and err == f"error: {cfg}:1: unknown key 'format'\n"


@pytest.mark.parametrize("command, name", [(command, name) for command, (_, own) in COMMANDS.items()
                                           for name in COMMON + own])
def test_a_flag_value_of_two_dashes_is_refused(capsys, command, name):
    # argparse strips the "--" of `--name=--` and hands the option [] instead of a value
    rc, out, err = run(capsys, command, f"--{name}=--")
    assert rc == 2 and out == "" and err.startswith(f"error: --{name} takes one value")


def test_verify_only(capsys):
    rc, out, err = run(capsys, "verify", "--only", "theta")
    assert rc == 0
    assert out.count("PASS theta (") == 1  # exactly one criterion ran


def test_verify_prints_the_same_text_on_every_run(capsys, monkeypatch):
    # no line holds a run time: a clock that reads 5 s more at each call changes nothing
    rc, out, err = run(capsys, "verify", "--seed", "0")
    assert rc == 0 and err == ""
    ticks = iter(range(0, 10**6, 5))
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(
        perf_counter=lambda: float(next(ticks)), time=lambda: float(next(ticks))))
    assert run(capsys, "verify", "--seed", "0") == (rc, out, err)
    assert out.startswith(f"PASS theta ({CRITERIA_ABOUT['theta']})\n")


def test_verify_unknown_criterion(capsys):
    rc, out, err = run(capsys, "verify", "--only", "bogus")
    assert rc == 2


def test_verify_detects_injected_corruption(capsys, monkeypatch):
    """A sign flip in the BSC expurgated branch must trip the acceptance run."""
    from relbound import classical

    good = classical.bsc_expurgated_exponent

    def corrupted(eps, r):
        return np.where(np.asarray(r) < 0.2, -good(eps, r), good(eps, r))

    monkeypatch.setattr(classical, "bsc_expurgated_exponent", corrupted)
    rc, out, err = run(capsys, "verify", "--only", "shift_laws")
    assert rc == 1
    assert "FAIL" in out


def _python_m(*argv):
    src = str(Path(relbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("module", ["relbound.cli", "relbound"])
def test_python_m_entry_points_run_the_command(module):
    proc = _python_m(module, "verify", "--only", "theta")
    assert proc.returncode == 0, proc.stderr
    assert "PASS theta (" in proc.stdout and "PASS: 1 criteria run" in proc.stdout
    proc = _python_m(module, "verify", "--only", "nosuch")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: unknown criterion")


def test_failing_criterion_exits_1_through_the_entry_point(monkeypatch, capsys):
    def failing(seed=0):
        rec = acceptance._Recorder()
        rec.require("injected failure", False)
        return rec

    criteria = [(n, d, failing if n == "theta" else fn) for n, d, fn in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    rc, out, err = run(capsys, "verify", "--only", "theta")
    assert rc == 1 and "FAIL theta (" in out and "FAIL injected failure" in out
    monkeypatch.setattr(sys, "argv", ["relbound", "verify", "--only", "theta"])
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 1


def test_a_raising_criterion_fails_and_the_others_still_run(monkeypatch, capsys):
    def raising(seed=0):
        raise ValueError("injected library refusal")

    criteria = [(n, d, raising if n == "envelope" else fn) for n, d, fn in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    rc, out, err = run(capsys, "verify")
    assert rc == 1
    assert "FAIL envelope (" in out
    assert "\n  FAIL criterion raised ValueError: injected library refusal\n" in out
    assert all(f"PASS {n} (" in out for n, _, _ in criteria if n != "envelope")
    assert out.endswith(f"FAIL: {len(criteria)} criteria run\n")
    assert "ValueError: injected library refusal" in err  # the traceback, on stderr


@pytest.mark.parametrize("case", ["missing config", "non-utf-8 config", "out in a missing dir",
                                  "code is a dir"])
def test_file_errors_are_usage_errors_that_name_the_file(tmp_path, capsys, case):
    path = tmp_path / "missing.cfg"
    argv = ("bounds", "--points", "3", "--config", str(path))
    if case == "non-utf-8 config":
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# caf\u00e9\neps=0.1\n".encode("latin-1"))
        argv = ("bounds", "--points", "3", "--config", str(path))
    elif case == "out in a missing dir":
        path = tmp_path / "no" / "curves.csv"
        argv = ("bounds", "--points", "3", "--out", str(path))
    elif case == "code is a dir":
        path = tmp_path / "codes"
        path.mkdir()
        argv = ("simulate", "--code", str(path), "--eps", "0.2")
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def _option_values(name):
    typ = OPTIONS[name][0]
    if typ is int:
        return st.integers(min_value=0 if name == "seed" else None)  # a negative seed is refused
    if typ is float:
        return st.floats(allow_nan=False)
    return st.from_regex(r"[A-Za-z0-9_.:/,+-]{1,20}", fullmatch=True)


@pytest.mark.parametrize("name", [name for name in OPTIONS if name != "config"])
# the flag value "--", refused before the config file (where None may be a bad value) is read
@example(data=None, in_file=True, as_flag=True)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), in_file=st.booleans(), as_flag=st.booleans())
def test_flag_beats_file_beats_default(tmp_path_factory, name, data, in_file, as_flag):
    commands = [c for c, (_, own) in COMMANDS.items() if name in COMMON + own]
    if data is None:
        command, file_value, flag_value = commands[0], OPTIONS[name][1], "--"
    else:
        command = data.draw(st.sampled_from(commands))
        file_value, flag_value = data.draw(_option_values(name)), data.draw(_option_values(name))
    argv = [command]
    if in_file:
        cfg = tmp_path_factory.getbasetemp() / "precedence.cfg"
        cfg.write_text(f"{name}={file_value}\n")
        argv += ["--config", str(cfg)]
    if as_flag:
        argv.append(f"--{name}={flag_value}")  # the = form takes values that start with -
    args = build_parser().parse_args(argv)
    if as_flag and flag_value == "--":  # argparse hands it over as []
        with pytest.raises(ValueError, match=f"^--{name} takes one value"):
            effective_settings(args)
        return
    merged = effective_settings(args)
    expected = flag_value if as_flag else file_value if in_file else OPTIONS[name][1]
    assert merged[name] == expected and type(merged[name]) is type(expected)
    others = {key: entry[1] for key, entry in OPTIONS.items() if key not in (name, "config")}
    assert {key: merged[key] for key in others} == others


@settings(max_examples=50, deadline=None)
@given(key=st.just("config") | st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
    lambda key: key not in OPTIONS))
def test_config_key_that_is_no_option_is_refused(tmp_path_factory, key):
    cfg = tmp_path_factory.getbasetemp() / "unknown.cfg"
    cfg.write_text(f"{key}=1\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:1: unknown key {key!r}")):
        effective_settings(build_parser().parse_args(["verify", "--config", str(cfg)]))


def test_config_keys_a_command_does_not_read_are_named_on_stderr(tmp_path, capsys):
    # one config file serves every command; a key the command ignores is still
    # checked, and named, so that a run never looks as if it used it
    rc, plain, err = run(capsys, "verify", "--only", "theta")
    assert rc == 0 and err == ""
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("q=7\nseed=3\neps=0.2\n")
    rc, out, err = run(capsys, "verify", "--only", "theta", "--config", str(cfg))
    assert rc == 0 and out == plain
    assert err == f"warning: {cfg}: verify does not read q, eps\n"
    cfg.write_text("seed=3\nonly=theta\n")
    rc, out, err = run(capsys, "verify", "--config", str(cfg))
    assert rc == 0 and out == plain and err == ""


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=5\neps=0.5\npoints=3\nbounds=min_distance\nrmin=1.2\nrmax=1.3\n")
    rc, out, err = run(capsys, "bounds", "--config", str(cfg))
    assert rc == 0
    curves = csv_to_curves(out)
    assert [c.name for c in curves] == ["min_distance"]
    assert curves[0].channel.q == 5
    # flags beat the file
    rc, out, err = run(capsys, "bounds", "--config", str(cfg), "--bounds", "sphere_packing")
    assert rc == 0
    assert [c.name for c in csv_to_curves(out)] == ["sphere_packing"]


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense\n")
    rc, out, err = run(capsys, "bounds", "--config", str(cfg))
    assert rc == 2
    cfg.write_text("unknown_key=3\n")
    rc, out, err = run(capsys, "bounds", "--config", str(cfg))
    assert rc == 2


# any text, and text in the alphabets of the three formats after a header that parses
_ANY_TEXT = st.tuples(
    st.sampled_from(["", ",".join(CSV_HEADER) + "\n", "5 2 2\n", "q=5\n"]),
    st.text() | st.text(st.sampled_from('0123456789 .,;=#"\r\n\tinfaqx-')),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_ANY_TEXT)
@example(",".join(CSV_HEADER) + "\n0,\r,0,4,0.5,\n")  # an unquoted "\r": csv.reader raises csv.Error
def test_any_text_is_read_or_refused_with_a_value_error(tmp_path_factory, text):
    # curve, code and config files come from outside: each reader returns or raises ValueError
    path = tmp_path_factory.getbasetemp() / "any.txt"
    path.write_text(text, encoding="utf-8")
    for read, arg in ((csv_to_curves, text), (codes_mod.parse_code, text), (load_config, str(path))):
        with contextlib.suppress(ValueError):
            read(arg)


def test_cli_deterministic(capsys):
    args = ("simulate", "--code", "pentagon", "--eps", "0.2", "--trials", "300",
            "--seed", "9")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert (rc1, out1) == (rc2, out2)


# eps over (0, 1/2], with the smallest subnormal and 1/2 - ulp drawn on purpose
CLI_EPS = st.floats(min_value=0.0, max_value=0.5, exclude_min=True) | st.sampled_from(
    [5e-324, math.nextafter(0.5, 0.0)])


@st.composite
def cli_argvs(draw):
    """bounds, oracle and simulate argvs over valid ranges: q 4..40, rho in [1, 1e300],
    q^n at most 125 with a few restarts, builtin codes of length at most 4."""
    command = draw(st.sampled_from(["bounds", "oracle", "simulate"]))
    q = draw(st.integers(min_value=4, max_value=40))
    argv = [command, "--q", str(q), "--eps", repr(draw(CLI_EPS))]
    if command != "bounds":  # bounds draws no random numbers and takes no --seed
        argv += ["--seed", str(draw(st.integers(min_value=0, max_value=2**32 - 1)))]
    if command == "bounds":
        argv += ["--points", str(draw(st.integers(min_value=2, max_value=20)))]
    elif command == "oracle":
        n = draw(st.integers(min_value=1, max_value=max(k for k in (1, 2, 3) if q**k <= 125)))
        argv += ["--rho", repr(draw(st.floats(min_value=1.0, max_value=1e300))), "--n", str(n),
                 "--restarts", str(draw(st.integers(min_value=1, max_value=4)))]
    else:
        code = draw(st.sampled_from(["pentagon", "coset", "q5plus"]))
        if code != "pentagon":
            n = draw(st.integers(min_value=1, max_value=2))
            code += f":{n}:{draw(st.integers(min_value=0, max_value=n))}:{draw(st.integers(0, 99))}"
        argv += ["--code", code, "--trials", str(draw(st.integers(min_value=0, max_value=300)))]
    return argv


def _exact_regime_check(argv, out):
    """oracle.regime_check on the printed min_Q, recomputed in exact rational arithmetic.

    L is ((1 + 2 min(a, phi))/q)^n at the floats a and phi, unrounded; the check is
    two-sided in the convex regime, for even q and for q = 5 with even n.
    """
    opts = dict(zip(argv[1::2], argv[2::2]))
    q, eps, rho, n = int(opts["--q"]), float(opts["--eps"]), float(opts["--rho"]), int(opts["--n"])
    got = Fraction(float(re.search(r"^(?:PASS|FAIL) min_Q (\S+) ", out, re.M).group(1)))
    tol = Fraction(REGIME_RTOL)
    a = min(bhattacharyya(eps) ** (1.0 / rho), cycle_constants(Channel(q, eps)).phi)
    lower = ((1 + 2 * Fraction(a)) / q) ** n
    if _witness_name(q, n, "regime = convex" in out) is not None:
        return abs(got - lower) <= tol * lower
    return got >= lower * (1 - tol)


def _printed(out, label):
    return float(re.search(f"^{label}: (\\S+)$", out, re.M).group(1))


@example(["bounds", "--q", "4", "--eps", "5e-324", "--points", "3"])
@example(["oracle", "--q", "6", "--eps", "0.1", "--seed", "0", "--rho", "1e12", "--n", "1",
          "--restarts", "1"])
@example(["simulate", "--q", "4", "--eps", "0.49999999999999994", "--seed", "0",
          "--code", "coset:2:1:0", "--trials", "50"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_argvs())
def test_cli_exits_cleanly_on_valid_ranges(argv):
    # in-process through cli.main: an exception here is a traceback the user would see
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out == "" and err.startswith("error: ")
    elif rc == 1:
        # a FAIL line only where the check also fails in exact arithmetic
        assert argv[0] == "oracle" and not _exact_regime_check(argv, out), out
    elif argv[0] == "simulate" and "exact avg ML error" in out:
        avg, worst = _printed(out, "exact avg ML error"), _printed(out, "exact max ML error")
        assert avg <= _printed(out, "union bound on avg error") + 1e-15
        assert worst >= avg


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cli_argvs())
def test_a_command_parser_parses_as_the_full_parser(argv):
    # main parses argv[1:] with argv[0]'s own parser; the settings must be those the full parser gives
    assert parse_args(argv) == build_parser().parse_args(argv)


def _help(parse, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parse(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_parser_prints_the_full_parsers_help(command):
    assert _help(parse_args, command, "--help") == _help(build_parser().parse_args, command,
                                                         "--help")


def test_a_second_call_does_not_see_the_first_calls_flags(monkeypatch):
    # the command parser is kept for the process; each call must start from no flags
    seen = []
    monkeypatch.setattr(cli, "cmd_simulate", lambda s: seen.append(s) or 0)
    argv = ["simulate", "--code", "pentagon", "--eps", "0.2"]
    assert main(argv + ["--trials", "5"]) == 0 and main(argv) == 0
    assert [s["trials"] for s in seen] == [5, 0]
    assert parse_args(argv) == build_parser().parse_args(argv)


def test_a_flag_value_of_dashes_is_still_refused(capsys):
    argv = ["simulate", "--code", "pentagon", "--trials=--"]
    assert parse_args(argv) == build_parser().parse_args(argv)
    assert run(capsys, *argv) == (2, "", "error: --trials takes one value, got []\n")


def test_an_abbreviated_flag_is_still_accepted():
    argv = ["simulate", "--code", "pentagon", "--tri", "5"]
    args = parse_args(argv)
    assert args == build_parser().parse_args(argv) and args.trials == 5


@pytest.mark.parametrize("argv", [["verify", "--q", "5"], ["bounds", "--seed", "1"]])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    # as from the full parser, but main's usage line is the command's own
    for parse, prog in ((main, f"relbound {argv[0]}"), (build_parser().parse_args, "relbound")):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(f"{prog}: error: unrecognized arguments: {' '.join(argv[1:])}\n")


def test_help_names_the_caps_and_criteria_the_code_enforces():
    # the help reads these from relbound.constants, so that building the parser loads no
    # lazy module; the modules that enforce or run them must hold the same values
    def shown(command):
        return " ".join(_help(build_parser().parse_args, command, "--help").split())

    assert f"(restarts x q^n at most {oracle_mod.BATCH_CAP})" in shown("oracle")
    assert f"trials x M at most {codes_mod.MC_PAIR_CAP})" in shown("simulate")
    names = ", ".join(name for name, _, _ in acceptance.CRITERIA)
    assert f"--only ONLY run a single criterion: {names}" in shown("verify")
