import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import relbound
from relbound import acceptance
from relbound.cli import main, run as run_cli
from relbound.codes import format_code, pentagon_code
from relbound.curves import csv_to_curves


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


def test_simulate_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("5 2 2\n0 0\n9 9\n")
    rc, out, err = run(capsys, "simulate", "--code", str(path), "--eps", "0.3")
    assert rc == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--code", "q5plus:1:2:0"),  # k > n: no full-rank generator exists
        ("simulate", "--code", "coset:3:5:0", "--q", "4"),
        ("simulate", "--code", "coset:3:2:0", "--q", "5"),
        ("simulate", "--code", "coset:1000000000:1:0", "--q", "4"),
        ("simulate", "--code", "q5plus:1000000000:3:0"),
        ("oracle", "--rho", "2", "--restarts", "0"),
        # a slope outside 1 <= rho < inf
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "nan", "--n", "1"),
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "inf", "--n", "1"),
        # an SVG ceiling that is not finite and > 0
        ("plot", "--ceiling", "nan"),
        ("plot", "--ceiling", "0"),
        ("bounds", "--format", "svg", "--ceiling", "-1"),
        # q^n past oracle.SIZE_CAP with a power too big to form, and restarts x q^n
        # past oracle.BATCH_CAP
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "2", "--n", "100000000"),
        ("oracle", "--q", "5", "--eps", "0.1", "--rho", "2", "--n", "5", "--restarts", "100000000"),
        # Monte-Carlo work beyond codes.MC_PAIR_CAP, and negative trials
        ("simulate", "--code", "pentagon", "--eps", "0.2", "--trials", "1000000000"),
        ("simulate", "--code", "pentagon", "--eps", "0.2", "--trials", "-1"),
    ],
)
def test_bad_specs_refused_quickly_with_usage_exit(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert err.startswith("error: ") and out == ""


def test_verify_only(capsys):
    rc, out, err = run(capsys, "verify", "--only", "theta")
    assert rc == 0
    assert out.count("PASS theta (") == 1  # exactly one criterion ran


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


def test_cli_deterministic(capsys):
    args = ("simulate", "--code", "pentagon", "--eps", "0.2", "--trials", "300",
            "--seed", "9")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert (rc1, out1) == (rc2, out2)
