import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relbound.cli import build_parser

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_benchmark_target_resolves():
    # the traced benchmark run binds these names; a deleted or renamed
    # function would break that run without failing any other test
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"relbound.{module}"), function, None)), (
            f"relbound.{module}.{function}"
        )


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relbound"


def _uses(banned, skip=()):
    """Every `file:line name` in the package, outside `skip`, that names one of `banned`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in skip:
            continue
        # names, attributes, imports (ast.alias) and definitions
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found += [f"{path.name}:{node.lineno} {n}" for n in names & banned]
    return found


def test_solvers_alone_name_the_scalar_root_finders():
    # every root in the library is a solvers.bracket; bisect_root and golden_min
    # stay only as the traced benchmark's targets and the tests' scalar references
    assert _uses({"bisect_root", "golden_min", "RHO_CAP"}, skip={"solvers.py"}) == []


def test_oracle_alone_names_the_regime_targets():
    # one certified lower bound L replaced the per-regime closed forms, and oracle.py
    # alone computes it and decides how close counts; a second copy in the CLI or the
    # acceptance suite would drift from it
    assert _uses({"min_q_lower_bound", "REGIME_RTOL"}, skip={"oracle.py"}) == []
    assert _uses({"uniform_value"}) == []


def test_oracle_solves_one_problem_per_call():
    # minimize_q is the one entry point and its solver serves one problem: no
    # multi-problem batch, run packing or per-row problem index to keep in step
    assert _uses({"minimize_q_batch", "_solve_run", "owner"}) == []


def test_no_module_builds_a_dense_gram_matrix():
    # the oracle applies the circulant base along each letter axis and gathers
    # face blocks from the letters; a Kronecker power would bring back the
    # q^n x q^n matrix (78 MB at the size cap), so it lives in the tests alone
    assert _uses({"kron", "gram_matrix"}) == []


def test_codes_hand_back_plain_numpy_values():
    # a spectrum is a float64 array and exact_pe returns (avg, worst) from one
    # enumeration: no rational type, spectrum class or second entry point to
    # convert back and forth or to drift apart
    assert _uses({"Fraction", "Spectrum", "exact_pe_avg_max"}) == []


def test_cli_import_leaves_out_fractions_and_decimal():
    # fractions also imports decimal; no relbound module needs exact
    # rationals, so no command should pay for importing them
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    probe = "import sys, relbound.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_readme_cli_line_parses():
    # the README's CLI block is what users copy; an option renamed or dropped
    # in the parser must not leave it showing a command line that is refused
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("relbound ")]
    assert len(lines) >= 5
    for line in lines:
        try:
            build_parser().parse_args(line.replace("[", "").replace("]", "").split()[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
