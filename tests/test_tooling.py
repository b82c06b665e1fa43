import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
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


def _named(path):
    """(name, line) of every name, attribute, import and exact string in the file at path."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            found.add((node.name.rsplit(".", 1)[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add((node.value, node.lineno))  # such as bench/spans.py's TARGETS
        else:
            found |= {(getattr(node, f), node.lineno) for f in ("id", "attr") if hasattr(node, f)}
    return found


def test_no_library_function_is_reached_only_from_tests():
    # a function only tests call is a test helper: it belongs under tests/. A
    # module-level def is reached if another line of the package names it, or
    # the benchmark, the acceptance criteria or an entry point in pyproject.toml
    # does; dunders are called by Python itself
    from relbound.acceptance import CRITERIA

    root = PACKAGE.parents[1]
    outside = {name for path in (root / "bench").glob("*.py") for name, _ in _named(path)}
    outside |= {fn.__name__ for _, _, fn in CRITERIA}
    # entry points such as `relbound = "relbound.cli:run"` (tomllib needs Python 3.11)
    outside |= set(re.findall(r'"relbound[\w.]*:(\w+)"', (root / "pyproject.toml").read_text()))
    named = {(name, path.name, line) for path in PACKAGE.glob("*.py") for name, line in _named(path)}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__") or node.name in outside:
                continue
            if not any(name == node.name and (file, line) != (path.name, node.lineno)
                       for name, file, line in named):
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreached == []


def test_no_module_imports_a_name_it_never_uses():
    # an import left behind by a deleted caller still loads its module and
    # reads as a dependency; __init__.py is left out, its imports are re-exports
    unused = []
    for path in sorted([*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                names = {alias.asname or alias.name.split(".")[0] for alias in node.names}
                unused += [f"{path.parent.name}/{path.name}:{node.lineno} {n}" for n in sorted(names - used)]
    assert unused == []


LAZY = ("codes", "oracle", "acceptance", "svgplot")
# run in a fresh interpreter: unexecuted() lists the lazy modules whose body has not run
PROBE = f"""
import contextlib, io, sys, types
import relbound.cli
def unexecuted():
    return [n for n in {LAZY!r} if type(sys.modules["relbound." + n]) is not types.ModuleType]
"""


def _probe(code, head=PROBE):
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", head + code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_leaves_out_fractions_and_decimal(tmp_path):
    # fractions also imports decimal; no relbound module needs exact
    # rationals, so no command should pay for importing them.
    # The lazy modules are in sys.modules, unexecuted, from import on, not
    # imported inside the functions that use them: the benchmark's tracer
    # rebinds functions only in modules it finds there when it starts.
    # bounds runs none of them, and plot only svgplot.
    svg = str(tmp_path / "curves.svg")
    assert _probe(f"""
print(sorted({{'fractions', 'decimal'}} & set(sys.modules)))
print(unexecuted())
with contextlib.redirect_stdout(io.StringIO()):
    relbound.cli.main(["bounds", "--points", "3"])
print(unexecuted())
relbound.cli.main(["plot", "--points", "3", "--out", {svg!r}])
print(unexecuted())
""") == ["[]", str(list(LAZY)), str(list(LAZY)), str([n for n in LAZY if n != "svgplot"])]


def test_commands_that_draw_no_random_numbers_leave_numpy_random_unimported(tmp_path):
    # numpy.random imports secrets, hmac and _hashlib, about 10 ms a process; only
    # a search's random start rows, Monte Carlo and random codes need it, and a
    # witnessed oracle problem is certified without a search
    svg = str(tmp_path / "curves.svg")
    assert _probe(f"""
print("numpy.random" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    relbound.cli.main(["bounds", "--bounds", "all", "--points", "3"])
    relbound.cli.main(["plot", "--points", "3", "--out", {svg!r}])
    relbound.cli.main(["oracle", "--q", "5", "--eps", "0.1", "--rho", "6", "--n", "2"])
print("numpy.random" in sys.modules)
# the probe sees the import where a search does draw start rows
with contextlib.redirect_stdout(io.StringIO()):
    relbound.cli.main(["oracle", "--q", "7", "--eps", "0.1", "--rho", "5", "--restarts", "2"])
print("numpy.random" in sys.modules)
""") == ["False", "False", "True"]


@pytest.mark.parametrize("argv, unexecuted", [
    (["simulate", "--code", "coset:4:2:1", "--trials", "100"], ["oracle", "acceptance", "svgplot"]),
    (["oracle", "--rho", "2"], ["acceptance", "svgplot"]),
])
def test_a_command_runs_only_the_lazy_modules_it_needs(argv, unexecuted):
    assert _probe(f"""
with contextlib.redirect_stdout(io.StringIO()):
    relbound.cli.main({argv!r})
print(unexecuted())
""") == [str(unexecuted)]


def test_the_cli_builds_one_parser_per_command_once_per_process():
    # building the parser costs about 1 ms a call: import builds none, and
    # repeated calls of one command build its own parser once
    assert _probe("""
print(built)
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        relbound.cli.main(["bounds", "--points", "3"])
print(built)
""", head="""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import relbound.cli
""") == ["[]", "['relbound bounds']"]


# what `import relbound` offered before codes and oracle became lazy modules
PUBLIC = [
    "Channel", "Code", "CycleConstants", "LP2Point", "OracleResult", "ParametricPoint",
    "SpectrumBoundPoint", "StraightLine", "ZeroErrorCapacity", "bhattacharyya",
    "binary_reduction_bound", "bsc_expurgated_exponent", "build_coset_code", "build_q5_code",
    "capacity", "channel", "classical", "codes", "coset_spectrum_check", "critical_rate",
    "cycle_constants", "delta_lp2", "delta_lp2_point", "eigenvalues_g1", "entropy_h",
    "entropy_h_inv", "envelope", "eps_bar", "eps_rho", "exact_pe", "exact_word_errors",
    "expurgated_exponent", "expurgated_is_exact", "expurgated_junction_rate",
    "expurgated_parametric_point", "gv_delta", "junction_rate_even", "junction_rate_q5",
    "lower_bound_even", "lower_bound_q5", "lower_bounds", "lp1_rate", "make_code", "mc_pe",
    "min_distance_bound", "minimize_q", "oracle", "pentagon_code", "random_coding_exponent",
    "random_coset_code", "random_linear_code", "random_q5_code", "rho_bar", "solvers",
    "spectrum", "spectrum_half_bound", "spectrum_half_point", "sphere_packing_exponent",
    "straight_line_bound", "theta_cycle", "union_bound_pe", "upper_bounds",
    "zero_error_capacity",
]


def test_package_keeps_its_public_names():
    import relbound

    for name in ("codes", "oracle"):
        assert vars(relbound)[name] is sys.modules[f"relbound.{name}"]
    listed = set(dir(relbound))
    for name in PUBLIC:
        value = getattr(relbound, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"relbound.{name}"], name
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
        assert name in listed, name
    namespace = {}
    exec("from relbound import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


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
