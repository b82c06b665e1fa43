"""relbound benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload curves|verify|simulate --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every pass of the workload runs
in a fresh worker process (bench/worker.py) that imports relbound from
src/ and calls relbound.cli.main with the argv a user would type, so
imports and cold caches cost what a CLI user pays.

--trace 0 repeats the pass until S seconds have gone (at least once) and
reports setup_s, wall_s and peak_rss_mb. wall_s is the sum over the
pass's ops of each op's median time across passes. setup_s is the
median over the passes and SETUP_PROBES import-only workers. Both are
scaled to the reference CPU speed (see worker.SpeedSampler), because a
shared host's speed drifts by more than any bound over minutes; the
results file also keeps the unscaled times.

--trace 1 runs one plain and one traced pass, neither speed-sampled,
and reports the per-layer metrics of the traced pass plus the tracing
overhead. Every op's output is checked after its pass; a wrong answer
counts in ops_failed. The last stdout line is the JSON result; a results
file with a run manifest goes to .bench_work/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

WORKLOADS = ("curves", "verify", "simulate")
WORKDIR = ROOT / ".bench_work"
# Set-up time is sampled by this many extra workers that only import,
# on top of one sample per pass.
SETUP_PROBES = 5
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
ENV_VARS = ("RELBOUND_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

BOUND_NAMES = [
    "random_coding", "sphere_packing", "expurgated", "coset_even", "coset_q5",
    "binary_reduction", "min_distance", "spectrum_half", "straight_line_theta",
    "straight_line_lp2", "envelope_lower", "envelope_upper",
]
PER_LAYER = (
    [f"curves.{b}.ms_per_point" for b in BOUND_NAMES]
    + ["curves.curves_to_csv.s", "cli.main.self_s"]
    + [
        "upper_bounds.delta_lp2.calls", "upper_bounds.delta_lp2.s",
        "upper_bounds.envelope.calls", "upper_bounds.envelope.s",
        "upper_bounds.spectrum_half_point.calls", "upper_bounds.spectrum_half_point.s",
        "upper_bounds.min_distance_bound.s", "upper_bounds.straight_line_bound.calls",
        "solvers.bisect_root.calls", "solvers.bisect_root.evals", "solvers.bisect_root.self_s",
        "solvers.golden_min.calls", "solvers.golden_min.evals", "solvers.golden_min.self_s",
        "channel.entropy_h_inv.calls", "channel.entropy_h_inv.s",
    ]
    + [
        f"classical.{b}_exponent.{m}"
        for b in ("random_coding", "sphere_packing", "expurgated")
        for m in ("calls", "s")
    ]
    + [
        "lower_bounds.lower_bound_even.s", "lower_bounds.lower_bound_q5.s",
        "codes.make_code.calls", "codes.make_code.s", "codes.build_coset_code.s",
        "codes.random_linear_code.s", "codes.q5_weight_census.s",
        "lower_bounds.coset_spectrum_check.calls", "lower_bounds.coset_spectrum_check.s",
        "codes.spectrum.calls", "codes.spectrum.s", "codes.union_bound_pe.s",
        "codes.exact_pe.calls", "codes.exact_pe.s",
        "codes.mc_pe.s", "codes.mc_pe.trials_per_s", "codes.mc_pe.peak_alloc_mb",
        "oracle.minimize_q.calls", "oracle.minimize_q.s", "oracle.minimize_q.unconverged",
    ]
    + [f"acceptance.{c}.s" for c in workloads.CRITERIA]
    + ["trace.overhead_s", "trace.wall_s", "trace.untraced_wall_s"]
)


def layer_unit(name):
    """Unit (and better direction) of a per-layer metric, from its suffix."""
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("calls", "evals", "unconverged"):
        return "count", "lower"
    if suffix == "ms_per_point":
        return "ms", "lower"
    if suffix == "trials_per_s":
        return "1/s", "higher"
    if suffix == "peak_alloc_mb":
        return "MB", "lower"
    return "s", "lower"


class BenchError(RuntimeError):
    pass


def spawn(ops, deadline, trace=False, sample_speed=False, spans_out=None):
    """One fresh worker running `ops` back to back; returns its report."""
    request = {"src": str(ROOT / "src"), "ops": [op["argv"] for op in ops], "trace": trace,
               "sample_speed": sample_speed, "spans_out": spans_out}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")], input=json.dumps(request),
            capture_output=True, text=True, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def pass_seconds(report):
    return sum(r["seconds"] for r in report["results"])


def count_failures(ops, report, reference, log):
    failed = 0
    for op, res in zip(ops, report["results"]):
        problems = workloads.check_op(op, res, reference)
        if problems:
            failed += 1
            log.append({"argv": op["argv"], "problems": problems[:5]})
    return failed


def wall_estimate(reports, key):
    """Sum over the pass's ops of each op's median time across passes."""
    per_op = zip(*[[r[key] for r in rep["results"]] for rep in reports])
    return sum(statistics.median(times) for times in per_op)


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, seed, seconds, trace, numpy_version, ops):
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "argv": [op["argv"] for op in ops],
    }


def run(workload, seed, seconds, trace):
    """Run one workload; returns the results record (manifest, metrics, counts)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # relative to the checkout root, where workers run
    workdir = WORKDIR.relative_to(ROOT) / f"{workload}-seed{seed}"
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    reference = workloads.load_reference() if workload == "curves" else None
    ops = workloads.plan(workload, seed, workdir, reference)
    failures = []
    attempted = failed = 0

    def one_pass(**options):
        nonlocal attempted, failed
        report = spawn(ops, deadline, **options)
        attempted += len(ops)
        failed += count_failures(ops, report, reference, failures)
        return report

    if trace:
        plain = one_pass()
        spans_out = str(workdir / "spans.json")
        traced = one_pass(trace=True, spans_out=spans_out)
        flat = traced["layers"]
        flat["trace.wall_s"] = pass_seconds(traced)
        flat["trace.untraced_wall_s"] = pass_seconds(plain)
        flat["trace.overhead_s"] = flat["trace.wall_s"] - flat["trace.untraced_wall_s"]
        metrics = {name: {"value": flat.get(name, 0), "unit": layer_unit(name)[0]} for name in PER_LAYER}
        reports = [plain, traced]
        extra = {"spans_file": spans_out}
    else:
        probes = [spawn([], deadline, sample_speed=True) for _ in range(SETUP_PROBES)]
        reports = []
        window_start = time.monotonic()
        while not reports or time.monotonic() - window_start < seconds:
            if reports and time.monotonic() + pass_seconds(reports[-1]) * 1.5 > deadline:
                break
            reports.append(one_pass(sample_speed=True))
        workers = probes + reports
        values = {
            "setup_s": statistics.median(w["scaled_setup_s"] for w in workers),
            "wall_s": wall_estimate(reports, "scaled_s"),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reports),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        extra = {
            "passes": len(reports),
            "unscaled": {
                "setup_s": statistics.median(w["setup_s"] for w in workers),
                "wall_s": wall_estimate(reports, "seconds"),
            },
            "setup_samples_s": [w["scaled_setup_s"] for w in workers],
            "op_seconds": [[r["scaled_s"] for r in rep["results"]] for rep in reports],
            "unscaled_op_seconds": [[r["seconds"] for r in rep["results"]] for rep in reports],
        }
    return {
        "manifest": manifest(workload, seed, seconds, trace, reports[0]["numpy"], ops),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "elapsed_s": time.monotonic() - started,
        **extra,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "relbound" / "__init__.py").is_file():
        print(f"error: no relbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = WORKDIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in record["failures"][:10]:
        print("FAILED", " ".join(problem["argv"]), "--", "; ".join(problem["problems"]), file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"ops {record['attempted']} ops_failed {record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
