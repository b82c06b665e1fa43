"""Tests of the benchmark's own logic: self time, output checks, failure counting.

    python3 -m pytest bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (also puts the package sources on sys.path)
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf", record=False)
    inner = tracer.wrap(lambda: None, "inner")
    middle = tracer.wrap(lambda: leaf(), "middle")

    def body():
        inner()  # 1..3
        middle()  # 4..8, with leaf at 5..6

    tracer.wrap(body, "outer")()  # 0..10
    stats = tracer.stats()
    assert {n: (s.calls, s.total, s.self_s) for n, s in stats.items()} == {
        "outer": (1, 10.0, 4.0),
        "inner": (1, 2.0, 2.0),
        "middle": (1, 4.0, 3.0),
        "leaf": (1, 1.0, 1.0),
    }
    ids = {name: (span_id, parent) for span_id, name, _, _, parent in tracer.spans}
    assert "leaf" not in ids  # aggregated calls leave no span
    assert ids["inner"][1] == ids["outer"][0]
    assert ids["middle"][1] == ids["outer"][0]
    assert ids["outer"][1] is None


def test_eval_counting_and_flat_metrics():
    tracer = spans.Tracer()
    solve = tracer.wrap(lambda f, lo, hi: f(lo) + f(hi), "solvers.bisect_root", record=False,
                        count_evals=True)
    solve(lambda x: x, 0.0, 1.0)
    flat = spans.flat_metrics(tracer.stats())
    assert flat["solvers.bisect_root.calls"] == 1
    assert flat["solvers.bisect_root.evals"] == 2


def _curves_report(tmp_path):
    reference = workloads.load_reference()
    op = workloads.curves_op(4, 0.01, 2, ["random_coding", "sphere_packing"], tmp_path)
    return op, reference, {"results": worker.run_ops([op["argv"]])}


def test_reference_curves_pass_unperturbed(tmp_path):
    op, reference, report = _curves_report(tmp_path)
    log = []
    assert run.count_failures([op], report, reference, log) == 0, log


def test_perturbed_curve_value_is_a_failed_op(tmp_path):
    from relbound.curves import format_value

    op, reference, report = _curves_report(tmp_path)
    path = Path(op["out"])
    rows = path.read_text().splitlines()
    # rows: header, then 200 rows per curve; perturb random_coding at a reference rate
    row = 1 + reference["ref_index"][5] + op["shift"]
    cells = rows[row].split(",")
    assert cells[1] == "random_coding"
    cells[2] = format_value(float(cells[2]) + 1e-5)
    rows[row] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    log = []
    assert run.count_failures([op], report, reference, log) == 1
    assert "random_coding at R=" in log[0]["problems"][0]


def test_failed_verify_criterion_is_a_failed_op(monkeypatch):
    from relbound import acceptance

    ops = [op for op in workloads.verify_plan(seed=3) if op["criterion"] == "theta"]
    assert run.count_failures(ops, {"results": worker.run_ops([ops[0]["argv"]])}, None, []) == 0

    def failing(seed=0):
        rec = acceptance._Recorder()
        rec.require("forced failure", False)
        return rec

    criteria = [(name, desc, failing if name == "theta" else check)
                for name, desc, check in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    report = {"results": worker.run_ops([ops[0]["argv"]])}
    assert report["results"][0]["rc"] == 1
    log = []
    assert run.count_failures(ops, report, None, log) == 1
    assert log[0]["problems"][0].startswith("exit code 1")


SIM_OK = """code: q=4 n=6 M=512
union bound on avg error: 0.25
exact avg ML error: 0.05
exact max ML error: 0.07
monte carlo avg error: 0.0502 (95% interval [0.047, 0.053], 20000 trials)
coset spectrum relation A_z = 2^z B_z: holds
"""


@pytest.mark.parametrize("edit, problem", [
    (None, None),
    (("union bound on avg error: 0.25", "union bound on avg error: 0.04"), "exceeds union bound"),
    (("exact max ML error: 0.07", "exact max ML error: 0.04"), "below exact avg"),
    (("monte carlo avg error: 0.0502", "monte carlo avg error: 0.06"), "sigma from exact"),
    (("holds", "FAILS"), "coset spectrum relation"),
])
def test_simulate_checks(edit, problem):
    text = SIM_OK if edit is None else SIM_OK.replace(*edit)
    op = {"kind": "simulate", "argv": [], "trials": 20000, "coset": True, "zero_error": False}
    problems = workloads.check_op(op, {"rc": 0, "stdout": text, "stderr": ""})
    if problem is None:
        assert problems == []
    else:
        assert len(problems) == 1 and problem in problems[0]


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, *run.layer_unit(name)) for name in run.PER_LAYER
    ]


def test_speed_scaling_removes_sampling_time_and_rescales():
    sampler = worker.SpeedSampler()
    sampler.loops = [0.004, 2 * worker.REFERENCE_LOOP_S]
    sampler.spent = 0.004 + 2 * worker.REFERENCE_LOOP_S
    mark = (1, 0.004)
    # one sample inside the call, at half the reference speed
    assert sampler.scaled(1.0 + 2 * worker.REFERENCE_LOOP_S, mark) == pytest.approx(0.5)
    # a call with no sample of its own uses the latest one
    assert sampler.scaled(0.01, sampler.mark()) == pytest.approx(0.005)
