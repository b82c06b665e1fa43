"""Runs every acceptance criterion at its stated tolerance, one test each, and checks what they report."""

import pytest

from relbound import codes as codes_mod
from relbound.acceptance import CRITERIA, check_simulator, run_checks


@pytest.mark.parametrize("name", [name for name, _, _ in CRITERIA])
def test_criterion(name):
    results = run_checks(only=name, seed=0)
    assert len(results) == 1
    res = results[0]
    for line in res.lines:
        print(line)
    failures = [line for line in res.lines if line.startswith("FAIL")]
    assert res.passed, "\n".join(failures)


@pytest.mark.parametrize("lift", [0.0, 1e-3])
def test_simulator_reports_the_smallest_union_slack(monkeypatch, lift):
    # lift > 0 raises every union bound above exact_pe, so the slack is positive
    real = codes_mod.union_bound_pe
    gaps = []

    def union_bound_pe(code, ch):
        value = real(code, ch) + lift * (len(gaps) + 1)
        gaps.append(value - codes_mod.exact_pe(code, ch)[0])
        return value

    monkeypatch.setattr(codes_mod, "union_bound_pe", union_bound_pe)
    (line,) = [line for line in check_simulator(0).lines if "union bound" in line]
    assert len(gaps) == 50 and (min(gaps) > 0.0) == (lift > 0.0)
    assert line.endswith(f": min slack {min(gaps):.3e}")
