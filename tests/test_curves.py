import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relbound import upper_bounds
from relbound.channel import Channel, capacity, cycle_constants
from relbound.curves import (
    BOUNDS,
    MAX_GRID_POINTS,
    BoundCurve,
    applicable_bounds,
    csv_to_curves,
    curves_to_csv,
    evaluate_curves,
    rate_grid,
    resolve_selection,
)
from relbound.svgplot import render_svg

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


def test_applicable_bounds_casts():
    # six curves for the even-q small-crossover channel
    assert applicable_bounds(Channel(4, 0.01)) == [
        "random_coding",
        "sphere_packing",
        "expurgated",
        "coset_even",
        "binary_reduction",
        "straight_line_lp2",
    ]
    names = applicable_bounds(Channel(5, 0.5))
    assert "spectrum_half" in names and "min_distance" in names
    assert "coset_even" not in names and "straight_line_lp2" not in names


def test_resolve_selection_refuses_inapplicable():
    ch = Channel(4, 0.3)
    with pytest.raises(ValueError, match="odd q"):
        resolve_selection(ch, "min_distance")
    with pytest.raises(ValueError, match="eps = 1/2"):
        resolve_selection(Channel(5, 0.3), "spectrum_half")
    with pytest.raises(ValueError, match="unknown bound"):
        resolve_selection(ch, "nonsense")
    assert resolve_selection(ch, "random_coding, sphere_packing") == [
        "random_coding",
        "sphere_packing",
    ]


def test_rate_grid_validation():
    with pytest.raises(ValueError):
        rate_grid(0.5, 0.4, 10)
    with pytest.raises(ValueError):
        rate_grid(0.1, 0.9, 1)
    with pytest.raises(ValueError, match="grid points"):
        rate_grid(0.1, 0.9, MAX_GRID_POINTS + 1)
    assert len(rate_grid(0.1, 0.9, 2)) == 2
    assert len(rate_grid(0.1, 0.9, MAX_GRID_POINTS)) == MAX_GRID_POINTS


def test_curve_monotonicity_and_infinities():
    ch = Channel(4, 0.01)
    grid = rate_grid(0.05, capacity(ch), 60)
    curves = evaluate_curves(ch, applicable_bounds(ch), grid)
    by_name = {c.name: c for c in curves}
    # exponent curves are non-increasing where finite
    for c in curves:
        finite = [(r, v) for r, v in c.points if v != math.inf]
        assert all(b[1] <= a[1] + 1e-9 for a, b in zip(finite, finite[1:])), c.name
    assert by_name["sphere_packing"].points[0][1] == math.inf
    assert by_name["expurgated"].points[0][1] == math.inf
    assert dict(by_name["expurgated"].params)["exact"] == "true"


def test_bound_curve_rejects_unsorted_rates():
    ch = Channel(4, 0.1)
    with pytest.raises(ValueError):
        BoundCurve("x", ((0.5, 1.0), (0.5, 0.9)), ch)


def test_csv_roundtrip_exact():
    ch = Channel(5, 0.5)
    grid = rate_grid(0.3, capacity(ch), 17)
    curves = evaluate_curves(ch, applicable_bounds(ch), grid)
    text = curves_to_csv(curves)
    assert text.splitlines()[0] == "R,bound,value,q,epsilon,params"
    back = csv_to_curves(text)
    assert back == curves
    # and a second emission is byte-identical
    assert curves_to_csv(back) == text


def test_csv_infinity_token():
    ch = Channel(4, 0.1)
    curves = evaluate_curves(ch, ["sphere_packing"], rate_grid(0.2, 1.5, 4))
    text = curves_to_csv(curves)
    assert ",inf," in text
    assert csv_to_curves(text)[0].points[0][1] == math.inf


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        csv_to_curves("rate,name\n0.1,x\n")


def test_two_point_grid():
    ch = Channel(4, 0.1)
    curves = evaluate_curves(ch, ["random_coding"], rate_grid(0.5, 1.0, 2))
    assert len(curves[0].points) == 2


@pytest.mark.parametrize("q,eps", [(4, 0.01), (5, 0.01), (6, 0.1), (7, 0.1)])
def test_envelopes_are_max_min_of_component_curves(q, eps):
    ch = Channel(q, eps)
    shift = math.log2(q / 2)
    # log2(q/2) itself is on the grid: there the coset and binary-reduction
    # curves read inf from outside their domains and the envelopes skip them
    grid = np.unique(np.append(rate_grid(0.02, capacity(ch), 40), shift))
    names = applicable_bounds(ch) + ["envelope_lower", "envelope_upper"]
    curves = {c.name: np.array(c.values) for c in evaluate_curves(ch, names, grid)}
    lower = [curves["random_coding"]]
    if q % 2 == 0 or q == 5:  # where the expurgated bound is exact
        lower.append(curves["expurgated"])
    if q % 2 == 0:
        lower.append(np.where(grid > shift, curves["coset_even"], -math.inf))
    if q == 5:
        lower.append(np.where(grid >= 0.5 * math.log2(5.0), curves["coset_q5"], -math.inf))
    uppers = ["sphere_packing", "binary_reduction"]
    if q % 2 == 1:
        uppers += ["min_distance", "straight_line_theta", "straight_line_lp2"]
    upper = [curves[n] for n in uppers if n in curves]
    assert np.array_equal(curves["envelope_lower"], np.max(lower, axis=0))
    assert np.array_equal(curves["envelope_upper"], np.min(upper, axis=0))
    if q % 2 == 0:
        i = int(np.flatnonzero(grid == shift)[0])
        assert curves["coset_even"][i] == math.inf
        assert curves["envelope_lower"][i] == curves["expurgated"][i] < math.inf
    if q == 7:
        # the expurgated curve only bounds itself here, and the envelope skips it
        assert np.any(curves["envelope_lower"] < curves["expurgated"])


def test_evaluate_curves_computes_each_curve_once(monkeypatch):
    calls = []
    real = upper_bounds.delta_lp2
    monkeypatch.setattr(upper_bounds, "delta_lp2", lambda r: calls.append(np.size(r)) or real(r))
    ch = Channel(5, 0.01)
    grid = rate_grid(0.1, capacity(ch), 30)
    evaluate_curves(ch, ["envelope_lower"], grid)
    assert calls == []  # the lower envelope evaluates no converse
    evaluate_curves(ch, ["binary_reduction", "envelope_lower", "envelope_upper"], grid)
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [0.5, 0.1])
@pytest.mark.parametrize("q", range(4, 10))
def test_bounds_at_capacity(q, eps):
    # E(C) = 0; at q = 5, eps = 1/2 capacity rounds an ulp below log2(q/2),
    # which made sphere packing read inf and the slope -1 lines 2.2e-16
    ch = Channel(q, eps)
    cap = np.array([capacity(ch)])
    for name in applicable_bounds(ch):
        spec = BOUNDS[name]
        if spec.evaluate is None or not spec.domain(ch, cap)[0]:
            continue
        value = spec.evaluate(ch, cap)[0]
        if name == "expurgated":
            # its line may already be below zero; it meets zero at C for eps = 1/2
            assert value == 0.0 if eps == 0.5 else value < 0.0
        elif spec.kind == "lower":
            assert value == 0.0, name
    assert BOUNDS["sphere_packing"].evaluate(ch, cap)[0] == 0.0
    assert upper_bounds.envelope(ch, cap, "lower")[0] == 0.0
    assert upper_bounds.envelope(ch, cap, "upper")[0] == 0.0


@st.composite
def channels_and_grids(draw):
    q = draw(st.integers(min_value=4, max_value=9))
    eps = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    ch = Channel(q, eps)
    fractions = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=2, max_size=12)
    )
    grid = np.unique(capacity(ch) * np.array(fractions))
    assume(len(grid) >= 2)
    return ch, grid


@PROPERTY
@given(channels_and_grids())
def test_registry_bounds_give_a_float_the_bits_it_gets_inside_an_array(case):
    ch, grid = case
    c = capacity(ch)
    ends = np.array([math.log2(ch.q / 2), math.log2(cycle_constants(ch).theta), c])
    rates = np.unique(np.concatenate([grid[:4], ends[(ends > 0.0) & (ends <= c)]]))
    for name in applicable_bounds(ch):
        spec = BOUNDS[name]
        inside = rates[spec.domain(ch, rates)]
        if inside.size == 0:
            continue
        together = spec.evaluate(ch, inside)
        alone = np.array([spec.evaluate(ch, float(r)) for r in inside])
        assert alone.view(np.int64).tolist() == together.view(np.int64).tolist(), name


@PROPERTY
@given(channels_and_grids())
def test_envelope_order_on_generated_channels(case):
    ch, grid = case
    curves = evaluate_curves(ch, ["envelope_lower", "envelope_upper"], grid)
    lo, up = (np.array(c.values) for c in curves)
    both = np.isfinite(lo) & np.isfinite(up)
    # slack: near R = C with eps near 1/2 both envelopes are differences of
    # O(1) terms, and the straight lines carry their tangency residual (< 1e-13)
    assert np.all(lo[both] <= up[both] + 1e-13)


@PROPERTY
@given(channels_and_grids())
def test_converse_curves_nonincreasing_on_generated_channels(case):
    # every applicable curve, lower and upper, envelopes included, on its finite entries
    ch, grid = case
    names = applicable_bounds(ch) + ["envelope_lower", "envelope_upper"]
    for c in evaluate_curves(ch, names, grid):
        v = np.array(c.values)
        v = v[np.isfinite(v)]
        assert np.all(v[1:] <= v[:-1] + 1e-9), c.name


@PROPERTY
@given(channels_and_grids(), st.data())
def test_csv_round_trip_on_generated_curves(case, data):
    ch, grid = case
    names = applicable_bounds(ch) + ["envelope_lower", "envelope_upper"]
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    curves = evaluate_curves(ch, chosen, grid)
    text = curves_to_csv(curves)
    back = csv_to_curves(text)
    assert [c.name for c in back] == chosen
    assert all(b.channel == ch for b in back)
    # exact floats, inf included
    assert [b.points for b in back] == [c.points for c in curves]
    assert back == curves
    assert curves_to_csv(back) == text


def test_svg_render_smoke():
    ch = Channel(5, 0.5)
    grid = rate_grid(0.3, capacity(ch), 25)
    curves = evaluate_curves(ch, applicable_bounds(ch), grid)
    svg = render_svg(curves)
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    assert svg.count("<polyline") >= len(curves) - 2
    # infinite sphere-packing values get a dashed asymptote marker
    assert "stroke-dasharray" in svg


def test_svg_ceiling_clips():
    ch = Channel(5, 0.01)
    grid = rate_grid(1.2, capacity(ch), 12)
    curves = evaluate_curves(ch, ["min_distance"], grid)
    svg = render_svg(curves, ceiling=1.0)
    ET.fromstring(svg)
    assert "nan" not in svg
