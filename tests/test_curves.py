import csv
import io
import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from relbound.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, render_svg

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


def _strictly_increasing(rates):
    """The per-point check BoundCurve made before it compared rates in C."""
    return not any(b <= a for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize(
    "rates, accepted",
    [((0.1, 0.2, 0.3), True), ((), True), ((0.4,), True),
     # equal rates, anywhere
     ((0.1, 0.2, 0.2), False), ((-0.0, 0.0), False),
     # falling rates
     ((0.1, 0.3, 0.2), False), ((0.3, 0.2), False),
     # nan compares false both ways, so it is never refused, alone or next
     # to a fall that it hides; a fall elsewhere still is
     ((0.1, math.nan, 0.05), True), ((math.nan, math.nan), True), ((0.2, math.nan, 0.3, 0.1), False)],
)
def test_bound_curve_refuses_equal_and_falling_rates_as_the_per_point_check_did(rates, accepted):
    ch = Channel(4, 0.1)
    assert _strictly_increasing(rates) == accepted
    points = tuple((r, 1.0) for r in rates)
    if accepted:
        assert BoundCurve("x", points, ch).rates == list(rates)
    else:
        with pytest.raises(ValueError, match="rates must be strictly increasing in curve x"):
            BoundCurve("x", points, ch)


_HEADER = "R,bound,value,q,epsilon,params\n"


def test_csv_merges_the_interleaved_runs_of_one_curve():
    text = _HEADER + (
        "0.1,a,1,4,0.1,\n0.2,a,0.5,4,0.1,\n"
        "0.1,b,2,4,0.1,k=1\n\n"
        # a again, with its eps spelled otherwise; then b and a third curve
        "0.3,a,0.25,4,0.10,\n0.2,b,1,4,0.1,k=1\n0.1,a,9,5,0.1,\n"
    )
    got = csv_to_curves(text)
    assert [(c.name, c.channel.q, c.params, c.points) for c in got] == [
        ("a", 4, (), ((0.1, 1.0), (0.2, 0.5), (0.3, 0.25))),
        ("b", 4, (("k", "1"),), ((0.1, 2.0), (0.2, 1.0))),
        ("a", 5, (), ((0.1, 9.0),)),
    ]


def test_csv_refuses_a_wrong_column_count_by_its_row_number():
    # the blank line is row 3, so the short row is row 5
    text = _HEADER + "0.1,a,1,4,0.1,\n\n0.2,a,0.5,4,0.1,\n0.3,a,0.25,4,0.1\n0.4,a,0.1,4,0.1,\n"
    with pytest.raises(ValueError, match="^row 5: expected 6 columns, got 5$"):
        csv_to_curves(text)


def test_csv_refuses_a_bad_float_and_reports_the_first_bad_row():
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        csv_to_curves(_HEADER + "0.1,a,1,4,0.1,\n0.2,a,x,4,0.1,\n0.3,a,y,4,0.1,\n")
    # a bad cell before a row of the wrong width is the one reported,
    # and one after it is not
    with pytest.raises(ValueError, match="could not convert string to float: '0.2z'"):
        csv_to_curves(_HEADER + "0.1,a,1,4,0.1,\n0.2z,a,1,4,0.1,\n0.3,a,1,4\n")
    with pytest.raises(ValueError, match="^row 3: expected 6 columns, got 4$"):
        csv_to_curves(_HEADER + "0.1,a,1,4,0.1,\n0.3,a,1,4\n0.2z,a,1,4,0.1,\n")


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


def reference_curves_to_csv(curves):
    """The row-at-a-time writer: one csv.writer row per point, inf spelled by its own branch."""

    def format_value(x):
        if x == math.inf:
            return "inf"
        return f"{x:.17g}"

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["R", "bound", "value", "q", "epsilon", "params"])
    for c in curves:
        params = ";".join(f"{k}={v}" for k, v in c.params)
        for r, v in c.points:
            w.writerow(
                [format_value(r), c.name, format_value(v), c.channel.q,
                 format_value(c.channel.epsilon), params]
            )
    return buf.getvalue()


# every character csv quotes, a str.format template would read or XML escapes, and "" alone
CSV_TEXT = st.one_of(st.just(""), st.text(st.sampled_from('ab ,"{};=\n\r<&'), max_size=6))
CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1e308, -1e308]),
    st.floats(),
)


@st.composite
def csv_curve_lists(draw):
    """Curves with quoting-prone names and params, several to a grid, any float values."""
    grids = draw(st.lists(
        st.lists(st.floats(allow_nan=False), unique=True, max_size=6).map(sorted), min_size=1, max_size=3,
    ))
    curves = []
    for _ in range(draw(st.integers(0, 5))):
        rates = draw(st.sampled_from(grids))
        values = draw(st.lists(CSV_VALUES, min_size=len(rates), max_size=len(rates)))
        ch = Channel(draw(st.integers(4, 12)), draw(st.floats(0.0, 0.5, exclude_min=True)))
        params = tuple(draw(st.lists(st.tuples(CSV_TEXT, CSV_TEXT), max_size=3)))
        curves.append(BoundCurve(draw(CSV_TEXT), tuple(zip(rates, values)), ch, params))
    return curves


_CH = Channel(5, 0.1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(csv_curve_lists())
@example([])
# csv writes a row of one empty field as "", but an empty field in a longer row bare
@example([BoundCurve("", ((0.5, 1.0), (0.75, -0.0)), _CH)])
@example([BoundCurve("x", (), _CH), BoundCurve("y", ((1.0, math.nan),), _CH, (("k", "{0}"),))])
# 0.0 == -0.0, so equal-looking grids must not share their R cells
@example([BoundCurve("a", ((0.0, 1.0), (1.0, 2.0)), _CH), BoundCurve("b", ((-0.0, 1.0), (1.0, 2.0)), _CH)])
def test_csv_writer_matches_the_row_writer(curves):
    assert curves_to_csv(curves) == reference_curves_to_csv(curves)


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
    # envelope folds the rates it is given, with no clamp to C: past C both folds still read +0
    for r in (math.nextafter(cap[0], math.inf), cap[0] + 1e-12):
        folds = upper_bounds.envelope(ch, r)
        assert folds == (0.0, 0.0) and not np.any(np.signbit(folds)), r


@pytest.mark.parametrize("q", [4, 5, 6])
def test_upper_curves_read_inf_where_the_exponent_is_infinite(q):
    # for even q the code {0, 2, ..., q-2}^n has rate log2(q/2) and no errors;
    # for q = 5 the pentagon's powers have rate log2(sqrt 5), the theta line's anchor
    ch = Channel(q, 0.01)
    rate = math.log2(q / 2) if q % 2 == 0 else upper_bounds.theta_anchored_line(ch).r1
    names = [n for n, spec in BOUNDS.items() if spec.kind == "upper" and spec.applies(ch)]
    assert "envelope_upper" in names and len(names) >= 4
    for curve in evaluate_curves(ch, names, np.array([rate])):
        assert curve.values == [math.inf], curve.name


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


def _drawn_points(svg):
    """(x, y) of every polyline point and circle centre of an SVG, which must be well-formed."""
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    points = [p.split(",") for line in root.iter(ns + "polyline") for p in line.get("points").split()]
    points += [(dot.get("cx"), dot.get("cy")) for dot in root.iter(ns + "circle")]
    return [(float(x), float(y)) for x, y in points]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(csv_curve_lists())
@example([BoundCurve("a<b&c", ((0.0, math.inf), (0.5, -math.inf), (1.0, math.nan), (1.5, -0.2)), _CH)])
@example([BoundCurve("x", ((0.5, 1.0),), _CH), BoundCurve("y", ((0.5, 2.0),), _CH)])
# ticks must stop on a span of one ulp, whose tick step moves no float, and on ends
# where the bound of the tick loop overflows to inf
@example([BoundCurve("x", ((1.0, 1.0), (math.nextafter(1.0, 2.0), 0.5)), _CH)])
@example([BoundCurve("x", ((1e308, 1.0), (sys.float_info.max, sys.float_info.max)), _CH)])
def test_svg_draws_any_curves_inside_the_plot_area(curves):
    rates = [r for c in curves for r, _ in c.points]
    drawable = [v for c in curves for _, v in c.points if v < math.inf]
    if not drawable or not 0.0 < max(rates) - min(rates) < math.inf:
        with pytest.raises(ValueError, match="^(nothing to plot|no finite values to plot|rates must span)"):
            render_svg(curves)
        return
    for x, y in _drawn_points(render_svg(curves)):
        # a nan or inf coordinate fails these comparisons too
        assert MARGIN_L <= x <= WIDTH - MARGIN_R and MARGIN_T <= y <= HEIGHT - MARGIN_B, (x, y)


def test_svg_draws_values_below_zero_on_the_axis():
    # the expurgated curve reaches -0.209 at C here, and values below 0 are drawn on the x axis
    ch = Channel(4, 0.1)
    curves = evaluate_curves(ch, ["expurgated"], rate_grid(0.1, capacity(ch), 50))
    assert curves[0].values[-1] < -0.2
    svg = render_svg(curves)
    assert max(y for _, y in _drawn_points(svg)) == HEIGHT - MARGIN_B
    assert ">expurgated</text>" in svg
    assert ">a&lt;b&amp;c</text>" in render_svg([BoundCurve("a<b&c", curves[0].points, ch)])
