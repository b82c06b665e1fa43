"""Named bound curves on rate grids, with CSV emission and parsing.

The CSV schema is one row per (curve, grid point):
R,bound,value,q,epsilon,params with 17 significant digits, inf spelled
"inf", and params as semicolon-joined key=value pairs. Parsing the
emitted text reproduces the curves exactly.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import INF, Channel, cycle_constants
from .classical import (
    expurgated_exponent,
    expurgated_is_exact,
    random_coding_exponent,
    sphere_packing_exponent,
)
from .lower_bounds import lower_bound_even, lower_bound_q5
from .upper_bounds import (
    LP2_ANCHOR_GATE,
    binary_reduction_bound,
    envelope,
    lp2_anchored_line,
    min_distance_bound,
    spectrum_half_bound,
    theta_anchored_line,
)


@dataclass(frozen=True)
class BoundCurve:
    """One named bound sampled on a strictly increasing rate grid."""

    name: str
    points: tuple
    channel: Channel
    params: tuple = ()

    def __post_init__(self):
        rates = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError(f"rates must be strictly increasing in curve {self.name}")

    @property
    def rates(self):
        return [p[0] for p in self.points]

    @property
    def values(self):
        return [p[1] for p in self.points]


def _always(ch):
    return True


def _whole_range(ch, rates):
    return np.ones(rates.shape, dtype=bool)


def _no_params(ch):
    return {}


class BoundSpec(NamedTuple):
    name: str
    kind: str  # "lower" or "upper"
    requires: str  # human-readable precondition
    applies: Callable  # Channel -> bool
    # (Channel, rates ndarray inside the domain) -> ndarray; None for the envelopes
    evaluate: Callable | None
    params: Callable  # Channel -> dict
    # (Channel, rates ndarray) -> bool ndarray: outside it the curve reads inf
    # and the envelope leaves it out
    domain: Callable = _whole_range
    # Channel -> bool, checked on top of `applies`: the envelope folds the curve in
    envelope_rule: Callable = _always

    def in_envelope(self, ch):
        """Whether upper_bounds.envelope folds this curve in on channel ch."""
        return self.evaluate is not None and self.applies(ch) and self.envelope_rule(ch)

    def curve(self, ch, rates):
        """The curve on a rate array: evaluated inside the domain, inf outside."""
        out = np.full(rates.shape, INF)
        inside = self.domain(ch, rates)
        out[inside] = self.evaluate(ch, rates[inside])
        return out


def _above_half_q(ch, rates):
    # zero-error communication exists at and below log2(q/2) for even q
    return rates > math.log2(ch.q / 2)


def _above_theta(ch, rates):
    return rates > math.log2(cycle_constants(ch).theta)


def _expurgated_params(ch):
    return {"exact": "true" if expurgated_is_exact(ch.q) else "false"}


def _line_params(line):
    return {"r1": format_value(line.r1), "r2": format_value(line.r2)}


# Every evaluator maps a rate array to a value array. Bounds that take other
# arguments are called through their module names, so wrappers put on those
# names (by tests or by tracing) see every call.
BOUNDS = {
    "random_coding": BoundSpec(
        "random_coding", "lower", "always applicable",
        _always, random_coding_exponent, _no_params,
    ),
    "sphere_packing": BoundSpec(
        "sphere_packing", "upper", "always applicable",
        _always, sphere_packing_exponent, _no_params,
    ),
    "expurgated": BoundSpec(
        "expurgated", "lower", "always applicable (upper bound on itself for odd q >= 7)",
        _always, expurgated_exponent, _expurgated_params,
        envelope_rule=lambda ch: expurgated_is_exact(ch.q),
    ),
    "coset_even": BoundSpec(
        "coset_even", "lower", "requires even q",
        lambda ch: ch.q % 2 == 0, lower_bound_even, _no_params,
        domain=_above_half_q,
    ),
    "coset_q5": BoundSpec(
        "coset_q5", "lower", "requires q = 5",
        lambda ch: ch.q == 5, lambda ch, r: lower_bound_q5(ch.epsilon, r), _no_params,
        domain=lambda ch, rates: rates >= 0.5 * math.log2(5.0),
    ),
    "binary_reduction": BoundSpec(
        "binary_reduction", "upper", "always applicable above log2(q/2)",
        _always, binary_reduction_bound, _no_params,
        domain=_above_half_q,
    ),
    "min_distance": BoundSpec(
        "min_distance", "upper", "requires odd q",
        lambda ch: ch.q % 2 == 1, min_distance_bound, _no_params,
        domain=_above_theta,
    ),
    "spectrum_half": BoundSpec(
        "spectrum_half", "upper", "requires odd q and eps = 1/2",
        lambda ch: ch.q % 2 == 1 and ch.epsilon == 0.5,
        lambda ch, r: spectrum_half_bound(ch.q, r), _no_params,
        domain=lambda ch, rates: _above_theta(ch, rates) & (rates < math.log2(ch.q) - 1.0),
    ),
    "straight_line_theta": BoundSpec(
        "straight_line_theta", "upper", "requires odd q",
        lambda ch: ch.q % 2 == 1,
        lambda ch, r: theta_anchored_line(ch).value(r),
        lambda ch: _line_params(theta_anchored_line(ch)),
    ),
    "straight_line_lp2": BoundSpec(
        "straight_line_lp2", "upper",
        f"requires eps < 1/2 - sqrt(3)/4 = {LP2_ANCHOR_GATE:.6f}",
        lambda ch: ch.epsilon < LP2_ANCHOR_GATE,
        lambda ch, r: lp2_anchored_line(ch).value(r),
        lambda ch: _line_params(lp2_anchored_line(ch)),
        envelope_rule=lambda ch: ch.q % 2 == 1,
    ),
    # folded from the curves above by upper_bounds.envelope
    "envelope_lower": BoundSpec(
        "envelope_lower", "lower", "always applicable", _always, None, _no_params,
    ),
    "envelope_upper": BoundSpec(
        "envelope_upper", "upper", "always applicable", _always, None, _no_params,
    ),
}

# "all" leaves the envelopes out; they duplicate the other curves
ALL_SELECTABLE = [n for n in BOUNDS if not n.startswith("envelope")]


def applicable_bounds(ch):
    return [n for n in ALL_SELECTABLE if BOUNDS[n].applies(ch)]


def resolve_selection(ch, selector):
    """Expand a --bounds selector, refusing inapplicable explicit picks."""
    if selector in ("all", "", None):
        return applicable_bounds(ch)
    names = [s.strip() for s in selector.split(",") if s.strip()]
    for n in names:
        if n not in BOUNDS:
            raise ValueError(f"unknown bound {n!r}; known: {', '.join(BOUNDS)}")
        spec = BOUNDS[n]
        if not spec.applies(ch):
            raise ValueError(
                f"bound {n!r} is not applicable to q={ch.q}, eps={ch.epsilon}: {spec.requires}"
            )
    return names


# grids are evaluated as whole arrays; this caps their size
MAX_GRID_POINTS = 100_000


def rate_grid(r_min, r_max, points):
    if not 2 <= points <= MAX_GRID_POINTS:
        raise ValueError(f"need 2 to {MAX_GRID_POINTS} grid points, got {points}")
    if not r_min < r_max:
        raise ValueError(f"need r_min < r_max, got {r_min} >= {r_max}")
    return np.linspace(r_min, r_max, points)


def evaluate_curve(ch, name, grid, values=None):
    """One registry curve on a rate grid.

    `values` maps curve names to arrays already evaluated on this grid;
    the curve is taken from it when present and added to it otherwise,
    and the envelopes reuse and add their component curves the same way.
    """
    spec = BOUNDS[name]
    rates = np.asarray(grid, dtype=float)
    values = {} if values is None else values
    if name not in values:
        if spec.evaluate is None:
            values[name] = envelope(ch, rates, spec.kind, values)
        else:
            values[name] = spec.curve(ch, rates)
    pts = tuple((float(r), float(v)) for r, v in zip(rates, values[name]))
    return BoundCurve(name=name, points=pts, channel=ch, params=tuple(sorted(spec.params(ch).items())))


def evaluate_curves(ch, names, grid):
    """The named curves on one grid; each curve, envelope components included, is computed once."""
    values = {}
    return [evaluate_curve(ch, n, grid, values) for n in names]


def format_value(x):
    if x == INF:
        return "inf"
    return f"{x:.17g}"


def _parse_value(s):
    return INF if s == "inf" else float(s)


def curves_to_csv(curves):
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


def csv_to_curves(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["R", "bound", "value", "q", "epsilon", "params"]:
        raise ValueError("missing or malformed CSV header")
    order = []
    grouped = {}
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"row {i}: expected 6 columns, got {len(row)}")
        r, name, value, q, eps, params = row
        key = (name, int(q), _parse_value(eps), params)
        if key not in grouped:
            order.append(key)
            grouped[key] = []
        grouped[key].append((_parse_value(r), _parse_value(value)))
    out = []
    for key in order:
        name, q, eps, params = key
        pstr = tuple(tuple(kv.split("=", 1)) for kv in params.split(";") if kv)
        out.append(
            BoundCurve(
                name=name,
                points=tuple(grouped[key]),
                channel=Channel(q, eps),
                params=pstr,
            )
        )
    return out
