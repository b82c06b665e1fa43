"""Named bound curves on rate grids, with CSV emission and parsing.

The CSV schema is one row per (curve, grid point):
R,bound,value,q,epsilon,params with 17 significant digits (inf, -inf
and nan spelled as Python spells them), and params as semicolon-joined
key=value pairs. Parsing the emitted text reproduces the curves exactly.

The writer works a column at a time. Per curve, csv.writer renders the
fields that do not change down the column (bound, q, epsilon, params)
once, each grid's R column is formatted once for all the curves on it,
and a curve's rows are joined in C from its R and value cells. The bytes
are those of one csv.writer row per point: csv quotes each field on its
own content, and the one context it looks at, a row that is a single
empty field (written ""), never arises in the rows of three or more
fields the constant cells are cut from.
"""

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .channel import INF, Channel, capacity, cycle_constants
from .classical import (
    _parametric_exponent,
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
        rates = self.rates
        # compared in C; a nan rate compares false both ways and passes
        if any(map(operator.le, rates[1:], rates)):
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
    # (Channel, rates ndarray inside the domain) -> an intermediate passed to
    # evaluate as its third argument; curves with the same `shared` and
    # domain take it from one evaluation per grid
    shared: Callable | None = None

    def in_envelope(self, ch):
        """Whether upper_bounds.envelope folds this curve in on channel ch."""
        return self.evaluate is not None and self.applies(ch) and self.envelope_rule(ch)

    def curve(self, ch, rates, values):
        """The curve on a rate array: evaluated inside the domain, inf outside.

        `values` is the per-grid memo of evaluate_curves and envelope, and
        this method alone reads and fills it: the curve is taken from it
        under its name when present and stored there otherwise. The
        `shared` intermediate is kept in it too, keyed by its function and
        the domain it was evaluated on.
        """
        if self.name in values:
            return values[self.name]
        out = np.full(rates.shape, INF)
        inside = self.domain(ch, rates)
        extra = ()
        if self.shared is not None:
            key = (self.shared, self.domain)
            if key not in values:
                values[key] = self.shared(ch, rates[inside])
            extra = (values[key],)
        out[inside] = self.evaluate(ch, rates[inside], *extra)
        values[self.name] = out
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
        _always, random_coding_exponent, _no_params, shared=_parametric_exponent,
    ),
    "sphere_packing": BoundSpec(
        "sphere_packing", "upper", "always applicable",
        _always, sphere_packing_exponent, _no_params, shared=_parametric_exponent,
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
        "straight_line_theta", "upper", "requires odd q and log2(theta) below capacity",
        # at eps = 1/2 log2(theta) can round onto capacity from q = 37104241 on
        lambda ch: ch.q % 2 == 1 and math.log2(cycle_constants(ch).theta) < capacity(ch),
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
    """Expand a --bounds selector, refusing an empty or repeated list and inapplicable picks.

    A curve named twice would break the CSV round trip (its rates must
    rise), and a list of no names would emit only the header.
    """
    if selector in ("all", "", None):
        return applicable_bounds(ch)
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if not names:
        raise ValueError(f"--bounds {selector!r} names no bound")
    for i, n in enumerate(names):
        if n in names[:i]:
            raise ValueError(f"--bounds names {n!r} more than once")
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

    `values` is the grid's memo, passed on to BoundSpec.curve, which
    reads and fills it; an envelope folds its components through it and
    is not stored itself.
    """
    spec = BOUNDS[name]
    rates = np.asarray(grid, dtype=float)
    values = {} if values is None else values
    if spec.evaluate is None:
        out = envelope(ch, rates, spec.kind, values)
    else:
        out = spec.curve(ch, rates, values)
    pts = tuple(zip(rates.tolist(), out.tolist()))
    return BoundCurve(name=name, points=pts, channel=ch, params=tuple(sorted(spec.params(ch).items())))


def evaluate_curves(ch, names, grid):
    """The named curves on one grid; each curve, envelope components included, is computed once."""
    values = {}
    return [evaluate_curve(ch, n, grid, values) for n in names]


# 17 significant digits give back every float exactly
format_value = "{:.17g}".format

CSV_HEADER = ("R", "bound", "value", "q", "epsilon", "params")
_KEY_CELLS = operator.itemgetter(1, 3, 4, 5)  # the cells that name a row's curve
_POINT_CELLS = operator.itemgetter(0, 2)  # R and value


def curves_to_csv(curves):
    # writerow returns what its file's write returns: here the line. csv quotes a
    # field that holds a character of the line terminator, so "\r\n" gets "\r"
    # quoted as well as "\n"; write then ends the line with "\n" alone
    line = csv.writer(SimpleNamespace(write=lambda row: row[:-2] + "\n"),
                      lineterminator="\r\n").writerow
    out = [line(CSV_HEADER)]
    r_cells = {}
    for c in curves:
        if not c.points:
            continue
        rates, values = zip(*c.points)
        # keyed by the doubles' bytes: tuples of floats compare 0.0 equal to -0.0
        grid = np.array(rates).tobytes()
        if grid not in r_cells:
            r_cells[grid] = list(map(format_value, rates))
        params = ";".join(f"{k}={v}" for k, v in c.params)
        # ",bound,\n" and ",q,epsilon,params\n": cut from rows of three or
        # more fields, so each cell is quoted as in the full row
        name = line(("", c.name, ""))[1:-2]
        tail = line(("", c.channel.q, format_value(c.channel.epsilon), params))
        out.append(tail.join(map(f",{name},".join, zip(r_cells[grid], map(format_value, values)))))
        out.append(tail)
    return "".join(out)


def csv_to_curves(text):
    """The curves of curves_to_csv text, in order of first appearance.

    Rows come in runs of equal (name, q, eps, params) cells, each read
    at once; runs of one curve that are not adjacent are merged. Rows
    before the first of a wrong column count are read before it is
    refused, so the first bad row is the one reported.
    """
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"row {len(rows) + 1}: {exc}") from None
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    body = rows[1:]
    widths = list(map(len, body))
    cut = len(body)
    if widths.count(6) + widths.count(0) < cut:  # a blank row is skipped
        cut = next(i for i, w in enumerate(widths) if w not in (0, 6))
    grouped = {}
    for (name, q, eps, params), run in itertools.groupby(filter(None, body[:cut]), _KEY_CELLS):
        key = (name, int(q), float(eps), params)
        # rate, value, rate, ...: converted in row order, so the first bad cell fails
        cells = list(map(float, itertools.chain.from_iterable(map(_POINT_CELLS, run))))
        grouped.setdefault(key, []).extend(zip(cells[::2], cells[1::2]))
    if cut < len(body):
        raise ValueError(f"row {cut + 2}: expected 6 columns, got {widths[cut]}")
    return [
        BoundCurve(
            name=name,
            points=tuple(points),
            channel=Channel(q, eps),
            params=tuple(tuple(kv.split("=", 1)) for kv in params.split(";") if kv),
        )
        for (name, q, eps, params), points in grouped.items()
    ]
