"""Self-contained SVG rendering for bound curves. No external assets."""

import itertools
import math
import sys
from xml.sax.saxutils import escape

from .channel import INF

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
]

WIDTH, HEIGHT = 900, 620
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 40, 50


def _ticks(lo, hi, n=6):
    span = hi - lo
    raw = span / (n - 1)
    if not raw >= sys.float_info.min:  # an empty or subnormal span gets one tick
        return [lo]
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # step >= span / (n - 1) leaves room for n ticks at most; the cap also ends
    # the loop where the bound overflows or a step is below the ulp of t
    while len(ticks) < n and t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt(x):
    return f"{x:.6g}"


def _drawable(point):
    # inf and nan are left out; below 0, -inf included, is drawn on the x axis
    return point[1] < INF


def render_svg(curves, ceiling=None):
    """Draw the curves on shared axes, clipping values to [0, ceiling].

    Values below 0, -inf included, are drawn on the x axis, and inf and
    nan values leave gaps. A curve gets a dashed vertical asymptote
    marker at the last rate where it turns from inf to drawable.
    """
    if ceiling is not None and not (math.isfinite(ceiling) and ceiling > 0.0):
        raise ValueError(f"ceiling must be finite and > 0, got {ceiling}")
    if not curves:
        raise ValueError("nothing to plot")
    rates = [r for c in curves for r, _ in c.points]
    drawable = [v for c in curves for _, v in filter(_drawable, c.points)]
    if not drawable:
        raise ValueError("no finite values to plot")
    x_lo, x_hi = min(rates), max(rates)
    if not 0.0 < x_hi - x_lo < INF:
        raise ValueError(f"rates must span a finite interval of nonzero width, got [{x_lo}, {x_hi}]")
    if ceiling is None:
        # 5% above a value near the float max would overflow to inf
        ceiling = min(1.05 * max(max(drawable), 1e-9), sys.float_info.max)
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(r):
        return MARGIN_L + (r - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return MARGIN_T + (ceiling - min(max(v, 0.0), ceiling)) / ceiling * ph

    ch = curves[0].channel
    title = f"exponent bounds, q={ch.q}, eps={ch.epsilon:g}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="{MARGIN_T - 14}" text-anchor="middle" font-size="16">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_T + ph}" x2="{x:.2f}" y2="{MARGIN_T + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{MARGIN_T + ph + 20}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(0.0, ceiling):
        if not 0.0 <= t <= ceiling:
            continue
        y = sy(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end">{_fmt(t)}</text>')
    parts.append(
        f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 12}" text-anchor="middle">rate (bits)</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + ph / 2})">exponent (bits)</text>'
    )

    for i, c in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        gap = asymptote = None  # the value before a run, and the marker's x
        for drawable, run in itertools.groupby(c.points, _drawable):
            if not drawable:
                gap = list(run)[-1][1]
                continue
            xy = [(sx(r), sy(v)) for r, v in run]
            if gap == INF:
                asymptote = xy[0][0]
            if len(xy) == 1:
                parts.append(f'<circle cx="{xy[0][0]:.2f}" cy="{xy[0][1]:.2f}" r="2.5" fill="{color}"/>')
            else:
                d = " ".join(f"{x:.2f},{y:.2f}" for x, y in xy)
                parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        if asymptote is not None:
            parts.append(
                f'<line x1="{asymptote:.2f}" y1="{MARGIN_T}" x2="{asymptote:.2f}" y2="{MARGIN_T + ph}" '
                f'stroke="{color}" stroke-width="1" stroke-dasharray="5,4"/>'
            )
        ly = MARGIN_T + 18 + 17 * i
        lx = MARGIN_L + pw - 170
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 32}" y="{ly}">{escape(c.name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
