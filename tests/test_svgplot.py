import math

import numpy as np
import pytest

from gridstorm.svgplot import (CHUNK_POINTS, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, LinePlot,
                               _nice_ticks)

# ---------------------------------------------------------------------------
# reference renderer: the per-point writer, kept as the byte-equality oracle


def _f(x):
    return format(float(x), ".6g")


def reference_limits(plot):
    xs = [float(x) for _, sx, _, _ in plot.series for x in sx]
    ys = [float(y) for _, _, sy, _ in plot.series for y in sy if math.isfinite(y)]
    ys += [y for y, _ in plot.hlines]
    if plot.band:
        ys += list(plot.band)
    if not xs:
        xs = [0.0, 1.0]
    if not ys:
        ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.06 * (y_hi - y_lo) or 1.0
    return x_lo, x_hi, y_lo - pad, y_hi + pad


def reference_render(plot):
    """LinePlot.render() as it was written before the chunked point writer:
    every point through sx, sy and _f, one at a time."""
    x_lo, x_hi, y_lo, y_hi = reference_limits(plot)
    pw = plot.width - MARGIN_L - MARGIN_R
    ph = plot.height - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{plot.width}" '
               f'height="{plot.height}" viewBox="0 0 {plot.width} {plot.height}">')
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append(f'<text x="{plot.width // 2}" y="20" text-anchor="middle" '
               f'font-family="sans-serif" font-size="14">{plot.title}</text>')

    if plot.band is not None:
        lo, hi = plot.band
        y0, y1 = sy(min(hi, y_hi)), sy(max(lo, y_lo))
        out.append(f'<rect x="{_f(MARGIN_L)}" y="{_f(y0)}" width="{_f(pw)}" '
                   f'height="{_f(max(y1 - y0, 0.0))}" fill="#dff0df"/>')

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{_f(px)}" y1="{MARGIN_T}" x2="{_f(px)}" '
                   f'y2="{MARGIN_T + ph}" stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{_f(px)}" y="{MARGIN_T + ph + 16}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_f(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{MARGIN_L}" y1="{_f(py)}" x2="{MARGIN_L + pw}" '
                   f'y2="{_f(py)}" stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 6}" y="{_f(py + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_f(t)}</text>')

    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')

    for x, label in plot.vlines:
        px = sx(min(max(x, x_lo), x_hi))
        out.append(f'<line x1="{_f(px)}" y1="{MARGIN_T}" x2="{_f(px)}" '
                   f'y2="{MARGIN_T + ph}" stroke="#555555" stroke-width="1.2" '
                   f'stroke-dasharray="3,3"/>')
        out.append(f'<text x="{_f(px + 4)}" y="{MARGIN_T + ph - 6}" '
                   f'font-family="sans-serif" font-size="10" fill="#555555">'
                   f'{label}</text>')

    for y, label in plot.hlines:
        py = sy(y)
        out.append(f'<line x1="{MARGIN_L}" y1="{_f(py)}" x2="{MARGIN_L + pw}" '
                   f'y2="{_f(py)}" stroke="#d62728" stroke-width="1.2" '
                   f'stroke-dasharray="6,4"/>')
        out.append(f'<text x="{MARGIN_L + pw - 4}" y="{_f(py - 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="10" fill="#d62728">{label}</text>')

    for label, xs, ys, color in plot.series:
        pts = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in zip(map(float, xs), map(float, ys))
                       if math.isfinite(y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')

    for i, (label, _, _, color) in enumerate(plot.series):
        lx = MARGIN_L + 8
        ly = MARGIN_T + 14 + 14 * i
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 22}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{label}</text>')

    out.append(f'<text x="{MARGIN_L + pw // 2}" y="{plot.height - 8}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">'
               f'{plot.xlabel}</text>')
    out.append(f'<text x="16" y="{MARGIN_T + ph // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {MARGIN_T + ph // 2})">{plot.ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# cases


def specials_plot():
    """Signed zeros, infinities and nan among the y values; the non-finite
    ones are skipped, in the limits and in the polyline."""
    plot = LinePlot("specials", "t", "y")
    ys = [0.0, -0.0, np.inf, 1e-300, -np.inf, np.nan, -2.5, 5e-324, 3.0, -0.0]
    plot.add_series("a", np.arange(len(ys)) * 0.1, ys)
    plot.add_series("b", [-0.0, 0.0, 0.5], [np.nan, -0.0, 0.0])
    plot.add_hline(0.25, "h")
    plot.add_vline(0.3, "v")
    return plot


def zeros_plot():
    """All-zero y and a one-point x range: both limits fall back to padding."""
    plot = LinePlot("zeros", "t", "y")
    plot.add_series("z", [-0.0], [-0.0])
    plot.add_series("z2", [0.0], [0.0])
    return plot


def one_point_plot():
    plot = LinePlot("one", "t", "y")
    plot.set_band(59.5, 60.5)
    plot.add_series("p", [2.0], [60.1])
    return plot


def long_plot(n_points):
    """A noisy 3-generator frequency plot like `simulate` writes."""
    rng = np.random.default_rng(4)
    plot = LinePlot("Generator frequency", "time [s]", "f [Hz]")
    plot.set_band(59.5, 60.5)
    t = np.arange(n_points) * 0.01
    for i in range(3):
        plot.add_series(f"gen {i + 1}", t, 60.0 + np.cumsum(rng.normal(scale=0.01,
                                                                       size=n_points)))
    plot.add_vline(7.77, "first alarm")
    return plot


def empty_plot():
    plot = LinePlot("empty", "t", "y")
    plot.add_series("none", [], [])
    plot.add_series("all nan", [1.0, 2.0], [np.nan, np.inf])
    return plot


@pytest.mark.parametrize("make_plot", [
    specials_plot, zeros_plot, one_point_plot, empty_plot,
    lambda: long_plot(3001), lambda: long_plot(CHUNK_POINTS), lambda: long_plot(CHUNK_POINTS + 1),
], ids=["specials", "zeros", "one_point", "empty", "3001_points", "one_chunk",
        "chunk_plus_one"])
def test_render_matches_per_point_oracle(make_plot):
    plot = make_plot()
    assert plot.render() == reference_render(plot)


def test_save_writes_render(tmp_path):
    plot = long_plot(50)
    path = tmp_path / "p.svg"
    plot.save(path)
    text = path.read_text(encoding="utf-8")
    assert text == reference_render(plot)
    assert text.count("<polyline") == 3


def test_render_ends_when_values_differ_in_their_last_bits():
    """A y span of one ulp of 0.3 gives a tick step below that ulp, so
    t += step stands still; the tick loop stops at target + 1 ticks."""
    plot = LinePlot("r", "x", "y")
    plot.add_series("s", [0, 1], [0.1 + 0.2, 0.3])
    svg = plot.render()
    assert svg.endswith("</svg>\n") and svg.count("<polyline") == 1
    assert _nice_ticks(*reference_limits(plot)[2:]) == [0.3] * 7
