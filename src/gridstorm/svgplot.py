"""Minimal deterministic SVG line plots.

Hand-rolled so that repeated runs emit byte-identical files: fixed palette,
fixed float formatting, no timestamps or library version strings.
"""

import math

import numpy as np

PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")

MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 44
CHUNK_POINTS = 1024   # polyline points formatted per template


def _f(x):
    return format(float(x), ".6g")


def _points(px, py):
    """Polyline points "x,y x,y ..." with 6 significant digits.

    numpy lays out the coordinates and one template formats CHUNK_POINTS
    points at a time; '%.6g' % v gives the same text as _f(v).
    """
    xy = np.stack([px, py], axis=1)
    chunks = []
    for i in range(0, len(xy), CHUNK_POINTS):
        part = xy[i:i + CHUNK_POINTS]
        chunks.append(" ".join(["%.6g,%.6g"] * len(part)) % tuple(part.ravel().tolist()))
    return " ".join(chunks)


def _nice_ticks(lo, hi, target=6):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # step >= (hi - lo) / target leaves room for target + 1 ticks; the count
    # also ends a step below the ulp of t, where t += step stands still
    while t <= hi + 1e-12 * step and len(ticks) <= target:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class LinePlot:
    def __init__(self, title, xlabel, ylabel, width=880, height=360):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.width, self.height = width, height
        self.series = []     # (label, xs, ys, color)
        self.hlines = []     # (y, label)
        self.vlines = []     # (x, label)
        self.band = None     # (lo, hi)

    def add_series(self, label, xs, ys):
        color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append((label, np.array(xs, dtype=float), np.array(ys, dtype=float),
                            color))

    def add_hline(self, y, label):
        self.hlines.append((float(y), label))

    def add_vline(self, x, label):
        self.vlines.append((float(x), label))

    def set_band(self, lo, hi):
        self.band = (float(lo), float(hi))

    def _limits(self):
        xs = np.concatenate([np.empty(0)] + [sx for _, sx, _, _ in self.series])
        ys = np.concatenate([sy[np.isfinite(sy)] for _, _, sy, _ in self.series]
                            + [[y for y, _ in self.hlines], self.band or []])
        if not xs.size:
            xs = np.array([0.0, 1.0])
        if not ys.size:
            ys = np.array([0.0, 1.0])
        x_lo, x_hi = float(xs.min()), float(xs.max())
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        pad = 0.06 * (y_hi - y_lo) or 1.0
        return x_lo, x_hi, y_lo - pad, y_hi + pad

    def render(self):
        x_lo, x_hi, y_lo, y_hi = self._limits()
        pw = self.width - MARGIN_L - MARGIN_R
        ph = self.height - MARGIN_T - MARGIN_B

        def sx(x):
            return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

        def sy(y):
            return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

        out = []
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                   f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">')
        out.append('<rect width="100%" height="100%" fill="white"/>')
        out.append(f'<text x="{self.width // 2}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{self.title}</text>')

        if self.band is not None:
            lo, hi = self.band
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

        for x, label in self.vlines:
            px = sx(min(max(x, x_lo), x_hi))
            out.append(f'<line x1="{_f(px)}" y1="{MARGIN_T}" x2="{_f(px)}" '
                       f'y2="{MARGIN_T + ph}" stroke="#555555" stroke-width="1.2" '
                       f'stroke-dasharray="3,3"/>')
            out.append(f'<text x="{_f(px + 4)}" y="{MARGIN_T + ph - 6}" '
                       f'font-family="sans-serif" font-size="10" fill="#555555">'
                       f'{label}</text>')

        for y, label in self.hlines:
            py = sy(y)
            out.append(f'<line x1="{MARGIN_L}" y1="{_f(py)}" x2="{MARGIN_L + pw}" '
                       f'y2="{_f(py)}" stroke="#d62728" stroke-width="1.2" '
                       f'stroke-dasharray="6,4"/>')
            out.append(f'<text x="{MARGIN_L + pw - 4}" y="{_f(py - 4)}" text-anchor="end" '
                       f'font-family="sans-serif" font-size="10" fill="#d62728">{label}</text>')

        for label, xs, ys, color in self.series:
            finite = np.isfinite(ys)
            pts = _points(sx(xs[finite]), sy(ys[finite]))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')

        for i, (label, _, _, color) in enumerate(self.series):
            lx = MARGIN_L + 8
            ly = MARGIN_T + 14 + 14 * i
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 22}" y="{ly}" font-family="sans-serif" '
                       f'font-size="11">{label}</text>')

        out.append(f'<text x="{MARGIN_L + pw // 2}" y="{self.height - 8}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                   f'{self.xlabel}</text>')
        out.append(f'<text x="16" y="{MARGIN_T + ph // 2}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {MARGIN_T + ph // 2})">{self.ylabel}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
