"""Minimal SVG emission for curves, bar charts and PMF heat strips.

Hand-rolled so reports stay diff-able and the package needs no plotting
dependency.
"""

from __future__ import annotations

import math
from html import escape

from .histograms import shown_id

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]

WIDTH = 640
HEIGHT = 400
MARGIN = 60


def _header(width=WIDTH, height=HEIGHT):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _text(x, y, s, size=12, anchor="middle"):
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}">{escape(s, quote=False)}</text>\n')


def _axes(title, xlabel, ylabel):
    out = _text(WIDTH / 2, 24, title, size=14)
    out += _text(WIDTH / 2, HEIGHT - 12, xlabel)
    out += (f'<text x="16" y="{HEIGHT / 2}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>\n')
    out += (f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black"/>\n'
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black"/>\n')
    return out


def _marker(x, y, kind):
    """A filled circle for a usable candidate, a red cross for a degenerate
    one and a hollow orange circle for one whose training did not converge."""
    if kind == "degenerate":
        return (f'<path d="M {x - 5:.1f} {y - 5:.1f} l 10 10 m 0 -10 l -10 10" '
                f'stroke="{_PALETTE[1]}" stroke-width="2"/>\n')
    if kind == "unconverged":
        return (f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="white" '
                f'stroke="{_PALETTE[4]}" stroke-width="2"/>\n')
    return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{_PALETTE[0]}"/>\n'


def selection_curve_svg(curve) -> str:
    """Chi2/dof against component count, with the chosen count marked.

    The curve joins the candidates with a finite statistic. Degenerate and
    unconverged candidates get their own markers (see _marker), listed in a
    legend; a candidate without a statistic (over-parameterised) is marked
    on the K axis.
    """
    ks = [p.n_components for p in curve.points]
    finite = [p for p in curve.points if math.isfinite(p.chi2_per_dof)]
    y_max = max([p.chi2_per_dof * 1.1 for p in finite] + [1.5])
    x_span = max(max(ks) - min(ks), 1)

    def sx(k):
        return MARGIN + (k - min(ks)) / x_span * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - y / y_max * (HEIGHT - 2 * MARGIN)

    def kind(p):
        if p.usable:
            return "usable"
        return "degenerate" if p.degenerate else "unconverged"

    out = _header()
    out += _axes(f"Model selection ({curve.phase} phase)",
                 "number of components", "chi-squared per dof")
    out += (f'<line x1="{MARGIN}" y1="{sy(1.0):.1f}" x2="{WIDTH - MARGIN}" '
            f'y2="{sy(1.0):.1f}" stroke="#999" stroke-dasharray="4 4"/>\n')
    pts = " ".join(f"{sx(p.n_components):.1f},{sy(p.chi2_per_dof):.1f}" for p in finite)
    out += f'<polyline points="{pts}" fill="none" stroke="{_PALETTE[0]}" stroke-width="2"/>\n'
    for p in curve.points:
        y = p.chi2_per_dof if math.isfinite(p.chi2_per_dof) else 0.0
        out += _marker(sx(p.n_components), sy(y), kind(p))
        out += _text(sx(p.n_components), HEIGHT - MARGIN + 16, str(p.n_components))
    special = sorted({kind(p) for p in curve.points} - {"usable"})
    for i, name in enumerate(special):
        x, y = WIDTH - MARGIN - 110, MARGIN + 8 + 18 * i
        out += _marker(x, y, name) + _text(x + 12, y + 4, name, anchor="start")
    if curve.chosen in ks:
        y = curve.points[ks.index(curve.chosen)].chi2_per_dof
        out += (f'<path d="M {sx(curve.chosen):.1f} {sy(y) - 30:.1f} '
                f'l -6 -12 l 12 0 z" fill="black"/>\n')
        out += _text(sx(curve.chosen), sy(y) - 46, f"chosen K={curve.chosen}")
    for frac in (0.0, 0.5, 1.0):
        yv = frac * y_max
        out += _text(MARGIN - 8, sy(yv) + 4, f"{yv:.2f}", anchor="end")
    return out + "</svg>\n"


def effect_bar_svg(results, title) -> str:
    """Per-tumor treatment volume with +/- 1 standard deviation error bars."""
    n = len(results)
    vals = [r.q_treatment_total for r in results]
    errs = [r.sigma_treatment for r in results]
    top = max(v + e for v, e in zip(vals, errs)) if n else 1.0
    top = max(top * 1.15, 1.0)
    slot = (WIDTH - 2 * MARGIN) / max(n, 1)

    def sy(v):
        return HEIGHT - MARGIN - v / top * (HEIGHT - 2 * MARGIN)

    out = _header()
    out += _axes(title, "tumor", "treatment volume (voxels)")
    for i, r in enumerate(results):
        x = MARGIN + i * slot + 0.15 * slot
        w = 0.7 * slot
        y = sy(vals[i])
        out += (f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
                f'height="{HEIGHT - MARGIN - y:.1f}" fill="{_PALETTE[0]}"/>\n')
        cx = x + w / 2
        out += (f'<line x1="{cx:.1f}" y1="{sy(vals[i] + errs[i]):.1f}" '
                f'x2="{cx:.1f}" y2="{sy(max(vals[i] - errs[i], 0)):.1f}" '
                f'stroke="black"/>\n')
        out += _text(cx, HEIGHT - MARGIN + 16, shown_id(r.tumor_id), size=10)
    out += _text(MARGIN - 8, sy(top) + 4, f"{top:.0f}", anchor="end")
    out += _text(MARGIN - 8, sy(0) + 4, "0", anchor="end")
    return out + "</svg>\n"


def pmf_heatstrip_svg(model) -> str:
    """One row of heat strips per component, a strip per timepoint."""
    n_bins = model.binning.n_adc_bins
    strip_h = 26
    gap = 14
    n_comp = model.n_components
    height = MARGIN + n_comp * 2 * (strip_h + 4) + gap * n_comp + MARGIN
    out = _header(WIDTH, height)
    out += _text(WIDTH / 2, 24, "Component PMFs (top: baseline, bottom: follow-up)", size=14)
    cell_w = (WIDTH - 2 * MARGIN) / n_bins
    y = MARGIN
    for ci, phase in enumerate(model.phases):
        probs = model.P[:, ci].reshape(n_bins, 2)
        peak = probs.max()
        color = _PALETTE[ci % len(_PALETTE)]
        out += _text(MARGIN - 8, y + strip_h, f"{phase} {ci}", size=10, anchor="end")
        for t in range(2):
            for b in range(n_bins):
                alpha = probs[b, t] / peak if peak > 0 else 0.0
                out += (f'<rect x="{MARGIN + b * cell_w:.1f}" y="{y:.1f}" '
                        f'width="{cell_w:.1f}" height="{strip_h}" fill="{color}" '
                        f'fill-opacity="{alpha:.3f}" stroke="none"/>\n')
            y += strip_h + 4
        y += gap
    lo = model.binning.adc_min
    hi = model.binning.adc_max
    out += _text(MARGIN, y + 6, f"{lo:g}", anchor="start", size=10)
    out += _text(WIDTH - MARGIN, y + 6, f"{hi:g} mm^2/s", anchor="end", size=10)
    return out + "</svg>\n"
