"""Minimal hand-rolled SVG line chart for convergence reports.

Presentation only: draws mean lines with a +/- std band per coefficient
against subsample size. No charting dependency.
"""

from __future__ import annotations

import numpy as np

from .resampling import ConvergenceReport

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 50


def _scale(v: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi == lo:
        return (out_lo + out_hi) / 2
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def render_convergence_svg(report: ConvergenceReport) -> list[str]:
    """The SVG document, one element per line, as a list of its lines."""
    x_lo, x_hi = min(report.sizes), max(report.sizes)
    order = np.argsort(report.sizes, kind="stable")
    sizes = [report.sizes[i] for i in order]
    mean, std = report.mean[order], report.std[order]
    # std >= 0, so the band's lower edge holds the minimum and its upper edge the maximum.
    lower, upper = mean - std, mean + std
    y_lo, y_hi = float(lower.min()), float(upper.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05

    def px(size: float) -> float:
        return _scale(size, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN)

    def py(value: float) -> float:
        return _scale(value, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12">subsample size</text>',
        f'<text x="14" y="{_HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_HEIGHT / 2})">coefficient value</text>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 16}" font-size="10" '
        f'text-anchor="middle">{x_lo}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 16}" font-size="10" '
        f'text-anchor="middle">{x_hi}</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN + 4}" font-size="10" '
        f'text-anchor="end">{y_lo:.3f}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="10" '
        f'text-anchor="end">{y_hi:.3f}</text>',
    ]

    # Each size's x is formatted once, with the comma that ends it.
    xs = [f"{px(k):.2f}," for k in sizes]

    def points(x_texts: list[str], values: list[float]) -> str:
        return " ".join([x + f"{py(v):.2f}" for x, v in zip(x_texts, values)])

    columns = zip(report.coefficients, lower.T.tolist(), mean.T.tolist(), upper.T.tolist())
    for idx, (coeff, lows, means, highs) in enumerate(columns):
        color = _COLORS[idx % len(_COLORS)]
        # The band runs along the upper edge, then back along the lower one.
        band = points(xs, highs) + " " + points(xs[::-1], lows[::-1])
        line = points(xs, means)
        parts.append(f'<polygon points="{band}" fill="{color}" opacity="0.2"/>')
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 14 * idx + 10}" '
            f'font-size="11" fill="{color}" text-anchor="end">{coeff}</text>'
        )

    parts.append("</svg>")
    return [part + "\n" for part in parts]
