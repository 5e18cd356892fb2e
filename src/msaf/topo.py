"""Standalone SVG rendering: scalp topographies and bar charts.

Topographies use an azimuthal equidistant projection of the unit-sphere
electrode positions onto a disc, inverse-distance-weighted interpolation
on a regular grid, and a symmetric red/blue diverging palette (positive
red, negative blue, white at zero). Charts are plain horizontal bar
SVGs. Everything is emitted as self-contained SVG text with no runtime
display dependency.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeMismatch
from .io import Montage

# projection angle (degrees from the vertex) mapped to the head rim
_RIM_DEG = 105.0

_NEG_RGB = (42, 76, 170)
_MID_RGB = (247, 247, 247)
_POS_RGB = (178, 24, 43)

# interpolation grid cells per side of a topography
_N_CELLS = 48
# bar chart width, bar height (px) and value label format
_CHART_WIDTH = 560
_BAR_HEIGHT = 22
_VALUE_FORMAT = "{:.4f}"


def _escape(text: str) -> str:
    """text with XML's markup characters as entities, as `xml.sax.saxutils.escape` gives.

    That module imports `urllib.request` and with it `ssl` and `socket`: 3 MB more
    peak RSS in every `msaf` process.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def project_positions(positions: np.ndarray) -> np.ndarray:
    """Azimuthal equidistant projection of unit vectors to the unit disc.

    The vertex (0, 0, 1) maps to the origin; a point `_RIM_DEG` away
    from the vertex lands on the rim. +y (anterior) points up in the
    output, +x (right) points right.
    """
    p = np.asarray(positions, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ShapeMismatch(f"positions must be (n, 3), got {p.shape}")
    theta = np.arccos(np.clip(p[:, 2], -1.0, 1.0))
    r = np.degrees(theta) / _RIM_DEG
    az = np.arctan2(p[:, 1], p[:, 0])
    return np.column_stack([r * np.cos(az), r * np.sin(az)])


def _diverging_color(t: float) -> str:
    """Map t in [-1, 1] to an rgb() string, blue-white-red."""
    t = min(1.0, max(-1.0, t))
    if t < 0:
        a, b, w = _MID_RGB, _NEG_RGB, -t
    else:
        a, b, w = _MID_RGB, _POS_RGB, t
    rgb = [round(av + (bv - av) * w) for av, bv in zip(a, b)]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _idw_grid(xy: np.ndarray, values: np.ndarray, n_cells: int) -> np.ndarray:
    """Inverse-distance-squared interpolation on an n_cells^2 grid.

    Grid spans [-1, 1]^2; cells outside the unit disc are NaN.
    """
    centers = (np.arange(n_cells) + 0.5) / n_cells * 2.0 - 1.0
    gx, gy = np.meshgrid(centers, centers)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    d2 = ((pts[:, np.newaxis, :] - xy[np.newaxis, :, :]) ** 2).sum(axis=2)
    w = 1.0 / np.maximum(d2, 1e-6)
    z = (w * values[np.newaxis, :]).sum(axis=1) / w.sum(axis=1)
    z[(pts ** 2).sum(axis=1) > 1.0] = np.nan
    return z.reshape(n_cells, n_cells)


def render_topomap(
    montage: Montage,
    values: Sequence[float],
    title: str = "",
    size: int = 360,
) -> str:
    """One scalp map as an SVG string, with channel names."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (len(montage.names),):
        raise ShapeMismatch(
            f"need one value per channel, got {vals.shape} for {len(montage.names)}"
        )
    xy = project_positions(montage.positions)
    vmax = float(np.max(np.abs(vals))) or 1.0
    grid = _idw_grid(xy, vals, _N_CELLS)

    margin = size * 0.1
    r_head = size / 2.0 - margin
    cx = cy = size / 2.0

    def sx(u: float) -> float:
        return cx + u * r_head

    def sy(v: float) -> float:
        return cy - v * r_head

    cell = 2.0 * r_head / _N_CELLS
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size + 24}" viewBox="0 0 {size} {size + 24}">',
        f'<rect width="{size}" height="{size + 24}" fill="white"/>',
        '<defs><clipPath id="head">'
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r_head:.1f}"/>'
        "</clipPath></defs>",
        '<g clip-path="url(#head)">',
    ]
    for iy in range(_N_CELLS):
        for ix in range(_N_CELLS):
            z = grid[iy, ix]
            if math.isnan(z):
                continue
            color = _diverging_color(z / vmax)
            x0 = sx(-1.0) + ix * cell
            y0 = sy(1.0) + (_N_CELLS - 1 - iy) * cell
            out.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{cell + 0.35:.2f}" '
                f'height="{cell + 0.35:.2f}" fill="{color}"/>'
            )
    out.append("</g>")
    # head outline, nose (anterior, up), ears
    out.append(
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r_head:.1f}" '
        'fill="none" stroke="black" stroke-width="2"/>'
    )
    nw = r_head * 0.12
    out.append(
        f'<path d="M {cx - nw:.1f} {cy - r_head + 1:.1f} '
        f'L {cx:.1f} {cy - r_head - nw * 1.4:.1f} '
        f'L {cx + nw:.1f} {cy - r_head + 1:.1f}" '
        'fill="none" stroke="black" stroke-width="2"/>'
    )
    for side in (-1.0, 1.0):
        ex = cx + side * r_head
        out.append(
            f'<ellipse cx="{ex:.1f}" cy="{cy:.1f}" rx="{nw * 0.55:.1f}" '
            f'ry="{nw * 1.6:.1f}" fill="none" stroke="black" stroke-width="2"/>'
        )
    for name, (u, v) in zip(montage.names, xy):
        out.append(
            f'<circle cx="{sx(u):.1f}" cy="{sy(v):.1f}" r="2.4" fill="black"/>'
        )
        out.append(
            f'<text x="{sx(u):.1f}" y="{sy(v) - 4.5:.1f}" font-size="9" '
            'font-family="sans-serif" text-anchor="middle">'
            f"{_escape(name)}</text>"
        )
    if title:
        out.append(
            f'<text x="{cx:.1f}" y="{size + 16}" font-size="14" '
            'font-family="sans-serif" text-anchor="middle" '
            f'font-weight="bold">{_escape(title)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def render_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    highlight: Optional[int] = None,
) -> str:
    """Horizontal bar chart as an SVG string.

    Bars are drawn in the order given; `highlight` marks one row in the
    accent color. Negative values are supported (drawn left of the
    zero axis).
    """
    labels = [str(s) for s in labels]
    vals = np.asarray(values, dtype=np.float64)
    if len(labels) != vals.size:
        raise ShapeMismatch("labels and values must have equal length")
    n = vals.size
    top, gap = 30 if title else 10, 6
    label_w, value_w = 150, 70
    plot_w = _CHART_WIDTH - label_w - value_w - 20
    height = top + n * (_BAR_HEIGHT + gap) + 10
    lo, hi = min(0.0, float(vals.min())), max(0.0, float(vals.max()))
    span = (hi - lo) or 1.0

    def px(v: float) -> float:
        return label_w + (v - lo) / span * plot_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_CHART_WIDTH} {height}">',
        f'<rect width="{_CHART_WIDTH}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_CHART_WIDTH / 2:.0f}" y="19" font-size="14" '
            'font-family="sans-serif" text-anchor="middle" '
            f'font-weight="bold">{_escape(title)}</text>'
        )
    out.append(
        f'<line x1="{px(0.0):.1f}" y1="{top - 4}" x2="{px(0.0):.1f}" '
        f'y2="{height - 6}" stroke="#888" stroke-width="1"/>'
    )
    for i, (lab, v) in enumerate(zip(labels, vals)):
        y = top + i * (_BAR_HEIGHT + gap)
        x0, x1 = px(min(0.0, v)), px(max(0.0, v))
        fill = "#c0392b" if i == highlight else "#3465a4"
        out.append(
            f'<rect x="{x0:.1f}" y="{y}" width="{max(x1 - x0, 0.5):.1f}" '
            f'height="{_BAR_HEIGHT}" fill="{fill}"/>'
        )
        out.append(
            f'<text x="{label_w - 8}" y="{y + _BAR_HEIGHT - 6}" font-size="12" '
            f'font-family="sans-serif" text-anchor="end">{_escape(lab)}</text>'
        )
        out.append(
            f'<text x="{x1 + 6:.1f}" y="{y + _BAR_HEIGHT - 6}" font-size="11" '
            f'font-family="sans-serif">{_VALUE_FORMAT.format(float(v))}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
