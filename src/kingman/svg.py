"""Minimal deterministic SVG line plots, no external dependencies.

The output is a pure function of the inputs: same series, same bytes.
Intended for quick visual inspection of experiment tables and simulated
paths, not for publication graphics.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["emit_svg"]

_PALETTE = (
    "#1f6fb2",
    "#c24d2c",
    "#3a7d44",
    "#7b4fa6",
    "#b08b2e",
    "#5b5b5b",
)

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0

# Polyline points scaled and formatted per fragment.
_POINT_CHUNK = 2048


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5  # a step for about five ticks
    if not 0.0 < raw < math.inf:
        raise ValueError(f"cannot draw the range [{lo!r}, {hi!r}]")
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # the step is below the spacing of doubles at v
            break
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _point_chunks(points):
    """A series' points as a re-iterable of chunks: a list, tuple or array
    of (x, y) pairs is one float array, any other source is its own
    chunks."""
    if isinstance(points, (list, tuple, np.ndarray)):
        return (np.asarray(points, dtype=np.float64),)
    return points


def _coords(chunks, sx, sy):
    """Yield polyline "x,y" pairs in plot coordinates, separated by spaces,
    as fragments of at most _POINT_CHUNK points, each scaled and formatted
    on its own."""
    sep = ""
    for pts in chunks:
        for lo in range(0, len(pts), _POINT_CHUNK):
            xy = pts[lo:lo + _POINT_CHUNK]
            yield sep
            yield " ".join(map(
                "{:.2f},{:.2f}".format, sx(xy[:, 0]).tolist(), sy(xy[:, 1]).tolist()
            ))
            sep = " "


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def emit_svg(
    fp,
    series,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    description: str = "",
) -> None:
    """Write labeled (x, y) series to the text stream `fp` as a
    self-contained SVG document.

    `series` is a list of (label, points) pairs. points is a list or
    (n, 2) float array of (x, y) pairs, or a chunk source: any other
    re-iterable whose every pass yields the same (k, 2) float arrays,
    which are read twice. Points are mapped to plot coordinates with
    numpy, by the same operations one by one or in arrays. The document
    is 720 by 440 pixels.

    A first pass checks every series and takes the bounds before the
    first write. The second writes the document fragment by fragment as
    it is made, polyline points at most 2048 at a time, so besides its
    input it holds one fragment's text, never the document.

    Raises ValueError, having written nothing, when no series or an
    empty series is supplied, or when the x or y range, widened by 0.5
    each way if it is one value, is still empty or is wider than doubles
    hold.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one series")
    cleaned = []
    x_lo = y_lo = math.inf
    x_hi = y_hi = -math.inf
    for label, points in series:
        chunks = _point_chunks(points)
        count = 0
        for pts in chunks:
            if not pts.size:
                continue
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError(f"series {label!r} points are not (x, y) pairs")
            if not np.isfinite(pts).all():
                raise ValueError(f"series {label!r} has non-finite points")
            lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
            x_lo, y_lo = min(x_lo, lo[0]), min(y_lo, lo[1])
            x_hi, y_hi = max(x_hi, hi[0]), max(y_hi, hi[1])
            count += len(pts)
        if not count:
            raise ValueError(f"series {label!r} has no points")
        cleaned.append((str(label), chunks))

    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y
    x_ticks = [t for t in _nice_ticks(x_lo, x_hi) if x_lo <= t <= x_hi]
    y_ticks = [t for t in _nice_ticks(y_lo, y_hi) if y_lo <= t <= y_hi]

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    def put(fragment: str) -> None:
        fp.write(fragment)
        fp.write("\n")

    def line(x1, y1, x2, y2, color, width="1") -> None:
        put(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def text(x, y: str, body, attrs="") -> None:
        # y comes formatted: the title's is a bare "20", not _fmt(20).
        put(f'<text x="{_fmt(x)}" y="{y}"{attrs}>{_esc(body)}</text>')

    middle = ' text-anchor="middle"'
    bottom = _MARGIN_TOP + plot_h
    right = _MARGIN_LEFT + plot_w
    put(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">'
    )
    if description:
        put(f"<desc>{_esc(description)}</desc>")
    put(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    put(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" '
        f'stroke="#444444" stroke-width="1"/>'
    )
    if title:
        text(_WIDTH / 2, "20", title, middle + ' font-size="14"')

    for tick in x_ticks:
        px = sx(tick)
        line(px, _MARGIN_TOP, px, bottom, "#dddddd")
        line(px, bottom, px, bottom + 5, "#444444")
        text(px, _fmt(bottom + 18), f"{tick:g}", middle)
    for tick in y_ticks:
        py = sy(tick)
        line(_MARGIN_LEFT, py, right, py, "#dddddd")
        line(_MARGIN_LEFT - 5, py, _MARGIN_LEFT, py, "#444444")
        text(_MARGIN_LEFT - 8, _fmt(py + 4), f"{tick:g}", ' text-anchor="end"')
    if x_label:
        text(_MARGIN_LEFT + plot_w / 2, _fmt(_HEIGHT - 10.0), x_label, middle)
    if y_label:
        cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
        rotate = f' transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})"'
        text(cx, _fmt(cy), y_label, middle + rotate)

    for idx, (label, chunks) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        fp.write('<polyline points="')
        fp.writelines(_coords(chunks, sx, sy))
        put(f'" fill="none" stroke="{color}" stroke-width="1.5"/>')

    legend_x = right - 150.0
    legend_y = _MARGIN_TOP + 10.0
    for idx, (label, _) in enumerate(cleaned):
        ly = legend_y + 16.0 * idx
        line(legend_x, ly, legend_x + 22, ly, _PALETTE[idx % len(_PALETTE)], "2")
        text(legend_x + 28, _fmt(ly + 4), label)
    put("</svg>")
