"""Static SVG rendering of sampled sets: base coordinate on x, fibre
unrolled on y as one lane per edge, drawn point by point in Python floats
(no numpy). Output is deterministic: fixed float formatting, no
timestamps, stable element order.
"""
from __future__ import annotations

from typing import Sequence, TextIO

from .graphs import MetricGraph

WIDTH = 900
HEIGHT = 600
MARGIN = 50
LANE_GAP = 12


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_sample_svg(
    f: TextIO,
    fibre: MetricGraph,
    bases: Sequence[float],
    edge_idx: Sequence[int],
    ts: Sequence[float],
    highlight_bases: Sequence[float] = (),
    cut_marker: bool = False,
    title: str = "",
) -> None:
    """Write the sample columns (base embedding, index into ``fibre.edges``,
    parameter t) to f as an SVG document, one element at a time."""
    edges = sorted(fibre.edges, key=lambda e: e.id)
    total_len = sum(e.length for e in edges)
    plot_h = HEIGHT - 2 * MARGIN - LANE_GAP * max(0, len(edges) - 1)
    plot_w = WIDTH - 2 * MARGIN
    lane_top: dict[str, tuple[float, float]] = {}
    y = MARGIN
    for e in edges:
        h = plot_h * e.length / total_len if total_len > 0 else 0.0
        lane_top[e.id] = (y, h)
        y += h + LANE_GAP

    def put(element: str) -> None:
        f.write(element + "\n")

    put(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    put(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        put(f'<text x="{MARGIN}" y="{MARGIN - 20}" font-size="14" fill="black">{title}</text>')
    for e in edges:
        top, h = lane_top[e.id]
        put(
            f'<rect x="{MARGIN}" y="{_fmt(top)}" width="{plot_w}" height="{_fmt(h)}" '
            f'fill="none" stroke="#cccccc"/>'
        )
        put(
            f'<text x="{MARGIN - 40}" y="{_fmt(top + h / 2)}" font-size="11" '
            f'fill="#555555">{e.id}</text>'
        )
    if len(bases):
        b_lo, b_hi = min(bases), max(bases)
    else:
        put(
            f'<text x="{WIDTH // 2 - 60}" y="{HEIGHT // 2}" font-size="14" '
            f'fill="#aa0000">empty sample</text>'
        )
        b_lo, b_hi = 0.0, 1.0
    span = (b_hi - b_lo) or 1.0
    # lane top and height of each fibre edge, in fibre.edges order
    lanes = [lane_top[e.id] for e in fibre.edges]
    f.writelines(
        f'<circle cx="{_fmt(MARGIN + plot_w * (b - b_lo) / span)}" '
        f'cy="{_fmt(lanes[k][0] + lanes[k][1] * (1.0 - t))}" r="1" fill="#1f3d7a"/>\n'
        for b, k, t in zip(bases, edge_idx, ts)
    )
    for hb in highlight_bases:
        px = MARGIN + plot_w * (hb - b_lo) / span
        put(
            f'<line x1="{_fmt(px)}" y1="{MARGIN}" x2="{_fmt(px)}" y2="{HEIGHT - MARGIN}" '
            f'stroke="#cc3300" stroke-dasharray="4 3"/>'
        )
    if cut_marker:
        put(
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
            f'stroke="#007700" stroke-width="2"/>'
        )
    put("</svg>")
