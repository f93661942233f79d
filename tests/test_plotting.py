"""SVG rendering: the sample's points are drawn block by block with array
arithmetic, and must equal the one-point-at-a-time formula."""
from __future__ import annotations

import io

import numpy as np
import pytest

from bundlemin import plotting
from bundlemin.constructions import CONSTRUCTIONS
from bundlemin.plotting import HEIGHT, LANE_GAP, MARGIN, POINT_BLOCK, WIDTH, render_sample_svg


def reference_circles(fibre, bases, edge_idx, ts) -> list[str]:
    """The <circle> element of each point, computed with Python floats one
    point at a time, as the renderer of the whole document did."""
    edges = sorted(fibre.edges, key=lambda e: e.id)
    total_len = sum(e.length for e in edges)
    plot_h = HEIGHT - 2 * MARGIN - LANE_GAP * max(0, len(edges) - 1)
    plot_w = WIDTH - 2 * MARGIN
    lane_top = {}
    y = MARGIN
    for e in edges:
        h = plot_h * e.length / total_len
        lane_top[e.id] = (y, h)
        y += h + LANE_GAP
    b_lo, b_hi = min(bases), max(bases)
    span = (b_hi - b_lo) or 1.0
    ids = [e.id for e in fibre.edges]
    out = []
    for b, k, t in zip(bases, edge_idx, ts):
        top, h = lane_top[ids[k]]
        px = MARGIN + plot_w * (b - b_lo) / span
        py = top + h * (1.0 - t)
        out.append(f'<circle cx="{plotting._fmt(px)}" cy="{plotting._fmt(py)}" r="1" fill="#1f3d7a"/>')
    return out


@pytest.mark.parametrize("name", ["mobius", "torus-on-mobius", "theorem-d-2:two"])
@pytest.mark.parametrize("n", [1, POINT_BLOCK, 2 * POINT_BLOCK + 37])
def test_points_equal_the_scalar_formula(name, n):
    fibre = CONSTRUCTIONS[name]({}).system.bundle.fibre
    rng = np.random.default_rng(n)
    bases = rng.uniform(-3.0, 5.0, n)
    edge_idx = rng.integers(0, len(fibre.edges), n)
    ts = rng.uniform(0.0, 1.0, n)
    ts[::7] = 0.0
    ts[3::7] = 1.0
    f = io.StringIO()
    render_sample_svg(f, fibre, bases, edge_idx, ts)
    lines = f.getvalue().split("\n")
    circles = [line for line in lines if line.startswith("<circle")]
    assert circles == reference_circles(fibre, bases.tolist(), edge_idx.tolist(), ts.tolist())
    assert lines[-2:] == ["</svg>", ""]
