"""Exactness of the per-slice fibre index against one-to-many distance loops.

The index must give, bit for bit, what the one-to-many loops it replaced
gave: nearest distances, single-linkage components, the gap that
``components`` reads from its cached links, and the diameter thresholds
that ``classify_fibre`` decides on.  The references below are copies of
those loops and of the one-to-many distance kernel.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundlemin.analysis import _cluster_diameter
from bundlemin.fibre_index import FibreIndex, distance_matrix, graph_arrays, point_arrays
from bundlemin.graphs import Edge, GraphPoint, MetricGraph

# t values at and next to the edge ends, where vertex terms tie
END_TS = [0.0, 1.0, 5e-324, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0),
          math.nextafter(math.nextafter(1.0, 0.0), 0.0), 0.5]


@st.composite
def graphs(draw) -> MetricGraph:
    n_vertices = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n_vertices)]
    n_edges = draw(st.integers(1, 6))
    edges = []
    for i in range(n_edges):
        # loops and parallel edges come up whenever u == v or a pair repeats
        u = draw(st.sampled_from(vertices))
        v = draw(st.sampled_from(vertices))
        length = draw(st.sampled_from([0.1, 0.3, 1.0]) | st.floats(0.01, 3.0))
        edges.append(Edge(f"e{i}", u, v, length))
    return MetricGraph(vertices, edges)


@st.composite
def point_sets(draw, g: MetricGraph, min_size: int = 1) -> list[GraphPoint]:
    t = st.sampled_from(END_TS) | st.floats(0.0, 1.0)
    edge = st.sampled_from([e.id for e in g.edges])
    return draw(st.lists(st.builds(GraphPoint, edge, t), min_size=min_size, max_size=40))


@st.composite
def cases(draw):
    g = draw(graphs())
    return g, draw(point_sets(g)), draw(point_sets(g, min_size=0))


def index_of(g: MetricGraph, pts: list[GraphPoint]) -> FibreIndex:
    return FibreIndex(g, *point_arrays(g, pts))


def reference_distances_to_many(g: MetricGraph, p: GraphPoint, edge_idx, ts) -> np.ndarray:
    """``MetricGraph.distances_to_many`` before it became one row of
    ``distance_matrix``."""
    ep = g.edge_of(p.edge)
    arrays = graph_arrays(g)
    lens = arrays.length[edge_idx]
    qu = ts * lens
    qv = (1.0 - ts) * lens
    pu, pv = p.t * ep.length, (1.0 - p.t) * ep.length
    du = arrays.vdist[g._vidx[ep.u]]
    dv = arrays.vdist[g._vidx[ep.v]]
    best = np.minimum(
        np.minimum(pu + du[arrays.u[edge_idx]] + qu, pu + du[arrays.v[edge_idx]] + qv),
        np.minimum(pv + dv[arrays.u[edge_idx]] + qu, pv + dv[arrays.v[edge_idx]] + qv),
    )
    same = edge_idx == g._eidx[p.edge]
    if same.any():
        direct = np.abs(ts[same] - p.t) * ep.length
        best[same] = np.minimum(best[same], direct)
    return best


def reference_clusters(g: MetricGraph, pts: list[GraphPoint], cutoff: float) -> list[list[int]]:
    """Single linkage as ``classify_fibre`` grew it before the index: a
    breadth-first search with one ``distances_to_many`` per point."""
    n = len(pts)
    edge_idx = np.array([g.edge_index(p.edge) for p in pts], dtype=int)
    ts = np.array([p.t for p in pts])
    unseen = np.ones(n, dtype=bool)
    out: list[list[int]] = []
    for start in range(n):
        if not unseen[start]:
            continue
        comp = [start]
        unseen[start] = False
        frontier = [start]
        while frontier:
            i = frontier.pop()
            d = reference_distances_to_many(g, pts[i], edge_idx, ts)
            hits = np.where(unseen & (d <= cutoff))[0]
            for j in hits:
                unseen[j] = False
                comp.append(int(j))
                frontier.append(int(j))
        out.append(comp)
    return out


def linked_closure(g: MetricGraph, pts: list[GraphPoint], cutoff: float) -> set[frozenset[int]]:
    """Connected components of the pairs within cutoff in either direction."""
    ei, ts = point_arrays(g, pts)
    d = distance_matrix(g, ei, ts, ei, ts)
    linked = (d <= cutoff) | (d.T <= cutoff)
    label = list(range(len(pts)))
    changed = True
    while changed:
        changed = False
        for i, j in zip(*np.nonzero(linked)):
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    return {frozenset(i for i in range(len(pts)) if label[i] == k) for k in set(label)}


def brute_diameter(g, pts, comp) -> float:
    ei, tt = point_arrays(g, [pts[i] for i in comp])
    return max(float(reference_distances_to_many(g, pts[i], ei, tt).max()) for i in comp)


def brute_gap(g, pts, comps) -> float:
    gap = math.inf
    for a in range(len(comps)):
        ei, tt = point_arrays(g, [pts[i] for i in comps[a]])
        for b in range(a + 1, len(comps)):
            for i in comps[b]:
                gap = min(gap, float(reference_distances_to_many(g, pts[i], ei, tt).min()))
    return gap


def as_sets(comps) -> set[frozenset[int]]:
    return {frozenset(int(i) for i in c) for c in comps}


@settings(max_examples=300, deadline=None)
@given(cases())
def test_distance_matrix_equals_path_distance_and_the_old_kernel(case):
    g, pts, queries = case
    qe, qt = point_arrays(g, queries)
    pe, pt = point_arrays(g, pts)
    m = distance_matrix(g, qe, qt, pe, pt)
    for i, q in enumerate(queries):
        assert m[i].tolist() == reference_distances_to_many(g, q, pe, pt).tolist()
        assert m[i].tolist() == g.distances_to_many(q, pe, pt).tolist()
        assert m[i].tolist() == [g.path_distance(q, p) for p in pts]


@settings(max_examples=300, deadline=None)
@given(cases())
def test_nearest_equals_row_minima(case):
    g, pts, queries = case
    index = index_of(g, pts)
    pe, pt = point_arrays(g, pts)
    got = index.nearest(*point_arrays(g, queries))
    want = [float(reference_distances_to_many(g, q, pe, pt).min()) for q in queries]
    assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(cases(), st.floats(0.0, 2.0))
def test_components_equal_breadth_first_search(case, cutoff):
    g, pts, _ = case
    ei, ts = point_arrays(g, pts)
    d = distance_matrix(g, ei, ts, ei, ts)
    # d[i, j] and d[j, i] round differently in the last bit on some pairs; a
    # cutoff between the two makes the search's result depend on its start
    assume(((d <= cutoff) == (d.T <= cutoff)).all())
    got, _ = index_of(g, pts).components(cutoff)
    assert as_sets(got) == as_sets(reference_clusters(g, pts, cutoff))
    assert sorted(int(i) for c in got for i in c) == list(range(len(pts)))


@settings(max_examples=300, deadline=None)
@given(cases(), st.data())
def test_components_at_a_pairwise_distance_link_either_direction(case, data):
    g, pts, _ = case
    ei, ts = point_arrays(g, pts)
    d = distance_matrix(g, ei, ts, ei, ts).ravel()
    cutoff = data.draw(st.sampled_from(sorted(set(d[np.isfinite(d)].tolist()))))
    got, gap = index_of(g, pts).components(cutoff)
    assert as_sets(got) == linked_closure(g, pts, cutoff)
    assert gap == brute_gap(g, pts, got)


@settings(max_examples=300, deadline=None)
@given(cases(), st.floats(0.001, 0.3))
def test_gap_and_diameter_decisions_equal_brute_force(case, delta):
    g, pts, _ = case
    ei, ts = point_arrays(g, pts)
    comps, gap = FibreIndex(g, ei, ts).components(delta)
    cap = 10.0 * delta
    diams = [_cluster_diameter(g, ei, ts, c, cap) for c in comps]
    want = [brute_diameter(g, pts, c) for c in comps]
    for got, exact in zip(diams, want):
        assert got == exact if exact < cap else cap <= got <= exact
    assert (max(diams) < delta / 2.0) == (max(want) < delta / 2.0)
    assert (max(diams) < cap) == (max(want) < cap)
    assert gap == brute_gap(g, pts, comps)


def test_chained_points_form_one_component_through_a_vertex():
    # two loops at one vertex; points walk up to the vertex from both loops
    g = MetricGraph(["o"], [Edge("a", "o", "o", 1.0), Edge("b", "o", "o", 1.0)])
    pts = [GraphPoint("a", t) for t in (0.7, 0.8, 0.9, 0.99)]
    pts += [GraphPoint("b", t) for t in (0.02, 0.1, 0.2)]
    comps, gap = index_of(g, pts).components(0.11)
    assert as_sets(comps) == {frozenset(range(7))} and gap == math.inf
    assert as_sets(index_of(g, pts).components(0.095)[0]) == {
        frozenset({0}), frozenset({1}), frozenset({2, 3, 4, 5}), frozenset({6})
    }


#: steps of the brute-force grid on each edge
GRID_STEPS = 1000


@st.composite
def coverage_cases(draw):
    """A random graph with a loop, a twin of its first edge and an edge
    that holds no point, and a point set on the other edges."""
    g = draw(graphs())
    v0, e0 = g.vertices[0], g.edges[0]
    empty = Edge("empty", draw(st.sampled_from(g.vertices)), draw(st.sampled_from(g.vertices)),
                 draw(st.floats(0.01, 3.0)))
    edges = [*g.edges, Edge("loop", v0, v0, draw(st.floats(0.01, 3.0))),
             Edge("twin", e0.u, e0.v, e0.length), empty]
    g = MetricGraph(g.vertices, edges)
    t = st.sampled_from(END_TS) | st.floats(0.0, 1.0)
    edge = st.sampled_from([e.id for e in edges[:-1]])
    return g, draw(st.lists(st.builds(GraphPoint, edge, t), max_size=40))


def grid_distances(g: MetricGraph, pts: list[GraphPoint], e: int) -> tuple[np.ndarray, float]:
    """Distances to the set from a grid of GRID_STEPS steps on edge e, with
    the step in arc length."""
    grid = np.linspace(0.0, 1.0, GRID_STEPS + 1)
    pe, pt = point_arrays(g, pts)
    d = distance_matrix(g, np.full(len(grid), e), grid, pe, pt).min(axis=1, initial=math.inf)
    return d, graph_arrays(g).length[e] / GRID_STEPS


@settings(max_examples=200, deadline=None)
@given(coverage_cases(), st.floats(0.01, 3.0))
def test_covered_edges_equal_a_fine_grid_away_from_the_boundary(case, r):
    g, pts = case
    got = index_of(g, pts).covered_edges(r)
    for e in range(len(g.edges)):
        d, h = grid_distances(g, pts, e)
        # an uncovered point has a grid point within h / 2 that is farther
        # than r - h / 2; a covered edge has every grid point within r
        if (d <= r - h).all():
            assert got[e]
        if got[e]:
            assert (d <= r + h).all()


@settings(max_examples=200, deadline=None)
@given(coverage_cases(), st.data())
def test_distance_to_edges_equals_a_fine_grid(case, data):
    g, pts = case
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges))))
    assume(mask.any())
    got = index_of(g, pts).distance_to_edges(mask)
    grid = np.linspace(0.0, 1.0, GRID_STEPS + 1)
    for i, (e, t) in enumerate(zip(*point_arrays(g, pts))):
        if mask[e]:
            assert got[i] == 0.0
        else:
            # off the masked edges the least grid distance is at an end vertex
            d = distance_matrix(g, np.array([e]), np.array([t]),
                                  np.repeat(np.flatnonzero(mask), len(grid)), np.tile(grid, mask.sum()))
            assert got[i] == d.min()


def test_an_empty_set_covers_nothing():
    g = MetricGraph(["o"], [Edge("a", "o", "o", 1.0)])
    index = FibreIndex(g, np.array([], dtype=int), np.array([]))
    assert index.covered_edges(10.0).tolist() == [False]
