"""Metric graphs, circles, graph maps, retraction, rotation number."""
from __future__ import annotations

import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bundlemin import fibre_index
from bundlemin.errors import InvalidPoint, WrongInput
from bundlemin.graphs import (
    Edge,
    GraphMap,
    GraphPoint,
    MapPiece,
    PathSeg,
    build_retraction,
    check_continuity,
    circle_graph,
    circle_rotation_pieces,
    MetricGraph,
    enumerate_circles,
    eval_graph_map,
    identity_map,
    interval_graph,
    rotation_number,
    rotation_number_of_circle_map,
    shortest_path_segments,
    star_graph,
)
from bundlemin.fibre_index import distance_matrix, graph_arrays, point_arrays, star_branch_counts
from bundlemin.constructions import build_torus_on_mobius

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def theta_graph():
    # two vertices joined by three arcs of lengths 1, 1, 2
    return MetricGraph(
        ["p", "q"], [Edge("a", "p", "q", 1.0), Edge("b", "p", "q", 1.0), Edge("c", "p", "q", 2.0)]
    )


def figure_eight():
    return MetricGraph(["v"], [Edge("l", "v", "v", 1.0), Edge("r", "v", "v", 1.0)])


class TestBuildGraph:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(WrongInput, match=r"^edge 'e' has length 0\.0$"):
            MetricGraph(["v"], [Edge("e", "v", "v", 0.0)])

    def test_detects_disconnected(self):
        g = MetricGraph(["a", "b", "c", "d"], [Edge("e1", "a", "b", 1.0), Edge("e2", "c", "d", 1.0)])
        assert not g.is_connected()
        assert g.n_components() == 2

    def test_point_validation(self):
        g = interval_graph(1.0)
        with pytest.raises(InvalidPoint):
            g.validate_point(GraphPoint("I", 1.5))
        with pytest.raises(InvalidPoint):
            g.edge_of("nope")


@st.composite
def random_graphs(draw):
    """A graph on up to 7 vertices with up to 9 edges between any two of
    them: disconnected graphs, isolated vertices, self-loops and parallel
    edges all occur."""
    n = draw(st.integers(1, 7))
    ends = st.integers(0, n - 1)
    lengths = st.floats(1e-3, 10.0) | st.sampled_from([0.1, 0.2, 0.3, 1.0])
    edges = draw(st.lists(st.tuples(ends, ends, lengths), max_size=9))
    return MetricGraph(
        [f"v{i}" for i in range(n)], [Edge(f"e{k}", f"v{i}", f"v{j}", L) for k, (i, j, L) in enumerate(edges)]
    )


def bfs_component_count(g: MetricGraph) -> int:
    adjacent = {v: set() for v in g.vertices}
    for e in g.edges:
        adjacent[e.u].add(e.v)
        adjacent[e.v].add(e.u)
    seen: set[str] = set()
    count = 0
    for v in g.vertices:
        if v in seen:
            continue
        count += 1
        frontier = [v]
        seen.add(v)
        while frontier:
            frontier = [w for u in frontier for w in adjacent[u] if w not in seen]
            seen.update(frontier)
    return count


def brute_force_distances(g: MetricGraph, source: str) -> dict[str, float]:
    """Dijkstra without a heap: settle the nearest unsettled vertex, each
    distance summed along its path from the source."""
    dist = {v: math.inf for v in g.vertices}
    dist[source] = 0.0
    unsettled = set(g.vertices)
    while unsettled:
        u = min(sorted(unsettled), key=dist.__getitem__)
        unsettled.discard(u)
        for e in g.edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if a == u and dist[u] + e.length < dist[b]:
                    dist[b] = dist[u] + e.length
    return dist


def float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


class TestVertexDistances:
    """The model's vertex distances are Python floats; the array layer's
    matrix holds the same bits."""

    @given(g=random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_components_distances_and_their_matrix(self, g):
        assert g.n_components() == bfs_component_count(g)
        assert g.is_connected() == (bfs_component_count(g) == 1)
        for a in g.vertices:
            want = brute_force_distances(g, a)
            for b in g.vertices:
                d = g.vertex_distance(a, b)
                assert type(d) is float and d == want[b]
        vdist = graph_arrays(g).vdist
        assert vdist.dtype == np.float64 and vdist.shape == (len(g.vertices),) * 2
        assert vdist.view(np.int64).tolist() == [
            [float_bits(g.vertex_distance(a, b)) for b in g.vertices] for a in g.vertices
        ]

    def test_the_arrays_are_built_once_per_graph(self):
        g = theta_graph()
        assert graph_arrays(g) is graph_arrays(g)
        assert graph_arrays(g) is not graph_arrays(theta_graph())


class TestPathDistance:
    def test_same_edge(self):
        g = interval_graph(2.0)
        d = g.path_distance(GraphPoint("I", 0.25), GraphPoint("I", 0.75))
        assert d == pytest.approx(1.0)

    def test_across_vertex(self):
        g = star_graph(3, 1.0)
        # two leg tips meet only through the centre
        d = g.path_distance(GraphPoint("b1", 1.0), GraphPoint("b2", 1.0))
        assert d == pytest.approx(2.0)

    def test_loop_shortcut(self):
        g = circle_graph(1.0)
        d = g.path_distance(GraphPoint("c", 0.1), GraphPoint("c", 0.9))
        # around the loop through the vertex is shorter than along the edge
        assert d == pytest.approx(0.2)

    def test_triangle_inequality_on_theta(self):
        g = theta_graph()
        pts = [
            GraphPoint("a", 0.3),
            GraphPoint("b", 0.7),
            GraphPoint("c", 0.5),
            GraphPoint("a", 0.0),
        ]
        for x, y, z in itertools.permutations(pts, 3):
            assert g.path_distance(x, z) <= (
                g.path_distance(x, y) + g.path_distance(y, z) + 1e-12
            )

    @given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_identity(self, s, t):
        g = theta_graph()
        x, y = GraphPoint("a", s), GraphPoint("c", t)
        assert g.path_distance(x, y) == pytest.approx(g.path_distance(y, x))
        assert g.path_distance(x, x) == 0.0

    def test_vertex_identification(self):
        g = theta_graph()
        # a(1) and b(1) are both vertex q
        assert g.path_distance(GraphPoint("a", 1.0), GraphPoint("b", 1.0)) == 0.0

    def test_vectorized_matches_scalar(self):
        import numpy as np

        g = theta_graph()
        pts = [GraphPoint(e, t / 7.0) for e in ("a", "b", "c") for t in range(8)]
        edge_idx = np.array([g.edge_index(q.edge) for q in pts])
        ts = np.array([q.t for q in pts])
        p = GraphPoint("c", 0.31)
        fast = g.distances_to_many(p, edge_idx, ts)
        slow = [g.path_distance(p, q) for q in pts]
        assert np.allclose(fast, slow, atol=1e-12)


class TestPointOrder:
    """The order of a vertex is its germ count; a self-loop gives two."""

    def test_theta_vertex_is_three(self):
        g = theta_graph()
        assert len(g.germs_at(g.vertex_of(GraphPoint("a", 0.0)))) == 3

    def test_interval_tip_is_one(self):
        g = interval_graph(1.0)
        assert len(g.germs_at(g.vertex_of(GraphPoint("I", 0.0)))) == 1

    def test_figure_eight_vertex_is_four(self):
        g = figure_eight()
        assert len(g.germs_at(g.vertex_of(GraphPoint("l", 0.0)))) == 4


def _brute_force_circle_count(g) -> int:
    """Oracle: count edge subsets forming a single simple cycle
    (every touched vertex has degree exactly 2 and the subset is connected)."""
    count = 0
    for r in range(1, len(g.edges) + 1):
        for subset in itertools.combinations(g.edges, r):
            deg: dict[str, int] = {}
            adj: dict[str, set[str]] = {}
            for e in subset:
                deg[e.u] = deg.get(e.u, 0) + 1
                deg[e.v] = deg.get(e.v, 0) + 1
                adj.setdefault(e.u, set()).add(e.v)
                adj.setdefault(e.v, set()).add(e.u)
            if any(d != 2 for d in deg.values()):
                continue
            start = subset[0].u
            seen = {start}
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == len(deg):
                count += 1
    return count


class TestCircles:
    def test_loop_is_a_circle(self):
        g = circle_graph(2.0)
        cs = enumerate_circles(g)
        assert len(cs) == 1
        assert cs[0].length == pytest.approx(2.0)

    def test_theta_has_three(self):
        assert len(enumerate_circles(theta_graph())) == 3

    def test_figure_eight_has_two(self):
        assert len(enumerate_circles(figure_eight())) == 2

    def test_star_has_none(self):
        assert enumerate_circles(star_graph(4, 1.0)) == []

    @pytest.mark.parametrize(
        "maker",
        [theta_graph, figure_eight, lambda: star_graph(4, 1.0), lambda: circle_graph(1.0)],
    )
    def test_count_matches_brute_force(self, maker):
        g = maker()
        assert len(enumerate_circles(g)) == _brute_force_circle_count(g)

    def test_canonical_orientation_is_stable(self):
        g = theta_graph()
        assert [c.steps for c in enumerate_circles(g)] == [
            c.steps for c in enumerate_circles(g)
        ]

    def test_coord_point_roundtrip(self):
        g = theta_graph()
        c = enumerate_circles(g)[0]
        for s in [0.0, 0.1, 0.47, 0.93]:
            p = c.point_at(g, s * c.length)
            assert c.coord_of(g, p) == pytest.approx(s * c.length, abs=1e-9)

    def test_vertices_are_both_edge_ends(self):
        g = theta_graph()
        assert [c.vertices(g) for c in enumerate_circles(g)] == [frozenset("pq")] * 3
        g = figure_eight()
        assert [c.vertices(g) for c in enumerate_circles(g)] == [frozenset("v")] * 2

    def test_contains(self):
        g = theta_graph()
        c = next(cc for cc in enumerate_circles(g) if "c" not in cc.edge_ids())
        assert c.contains_point(g, GraphPoint("a", 0.5))
        assert not c.contains_point(g, GraphPoint("c", 0.5))

    def test_coord_off_circle_rejected(self):
        g = theta_graph()
        c = next(cc for cc in enumerate_circles(g) if "c" not in cc.edge_ids())
        with pytest.raises(WrongInput, match=r"^point .* does not lie on this circle$"):
            c.coord_of(g, GraphPoint("c", 0.5))

    def test_arc_segments_cover_arc_length(self):
        g = theta_graph()
        c = enumerate_circles(g)[0]
        segs = c.arc_segments(g, 0.3, 0.3 + 0.8 * c.length)
        total = sum(s.length(g) for s in segs)
        assert total == pytest.approx(0.8 * c.length, abs=1e-12)


def _doubling_map(g) -> GraphMap:
    pieces = {
        "c": (
            MapPiece(0.0, 0.5, (PathSeg("c", 0.0, 1.0),)),
            MapPiece(0.5, 1.0, (PathSeg("c", 0.0, 1.0),)),
        )
    }
    return GraphMap(g, g, pieces)


class TestGraphMaps:
    def test_identity(self):
        g = theta_graph()
        f = identity_map(g)
        for p in [GraphPoint("a", 0.3), GraphPoint("c", 0.99)]:
            assert g.path_distance(p, eval_graph_map(f, p)) < 1e-12

    def test_continuity_accepts_identity(self):
        assert check_continuity(identity_map(theta_graph()))

    def test_continuity_rejects_jump(self):
        g = interval_graph(1.0)
        # two pieces that disagree at t = 0.5
        f = GraphMap(
            g,
            g,
            {
                "I": (
                    MapPiece(0.0, 0.5, (PathSeg("I", 0.0, 0.5),)),
                    MapPiece(0.5, 1.0, (PathSeg("I", 0.9, 1.0),)),
                )
            },
        )
        assert not check_continuity(f)

    def test_doubling_on_loop(self):
        g = circle_graph(1.0)
        f = _doubling_map(g)
        assert check_continuity(f)
        assert eval_graph_map(f, GraphPoint("c", 0.3)).t == pytest.approx(0.6)
        assert eval_graph_map(f, GraphPoint("c", 0.8)).t == pytest.approx(0.6)

    def test_compose(self):
        g = circle_graph(1.0)
        f = _doubling_map(g)
        q = eval_graph_map(f, eval_graph_map(f, GraphPoint("c", 0.1)))
        assert q.t == pytest.approx(0.4)

    @given(t=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_doubling_semiconjugacy(self, t):
        # graph-map evaluation of angle doubling matches 2t mod 1
        g = circle_graph(1.0)
        f = _doubling_map(g)
        q = eval_graph_map(f, GraphPoint("c", t))
        expect = (2.0 * t) % 1.0
        err = min(abs(q.t - expect), 1.0 - abs(q.t - expect))
        assert err < 1e-12


class TestRetraction:
    def test_idempotent_and_fixes_circle(self):
        g = theta_graph()
        c = next(cc for cc in enumerate_circles(g) if "c" not in cc.edge_ids())
        r = build_retraction(g, c)
        assert check_continuity(r)
        for p in [GraphPoint("a", 0.2), GraphPoint("b", 0.8), GraphPoint("c", 0.5)]:
            q = eval_graph_map(r, p)
            assert c.contains_point(g, q)
            assert g.path_distance(q, eval_graph_map(r, q)) < 1e-12

    def test_rotation_pieces(self):
        g = circle_graph(1.0)
        c = enumerate_circles(g)[0]
        f = GraphMap(g, g, {"c": circle_rotation_pieces(g, "c", c, 0.25, 1.0)})
        assert check_continuity(f)
        q = eval_graph_map(f, GraphPoint("c", 0.5))
        s = c.coord_of(g, q)
        assert s == pytest.approx(0.75, abs=1e-12)


class TestShortestPath:
    def test_path_hits_endpoints(self):
        g = star_graph(3, 1.0)
        p, q = GraphPoint("b1", 0.7), GraphPoint("b3", 0.4)
        segs = shortest_path_segments(g, p, q)
        assert segs[0].edge == "b1"
        assert segs[-1].edge == "b3"
        total = sum(s.length(g) for s in segs)
        assert total == pytest.approx(g.path_distance(p, q))

    def test_same_edge_path(self):
        g = interval_graph(1.0)
        segs = shortest_path_segments(g, GraphPoint("I", 0.2), GraphPoint("I", 0.9))
        assert len(segs) == 1
        assert segs[0].length(g) == pytest.approx(0.7)


def branch_counts(g, fibre_sample, ps, r, delta):
    """``star_branch_counts`` of each point of ps against the sample, read
    from their ``distance_matrix`` rows; a point is an end-point when its
    count is below 2."""
    pe, pt = point_arrays(g, ps)
    qe, qt = point_arrays(g, fibre_sample)
    return star_branch_counts(g, [(pe, pt, qe, qt, distance_matrix(g, pe, pt, qe, qt))], r, delta)


def branch_count(g, fibre_sample, p, r, delta):
    """``branch_counts`` of the one point p."""
    return int(branch_counts(g, fibre_sample, [p], r, delta)[0])


class TestLocalClass:
    def test_interval_endpoint(self):
        g = interval_graph(1.0)
        pts = [GraphPoint("I", t / 100.0) for t in range(101)]
        assert branch_count(g, pts, GraphPoint("I", 0.0), r=0.2, delta=0.02) == 1

    def test_interval_interior(self):
        g = interval_graph(1.0)
        pts = [GraphPoint("I", t / 100.0) for t in range(101)]
        assert branch_count(g, pts, GraphPoint("I", 0.5), r=0.2, delta=0.02) == 2

    def test_star_centre(self):
        g = star_graph(3, 1.0)
        pts = [GraphPoint(f"b{i}", t / 50.0) for i in (1, 2, 3) for t in range(51)]
        assert branch_count(g, pts, GraphPoint("b1", 0.0), r=0.2, delta=0.02) == 3

    def test_isolated_point(self):
        g = interval_graph(1.0)
        assert branch_count(g, [GraphPoint("I", 0.5)], GraphPoint("I", 0.5), 0.2, 0.02) == 0

    def test_scale_order_enforced(self):
        g = interval_graph(1.0)
        with pytest.raises(WrongInput, match=r"^need delta < r, got delta=0\.02, r=0\.01$"):
            branch_count(g, [], GraphPoint("I", 0.5), r=0.01, delta=0.02)


def reference_initial_germ(g, p, q, delta):
    """``graphs._initial_germ``, the scalar departure germ that the
    vectorised germ count replaced, verbatim."""
    ep = g.edge_of(p.edge)
    v = None
    if p.t * ep.length <= delta:
        v = ep.u
    elif (1.0 - p.t) * ep.length <= delta:
        v = ep.v
    if v is not None:
        best, best_germ = math.inf, None
        eq = g.edge_of(q.edge)
        qu, qv = q.t * eq.length, (1.0 - q.t) * eq.length
        for eid, end in g.germs_at(v):
            e = g.edge_of(eid)
            other = e.v if end == 0 else e.u
            d = e.length + min(
                qu + g.vertex_distance(other, eq.u), qv + g.vertex_distance(other, eq.v)
            )
            if q.edge == eid:
                # q reachable within the germ's edge without leaving it
                d_in = (q.t - 0.0) * e.length if end == 0 else (1.0 - q.t) * e.length
                d = min(d, d_in)
            if d < best:
                best, best_germ = d, (eid, end)
        assert best_germ is not None
        return best_germ
    # interior point: leave along +t or -t on p's own edge
    eq = g.edge_of(q.edge)
    qu, qv = q.t * eq.length, (1.0 - q.t) * eq.length
    d_minus = p.t * ep.length + min(
        qu + g.vertex_distance(ep.u, eq.u), qv + g.vertex_distance(ep.u, eq.v)
    )
    d_plus = (1.0 - p.t) * ep.length + min(
        qu + g.vertex_distance(ep.v, eq.u), qv + g.vertex_distance(ep.v, eq.v)
    )
    if q.edge == p.edge:
        if q.t >= p.t:
            d_plus = min(d_plus, (q.t - p.t) * ep.length)
        else:
            d_minus = min(d_minus, (p.t - q.t) * ep.length)
    return (p.edge, 0) if d_minus < d_plus else (p.edge, 1)


def reference_branch_count(g, fibre_sample, p, r, delta):
    """The branch count of the per-point classifier with its per-candidate
    germ loop and witness dict, as it was before the vectorised germ count."""
    edge_idx, ts = point_arrays(g, fibre_sample)
    dist = g.distances_to_many(p, edge_idx, ts)
    witnesses = {}
    for j in np.flatnonzero((dist > delta) & (dist <= r)):
        d = float(dist[j])
        germ = reference_initial_germ(g, p, fibre_sample[j], delta)
        if d < witnesses.get(germ, math.inf):
            witnesses[germ] = d
    return sum(1 for d in witnesses.values() if d <= 2.0 * delta)


# t values at and next to the edge ends, where the germ comparisons tie
END_TS = [0.0, 1.0, 5e-324, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 0.5]


@st.composite
def germ_cases(draw):
    """A graph with loops and parallel edges, a point p, a sample, and
    scales (r, delta) set so that one sample distance, or p's distance to
    an end of its edge, falls exactly on delta, 2 delta, r or the
    vertex-proximity bound, or one float step either side of it."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [
        Edge(f"e{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)),
             draw(st.sampled_from([0.1, 0.3, 1.0]) | st.floats(0.01, 3.0)))
        for i in range(draw(st.integers(1, 6)))
    ]
    g = MetricGraph(vertices, edges)
    edge = st.sampled_from([e.id for e in edges])
    # p within reach of a vertex as well as in the interior
    p = draw(st.builds(GraphPoint, edge, st.sampled_from(END_TS) | st.floats(0.0, 0.05)
                       | st.floats(0.95, 1.0) | st.floats(0.0, 1.0)))
    pts = draw(st.lists(st.builds(GraphPoint, edge, st.sampled_from(END_TS) | st.floats(0.0, 1.0)),
                        min_size=1, max_size=40))
    dist = g.distances_to_many(p, *point_arrays(g, pts))
    ep = g.edge_of(p.edge)
    tie = draw(st.sampled_from(["delta", "two-delta", "r", "vertex-u", "vertex-v"]))
    if tie.startswith("vertex"):
        d = p.t * ep.length if tie == "vertex-u" else (1.0 - p.t) * ep.length
    else:
        d = float(dist[draw(st.integers(0, len(pts) - 1))])
    assume(math.isfinite(d) and d > 1e-300)
    d = draw(st.sampled_from([d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)]))
    ratio = draw(st.sampled_from([1.5, 2.0, 3.0, 4.5]))
    if tie == "r":
        r, delta = d, d / ratio
    else:
        delta = d / 2.0 if tie == "two-delta" else d
        r = delta * ratio
    return g, pts, p, r, delta


class TestGermCountEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(germ_cases())
    def test_matches_scalar_germ_loop(self, case):
        g, pts, p, r, delta = case
        assume(delta < r)
        assert branch_count(g, pts, p, r, delta) == reference_branch_count(g, pts, p, r, delta)

    def test_vertex_tie_goes_to_first_germ(self):
        # p at the vertex of a loop of length 0.5: the antipode q is 0.25 away
        # along both germs, and the tie goes to (c, 0), q2's germ, so k = 1
        g = circle_graph(0.5)
        p, q, q2 = GraphPoint("c", 0.0), GraphPoint("c", 0.5), GraphPoint("c", 0.4)
        got = branch_count(g, [q, q2], p, 0.45, 0.15)
        assert got == reference_branch_count(g, [q, q2], p, 0.45, 0.15)
        assert got == 1

    def test_interior_tie_goes_to_plus_t(self):
        # p at the middle of the loop: the vertex q is 0.25 away both ways, and
        # -t is taken only when strictly shorter, so q departs along +t and
        # q2 (0.2 away along -t) makes the second germ
        g = circle_graph(0.5)
        p, q, q2 = GraphPoint("c", 0.5), GraphPoint("c", 0.0), GraphPoint("c", 0.1)
        got = branch_count(g, [q, q2], p, 0.45, 0.15)
        assert got == reference_branch_count(g, [q, q2], p, 0.45, 0.15)
        assert got == 2

    def test_vertex_proximity_bound_is_inclusive(self):
        # p exactly delta from the centre of a star takes the centre's germs,
        # so the two legs count twice; one float step further out, p is inside
        # its edge and both legs leave along -t
        g = star_graph(3, 1.0)
        pts = [GraphPoint("b2", 0.01), GraphPoint("b3", 0.01)]
        for t, k in ((0.02, 2), (math.nextafter(0.02, 1.0), 1)):
            p = GraphPoint("b1", t)
            got = branch_count(g, pts, p, 0.06, 0.02)
            assert got == reference_branch_count(g, pts, p, 0.06, 0.02)
            assert got == k


#: the fibres the array classifier is checked on; every edge has length 1
CLASSIFIER_FIBRES = {
    "interval": interval_graph(1.0),
    "star": star_graph(3, 1.0),
    "circle": circle_graph(1.0),
    "torus-on-mobius": build_torus_on_mobius().system.bundle.fibre,
}

#: edge parameters where the germ comparisons tie: the ends, the middle
#: and the quarter points
TIE_TS = [0.0, 1.0, 0.5, 0.25, 0.75]


def _within_a_step(x):
    """x, or one float step below or above it."""
    return st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)])


@st.composite
def classifier_slices(draw):
    """A fibre, a random slice of it, the points p (rows) to classify and
    scales (r, delta).  Rows lie at random, at the tie points, and delta
    from a vertex or one float step either side of that; the slice holds
    random and tie points and points delta and 2 delta along the edge from
    some rows.  delta is drawn, or set so that one row's distance to a
    slice point is delta or 2 delta, or one float step either side."""
    g = CLASSIFIER_FIBRES[draw(st.sampled_from(sorted(CLASSIFIER_FIBRES)))]
    delta = draw(st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.3]))
    edge = st.sampled_from([e.id for e in g.edges])
    ts = st.sampled_from(TIE_TS) | st.floats(0.0, 1.0)
    row_ts = ts | _within_a_step(delta) | _within_a_step(1.0 - delta)
    rows = draw(st.lists(st.builds(GraphPoint, edge, row_ts), min_size=1, max_size=8))
    pts = draw(st.lists(st.builds(GraphPoint, edge, ts), min_size=1, max_size=12))
    for p in rows[:draw(st.integers(0, len(rows)))]:
        for along in (delta, 2.0 * delta):
            t = p.t + draw(st.sampled_from([along, -along]))
            if 0.0 <= t <= 1.0:
                pts.append(GraphPoint(p.edge, t))
    snap = draw(st.sampled_from(["drawn", "delta", "two-delta"]))
    if snap != "drawn":
        dist = distance_matrix(g, *point_arrays(g, rows), *point_arrays(g, pts))
        d = float(dist[draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(pts) - 1))])
        if d > 1e-300:
            d = draw(_within_a_step(d))
            delta = d if snap == "delta" else d / 2.0
    r = delta * draw(st.sampled_from([1.5, 2.0, 3.0, 4.5]))
    return g, pts, rows, r, delta


class TestArrayClassifier:
    # the middle of the unit loop is 0.5 from its vertex both ways, and -t
    # is taken only when strictly shorter: the vertex and the point at 0.9
    # both depart along +t, so k = 1
    @example((circle_graph(1.0), [GraphPoint("c", 0.0), GraphPoint("c", 0.9)], [GraphPoint("c", 0.5)],
              0.9, 0.3))
    @settings(max_examples=400, deadline=None)
    @given(classifier_slices())
    def test_every_row_matches_the_scalar_classifier(self, case):
        g, pts, rows, r, delta = case
        got = branch_counts(g, pts, rows, r, delta)
        assert got.tolist() == [reference_branch_count(g, pts, p, r, delta) for p in rows]

    @settings(max_examples=200, deadline=None)
    @given(classifier_slices(), st.data())
    def test_rows_split_over_blocks_and_germ_passes(self, case, data):
        # each block has its own rows and its own part of the slice, and a
        # germ pass runs once as few as one pair is held
        g, pts, rows, r, delta = case
        blocks, want = [], []
        while rows:
            cut = data.draw(st.integers(1, len(rows)))
            part = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=len(pts)))
            pe, pt = point_arrays(g, rows[:cut])
            qe, qt = point_arrays(g, part)
            blocks.append((pe, pt, qe, qt, distance_matrix(g, pe, pt, qe, qt)))
            want += [reference_branch_count(g, part, p, r, delta) for p in rows[:cut]]
            rows = rows[cut:]
        pass_pairs = data.draw(st.sampled_from([1, 5, fibre_index.GERM_PASS_PAIRS]))
        with mock.patch.object(fibre_index, "GERM_PASS_PAIRS", pass_pairs):
            assert star_branch_counts(g, iter(blocks), r, delta).tolist() == want


class TestRotationNumber:
    def test_pure_rotation(self):
        rho = rotation_number_of_circle_map(lambda x: (x + GOLDEN) % 1.0, 0.1, 20_000)
        assert rho == pytest.approx(GOLDEN, abs=1e-3)

    def test_rational_rotation(self):
        rho = rotation_number_of_circle_map(lambda x: (x + 0.25) % 1.0, 0.0, 10_000)
        assert rho == pytest.approx(0.25, abs=1e-6)

    def test_perturbed_irrational(self):
        # circle diffeo close to the golden rotation
        def f(x):
            return (x + GOLDEN + 0.01 * math.sin(2 * math.pi * x) / (2 * math.pi)) % 1.0

        rho = rotation_number_of_circle_map(f, 0.3, 50_000)
        assert abs(rho - GOLDEN) < 5e-3

    def test_graph_map_rotation(self):
        g = circle_graph(1.0)
        c = enumerate_circles(g)[0]
        f = GraphMap(g, g, {"c": circle_rotation_pieces(g, "c", c, GOLDEN, 1.0)})
        assert check_continuity(f)
        rho = rotation_number(f, c, 20_000)
        assert rho == pytest.approx(GOLDEN, abs=1e-3)
