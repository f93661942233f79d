"""Graph-path questions checked against the earlier implementations they
replace: the Dijkstra route (``_vertex_route`` with ``_edge_between``) behind
``shortest_path_segments``, the depth-first component count, the four inline
forward/backward arc constructions that ``Circle.signed_arc`` stands for, and
the inline circle-disjointness test.  Each old form is copied verbatim.  A
call that could loop forever (an unreachable route end, an arc across a lap
boundary) runs under an alarm, so a hang fails the test.
"""
from __future__ import annotations

import contextlib
import heapq
import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemin.constructions import _case2_geometry, chained_loops_graph
from bundlemin.errors import Disconnected
from bundlemin.graphs import (
    Circle,
    Edge,
    GraphPoint,
    POINT_TOL,
    MetricGraph,
    PathSeg,
    circles_disjoint,
    enumerate_circles,
    reverse_path,
    shortest_path_segments,
)

# ---------------------------------------------------------------------------
# the earlier route code, verbatim


def _vertex_route(g: MetricGraph, a: str, b: str) -> list[str]:
    """Vertices along a shortest a-to-b walk (Dijkstra, smallest-id ties)."""
    if a == b:
        return [a]
    dist: dict[str, float] = {a: 0.0}
    prev: dict[str, str] = {}
    heap = [(0.0, a)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist.get(u, math.inf):
            continue
        for eid, end in sorted(g.germs_at(u)):
            e = g.edge_of(eid)
            w = e.v if end == 0 else e.u
            nd = du + e.length
            if nd < dist.get(w, math.inf) - 1e-15:
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    if b not in dist:
        raise Disconnected(f"no path from {a!r} to {b!r}")
    route = [b]
    while route[-1] != a:
        route.append(prev[route[-1]])
    return route[::-1]


def _edge_between(g: MetricGraph, a: str, b: str) -> tuple[str, int]:
    """Shortest edge joining adjacent vertices, returned with direction from a."""
    best: tuple[float, str, int] | None = None
    for e in g.edges:
        if e.u == a and e.v == b:
            cand = (e.length, e.id, 1)
        elif e.v == a and e.u == b:
            cand = (e.length, e.id, -1)
        else:
            continue
        if best is None or cand < best:
            best = cand
    if best is None:
        raise Disconnected(f"vertices {a!r}, {b!r} not adjacent")
    return best[1], best[2]


def old_shortest_path_segments(g: MetricGraph, p: GraphPoint, q: GraphPoint) -> tuple[PathSeg, ...]:
    """Directed segments of a shortest path from p to q."""
    ep, eq = g.edge_of(p.edge), g.edge_of(q.edge)
    options: list[tuple[float, tuple]] = []
    if p.edge == q.edge:
        options.append((abs(p.t - q.t) * ep.length, ("direct",)))
    pu, pv = p.t * ep.length, (1.0 - p.t) * ep.length
    qu, qv = q.t * eq.length, (1.0 - q.t) * eq.length
    for dp, a, ta in ((pu, ep.u, 0.0), (pv, ep.v, 1.0)):
        for dq, b, tb in ((qu, eq.u, 0.0), (qv, eq.v, 1.0)):
            options.append((dp + g.vertex_distance(a, b) + dq, ("via", a, ta, b, tb)))
    options.sort(key=lambda o: o[0])
    best = options[0][1]
    if best[0] == "direct":
        return (PathSeg(p.edge, p.t, q.t),)
    _, a, ta, b, tb = best
    segs: list[PathSeg] = []
    if abs(p.t - ta) > 0:
        segs.append(PathSeg(p.edge, p.t, ta))
    route = _vertex_route(g, a, b)
    for x, y in zip(route, route[1:]):
        eid, d = _edge_between(g, x, y)
        segs.append(PathSeg(eid, 0.0, 1.0) if d > 0 else PathSeg(eid, 1.0, 0.0))
    if abs(q.t - tb) > 0:
        segs.append(PathSeg(q.edge, tb, q.t))
    if not segs:
        segs.append(PathSeg(p.edge, p.t, p.t))
    return tuple(segs)


def old_n_components(self: MetricGraph) -> int:
    seen: set[str] = set()
    comps = 0
    for v in self.vertices:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            for eid, end in self._germs[w]:
                e = self.edge_of(eid)
                stack.append(e.v if end == 0 else e.u)
    return comps


def old_circles_disjoint(fibre: MetricGraph, circles: list[Circle]) -> bool:
    m = len(circles)
    vsets = [c.vertices(fibre) for c in circles]
    for i in range(m):
        for j in range(i + 1, m):
            if (vsets[i] & vsets[j]) or (circles[i].edge_ids() & circles[j].edge_ids()):
                return False
    return True


# ---------------------------------------------------------------------------
# the four inline arc forms, verbatim but for their inputs and return


def arc_rotation_pieces(target: Circle, g: MetricGraph, s_at_zero: float, span: float):
    if span >= 0:
        segs = target.arc_segments(g, s_at_zero, s_at_zero + span)
    else:
        segs = target.arc_segments(g, s_at_zero + span, s_at_zero)
        segs = tuple(PathSeg(s.edge, s.t1, s.t0) for s in reversed(segs))
    return segs


def arc_rotate_along(c: Circle, g2: MetricGraph, s0: float, shift: float, total: float, direction: int):
    if direction > 0:
        segs = c.arc_segments(g2, s0 + shift, s0 + shift + total)
    else:
        segs = c.arc_segments(g2, s0 + shift - total, s0 + shift)
        segs = tuple(PathSeg(s.edge, s.t1, s.t0) for s in reversed(segs))
    return segs


def arc_case2(circ: Circle, g: MetricGraph, s0: float, span: float):
    segs = (
        circ.arc_segments(g, s0, s0 + span)
        if span >= 0
        else tuple(
            PathSeg(sg.edge, sg.t1, sg.t0)
            for sg in reversed(circ.arc_segments(g, s0 + span, s0))
        )
    )
    return segs


def arc_retraction(c: Circle, g: MetricGraph, su: float, sv: float):
    fwd = (sv - su) % c.length
    bwd = (su - sv) % c.length
    if fwd <= bwd:
        return c.arc_segments(g, su, su + fwd)
    else:
        # traverse backwards: reverse the forward arc from sv
        segs = c.arc_segments(g, sv, sv + bwd)
        rev = tuple(PathSeg(s.edge, s.t1, s.t0) for s in reversed(segs))
        return rev


# ---------------------------------------------------------------------------
# helpers


def bits(segs) -> list[tuple[str, str, str]]:
    """Segments with their parameters as exact hex floats (so -0.0 != 0.0)."""
    return [(s.edge, float(s.t0).hex(), float(s.t1).hex()) for s in segs]


@contextlib.contextmanager
def time_limit(seconds: float):
    """Turn a call that does not return within the limit into a failure."""

    def fail(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_graph(rng: random.Random, n_vertices: int, length, connected: bool = True) -> MetricGraph:
    """Random multigraph: a spanning tree when connected, plus chords,
    parallel edges and loops, in shuffled order and orientation."""
    verts = [f"v{i}" for i in range(n_vertices)]
    pairs = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n_vertices)] if connected else []
    used = verts if connected else rng.sample(verts, rng.randint(1, n_vertices))
    pairs += [(rng.choice(used), rng.choice(used)) for _ in range(rng.randint(len(pairs) == 0, 6))]
    rng.shuffle(pairs)
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
    return MetricGraph(verts, [Edge(f"e{k}", u, v, length(rng)) for k, (u, v) in enumerate(pairs)])


def random_point(rng: random.Random, g: MetricGraph) -> GraphPoint:
    return GraphPoint(rng.choice(g.edges).id, rng.choice([0.0, 1.0, rng.random()]))


def assert_is_path(g: MetricGraph, segs, p: GraphPoint, q: GraphPoint) -> None:
    """segs run from p to q, each starting where the one before ends."""
    ends = [GraphPoint(s.edge, s.t0) for s in segs] + [q]
    starts = [p] + [GraphPoint(s.edge, s.t1) for s in segs]
    assert all(g.path_distance(a, b) <= POINT_TOL for a, b in zip(starts, ends))


# ---------------------------------------------------------------------------
# routes


class TestRouteWalk:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_dijkstra_route_with_distinct_lengths(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 8), lambda r: r.uniform(0.1, 2.0))
        p, q = random_point(rng, g), random_point(rng, g)
        assert bits(shortest_path_segments(g, p, q)) == bits(old_shortest_path_segments(g, p, q))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tied_lengths_give_a_shortest_path(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 8), lambda r: r.choice([1.0, 2.0]))
        p, q = random_point(rng, g), random_point(rng, g)
        segs = shortest_path_segments(g, p, q)
        assert_is_path(g, segs, p, q)
        assert sum(s.length(g) for s in segs) == pytest.approx(g.path_distance(p, q), rel=1e-12, abs=1e-12)

    def test_ties_take_the_first_germ_in_sorted_order(self):
        # a unit square a-b-c-d with a second unit edge beside a-b, and
        # pendant edges into a and out of c: from a to c the germs along
        # "ab1", "ab2" and "da" tie, and "ab1" sorts first
        g = MetricGraph(
            ("a", "b", "c", "d", "p", "q"),
            (
                Edge("da", "d", "a", 1.0),
                Edge("ab2", "a", "b", 1.0),
                Edge("ab1", "a", "b", 1.0),
                Edge("cb", "c", "b", 1.0),
                Edge("cd", "c", "d", 1.0),
                Edge("pa", "p", "a", 1.0),
                Edge("cq", "c", "q", 1.0),
            ),
        )
        segs = shortest_path_segments(g, GraphPoint("pa", 1.0), GraphPoint("cq", 0.0))
        assert segs == (PathSeg("ab1", 0.0, 1.0), PathSeg("cb", 1.0, 0.0))

    def test_unreachable_end_raises(self):
        g = MetricGraph(
            ("a", "b", "c", "d"),
            (Edge("x", "a", "b", 1.0), Edge("l", "b", "b", 1.0), Edge("y", "c", "d", 1.0)),
        )
        for p, q in (
            (GraphPoint("x", 0.5), GraphPoint("y", 0.5)),
            (GraphPoint("l", 0.5), GraphPoint("y", 1.0)),
            (GraphPoint("y", 0.0), GraphPoint("x", 0.0)),
        ):
            with time_limit(1.0), pytest.raises(Disconnected):
                shortest_path_segments(g, p, q)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unreachable_end_raises_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g1 = random_graph(rng, rng.randint(1, 5), lambda r: r.uniform(0.1, 2.0))
        g2 = random_graph(rng, rng.randint(1, 5), lambda r: r.uniform(0.1, 2.0))
        g = MetricGraph(
            [f"1{v}" for v in g1.vertices] + [f"2{v}" for v in g2.vertices],
            [Edge(f"{k}{e.id}", f"{k}{e.u}", f"{k}{e.v}", e.length) for k, h in ((1, g1), (2, g2)) for e in h.edges],
        )
        p = random_point(rng, g1)
        q = random_point(rng, g2)
        with time_limit(1.0), pytest.raises(Disconnected):
            shortest_path_segments(g, GraphPoint(f"1{p.edge}", p.t), GraphPoint(f"2{q.edge}", q.t))


# ---------------------------------------------------------------------------
# connectivity


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_depth_first_count(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 9), lambda r: r.choice([0.5, 1.0, 2.0]), connected=False)
        assert g.n_components() == old_n_components(g)
        assert g.is_connected() == (old_n_components(g) == 1)

    def test_isolated_vertices_and_several_components(self):
        g = MetricGraph(
            ("a", "b", "c", "d", "e", "f"),
            (Edge("x", "a", "b", 1.0), Edge("l", "d", "d", 1.0), Edge("y", "e", "c", 2.0)),
        )
        # {a, b}, {c, e}, {d}, {f}
        assert g.n_components() == old_n_components(g) == 4
        assert not g.is_connected()


# ---------------------------------------------------------------------------
# circles


def _circles():
    theta = MetricGraph(
        ("p", "q"),
        (Edge("a", "p", "q", 1.0), Edge("b", "q", "p", 0.7), Edge("c", "p", "q", 2.3)),
    )
    loops = MetricGraph(("v",), (Edge("s", "v", "v", 2 * math.pi),))
    square = MetricGraph(
        ("a", "b", "c", "d"),
        (Edge("ab", "a", "b", 0.3), Edge("cb", "c", "b", 1.1), Edge("cd", "c", "d", 0.6), Edge("ad", "a", "d", 0.9)),
    )
    out = [(g, c) for g in (theta, loops, square) for c in enumerate_circles(g)]
    # the circles of the theorem D fibres
    for pattern in ("point", "two", "arc"):
        geo = _case2_geometry(pattern, math.pi / 2)
        out += [(geo.graph, geo.outer), (geo.graph, geo.inner)]
    return out


SPANS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0, allow_nan=False))


class TestSignedArc:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_circles()), st.floats(0.0, 1.0, exclude_max=True), SPANS)
    def test_equals_the_inline_forms(self, gc, s0_frac, span_frac):
        g, c = gc
        s0, span = s0_frac * c.length, span_frac * c.length
        with time_limit(1.0):
            want = bits(c.signed_arc(g, s0, span))
        assert bits(arc_rotation_pieces(c, g, s0, span)) == want
        assert bits(arc_case2(c, g, s0, span)) == want
        # rotate_along_circle: start s0 + shift, length |span|, and a direction
        shift = 0.25 * c.length
        total = abs(span)
        for direction in (1, -1):
            assert bits(arc_rotate_along(c, g, s0, shift, total, direction)) == bits(
                c.signed_arc(g, s0 + shift, total if direction > 0 else -total)
            )

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_circles()), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
    def test_retraction_form(self, gc, su_frac, sv_frac):
        g, c = gc
        su, sv = su_frac * c.length, sv_frac * c.length
        fwd = (sv - su) % c.length
        bwd = (su - sv) % c.length
        new = c.signed_arc(g, su, fwd) if fwd <= bwd else reverse_path(c.signed_arc(g, sv, bwd))
        assert bits(new) == bits(arc_retraction(c, g, su, sv))

    def test_arc_past_a_lap_boundary_returns(self):
        # on the second lap of this circle s - lap start rounds to just
        # below the end of its first step, where the arc used to stop moving
        g, c = next((g, c) for g, c in _circles() if len(c.steps) == 4)
        with time_limit(1.0):
            segs = c.signed_arc(g, 0.5 * c.length, c.length)
        assert sum(sg.length(g) for sg in segs) == pytest.approx(c.length)
        assert all(0.0 <= t <= 1.0 for sg in segs for t in (sg.t0, sg.t1))
        assert_is_path(g, segs, c.point_at(g, 0.5 * c.length), c.point_at(g, 0.5 * c.length))

    def test_segment_ends_past_the_first_lap_stay_on_their_edge(self):
        # from just below the start of the fifth lap, the first segment's
        # end used to round to 1.0000000000000004
        geo = _case2_geometry("two", math.pi / 2)
        c = geo.inner
        segs = c.signed_arc(geo.graph, math.nextafter(4 * c.length, 0.0), 2.977)
        assert segs[0].edge == "n2" and segs[0].t1 == 1.0
        assert all(0.0 <= t <= 1.0 for sg in segs for t in (sg.t0, sg.t1))

    def test_segment_ends_stay_on_their_edge_in_a_seeded_sweep(self):
        # 40,000 arcs starting anywhere in the first four laps of both
        # circles of the two-point geometry
        geo = _case2_geometry("two", math.pi / 2)
        rng = random.Random(0)
        outside = []
        for c in (geo.outer, geo.inner):
            for _ in range(20000):
                s0, span = rng.uniform(0.0, 4.0 * c.length), rng.uniform(-c.length, c.length)
                segs = c.signed_arc(geo.graph, s0, span)
                outside += [(s0, span) for sg in segs for t in (sg.t0, sg.t1) if not 0.0 <= t <= 1.0]
        assert outside == []

    def test_reverse_path(self):
        path = (PathSeg("a", 0.2, 1.0), PathSeg("b", 0.0, 0.5))
        assert reverse_path(path) == (PathSeg("b", 0.5, 0.0), PathSeg("a", 1.0, 0.2))
        assert reverse_path(reverse_path(path)) == path


class TestCirclesDisjoint:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_the_inline_test(self, m):
        g = chained_loops_graph(m)
        circles = enumerate_circles(g)
        for k in range(len(circles) + 1):
            for chosen in (circles[:k], circles[k:], circles[::2], circles[1::2]):
                assert circles_disjoint(g, chosen) == old_circles_disjoint(g, chosen)
