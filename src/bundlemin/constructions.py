"""Factory functions returning fully-built skew systems: the interval-fibre
band with flipped gluing, the two-circles-joined-by-an-interval band, the
coding-system cylinder, products with a rotated circle retraction, cyclic
circle permutations, and the two blown-up-odometer constructions whose
exceptional fibre carries two circles (disjoint or intersecting).

Each factory returns a ConstructionResult bundling the system with its
orbit seed rule and its slice width; its docstring states the minimal set
it claims, and the system's ``reference`` holds only the values the
command line and the tests read.  ``CONSTRUCTIONS`` maps each
command-line name to a builder that reads the factory's keyword defaults
as its parameter declaration.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .base_systems import (
    DEFAULT_STURMIAN_K,
    GOLDEN,
    BaseSystem,
    CircleAngle,
    circle_rotation,
    doubled_cantor,
    quotient_base,
    sturmian,
)
from .bundles import Bundle, BundlePoint, SkewSystem, monodromy_bundle
from .errors import WrongInput
from .graphs import (
    Circle,
    Edge,
    GraphMap,
    GraphPoint,
    MapPiece,
    MetricGraph,
    PathSeg,
    build_retraction,
    circle_graph,
    circle_rotation_pieces,
    circles_disjoint,
    enumerate_circles,
    identity_map,
    rotate_along_circle,
    shortest_path_segments,
)

TWO_PI = 2.0 * math.pi
SQRT2_FRAC = math.sqrt(2.0) - 1.0
#: the theorem-d rotation, equidistributed along the odometer's return times
#: 2, 4, ..., 2^200: the 281-bit truncation of frac(sqrt(3)), the first
#: candidate of an exact star-discrepancy search whose discrepancy over those
#: times is below 0.05, rounded to a float
THEOREM_D_ROTATION = 0.7320508075688773


@dataclass(frozen=True)
class ConstructionResult:
    """A built system with its orbit seed rule and the base width of its
    fibre slices (None: the sample's delta).

    ``seed_rule(i)`` is the orbit seed for seed index i; without one, the
    seed is the i-th base sample point on the first fibre edge at t = 0.37.
    """

    system: SkewSystem
    note: str = ""
    seed_rule: Optional[Callable[[int], BundlePoint]] = field(default=None, compare=False)
    delta_base: Optional[float] = None

    def seed(self, i: int) -> BundlePoint:
        if self.seed_rule is not None:
            return self.seed_rule(i)
        return _sampled_seed(self.system, i)


def _sampled_seed(s: SkewSystem, i: int) -> BundlePoint:
    return BundlePoint(s.base.sampler(i + 1)[-1], GraphPoint(s.bundle.fibre.edges[0].id, 0.37))


# ---------------------------------------------------------------------------
# interval-fibre band with orientation-reversing gluing


def build_mobius(alpha: float = GOLDEN) -> ConstructionResult:
    """Band over a rotation whose fibre interval flips on each base loop.

    Fibre coordinate y = 2t - 1 on the interval edge of length 2; the
    centre section y = 0 (t = 0.5) is invariant, and the boundary pair
    y = +-1 (t = 0 and 1) forms a single circle double-covering the base:
    its fibres have two points and it turns with rotation number alpha/2.
    These are the two minimal sets the construction exhibits.
    """
    fibre = MetricGraph(("v0", "v1"), (Edge("I", "v0", "v1", 2.0),))
    flip = GraphMap(fibre, fibre, {"I": (MapPiece(0.0, 1.0, (PathSeg("I", 1.0, 0.0),)),)})
    base = circle_rotation(alpha)
    bundle = monodromy_bundle(base, fibre, flip, flip)
    ident = identity_map(fibre)
    system = SkewSystem(
        base=base,
        bundle=bundle,
        image_family=lambda e: ident,
        id=f"mobius(alpha={alpha})",
    )
    return ConstructionResult(
        system, "interval band, flip gluing",
        seed_rule=lambda i: BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0)),
    )


def mobius_boundary_circle_map(result: ConstructionResult) -> Callable[[float], float]:
    """The boundary dynamics unrolled onto a single circle coordinate.

    The boundary double-covers the base; u in [0, 1) encodes (theta, label)
    as u = (theta + lap)/2 where lap is 0 on the t=1 rim and 1 on the t=0
    rim. The returned map is computed through apply_skew, not analytically.
    """
    s = result.system
    from .bundles import apply_skew

    def fn(u: float) -> float:
        u %= 1.0
        theta = (2.0 * u) % 1.0
        lap = 0 if u < 0.5 else 1
        t = 1.0 if lap == 0 else 0.0
        x2 = apply_skew(s, BundlePoint(CircleAngle(theta), GraphPoint("I", t)))
        theta2 = float(s.base.embedding(x2.b))
        lap2 = 0 if x2.y.t > 0.5 else 1
        return ((theta2 + lap2) / 2.0) % 1.0

    return fn


# ---------------------------------------------------------------------------
# two circles joined by an interval, over a flipping base


def _loop_circle(g: MetricGraph, edge_id: str) -> Circle:
    return Circle(((edge_id, 1),), g.edge_of(edge_id).length)


def build_torus_on_mobius(alpha: float = GOLDEN, beta: float = SQRT2_FRAC) -> ConstructionResult:
    """Band whose fibre is two unit circles joined by an interval.

    The gluing is the central symmetry swapping the circles and reversing
    the interval; the fibre map rotates both circles by beta and carries
    the interval across accordingly, fixing its midpoint t = 0.5. The
    circle pair (edges A and B) sweeps out the claimed minimal set.
    """
    if not 0.0 < beta < 1.0:
        raise WrongInput(f"beta {beta} outside (0, 1)")
    fibre = MetricGraph(
        ("u", "w"),
        (Edge("A", "u", "u", 1.0), Edge("I", "u", "w", 1.0), Edge("B", "w", "w", 1.0)),
    )
    swap = GraphMap(
        fibre,
        fibre,
        {
            "A": (MapPiece(0.0, 1.0, (PathSeg("B", 0.0, 1.0),)),),
            "B": (MapPiece(0.0, 1.0, (PathSeg("A", 0.0, 1.0),)),),
            "I": (MapPiece(0.0, 1.0, (PathSeg("I", 1.0, 0.0),)),),
        },
    )
    base = circle_rotation(alpha)
    bundle = monodromy_bundle(base, fibre, swap, swap)
    ca, cb = _loop_circle(fibre, "A"), _loop_circle(fibre, "B")
    phi = GraphMap(
        fibre,
        fibre,
        {
            "A": circle_rotation_pieces(fibre, "A", ca, beta % 1.0, 1.0),
            "B": circle_rotation_pieces(fibre, "B", cb, beta % 1.0, 1.0),
            # interval: back along A from A(beta) to u, across I, out to B(beta)
            "I": (
                MapPiece(
                    0.0,
                    1.0,
                    (PathSeg("A", beta % 1.0, 0.0), PathSeg("I", 0.0, 1.0), PathSeg("B", 0.0, beta % 1.0)),
                ),
            ),
        },
    )
    system = SkewSystem(
        base=base,
        bundle=bundle,
        image_family=lambda e: phi,
        id=f"torus-on-mobius(alpha={alpha},beta={beta})",
    )
    return ConstructionResult(system, "two circles joined by an interval, swap gluing")


# ---------------------------------------------------------------------------
# coding-system cylinder, carried on its minimal set


def build_sturmian_cylinder(
    alpha: float = GOLDEN, precision: int = DEFAULT_STURMIAN_K
) -> ConstructionResult:
    """Skew system carried on the coding minimal set itself.

    State points are (word, fibre point at the word's Cantor coordinate);
    the fibre family collapses the whole interval fibre to the coordinate
    of the shifted word, so the graph of the embedding is invariant. A
    generic fibre of it is one point; over the two codings of a boundary
    angle it is two.
    """
    base, _ = sturmian(alpha, precision)
    fibre = MetricGraph(("v0", "v1"), (Edge("I", "v0", "v1", 1.0),))

    @lru_cache(maxsize=1024)
    def constant_map(t2: float) -> GraphMap:
        return GraphMap(
            fibre, fibre, {"I": (MapPiece(0.0, 1.0, (PathSeg("I", t2, t2),)),)}
        )

    system = SkewSystem(
        base=base,
        bundle=Bundle(fibre),
        image_family=constant_map,
        id=f"sturmian-cylinder(alpha={alpha},K={precision})",
    )

    def seed_rule(i: int) -> BundlePoint:
        w = base.sampler(i + 1)[-1]
        return BundlePoint(w, GraphPoint("I", base.embedding(w)))

    return ConstructionResult(
        system, "coding cylinder on its minimal set",
        seed_rule=seed_rule, delta_base=1e-6,
    )


# ---------------------------------------------------------------------------
# product with a rotated retraction onto a circle


def build_circle_minimal_product(
    base: BaseSystem, fibre: MetricGraph, c: Circle, angle: float = SQRT2_FRAC
) -> ConstructionResult:
    """Product system whose fibre map retracts onto c and rotates along it."""
    r = build_retraction(fibre, c)
    m = rotate_along_circle(r, c, angle)
    system = SkewSystem(
        base=base,
        bundle=Bundle(fibre),
        image_family=lambda e: m,
        id=f"circle-product({base.id},length={c.length},angle={angle})",
    )
    return ConstructionResult(system, "rotated retraction onto one circle")


# ---------------------------------------------------------------------------
# cyclic permutation of m disjoint circles


def chained_loops_graph(m: int) -> MetricGraph:
    """m unit self-loops linked in a row by unit arcs (handy test fibre)."""
    verts = [f"v{i}" for i in range(1, m + 1)]
    edges = [Edge(f"s{i}", f"v{i}", f"v{i}", 1.0) for i in range(1, m + 1)]
    edges += [Edge(f"a{i}", f"v{i}", f"v{i+1}", 1.0) for i in range(1, m)]
    return MetricGraph(verts, edges)


def build_m_circles(
    base: BaseSystem,
    fibre: MetricGraph,
    circles: Sequence[Circle],
    angle: float = SQRT2_FRAC,
) -> ConstructionResult:
    """Product system cyclically permuting m disjoint circles of the fibre,
    with a rotation by ``angle`` inserted on the wrap-around leg.

    Off-circle vertices collapse to the image of their nearest circle
    vertex; off-circle edges run affinely along a shortest path joining
    their endpoint images.
    """
    circles = list(circles)
    m = len(circles)
    if m < 1:
        raise WrongInput("need at least one circle to permute")
    if not circles_disjoint(fibre, circles):
        raise WrongInput("two of the circles share points")
    vsets = [c.vertices(fibre) for c in circles]

    def sigma(i: int, s: float) -> tuple[int, float]:
        """Image circle index and coordinate of coordinate s on circle i."""
        j = (i + 1) % m
        ratio = circles[j].length / circles[i].length
        s2 = s * ratio
        if i == m - 1:
            s2 += (angle % 1.0) * circles[j].length
        return j, s2 % circles[j].length

    pieces: dict[str, tuple[MapPiece, ...]] = {}
    circle_of_edge: dict[str, int] = {}
    for i, c in enumerate(circles):
        cum = c.cumulative(fibre)
        for k, (eid, d) in enumerate(c.steps):
            circle_of_edge[eid] = i
            e = fibre.edge_of(eid)
            s0 = cum[k] if d > 0 else cum[k] + e.length
            j, t0 = sigma(i, s0 % c.length)
            # unwrapped image start so the rate stays affine across the seam
            ratio = circles[j].length / circles[i].length
            rate = d * ratio
            pieces[eid] = circle_rotation_pieces(fibre, eid, circles[j], t0, rate)

    # vertex anchors: nearest circle vertex, smallest id on ties
    circle_vertices = sorted(v for vs in vsets for v in vs)

    def image_of_vertex(v: str) -> GraphPoint:
        if any(v in vs for vs in vsets):
            w = v
        else:
            w = min(circle_vertices, key=lambda cv: (fibre.vertex_distance(v, cv), cv))
        i = next(k for k, vs in enumerate(vsets) if w in vs)
        s = circles[i].coord_of(fibre, fibre.vertex_point(w))
        j, s2 = sigma(i, s)
        return circles[j].point_at(fibre, s2)

    for e in fibre.edges:
        if e.id in circle_of_edge:
            continue
        pu, pv = image_of_vertex(e.u), image_of_vertex(e.v)
        segs = shortest_path_segments(fibre, pu, pv)
        pieces[e.id] = (MapPiece(0.0, 1.0, segs),)

    h = GraphMap(fibre, fibre, pieces)
    system = SkewSystem(
        base=base,
        bundle=Bundle(fibre),
        image_family=lambda e: h,
        id=f"m-circles({base.id},m={m},angle={angle})",
    )
    return ConstructionResult(system, "cyclic circle permutation with one rotated leg")


# ---------------------------------------------------------------------------
# blown-up odometer bases: the one assembly of both theorem-d systems


def _blown_up_odometer(
    precision: int,
    fibre: MetricGraph,
    part_maps: Callable[[float], tuple[GraphMap, GraphMap]],
    seed_y: GraphPoint,
    system_id: str,
    note: str,
    geometry: Optional[Case2Geometry] = None,
) -> ConstructionResult:
    """Product system over the quotiented blown-up odometer: the fibre map
    is the first of ``part_maps(rho)`` over the left part of the base (at
    or left of the identified point c_l) and the second over the right
    part, for rho = ``THEOREM_D_ROTATION``.  Seed index 0 is ``seed_y``
    over the first base sample."""
    q = quotient_base(doubled_cantor(precision=precision))
    c_l = q.params["c_l"]
    e_l = q.embedding(c_l)

    def part(e: float) -> int:
        """The part of the base point embedded at e: 1 = left, 2 = right."""
        return 1 if e <= e_l + 1e-15 else 2

    maps = dict(zip((1, 2), part_maps(THEOREM_D_ROTATION)))
    reference = {"exceptional_base": c_l, "part_of": part, "rotation": THEOREM_D_ROTATION,
                 "seed": BundlePoint(q.sampler(1)[0], seed_y)}
    if geometry is not None:
        reference["geometry"] = geometry
    system = SkewSystem(base=q, bundle=Bundle(fibre), image_family=lambda e: maps[part(e)],
                        reference=reference, id=system_id)
    return ConstructionResult(
        system, note,
        seed_rule=lambda i: reference["seed"] if i == 0 else _sampled_seed(system, i),
    )


# ---------------------------------------------------------------------------
# exceptional fibre = two disjoint circles joined by an interval


def build_theorem_d_case1(precision: int = 40) -> ConstructionResult:
    """Skew system over the quotiented blown-up odometer whose minimal set
    has a single exceptional fibre made of two disjoint circles.

    Fibre graph: circles s1 and s2 (length 2*pi each, antipodally offset
    charts) joined by a unit interval i. Points over the left part of the
    base ride s1, points over the right part ride s2; the interval maps
    onto a half circle so the whole fibre map stays continuous. A generic
    fibre is one circle.
    """
    g = MetricGraph(
        ("v1", "v2"),
        (
            Edge("s1", "v1", "v1", TWO_PI),
            Edge("i", "v1", "v2", 1.0),
            Edge("s2", "v2", "v2", TWO_PI),
        ),
    )

    def target_map(rho: float, circ: Circle, off: float) -> GraphMap:
        # chart offset: loop parameter 0 of s2 sits opposite parameter 0 of s1
        start_s1 = ((rho - off) % 1.0) * TWO_PI
        start_s2 = ((0.5 + rho - off) % 1.0) * TWO_PI
        return GraphMap(
            g,
            g,
            {
                "s1": circle_rotation_pieces(g, "s1", circ, start_s1, 1.0),
                "s2": circle_rotation_pieces(g, "s2", circ, start_s2, 1.0),
                # unit interval onto a half circle: arc length pi
                "i": circle_rotation_pieces(g, "i", circ, start_s1, math.pi),
            },
        )

    c1, c2 = _loop_circle(g, "s1"), _loop_circle(g, "s2")
    return _blown_up_odometer(
        precision, g, lambda rho: (target_map(rho, c1, 0.0), target_map(rho, c2, 0.5)),
        GraphPoint("s1", 0.0), f"theorem-d-1(K={precision})", "two disjoint circles over a blown-up odometer",
    )


# ---------------------------------------------------------------------------
# exceptional fibre = two intersecting circles


@dataclass(frozen=True)
class Chart:
    """Piecewise-linear angle <-> arc-length table for one curve stretch."""

    thetas: np.ndarray  # increasing
    arcs: np.ndarray  # increasing, arcs[0] = 0

    @property
    def length(self) -> float:
        return float(self.arcs[-1])

    def arc_of_theta(self, theta: float) -> float:
        return float(np.interp(theta, self.thetas, self.arcs))

    def theta_of_arc(self, s: float) -> float:
        return float(np.interp(s, self.arcs, self.thetas))


def _make_chart(r: Callable[[float], float], dr: Callable[[float], float],
                th_a: float, th_b: float) -> Chart:
    th = np.linspace(th_a, th_b, 721)  # 720 trapezoids
    integrand = np.sqrt(np.array([r(t) for t in th]) ** 2 + np.array([dr(t) for t in th]) ** 2)
    arcs = np.concatenate(([0.0], np.cumsum((integrand[:-1] + integrand[1:]) / 2.0 * np.diff(th))))
    return Chart(th, arcs)


@dataclass(frozen=True)
class Case2Geometry:
    """Angle bookkeeping for a fibre made of an outer unit circle and an
    inner radial curve sharing the radius-1 set."""

    graph: MetricGraph
    outer: Circle
    inner: Circle
    theta_ranges: dict = field(compare=False)  # edge id -> (theta_a, theta_b)
    charts: dict = field(compare=False)  # edge id -> Chart (inner edges only)
    seam_thetas: tuple[float, ...] = ()
    seam_arc: tuple[float, float] | None = None

    def theta_of(self, y: GraphPoint) -> float:
        th_a, th_b = self.theta_ranges[y.edge]
        chart = self.charts.get(y.edge)
        if chart is None:
            return th_a + (th_b - th_a) * y.t
        return chart.theta_of_arc(y.t * chart.length)

    def _point_on(self, edges: tuple[str, ...], theta: float) -> GraphPoint:
        theta %= TWO_PI
        for eid in edges:
            th_a, th_b = self.theta_ranges[eid]
            if th_a - 1e-12 <= theta <= th_b + 1e-12:
                chart = self.charts.get(eid)
                if chart is None:
                    t = (theta - th_a) / (th_b - th_a)
                else:
                    t = chart.arc_of_theta(theta) / chart.length
                return GraphPoint(eid, min(max(t, 0.0), 1.0))
        raise WrongInput(f"angle {theta} not covered by edges {edges}")

    def push_outer(self, theta: float) -> GraphPoint:
        return self._point_on(self.outer_edges, theta)

    def push_inner(self, theta: float) -> GraphPoint:
        return self._point_on(self.inner_edges, theta)

    @property
    def outer_edges(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.outer.steps)

    @property
    def inner_edges(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.inner.steps)

    def radial_project(self, y: GraphPoint) -> GraphPoint:
        """Projection of an outer point onto the inner curve along its radius."""
        return self.push_inner(self.theta_of(y))

    def radial_unproject(self, y: GraphPoint) -> GraphPoint:
        return self.push_outer(self.theta_of(y))


def _case2_geometry(pattern: str, theta0: float) -> Case2Geometry:
    if pattern == "point":
        r = lambda th: (3.0 + math.cos(th)) / 4.0
        dr = lambda th: -math.sin(th) / 4.0
        chart = _make_chart(r, dr, 0.0, TWO_PI)
        g = MetricGraph(
            ("P",),
            (Edge("o", "P", "P", TWO_PI), Edge("n", "P", "P", chart.length)),
        )
        return Case2Geometry(
            graph=g,
            outer=Circle((("o", 1),), TWO_PI),
            inner=Circle((("n", 1),), chart.length),
            theta_ranges={"o": (0.0, TWO_PI), "n": (0.0, TWO_PI)},
            charts={"n": chart},
            seam_thetas=(0.0,),
        )
    if pattern == "two":
        r = lambda th: (3.0 + math.cos(2.0 * th)) / 4.0
        dr = lambda th: -math.sin(2.0 * th) / 2.0
        ch1 = _make_chart(r, dr, 0.0, math.pi)
        ch2 = _make_chart(r, dr, math.pi, TWO_PI)
        g = MetricGraph(
            ("P0", "P1"),
            (
                Edge("o1", "P0", "P1", math.pi),
                Edge("o2", "P1", "P0", math.pi),
                Edge("n1", "P0", "P1", ch1.length),
                Edge("n2", "P1", "P0", ch2.length),
            ),
        )
        return Case2Geometry(
            graph=g,
            outer=Circle((("o1", 1), ("o2", 1)), TWO_PI),
            inner=Circle((("n1", 1), ("n2", 1)), ch1.length + ch2.length),
            theta_ranges={
                "o1": (0.0, math.pi),
                "o2": (math.pi, TWO_PI),
                "n1": (0.0, math.pi),
                "n2": (math.pi, TWO_PI),
            },
            charts={"n1": ch1, "n2": ch2},
            seam_thetas=(0.0, math.pi),
        )
    if pattern == "arc":
        if not 0.0 < theta0 < TWO_PI:
            raise WrongInput(f"plateau end {theta0} outside (0, 2*pi)")
        scale = TWO_PI / (TWO_PI - theta0)
        r = lambda th: 1.0 if th <= theta0 else (3.0 + math.cos((th - theta0) * scale)) / 4.0
        dr = lambda th: 0.0 if th <= theta0 else -math.sin((th - theta0) * scale) * scale / 4.0
        chart = _make_chart(r, dr, theta0, TWO_PI)
        g = MetricGraph(
            ("A0", "A1"),
            (
                Edge("sh", "A0", "A1", theta0),
                Edge("o", "A1", "A0", TWO_PI - theta0),
                Edge("n", "A1", "A0", chart.length),
            ),
        )
        return Case2Geometry(
            graph=g,
            outer=Circle((("o", 1), ("sh", 1)), TWO_PI),
            inner=Circle((("n", 1), ("sh", 1)), chart.length + theta0),
            theta_ranges={"sh": (0.0, theta0), "o": (theta0, TWO_PI), "n": (theta0, TWO_PI)},
            charts={"n": chart},
            seam_thetas=(0.0, theta0),
            seam_arc=(0.0, theta0),
        )
    raise WrongInput(f"unknown pattern {pattern!r}; expected point | arc | two")


def _case2_fibre_map(geo: Case2Geometry, target_inner: bool, delta_theta: float) -> GraphMap:
    """GraphMap realizing y -> push_target(theta(y) + delta_theta), affine
    between 257 knots per edge."""
    g = geo.graph
    circ = geo.inner if target_inner else geo.outer
    push = geo.push_inner if target_inner else geo.push_outer

    def s_of_theta(theta: float) -> float:
        return circ.coord_of(g, push(theta))

    pieces: dict[str, tuple[MapPiece, ...]] = {}
    for e in g.edges:
        ts = np.linspace(0.0, 1.0, 257)
        out: list[MapPiece] = []
        s_prev = None
        for j in range(256):
            t0, t1 = float(ts[j]), float(ts[j + 1])
            th0 = geo.theta_of(GraphPoint(e.id, t0)) + delta_theta
            th1 = geo.theta_of(GraphPoint(e.id, t1)) + delta_theta
            s0 = s_of_theta(th0) if s_prev is None else s_prev
            s1 = s_of_theta(th1)
            # keep the arc running forward even across the coordinate seam
            span = (s1 - s0) % circ.length
            if span > circ.length / 2.0 and th1 - th0 < math.pi:
                span -= circ.length
            out.append(MapPiece(t0, t1, circ.signed_arc(g, s0, span)))
            s_prev = s1
        pieces[e.id] = tuple(out)
    return GraphMap(g, g, pieces)


def build_theorem_d_case2(
    pattern: str, precision: int = 40, theta0: float = math.pi / 2
) -> ConstructionResult:
    """Skew system over the quotiented blown-up odometer whose exceptional
    fibre is the union of an outer circle and an inner radial curve meeting
    it in one point, one arc, or two points.

    The fibre map rotates the common angle coordinate and pushes the result
    onto the circle selected by the image base point's side (the outer one
    on the left part, the inner one on the right); on the shared radius-1
    set the two pushes coincide, which is what makes the map well defined
    across its defining branches.
    """
    geo = _case2_geometry(pattern, theta0)
    params = f"K={precision}" + (f",theta0={theta0}" if pattern == "arc" else "")

    def part_maps(rho: float) -> tuple[GraphMap, GraphMap]:
        delta = (rho % 1.0) * TWO_PI
        return (_case2_fibre_map(geo, target_inner=False, delta_theta=delta),
                _case2_fibre_map(geo, target_inner=True, delta_theta=delta))

    seed_theta = geo.theta_ranges[geo.outer_edges[0]][0] + 0.37
    return _blown_up_odometer(
        precision, geo.graph, part_maps, geo.push_outer(seed_theta),
        f"theorem-d-2:{pattern}({params})", "two intersecting circles over a blown-up odometer",
        geometry=geo,
    )


def case2_branch_images(
    result: ConstructionResult, y: GraphPoint, target_inner: bool
) -> tuple[GraphPoint, GraphPoint]:
    """Evaluate the fibre formula through its two defining branches.

    One branch reads the angle of y directly from its own curve's chart;
    the other first moves y across the radial projection (or its inverse)
    and reads the angle there. On the shared radius-1 set both give the
    same image point; returning the pair lets tests check the seams.
    """
    geo: Case2Geometry = result.system.reference["geometry"]
    rho: float = result.system.reference["rotation"]
    delta = (rho % 1.0) * TWO_PI
    push = geo.push_inner if target_inner else geo.push_outer
    direct = push(geo.theta_of(y) + delta)
    if y.edge in geo.inner_edges and y.edge not in geo.outer_edges:
        moved = geo.radial_unproject(y)
    else:
        moved = geo.radial_project(y)
    via_other = push(geo.theta_of(moved) + delta)
    return direct, via_other


# ---------------------------------------------------------------------------
# command-line registry


def _circle_product(
    alpha: float = GOLDEN, length: float = 1.0, angle: float = SQRT2_FRAC
) -> ConstructionResult:
    g = circle_graph(length)
    return build_circle_minimal_product(circle_rotation(alpha), g, enumerate_circles(g)[0], angle)


#: largest m the m-circles construction accepts: the circle search is a
#: recursive DFS along the chain and the vertex distance table holds m^2
#: floats, so a much larger m overflows the stack or the memory
MAX_M_CIRCLES = 100


def _m_circles(m: int = 3, alpha: float = GOLDEN, angle: float = SQRT2_FRAC) -> ConstructionResult:
    if m > MAX_M_CIRCLES:
        raise WrongInput(f"m {m} above {MAX_M_CIRCLES}")
    g = chained_loops_graph(m)
    circles = [c for c in enumerate_circles(g) if len(c.steps) == 1]
    return build_m_circles(circle_rotation(alpha), g, circles, angle)


#: smallest base precision K the theorem-d constructions accept: one run
#: visits at most 2 * 10^7 orbit points (the transient and the steps, each
#: capped at the command line's STEP_CAP), fewer than the 2^25 codes of the
#: base, so its orbit cannot close within a run; at K = 24 it can
MIN_THEOREM_D_PRECISION = 25

#: largest theorem-d precision: a K-digit code still fits one uint64, and
#: K = 63 reads the verdicts of the default K = 40; build time grows with K
MAX_THEOREM_D_PRECISION = 63

#: largest Sturmian word length K: provenance.json holds the seed's repr,
#: and a K-bit word's decimal repr fits Python's 4,300-digit int-to-str
#: limit only up to K = 14,284; each orbit step also costs O(K)
MAX_STURMIAN_PRECISION = 10_000


def _precision_at_most(ceiling: int, precision: int) -> int:
    if precision > ceiling:
        raise WrongInput(f"precision {precision} above {ceiling}")
    return precision


def _run_precision(precision: int) -> int:
    if precision < MIN_THEOREM_D_PRECISION:
        raise WrongInput(f"precision {precision} below {MIN_THEOREM_D_PRECISION}: the base orbit can close")
    return _precision_at_most(MAX_THEOREM_D_PRECISION, precision)


def coerce_setting(key: str, value: Any, default: Any) -> Any:
    """value as its default's type; a boolean is refused, and so is a
    fraction where the default is an int, and a value that is not finite."""
    whole = type(default) is int
    if isinstance(value, bool) or whole and isinstance(value, float) and not value.is_integer():
        raise WrongInput(f"{key} must be a {'whole ' if whole else ''}number, not {value!r}")
    out = type(default)(value)
    if not whole and not math.isfinite(out):
        raise WrongInput(f"{key} must be finite, not {value!r}")
    return out


def _from_params(factory: Callable[..., ConstructionResult]) -> Callable[[dict], ConstructionResult]:
    """Builder from a params object: the factory's keyword defaults are the
    declared keys, each value coerced by ``coerce_setting``; any other key
    is refused."""
    defaults = {k: p.default for k, p in inspect.signature(factory).parameters.items()}

    def build(params: dict) -> ConstructionResult:
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise WrongInput(f"unknown params {unknown}; declared: {sorted(defaults)}")
        return factory(**{k: coerce_setting(k, params.get(k, d), d) for k, d in defaults.items()})

    return build


CONSTRUCTIONS: dict[str, Callable[[dict], ConstructionResult]] = {
    "mobius": _from_params(build_mobius),
    "torus-on-mobius": _from_params(build_torus_on_mobius),
    "sturmian-cylinder": _from_params(
        lambda alpha=GOLDEN, precision=DEFAULT_STURMIAN_K: build_sturmian_cylinder(
            alpha, _precision_at_most(MAX_STURMIAN_PRECISION, precision)
        )
    ),
    "circle-product": _from_params(_circle_product),
    "m-circles": _from_params(_m_circles),
    "theorem-d-1": _from_params(lambda precision=40: build_theorem_d_case1(_run_precision(precision))),
    # only the arc pattern reads the plateau end theta0
    "theorem-d-2:point": _from_params(
        lambda precision=40: build_theorem_d_case2("point", _run_precision(precision))
    ),
    "theorem-d-2:arc": _from_params(
        lambda precision=40, theta0=math.pi / 2: build_theorem_d_case2("arc", _run_precision(precision), theta0)
    ),
    "theorem-d-2:two": _from_params(
        lambda precision=40: build_theorem_d_case2("two", _run_precision(precision))
    ),
}
