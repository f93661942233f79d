"""Finite metric graphs, points on them, circles, and piecewise-affine self-maps.

A graph is a finite set of vertices joined by edges of positive length;
multi-edges and self-loops are allowed.  Points are addressed as
``(edge id, t)`` with ``t`` the arc-length-normalized parameter in [0, 1];
``t in {0, 1}`` is canonically identified with the corresponding vertex.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidPoint, WrongInput

#: tolerance for point identity, measured in path distance
POINT_TOL = 1e-9


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: float

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class GraphPoint:
    edge: str
    t: float


class MetricGraph:
    """Immutable finite metric graph with derived adjacency and vertex metric."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[Edge]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        for e in self.edges:
            if not e.length > 0.0:
                raise WrongInput(f"edge {e.id!r} has length {e.length}")
        self._edge_by_id = {e.id: e for e in self.edges}
        self._vidx = {v: i for i, v in enumerate(self.vertices)}
        self._eidx = {e.id: i for i, e in enumerate(self.edges)}
        # incident (edge, end) germs per vertex; a self-loop contributes both ends
        self._germs: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            self._germs[e.u].append((e.id, 0))
            self._germs[e.v].append((e.id, 1))
        self._vdist = self._all_pairs_vertex_distances()
        # numpy caches for vectorized fibre distances
        self._len_arr = np.array([e.length for e in self.edges])
        self._u_arr = np.array([self._vidx[e.u] for e in self.edges], dtype=int)
        self._v_arr = np.array([self._vidx[e.v] for e in self.edges], dtype=int)

    # -- construction -------------------------------------------------

    def _all_pairs_vertex_distances(self) -> np.ndarray:
        n = len(self.vertices)
        dist = np.full((n, n), math.inf)
        adj: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
        for e in self.edges:
            iu, iv = self._vidx[e.u], self._vidx[e.v]
            adj[iu].append((iv, e.length))
            adj[iv].append((iu, e.length))
        for s in range(n):
            d = [math.inf] * n
            d[s] = 0.0
            heap = [(0.0, s)]
            while heap:
                du, u = heapq.heappop(heap)
                if du > d[u]:
                    continue
                for w, L in adj[u]:
                    nd = du + L
                    if nd < d[w]:
                        d[w] = nd
                        heapq.heappush(heap, (nd, w))
            dist[s] = d
        return dist

    # -- basic queries -------------------------------------------------

    def edge_of(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise InvalidPoint(f"unknown edge {edge_id!r}")

    def edge_index(self, edge_id: str) -> int:
        return self._eidx[edge_id]

    def germs_at(self, vertex: str) -> list[tuple[str, int]]:
        return list(self._germs[vertex])

    def far_end(self, edge_id: str, end: int) -> str:
        """The vertex at the other end of the germ (edge_id, end)."""
        e = self._edge_by_id[edge_id]
        return e.v if end == 0 else e.u

    def vertex_distance(self, a: str, b: str) -> float:
        return float(self._vdist[self._vidx[a], self._vidx[b]])

    def n_components(self) -> int:
        """Connected components: a vertex starts one when the distance
        table puts no earlier vertex at a finite distance from it."""
        reached = np.tril(np.isfinite(self._vdist), -1).any(axis=1)
        return int(np.count_nonzero(~reached))

    def is_connected(self) -> bool:
        return self.n_components() == 1

    # -- points ----------------------------------------------------------

    def validate_point(self, p: GraphPoint) -> GraphPoint:
        e = self.edge_of(p.edge)
        if not (0.0 <= p.t <= 1.0) or math.isnan(p.t):
            raise InvalidPoint(f"parameter {p.t} outside [0, 1] on edge {p.edge!r}")
        return p

    def vertex_of(self, p: GraphPoint) -> str | None:
        """Vertex id if p is a vertex (within POINT_TOL), else None."""
        e = self.edge_of(p.edge)
        if p.t * e.length <= POINT_TOL:
            return e.u
        if (1.0 - p.t) * e.length <= POINT_TOL:
            return e.v
        return None

    def vertex_point(self, vertex: str) -> GraphPoint:
        eid, end = self._germs[vertex][0]
        return GraphPoint(eid, float(end))

    def path_distance(self, p: GraphPoint, q: GraphPoint) -> float:
        """Shortest-path length; math.inf marks a disconnected pair."""
        self.validate_point(p)
        self.validate_point(q)
        ep, eq = self.edge_of(p.edge), self.edge_of(q.edge)
        best = math.inf
        if p.edge == q.edge:
            best = abs(p.t - q.t) * ep.length
        pu, pv = p.t * ep.length, (1.0 - p.t) * ep.length
        qu, qv = q.t * eq.length, (1.0 - q.t) * eq.length
        for dp, a in ((pu, ep.u), (pv, ep.v)):
            for dq, b in ((qu, eq.u), (qv, eq.v)):
                best = min(best, dp + self.vertex_distance(a, b) + dq)
        return best

    def distances_to_many(self, p: GraphPoint, edge_idx: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized path_distance from p to points given as (edge index, t) arrays."""
        pe = np.array([self._eidx[self.edge_of(p.edge).id]])
        return self.distance_matrix(pe, np.array([p.t]), edge_idx, ts)[0]

    def _vertex_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``_vdist[a, b]`` for vertex index arrays that broadcast together.
        A column against a row is gathered by rows, then by columns, several
        times faster than numpy's broadcast fancy index."""
        if a.ndim == 2 == b.ndim and a.shape[1] == 1 == b.shape[0]:
            return self._vdist[a[:, 0]][:, b[0]]
        return self._vdist[a, b]

    def pair_distances(
        self, pe: np.ndarray, pt: np.ndarray, qe: np.ndarray, qt: np.ndarray
    ) -> np.ndarray:
        """Path distance from each point (pe, pt) to the point (qe, qt) at
        the same position; the four arrays broadcast together.

        Each entry is ``path_distance``'s value, bit for bit: the same four
        vertex terms, each summed as ``(p to vertex + vertex distance) +
        vertex to q``, and ``|t_q - t_p| * length`` for a pair on one edge.
        """
        plen, qlen = self._len_arr[pe], self._len_arr[qe]
        pu, pv = pt * plen, (1.0 - pt) * plen
        qu, qv = qt * qlen, (1.0 - qt) * qlen
        pa, pb = self._u_arr[pe], self._v_arr[pe]
        qa, qb = self._u_arr[qe], self._v_arr[qe]
        vd = self._vertex_distances
        best = np.minimum(
            np.minimum(pu + vd(pa, qa) + qu, pu + vd(pa, qb) + qv),
            np.minimum(pv + vd(pb, qa) + qu, pv + vd(pb, qb) + qv),
        )
        direct = np.abs(qt - pt) * plen
        return np.where(pe == qe, np.minimum(best, direct), best)

    def distance_matrix(
        self, pe: np.ndarray, pt: np.ndarray, qe: np.ndarray, qt: np.ndarray
    ) -> np.ndarray:
        """Path distances from the points (pe, pt) (rows) to the points
        (qe, qt) (columns): ``pair_distances`` of every pair."""
        return self.pair_distances(pe[:, None], pt[:, None], qe[None, :], qt[None, :])

    def point_arrays(self, pts: Sequence[GraphPoint]) -> tuple[np.ndarray, np.ndarray]:
        """(edge index, t) arrays of a point list, the form the vectorized
        distance functions take."""
        return (
            np.array([self._eidx[p.edge] for p in pts], dtype=int),
            np.array([p.t for p in pts], dtype=float),
        )

    def points_from_arrays(self, edge_idx: np.ndarray, ts: np.ndarray) -> list[GraphPoint]:
        """The point list of (edge index, t) arrays; ``point_arrays`` inverted."""
        edges = self.edges
        return [GraphPoint(edges[e].id, t) for e, t in zip(edge_idx.tolist(), ts.tolist())]


# ---------------------------------------------------------------------------
# circles


@dataclass(frozen=True)
class Circle:
    """A simple closed curve given as a cyclic sequence of directed edges."""

    steps: tuple[tuple[str, int], ...]  # (edge id, +1 forward / -1 backward)
    length: float

    def edge_ids(self) -> frozenset[str]:
        return frozenset(e for e, _ in self.steps)

    def vertices(self, g: MetricGraph) -> frozenset[str]:
        """The end vertices of the circle's edges."""
        ends = (g.edge_of(eid) for eid, _ in self.steps)
        return frozenset(v for e in ends for v in (e.u, e.v))

    def cumulative(self, g: MetricGraph) -> list[float]:
        out = [0.0]
        for eid, _ in self.steps:
            out.append(out[-1] + g.edge_of(eid).length)
        return out

    def contains_point(self, g: MetricGraph, p: GraphPoint) -> bool:
        return p.edge in self.edge_ids() or g.vertex_of(p) in self.vertices(g)

    def coord_of(self, g: MetricGraph, p: GraphPoint) -> float:
        """Arc-length coordinate in [0, length) of a point lying on the circle."""
        cum = self.cumulative(g)
        for i, (eid, d) in enumerate(self.steps):
            if p.edge == eid:
                e = g.edge_of(eid)
                pos = p.t * e.length if d > 0 else (1.0 - p.t) * e.length
                return (cum[i] + pos) % self.length
        v = g.vertex_of(p)
        if v is not None:
            for i, (eid, d) in enumerate(self.steps):
                e = g.edge_of(eid)
                start = e.u if d > 0 else e.v
                if v == start:
                    return cum[i] % self.length
        raise WrongInput(f"point {p} does not lie on this circle")

    def point_at(self, g: MetricGraph, s: float) -> GraphPoint:
        s = s % self.length
        cum = self.cumulative(g)
        i = min(bisect_right(cum, s) - 1, len(self.steps) - 1)
        eid, d = self.steps[i]
        e = g.edge_of(eid)
        frac = (s - cum[i]) / e.length
        t = frac if d > 0 else 1.0 - frac
        return GraphPoint(eid, min(max(t, 0.0), 1.0))

    def arc_segments(self, g: MetricGraph, s0: float, s1: float) -> tuple["PathSeg", ...]:
        """Directed segments covering the forward arc from coordinate s0 to s1.

        s1 may exceed s0 by at most the full length; the arc runs in the
        positive direction of the circle.
        """
        if s1 < s0:
            s1 += self.length
        cum = self.cumulative(g)
        segs: list[PathSeg] = []
        s = s0
        while s1 - s > 1e-15:
            base = math.floor(s / self.length) * self.length
            sl = s - base
            i = min(bisect_right(cum, sl + 1e-15) - 1, len(self.steps) - 1)
            if sl < cum[i]:
                i = max(i - 1, 0)
            if base + cum[i + 1] <= s:
                # s rounds onto the end of step i: go on from the next step
                base, i = (base + self.length, 0) if i + 1 == len(self.steps) else (base, i + 1)
                sl = cum[i]
            eid, d = self.steps[i]
            e = g.edge_of(eid)
            seg_end_abs = base + cum[i + 1]
            stop = min(s1, seg_end_abs)
            # past the first lap the ends can round an ulp outside the edge
            f0 = min(max((sl - cum[i]) / e.length, 0.0), 1.0)
            f1 = min(max((stop - base - cum[i]) / e.length, 0.0), 1.0)
            if d > 0:
                segs.append(PathSeg(eid, f0, f1))
            else:
                segs.append(PathSeg(eid, 1.0 - f0, 1.0 - f1))
            s = stop
        if not segs:
            p = self.point_at(g, s0)
            segs.append(PathSeg(p.edge, p.t, p.t))
        return tuple(segs)

    def signed_arc(self, g: MetricGraph, s0: float, span: float) -> tuple["PathSeg", ...]:
        """Directed segments of the arc that starts at coordinate s0 and
        runs |span| along the circle, forward when span >= 0, else backward."""
        if span >= 0:
            return self.arc_segments(g, s0, s0 + span)
        return reverse_path(self.arc_segments(g, s0 + span, s0))


def circles_disjoint(g: MetricGraph, circles: Sequence[Circle]) -> bool:
    """No two of the circles share an edge or a vertex."""
    vsets = [c.vertices(g) for c in circles]
    return not any(
        vsets[i] & vsets[j] or circles[i].edge_ids() & circles[j].edge_ids()
        for i in range(len(circles))
        for j in range(i + 1, len(circles))
    )


def _circle_from_edge_set(g: MetricGraph, edge_ids: frozenset[str]) -> Circle:
    first = min(edge_ids)
    e0 = g.edge_of(first)
    remaining = set(edge_ids) - {first}
    steps = [(first, 1)]
    cur = e0.v
    start = e0.u
    while cur != start or remaining:
        nxt = None
        for eid in sorted(remaining):
            e = g.edge_of(eid)
            if e.u == cur:
                nxt = (eid, 1)
                cur2 = e.v
            elif e.v == cur:
                nxt = (eid, -1)
                cur2 = e.u
            else:
                continue
            break
        if nxt is None:
            raise WrongInput("edge set is not a single cycle")
        steps.append(nxt)
        remaining.discard(nxt[0])
        cur = cur2
    rev = tuple((eid, -d) for eid, d in reversed(steps))
    # rotate reversed sequence to start at the same smallest edge
    k = next(i for i, (eid, _) in enumerate(rev) if eid == first)
    rev = rev[k:] + rev[:k]
    fwd = tuple(steps)
    # canonical orientation: smaller edge-id sequence, forward on ties
    chosen = min(fwd, rev, key=lambda s: ([e for e, _ in s], [-d for _, d in s]))
    total = sum(g.edge_of(eid).length for eid, _ in chosen)
    return Circle(chosen, total)


def enumerate_circles(g: MetricGraph) -> list[Circle]:
    """All simple closed curves of g, in lexicographic edge-id order."""
    found: set[frozenset[str]] = set()
    for e in g.edges:
        if e.is_loop:
            found.add(frozenset([e.id]))
    # DFS over edge paths from each start vertex
    def dfs(start: str, cur: str, used: set[str], visited: set[str]) -> None:
        for eid, end in g.germs_at(cur):
            if eid in used or g.edge_of(eid).is_loop:
                continue
            nxt = g.far_end(eid, end)
            if nxt == start and len(used) >= 1:
                found.add(frozenset(used | {eid}))
                continue
            if nxt in visited:
                continue
            used.add(eid)
            visited.add(nxt)
            dfs(start, nxt, used, visited)
            used.discard(eid)
            visited.discard(nxt)

    for v in g.vertices:
        dfs(v, v, set(), {v})
    circles = [_circle_from_edge_set(g, s) for s in found]
    circles.sort(key=lambda c: tuple(sorted(c.edge_ids())))
    return circles


# ---------------------------------------------------------------------------
# piecewise-affine graph maps


@dataclass(frozen=True)
class PathSeg:
    edge: str
    t0: float
    t1: float

    def length(self, g: MetricGraph) -> float:
        return abs(self.t1 - self.t0) * g.edge_of(self.edge).length


def reverse_path(path: Sequence[PathSeg]) -> tuple[PathSeg, ...]:
    """The same path traversed from its end back to its start."""
    return tuple(PathSeg(s.edge, s.t1, s.t0) for s in reversed(path))


@dataclass(frozen=True)
class MapPiece:
    lo: float
    hi: float
    path: tuple[PathSeg, ...]


@dataclass(frozen=True)
class GraphMap:
    """Per-edge subdivision into pieces, each mapped affinely onto an edge path.

    The pieces of each domain edge must tile [0, 1]: the first ``lo`` is 0,
    each ``hi`` is the next ``lo``, the last ``hi`` is 1, and no piece is
    empty; building a map that breaks this raises ``InvalidPoint``.  The
    build compiles ``_table``, which ``eval_et`` reads: per domain edge
    index, the piece ``lo`` list and one row per piece,
    ``(lo, hi - lo, total, const edge index, const t, segs)``, where
    ``total`` is the path length, the const pair the image of a piece that
    collapses to a point (edge index -1 otherwise) and a seg is
    ``(t0, t1 - t0, length, length + 1e-15, is_last, edge index)``.
    ``pieces`` must not change afterwards.
    """

    domain: MetricGraph
    codomain: MetricGraph
    pieces: dict[str, tuple[MapPiece, ...]] = field(compare=False)

    def __post_init__(self) -> None:
        g2 = self.codomain
        table = []
        for e in self.domain.edges:
            plist = self.pieces.get(e.id, ())
            rows = []
            end = 0.0
            for pc in plist:
                if pc.lo != end or not pc.lo < pc.hi:
                    break
                end = pc.hi
                lengths = [sg.length(g2) for sg in pc.path]
                total = sum(lengths)
                segs = tuple(
                    (sg.t0, sg.t1 - sg.t0, sl, sl + 1e-15, sg is pc.path[-1], g2.edge_index(sg.edge))
                    for sg, sl in zip(pc.path, lengths)
                )
                ce, ct = (segs[0][5], pc.path[0].t0) if total <= 0.0 else (-1, 0.0)
                rows.append((pc.lo, pc.hi - pc.lo, total, ce, ct, segs))
            if end != 1.0 or len(rows) < len(plist):
                raise InvalidPoint(f"the pieces of edge {e.id!r} do not tile [0, 1]")
            table.append(([pc.lo for pc in plist], rows))
        object.__setattr__(self, "_table", table)


def eval_graph_map_arrays(m: GraphMap, ei: np.ndarray, tt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eval_et`` of each point (ei, tt), as (codomain edge index, t)
    arrays, with ``InvalidPoint`` for a parameter outside [0, 1]."""
    outside = ~((tt >= 0.0) & (tt <= 1.0))
    if outside.any():
        j = int(np.flatnonzero(outside)[0])
        raise InvalidPoint(f"parameter {tt[j]} outside [0, 1] on edge {m.domain.edges[ei[j]].id!r}")
    images = [eval_et(m, e, t) for e, t in zip(ei.tolist(), tt.tolist())]
    return np.array([e for e, _ in images], dtype=int), np.array([t for _, t in images], dtype=float)


def eval_et(m: GraphMap, e: int, t: float) -> tuple[int, float]:
    """The image of (domain edge index e, t) as (codomain edge index, t),
    unchecked; the one walk of a map's pieces.  Each clamp is
    ``min(max(x, 0.0), 1.0)`` as comparisons with Python's tie rule: -0.0
    stays -0.0, NaN passes."""
    lows, rows = m._table[e]
    lo, width, total, ce, ct, segs = rows[bisect_right(lows, t) - 1]
    if ce >= 0:
        return ce, ct
    u = (t - lo) / width
    s = (0.0 if 0.0 > u else 1.0 if 1.0 < u else u) * total
    for t0, dt, sl, sl_tol, last, edge in segs:
        if s <= sl_tol or last:
            frac = s / sl if sl > 0 else 0.0
            t = t0 + dt * (0.0 if 0.0 > frac else 1.0 if 1.0 < frac else frac)
            return edge, 0.0 if 0.0 > t else 1.0 if 1.0 < t else t
        s -= sl
    raise AssertionError("unreachable")


def eval_graph_map(m: GraphMap, p: GraphPoint) -> GraphPoint:
    m.domain.validate_point(p)
    e, t = eval_et(m, m.domain.edge_index(p.edge), p.t)
    return GraphPoint(m.codomain.edges[e].id, t)


def identity_map(g: MetricGraph) -> GraphMap:
    pieces = {e.id: (MapPiece(0.0, 1.0, (PathSeg(e.id, 0.0, 1.0),)),) for e in g.edges}
    return GraphMap(g, g, pieces)


def check_continuity(m: GraphMap, tol: float = 1e-12) -> bool:
    """Left/right limits agree at every subdivision boundary; vertex images consistent."""
    g, g2 = m.domain, m.codomain
    for eid, plist in m.pieces.items():
        for a, b in zip(plist, plist[1:]):
            pa = GraphPoint(a.path[-1].edge, a.path[-1].t1)
            pb = GraphPoint(b.path[0].edge, b.path[0].t0)
            if g2.path_distance(pa, pb) > tol:
                return False
    # vertex image consistency across incident edges
    for v in g.vertices:
        images = [eval_graph_map(m, GraphPoint(eid, float(end))) for eid, end in g.germs_at(v)]
        for q in images[1:]:
            if g2.path_distance(images[0], q) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# retraction onto a circle


def build_retraction(g: MetricGraph, c: Circle) -> GraphMap:
    """Retraction of a connected graph onto one of its circles.

    Vertices off the circle collapse (via BFS, smallest-id tie break) to the
    circle vertex where their branch attaches; every off-circle edge maps
    affinely onto the shortest arc of c joining its endpoint images, running
    in the positive circle direction on exact ties.
    """
    if not g.is_connected():
        raise WrongInput("retraction needs a connected graph")
    circle_edges = c.edge_ids()
    if not circle_edges <= {e.id for e in g.edges}:
        raise WrongInput("circle does not belong to this graph")
    on_circle = c.vertices(g)
    anchor: dict[str, str] = {v: v for v in on_circle}
    frontier = sorted(on_circle)
    while frontier:
        nxt: list[str] = []
        for v in frontier:
            for eid, end in sorted(g.germs_at(v)):
                w = g.far_end(eid, end)
                if w not in anchor:
                    anchor[w] = anchor[v]
                    nxt.append(w)
        frontier = sorted(set(nxt))

    def image_coord(v: str) -> float:
        return c.coord_of(g, g.vertex_point(anchor[v]))

    pieces: dict[str, tuple[MapPiece, ...]] = {}
    for e in g.edges:
        if e.id in circle_edges:
            pieces[e.id] = (MapPiece(0.0, 1.0, (PathSeg(e.id, 0.0, 1.0),)),)
            continue
        su, sv = image_coord(e.u), image_coord(e.v)
        fwd = (sv - su) % c.length
        bwd = (su - sv) % c.length
        if abs(su - sv) <= 1e-15 or (fwd <= 1e-15 or bwd <= 1e-15):
            p = c.point_at(g, su)
            pieces[e.id] = (MapPiece(0.0, 1.0, (PathSeg(p.edge, p.t, p.t),)),)
        else:
            # backwards: the forward arc from sv, reversed
            segs = c.signed_arc(g, su, fwd) if fwd <= bwd else reverse_path(c.signed_arc(g, sv, bwd))
            pieces[e.id] = (MapPiece(0.0, 1.0, segs),)
    return GraphMap(g, g, pieces)


def rotate_along_circle(m: GraphMap, c: Circle, angle: float) -> GraphMap:
    """Post-compose a map whose image lies on circle c with rotation by angle·length."""
    g2 = m.codomain
    shift = (angle % 1.0) * c.length
    pieces: dict[str, tuple[MapPiece, ...]] = {}
    for eid, plist in m.pieces.items():
        out: list[MapPiece] = []
        for pc in plist:
            total = sum(seg.length(g2) for seg in pc.path)
            s0 = c.coord_of(g2, GraphPoint(pc.path[0].edge, pc.path[0].t0))
            if total <= 1e-15:
                p = c.point_at(g2, s0 + shift)
                out.append(MapPiece(pc.lo, pc.hi, (PathSeg(p.edge, p.t, p.t),)))
                continue
            # determine direction of the path along the circle
            ke, kt = eval_et(m, m.domain.edge_index(eid), (pc.lo + pc.hi) / 2.0)
            smid = c.coord_of(g2, GraphPoint(g2.edges[ke].id, kt))
            fwd = (smid - s0) % c.length
            span = total if fwd <= c.length / 2 else -total
            out.append(MapPiece(pc.lo, pc.hi, c.signed_arc(g2, s0 + shift, span)))
        pieces[eid] = tuple(out)
    return GraphMap(m.domain, g2, pieces)


def circle_rotation_pieces(
    g: MetricGraph,
    domain_edge: str,
    target: Circle,
    s_at_zero: float,
    rate: float,
) -> tuple[MapPiece, ...]:
    """Pieces mapping a whole edge onto the arc s_at_zero + rate·(arc position).

    The domain edge parameter t traverses the target circle arc starting at
    coordinate ``s_at_zero`` with signed arc speed ``rate`` per unit of domain
    arc length.
    """
    span = rate * g.edge_of(domain_edge).length
    return (MapPiece(0.0, 1.0, target.signed_arc(g, s_at_zero, span)),)


def shortest_path_segments(g: MetricGraph, p: GraphPoint, q: GraphPoint) -> tuple[PathSeg, ...]:
    """Directed segments of a shortest path from p to q.

    Between vertices the path is read from the vertex distance table: at
    each vertex it leaves along the first germ, in sorted order, that
    minimises edge length plus the table distance left to the end vertex.
    Each step must strictly lower that distance, so an unreachable q raises
    ``WrongInput``.
    """
    ep, eq = g.edge_of(p.edge), g.edge_of(q.edge)
    # (length, then the vertex and t where the path leaves p's edge and
    # enters q's edge); no vertex for the path along one edge
    options = [(abs(p.t - q.t) * ep.length, None, 0.0, None, 0.0)] if p.edge == q.edge else []
    pu, pv = p.t * ep.length, (1.0 - p.t) * ep.length
    qu, qv = q.t * eq.length, (1.0 - q.t) * eq.length
    for dp, a, ta in ((pu, ep.u, 0.0), (pv, ep.v, 1.0)):
        for dq, b, tb in ((qu, eq.u, 0.0), (qv, eq.v, 1.0)):
            options.append((dp + g.vertex_distance(a, b) + dq, a, ta, b, tb))
    _, a, ta, b, tb = min(options, key=lambda o: o[0])
    if a is None:
        return (PathSeg(p.edge, p.t, q.t),)
    segs: list[PathSeg] = []
    if abs(p.t - ta) > 0:
        segs.append(PathSeg(p.edge, p.t, ta))
    x = a
    while x != b:
        eid, end = min(
            sorted(g.germs_at(x)), key=lambda ge: g.edge_of(ge[0]).length + g.vertex_distance(g.far_end(*ge), b)
        )
        w = g.far_end(eid, end)
        if not g.vertex_distance(w, b) < g.vertex_distance(x, b):
            raise WrongInput(f"no path from {a!r} to {b!r}")
        segs.append(PathSeg(eid, 0.0, 1.0) if end == 0 else PathSeg(eid, 1.0, 0.0))
        x = w
    if abs(q.t - tb) > 0:
        segs.append(PathSeg(q.edge, tb, q.t))
    if not segs:
        segs.append(PathSeg(p.edge, p.t, p.t))
    return tuple(segs)


# ---------------------------------------------------------------------------
# local classification (end-points vs star-like interior points)


def star_branch_count(
    g: MetricGraph, pe: int, pt: float, qe: np.ndarray, qt: np.ndarray, dist: np.ndarray,
    r: float, delta: float,
) -> int:
    """Finite-scale end-point / star-like-interior classifier: the number k
    of distinct edge germs at p = (edge index pe, t = pt) along which
    shortest paths depart toward the sample points (qe, qt) whose distance
    ``dist`` from p (a ``distance_matrix`` row) lies in (delta, min(r, 2·delta)].

    p is a star-like interior point at scale (r, delta) when k >= 2, and an
    end-point otherwise.  Within delta of a vertex the germs are the
    vertex's, and a tie goes to the first in ``germs_at`` order; inside an
    edge they are its -t and +t ends, and -t is taken only when it is
    strictly shorter.
    """
    if delta >= r:
        raise WrongInput(f"need delta < r, got delta={delta}, r={r}")
    sel = (dist > delta) & (dist <= r) & (dist <= 2.0 * delta)
    if not sel.any():
        return 0
    qe, qt = qe[sel], qt[sel]
    L = g._len_arr[qe]
    qu, qv = qt * L, (1.0 - qt) * L
    qa, qb = g._u_arr[qe], g._v_arr[qe]
    vd = g._vdist
    ep = g.edges[pe]
    v = ep.u if pt * ep.length <= delta else ep.v if (1.0 - pt) * ep.length <= delta else None
    if v is not None:
        germs = g._germs[v]
        ge = np.array([g._eidx[eid] for eid, _ in germs])
        from_u = np.array([end == 0 for _, end in germs])
        other = np.where(from_u, g._v_arr[ge], g._u_arr[ge])
        glen = g._len_arr[ge][:, None]
        d = glen + np.minimum(qu + vd[other][:, qa], qv + vd[other][:, qb])
        # q reachable within the germ's edge without leaving it
        d_in = np.where(from_u[:, None], qt, 1.0 - qt) * glen
        germ = np.where(ge[:, None] == qe, np.minimum(d, d_in), d).argmin(axis=0)
    else:
        iu, iv = g._u_arr[pe], g._v_arr[pe]
        d_minus = pt * ep.length + np.minimum(qu + vd[iu, qa], qv + vd[iu, qb])
        d_plus = (1.0 - pt) * ep.length + np.minimum(qu + vd[iv, qa], qv + vd[iv, qb])
        same = qe == pe
        d_plus = np.where(same & (qt >= pt), np.minimum(d_plus, (qt - pt) * ep.length), d_plus)
        d_minus = np.where(same & (qt < pt), np.minimum(d_minus, (pt - qt) * ep.length), d_minus)
        germ = np.where(d_minus < d_plus, 0, 1)
    return int(np.count_nonzero(np.bincount(germ)))


# ---------------------------------------------------------------------------
# rotation number and monotonicity


def rotation_number_of_circle_map(fn, x0: float, iterations: int) -> float:
    """Birkhoff average of signed displacement for a degree-one circle map.

    Displacements are wrapped to (-1/2, 1/2]; the result is reported mod 1
    with error estimate 1/iterations for maps conjugate to rotations.
    """
    x = x0 % 1.0
    total = 0.0
    for _ in range(iterations):
        y = fn(x) % 1.0
        d = (y - x) % 1.0
        if d > 0.5:
            d -= 1.0
        total += d
        x = y
    return (total / iterations) % 1.0


def rotation_number(m: GraphMap, c: Circle, iterations: int) -> float:
    """Rotation number of a circle self-map given as a GraphMap restricted to c."""
    g = m.domain

    def fn(u: float) -> float:
        p = c.point_at(g, u * c.length)
        q = eval_graph_map(m, p)
        if not c.contains_point(g, q):
            raise WrongInput("map image leaves the circle")
        return c.coord_of(g, q) / c.length

    return rotation_number_of_circle_map(fn, 0.12345, iterations)


# ---------------------------------------------------------------------------
# small constructors used throughout


def circle_graph(length: float = 1.0) -> MetricGraph:
    return MetricGraph(("v",), (Edge("c", "v", "v", length),))


def star_graph(n: int, branch_length: float = 1.0) -> MetricGraph:
    verts = ["o"] + [f"t{i}" for i in range(1, n + 1)]
    edges = [Edge(f"b{i}", "o", f"t{i}", branch_length) for i in range(1, n + 1)]
    return MetricGraph(verts, edges)


def interval_graph(length: float = 1.0, edge_id: str = "I") -> MetricGraph:
    return MetricGraph(("v0", "v1"), (Edge(edge_id, "v0", "v1", length),))

