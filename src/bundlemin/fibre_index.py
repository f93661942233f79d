"""The array side of a fibre graph: its per-edge arrays and vertex distance
matrix, the distance and map kernels over (edge index, t) columns of its
points, the local end-point classifier, and the per-slice fibre index.

The index answers exact nearest-point, single-linkage and edge coverage
queries on a point set of a metric graph from per-edge sorted coordinates
instead of one distance row per point.  Single linkage at every cutoff, and
the gap between its components, is read from two kinds of link that the
index computes once: successive points of an edge run, and edge extremes.
"""
from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Iterable, NamedTuple, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import InvalidPoint, WrongInput
from .graphs import GraphMap, GraphPoint, MetricGraph, eval_et


class GraphArrays(NamedTuple):
    """A graph as arrays: per edge its length and the vertex indices of its
    u and v ends, and the vertex distance matrix (``MetricGraph``'s rows)."""

    length: np.ndarray
    u: np.ndarray
    v: np.ndarray
    vdist: np.ndarray


_ARRAYS: WeakKeyDictionary[MetricGraph, GraphArrays] = WeakKeyDictionary()


def graph_arrays(g: MetricGraph) -> GraphArrays:
    """g's arrays, built on their first use and kept while g lives."""
    arrays = _ARRAYS.get(g)
    if arrays is None:
        n = len(g.vertices)
        arrays = _ARRAYS[g] = GraphArrays(
            np.array([e.length for e in g.edges]),
            np.array([g._vidx[e.u] for e in g.edges], dtype=int),
            np.array([g._vidx[e.v] for e in g.edges], dtype=int),
            np.array(g._vdist_rows, dtype=float).reshape(n, n),
        )
    return arrays


def _vertex_distances(vdist: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``vdist[a, b]`` for vertex index arrays that broadcast together.
    A column against a row is gathered by rows, then by columns, several
    times faster than numpy's broadcast fancy index."""
    if a.ndim == 2 == b.ndim and a.shape[1] == 1 == b.shape[0]:
        return vdist[a[:, 0]][:, b[0]]
    return vdist[a, b]


def pair_distances(
    g: MetricGraph, pe: np.ndarray, pt: np.ndarray, qe: np.ndarray, qt: np.ndarray
) -> np.ndarray:
    """Path distance from each point (pe, pt) to the point (qe, qt) at
    the same position; the four arrays broadcast together.

    Each entry is ``MetricGraph.path_distance``'s value, bit for bit: the
    same four vertex terms, each summed as ``(p to vertex + vertex
    distance) + vertex to q``, and ``|t_q - t_p| * length`` for a pair on
    one edge.
    """
    arrays = graph_arrays(g)
    plen, qlen = arrays.length[pe], arrays.length[qe]
    pu, pv = pt * plen, (1.0 - pt) * plen
    qu, qv = qt * qlen, (1.0 - qt) * qlen
    pa, pb = arrays.u[pe], arrays.v[pe]
    qa, qb = arrays.u[qe], arrays.v[qe]
    vd = partial(_vertex_distances, arrays.vdist)
    best = np.minimum(
        np.minimum(pu + vd(pa, qa) + qu, pu + vd(pa, qb) + qv),
        np.minimum(pv + vd(pb, qa) + qu, pv + vd(pb, qb) + qv),
    )
    direct = np.abs(qt - pt) * plen
    return np.where(pe == qe, np.minimum(best, direct), best)


def distance_matrix(
    g: MetricGraph, pe: np.ndarray, pt: np.ndarray, qe: np.ndarray, qt: np.ndarray
) -> np.ndarray:
    """Path distances from the points (pe, pt) (rows) to the points
    (qe, qt) (columns): ``pair_distances`` of every pair."""
    return pair_distances(g, pe[:, None], pt[:, None], qe[None, :], qt[None, :])


def point_arrays(g: MetricGraph, pts: Sequence[GraphPoint]) -> tuple[np.ndarray, np.ndarray]:
    """(edge index, t) arrays of a point list of g, the form the distance
    kernels take."""
    return (
        np.array([g._eidx[p.edge] for p in pts], dtype=int),
        np.array([p.t for p in pts], dtype=float),
    )


def points_from_arrays(g: MetricGraph, edge_idx: np.ndarray, ts: np.ndarray) -> list[GraphPoint]:
    """The point list of (edge index, t) arrays; ``point_arrays`` inverted."""
    edges = g.edges
    return [GraphPoint(edges[e].id, t) for e, t in zip(edge_idx.tolist(), ts.tolist())]


def eval_graph_map_arrays(m: GraphMap, ei: np.ndarray, tt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eval_et`` of each point (ei, tt), as (codomain edge index, t)
    arrays, with ``InvalidPoint`` for a parameter outside [0, 1]."""
    outside = ~((tt >= 0.0) & (tt <= 1.0))
    if outside.any():
        j = int(np.flatnonzero(outside)[0])
        raise InvalidPoint(f"parameter {tt[j]} outside [0, 1] on edge {m.domain.edges[ei[j]].id!r}")
    images = [eval_et(m, e, t) for e, t in zip(ei.tolist(), tt.tolist())]
    return np.array([e for e, _ in images], dtype=int), np.array([t for _, t in images], dtype=float)


class FibreIndex:
    """A point set on a graph, sorted by ``t`` within each edge.

    Answers nearest-point distances for a batch of queries and single-linkage
    components at a cutoff with O(edges) numpy calls instead of one
    ``distances_to_many`` per point.  The answers equal, bit for bit, what
    ``distances_to_many`` gives over the whole set: each candidate distance
    is computed with its float operations (``distance_matrix``), and IEEE
    ``+`` and ``*`` by a positive number round monotonically.  So among the
    points of one edge, the terms that leave it through its ``u`` end are
    smallest at its min-``t`` point, those through its ``v`` end at its
    max-``t`` point, and the direct term at a ``t``-neighbour of the query.
    """

    def __init__(self, g: MetricGraph, edge_idx: np.ndarray, ts: np.ndarray):
        self.g = g
        #: the length of each edge of g
        self.length = graph_arrays(g).length
        #: original index of each point, in (edge, t) order
        self.order = np.lexsort((ts, edge_idx))
        self.edge_idx = edge_idx[self.order]
        self.ts = ts[self.order]
        # edge e's points are the sorted slice bounds[e]:bounds[e + 1]
        self.bounds = np.searchsorted(self.edge_idx, np.arange(len(g.edges) + 1))
        lo, hi = self.bounds[:-1], self.bounds[1:]
        self.occupied = np.flatnonzero(lo < hi)
        #: positions of each occupied edge's min-t and max-t point (the same
        #: one twice for a one-point edge; np.unique would import numpy.ma)
        self.extremes = np.concatenate([lo[self.occupied], hi[self.occupied] - 1])

    def nearest(self, qe: np.ndarray, qt: np.ndarray) -> np.ndarray:
        """Distance from each query point (qe[i], qt[i]) to the set: the
        minimum of ``distances_to_many`` from the query, inf if the set is empty."""
        if len(self.ts) == 0:
            return np.full(len(qt), math.inf)
        ext = self.extremes
        best = distance_matrix(self.g, qe, qt, self.edge_idx[ext], self.ts[ext]).min(axis=1)
        for e in self.occupied:
            sel = np.flatnonzero(qe == e)
            if not len(sel):
                continue
            lo, hi = self.bounds[e], self.bounds[e + 1]
            run = self.ts[lo:hi]
            pos = np.searchsorted(run, qt[sel])
            below = run[np.maximum(pos - 1, 0)]
            above = run[np.minimum(pos, hi - lo - 1)]
            L = self.length[e]
            direct = np.minimum(np.abs(below - qt[sel]) * L, np.abs(above - qt[sel]) * L)
            best[sel] = np.minimum(best[sel], direct)
        return best

    def covered_edges(self, r: float) -> np.ndarray:
        """Per edge, whether every point of it lies within r of the set.

        On an edge of length L, in arc length, each end vertex w within r
        of the set covers [0, r - d(u)] or [L - (r - d(v)), L], d(w) being
        ``nearest`` at w, and each point of the edge at t covers
        [tL - r, tL + r]; no other path reaches the edge.  One sweep over
        these intervals, in order of start (the u interval, the sorted run,
        the v interval), decides whether they cover [0, L] (Klee 1977, in
        one dimension)."""
        n = len(self.g.edges)
        ends = self.nearest(np.repeat(np.arange(n), 2), np.tile([0.0, 1.0], n))
        covered = np.zeros(n, dtype=bool)
        for e in range(n):
            du, dv = ends[2 * e], ends[2 * e + 1]
            if not max(du, dv) <= r:
                continue
            L = self.length[e]
            s = self.ts[self.bounds[e]:self.bounds[e + 1]] * L
            starts = np.concatenate(([0.0], s - r, [L - (r - dv)]))
            stops = np.maximum.accumulate(np.concatenate(([r - du], s + r, [L])))
            covered[e] = (starts[1:] <= stops[:-1]).all()
        return covered

    def distance_to_edges(self, edges: np.ndarray) -> np.ndarray:
        """Distance from each point, in original order, to the union of the
        edges where the boolean mask ``edges`` is set: 0 on one of them,
        else the distance to the nearest of their end vertices."""
        off = np.flatnonzero(~edges[self.edge_idx])
        ve = np.repeat(np.flatnonzero(edges), 2)
        vt = np.tile([0.0, 1.0], len(ve) // 2)
        dist = np.zeros(len(self.ts))
        dist[self.order[off]] = distance_matrix(
            self.g, self.edge_idx[off], self.ts[off], ve, vt).min(axis=1, initial=math.inf)
        return dist

    @cached_property
    def _links(self) -> tuple[np.ndarray, np.ndarray]:
        """The gap from each sorted point to the next (inf where the next is
        on another edge) and the distance matrix of the edge extremes."""
        same_edge = self.edge_idx[1:] == self.edge_idx[:-1]
        steps = np.abs(self.ts[1:] - self.ts[:-1]) * self.length[self.edge_idx[1:]]
        e, t = self.edge_idx[self.extremes], self.ts[self.extremes]
        return np.where(same_edge, steps, math.inf), distance_matrix(self.g, e, t, e, t)

    def components(self, cutoff: float) -> tuple[list[np.ndarray], float]:
        """Single-linkage components at the cutoff, as arrays of original
        indices ordered by their smallest index, and the gap: the smallest
        distance from a point of a later component to an earlier one (inf
        for one component).  A link is a pair whose ``distances_to_many``
        distance is <= cutoff in either direction (the two directions can
        differ in the last bit).

        Each edge's sorted run is split where the gap to the next point
        exceeds the cutoff; the pieces are then joined through links between
        edge extremes only.  A point linked to another through a vertex is
        chained to its edge's extreme on that side by gaps no longer than its
        own distance to the vertex, so no other link is needed.  By the same
        chains, and because single linkage is a minimum spanning tree (Gower
        & Ross 1969), the gap is the smallest of these links that joins two
        components, with each extreme pair read from the later component.
        """
        if len(self.ts) == 0:
            return [], math.inf
        steps, d = self._links
        cut = ~(steps <= cutoff)
        piece = np.concatenate(([0], np.cumsum(cut)))
        split = np.flatnonzero(cut)
        # each piece (a sorted run between splits) is named by its smallest
        # original index, and a component's root is its piece of least name
        name = np.minimum.reduceat(self.order, np.concatenate(([0], split + 1)))
        ext = self.extremes
        parent = {int(p): int(p) for p in piece[ext]}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in np.argwhere((d <= cutoff) | (d.T <= cutoff)):
            a, b = find(int(piece[ext[i]])), find(int(piece[ext[j]]))
            if a != b:
                a, b = (a, b) if name[a] < name[b] else (b, a)
                parent[b] = a
        root = np.arange(len(name))
        for p in parent:
            root[p] = find(p)
        # the smallest original index of each sorted point's component
        key = name[root][piece]
        by_key = np.argsort(key, kind="stable")
        groups = np.split(self.order[by_key], np.flatnonzero(np.diff(key[by_key])) + 1)
        crossing = split[key[split] != key[split + 1]]
        later = key[ext][:, None] > key[ext][None, :]
        gap = min(steps[crossing].min(initial=math.inf), d[later].min(initial=math.inf))
        return [np.sort(grp) for grp in groups], float(gap)


# ---------------------------------------------------------------------------
# local classification (end-points vs star-like interior points)


GERM_PASS_PAIRS = 1 << 12  # pairs in range gathered before a germ pass, to bound its temporaries


def star_branch_counts(
    g: MetricGraph, blocks: Iterable[tuple[np.ndarray, ...]], r: float, delta: float,
) -> np.ndarray:
    """Finite-scale end-point / star-like-interior classifier.  For every
    row p = (edge index pe, t = pt) of every block (pe, pt, qe, qt, dist),
    in order: the number k of distinct edge germs at p along which shortest
    paths depart toward the sample points (qe, qt) whose distance from p in
    the ``distance_matrix`` block ``dist`` lies in (delta, min(r, 2·delta)].
    Only those pairs are kept, and one germ pass runs over the pairs of
    whole blocks once ``GERM_PASS_PAIRS`` are held (there must be a block).

    p is a star-like interior point at scale (r, delta) when k >= 2, and an
    end-point otherwise.  Within delta of a vertex the germs are the
    vertex's, and a tie goes to the first in ``germs_at`` order; inside an
    edge they are its -t and +t ends, and -t is taken only when it is
    strictly shorter.
    """
    if delta >= r:
        raise WrongInput(f"need delta < r, got delta={delta}, r={r}")
    counts, pairs, n = [], [], 0
    for pe, pt, qe, qt, dist in blocks:
        if sum(len(pair[0]) for pair in pairs) >= GERM_PASS_PAIRS:
            counts.append(_germ_counts(g, n, pairs, delta))
            pairs, n = [], 0
        row, col = np.nonzero((dist > delta) & (dist <= r) & (dist <= 2.0 * delta))
        pairs.append((row + n, pe[row], pt[row], qe[col], qt[col]))
        n += len(dist)
    counts.append(_germ_counts(g, n, pairs, delta))
    return np.concatenate(counts)


def _germ_counts(g: MetricGraph, n: int, pairs: list[tuple[np.ndarray, ...]], delta: float) -> np.ndarray:
    """One germ pass of ``star_branch_counts`` over the pairs (row, pe, pt,
    qe, qt) it kept: the branch count of each of n rows."""
    row, pe, pt, qe, qt = map(np.concatenate, zip(*pairs))
    arrays = graph_arrays(g)
    L = arrays.length[qe]
    qu, qv = qt * L, (1.0 - qt) * L
    qa, qb = arrays.u[qe], arrays.v[qe]
    vd = arrays.vdist
    plen, iu, iv = arrays.length[pe], arrays.u[pe], arrays.v[pe]
    vertex = np.where(pt * plen <= delta, iu, np.where((1.0 - pt) * plen <= delta, iv, -1))
    d_minus = pt * plen + np.minimum(qu + vd[iu, qa], qv + vd[iu, qb])
    d_plus = (1.0 - pt) * plen + np.minimum(qu + vd[iv, qa], qv + vd[iv, qb])
    same = qe == pe
    d_plus = np.where(same & (qt >= pt), np.minimum(d_plus, (qt - pt) * plen), d_plus)
    d_minus = np.where(same & (qt < pt), np.minimum(d_minus, (pt - qt) * plen), d_minus)
    germ = np.where(d_minus < d_plus, 0, 1)
    for w in set(vertex[vertex >= 0].tolist()):
        s = vertex == w
        germs = g._germs[g.vertices[w]]
        ge = np.array([g._eidx[eid] for eid, _ in germs])
        from_u = np.array([end == 0 for _, end in germs])
        other = np.where(from_u, arrays.v[ge], arrays.u[ge])
        glen = arrays.length[ge][:, None]
        d = glen + np.minimum(qu[s] + vd[other][:, qa[s]], qv[s] + vd[other][:, qb[s]])
        # q reachable within the germ's edge without leaving it
        d_in = np.where(from_u[:, None], qt[s], 1.0 - qt[s]) * glen
        germ[s] = np.where(ge[:, None] == qe[s], np.minimum(d, d_in), d).argmin(axis=0)
    seen = np.zeros((n, max([2, *map(len, g._germs.values())])), dtype=bool)
    seen[row, germ] = True
    return np.count_nonzero(seen, axis=1)
