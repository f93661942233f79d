"""Per-slice fibre index: exact nearest-point, single-linkage and edge
coverage queries on a point set of a metric graph, answered from per-edge
sorted coordinates instead of one distance row per point.  Single linkage
at every cutoff, and the gap between its components, is read from two kinds
of link that the index computes once: successive points of an edge run, and
edge extremes.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .graphs import MetricGraph


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
        best = self.g.distance_matrix(qe, qt, self.edge_idx[ext], self.ts[ext]).min(axis=1)
        for e in self.occupied:
            sel = np.flatnonzero(qe == e)
            if not len(sel):
                continue
            lo, hi = self.bounds[e], self.bounds[e + 1]
            run = self.ts[lo:hi]
            pos = np.searchsorted(run, qt[sel])
            below = run[np.maximum(pos - 1, 0)]
            above = run[np.minimum(pos, hi - lo - 1)]
            L = self.g._len_arr[e]
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
            L = self.g._len_arr[e]
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
        dist[self.order[off]] = self.g.distance_matrix(
            self.edge_idx[off], self.ts[off], ve, vt).min(axis=1, initial=math.inf)
        return dist

    @cached_property
    def _links(self) -> tuple[np.ndarray, np.ndarray]:
        """The gap from each sorted point to the next (inf where the next is
        on another edge) and the distance matrix of the edge extremes."""
        same_edge = self.edge_idx[1:] == self.edge_idx[:-1]
        steps = np.abs(self.ts[1:] - self.ts[:-1]) * self.g._len_arr[self.edge_idx[1:]]
        e, t = self.edge_idx[self.extremes], self.ts[self.extremes]
        return np.where(same_edge, steps, math.inf), self.g.distance_matrix(e, t, e, t)

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
