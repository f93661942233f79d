"""Per-slice fibre index: exact nearest-point and single-linkage queries on a
point set of a metric graph, answered from per-edge sorted coordinates
instead of one distance row per point.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graphs import GraphPoint, MetricGraph


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

    @classmethod
    def of_points(cls, g: MetricGraph, pts: Sequence[GraphPoint]) -> "FibreIndex":
        return cls(g, *g.point_arrays(pts))

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

    def components(self, cutoff: float) -> list[np.ndarray]:
        """Single-linkage components at the cutoff, as arrays of original
        indices ordered by their smallest index.  A link is a pair whose
        ``distances_to_many`` distance is <= cutoff in either direction (the
        two directions can differ in the last bit).

        Each edge's sorted run is split where the gap to the next point
        exceeds the cutoff; the pieces are then joined through links between
        edge extremes only.  A point linked to another through a vertex is
        chained to its edge's extreme on that side by gaps no longer than its
        own distance to the vertex, so no other link is needed.
        """
        if len(self.ts) == 0:
            return []
        same_edge = self.edge_idx[1:] == self.edge_idx[:-1]
        gaps = np.abs(self.ts[1:] - self.ts[:-1]) * self.g._len_arr[self.edge_idx[1:]]
        piece = np.concatenate(([0], np.cumsum(~(same_edge & (gaps <= cutoff)))))
        ext = self.extremes
        d = self.g.distance_matrix(
            self.edge_idx[ext], self.ts[ext], self.edge_idx[ext], self.ts[ext]
        )
        parent = {int(p): int(p) for p in piece[ext]}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in np.argwhere((d <= cutoff) | (d.T <= cutoff)):
            a, b = find(int(piece[ext[i]])), find(int(piece[ext[j]]))
            if a != b:
                parent[max(a, b)] = min(a, b)
        root = np.arange(int(piece[-1]) + 1)
        for p in parent:
            root[p] = find(p)
        label = root[piece]
        by_label = np.argsort(label, kind="stable")
        groups = np.split(self.order[by_label], np.flatnonzero(np.diff(label[by_label])) + 1)
        return sorted((np.sort(grp) for grp in groups), key=lambda grp: grp[0])
