"""Greedy first-seen thinning of a stream of points (base embedding, fibre
edge index, fibre t) at separation sep, one block of points at a time.

What the kept set guarantees: a point is dropped exactly when an earlier
kept point among its grid candidates is within sep of it in both of

- the base test ``|e - e'| <= sep`` on the base embeddings, which does not
  wrap across the seam of a circular base: two points on either side of
  the seam are never compared, so kept points can lie closer than sep
  there;
- the fibre test ``MetricGraph.path_distance <= sep``.

With cells ``int(e / sep)`` in the base and ``int(arc to the u end / sep)``
along an edge, the grid candidates of a point are the kept points in the 9
cells (base cell +-1, same edge, arc cell +-1) and, when the point lies
within 2*sep of an end of its edge, the kept points that lie within 2*sep
of that same end vertex along their own edge, in base cells +-1.  A kept
point on another edge is thus compared only through a vertex both points
are near: two points near two distinct vertices that are closer than sep
to each other are never compared.

A block of points is tested against the points kept before it in one
array pass; the points that pass are tested against each other the same
way, a chunk at a time, and only those with a close earlier point in their
own block are decided one by one, in order.  A chunk is _CHUNK points, or
more while its points have at most _CHUNK**2 grid candidates among the
points that passed.  So a sparse block is decided in one pass, and a chunk
of a dense one holds no more pairs than the candidates of _CHUNK points.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import InvalidPoint, WrongInput
from .graphs import MetricGraph

#: points tested against the kept set in one array pass
THIN_BLOCK = 1024
#: points of a block that pass that test, decided against each other in
#: one array pass; more while their grid candidates number at most _CHUNK**2
_CHUNK = 64

#: bound on |base cell| and on (edge count) x (arc cells per edge), so that
#: every grid key fits in an int64
_CELL_LIMIT = 2**31
#: vertex key stride: every base cell +-1 under the limit, shifted positive
_VERTEX_STRIDE = 2 * _CELL_LIMIT + 4

Tag = TypeVar("Tag")


class _Points(NamedTuple):
    """Points as arrays, with their grid coordinates."""

    e: np.ndarray
    edge: np.ndarray
    t: np.ndarray
    #: base cell
    bc: np.ndarray
    #: arc cell along the edge, from its u end
    ac: np.ndarray
    #: within 2*sep of the edge's u (v) end
    near_u: np.ndarray
    near_v: np.ndarray

    def take(self, idx: np.ndarray) -> _Points:
        return _Points(*(a[idx] for a in self))


class _Index(NamedTuple):
    """The grid keys a point set registers under, sorted, each with the id
    of its point."""

    cell_keys: np.ndarray
    cell_ids: np.ndarray
    vertex_keys: np.ndarray
    vertex_ids: np.ndarray


#: the index of no points
_NO_KEYS = _Index(*[np.empty(0, dtype=np.int64)] * 4)


def _ranges(start: np.ndarray, stop: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position in the half-open ranges [start, stop), with the owner
    of its range."""
    count = stop - start
    first = np.cumsum(count) - count
    pos = np.arange(int(count.sum())) + np.repeat(start - first, count)
    return np.repeat(owner, count), pos


def _merged(index: _Index, new: _Index) -> _Index:
    """The keys of both indexes, sorted: the new keys are inserted, one
    pass over the old keys (none when there are no new keys)."""
    if not len(new.cell_keys):
        return index
    at = np.searchsorted(index.cell_keys, new.cell_keys)
    vat = np.searchsorted(index.vertex_keys, new.vertex_keys)
    return _Index(
        np.insert(index.cell_keys, at, new.cell_keys),
        np.insert(index.cell_ids, at, new.cell_ids),
        np.insert(index.vertex_keys, vat, new.vertex_keys),
        np.insert(index.vertex_ids, vat, new.vertex_ids),
    )


class KeptSet:
    """The points kept so far, in arrays whose capacity doubles, and the
    sorted keys of the grid cells they occupy.

    A cell key packs (base cell, edge, arc cell + 1) with the arc cell
    innermost and 2 spare arc cells per edge, so the 3 arc cells a point
    tests in one base row are consecutive keys; a vertex key packs (vertex,
    base cell) with the base cell innermost, so the 3 base rows of one
    vertex are consecutive.  Each test is then one ``searchsorted`` pair.
    A block's keys are merged in with ``np.insert``: one pass over the keys
    per block.
    """

    def __init__(self, g: MetricGraph, sep: float):
        self.g, self.sep = g, sep
        self._arcs = int(float(g._len_arr.max()) / sep) + 3
        if len(g.edges) * self._arcs >= _CELL_LIMIT:
            raise WrongInput(f"separation {sep} too small for the fibre's edge lengths")
        self.n = 0
        self.e = np.empty(64)
        self.edge = np.empty(64, dtype=np.int64)
        self.t = np.empty(64)
        self._index = _NO_KEYS

    def offer_block(self, es: Sequence[float], edges: Sequence[int], ts: Sequence[float]) -> list[int]:
        """Offer the points (es[i], edges[i], ts[i]) in order, each edge a
        fibre edge index; the indices of those kept, ascending.  Raises
        ``InvalidPoint`` for the first point with a parameter outside [0, 1]."""
        p = self._points(es, edges, ts)
        near_kept, _ = self._close_pairs(p, self._candidate_ranges(p, self._index), self.e, self.edge, self.t)
        fresh = np.delete(np.arange(len(p.e)), near_kept)
        kept = fresh[self._first_seen(p.take(fresh))] if len(fresh) else fresh
        new = p.take(kept)
        ids = np.arange(self.n, self.n + len(kept))
        self._append(new)
        self._index = _merged(self._index, self._index_of(new, ids))
        return kept.tolist()

    def _first_seen(self, q: _Points) -> np.ndarray:
        """Positions, ascending, of the points greedy first-seen thinning of
        q alone keeps.  They are decided a chunk at a time, each chunk first
        against the points already kept and then against itself.  A chunk
        is _CHUNK points, or more while its points have at most _CHUNK**2
        grid candidates in all of q, so the pairs held at once stay few
        however densely q is packed."""
        n = len(q.e)
        candidates = self._candidate_ranges(q, self._index_of(q, np.arange(n)))
        counts = sum(np.bincount(owner, stop - start, minlength=n) for _, start, stop, owner in candidates)
        # before[k]: the grid candidates in q of q's first k points
        before = np.concatenate([[0], np.cumsum(counts)])
        kept = np.empty(0, dtype=np.int64)
        index = _NO_KEYS
        start = 0
        while start < n:
            stop = min(n, max(start + _CHUNK, int(np.searchsorted(before, before[start] + _CHUNK**2, "right")) - 1))
            c = np.arange(start, stop)
            if start:
                qc = q.take(c)
                near, _ = self._close_pairs(qc, self._candidate_ranges(qc, index), q.e, q.edge, q.t)
                c = np.delete(c, near)
            qc = q.take(c)
            if len(c) < n:  # else the chunk is all of q, whose candidates were counted
                candidates = self._candidate_ranges(qc, self._index_of(qc, np.arange(len(c))))
            i, j = self._close_pairs(qc, candidates, qc.e, qc.edge, qc.t)
            earlier = j < i
            i, j = i[earlier], j[earlier]
            order = np.argsort(i, kind="stable")
            keep = [True] * len(c)
            for a, b in zip(i[order].tolist(), j[order].tolist()):
                if keep[b]:
                    keep[a] = False
            c = c[np.array(keep, dtype=bool)]
            kept = np.concatenate([kept, c])
            if stop < n:
                index = _merged(index, self._index_of(q.take(c), c))
            start = stop
        return kept

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(base embedding, edge index, t) of the kept points, as copies."""
        return self.e[:self.n].copy(), self.edge[:self.n].copy(), self.t[:self.n].copy()

    def _points(self, es: Sequence[float], edges: Sequence[int], ts: Sequence[float]) -> _Points:
        g, sep = self.g, self.sep
        edge = np.asarray(edges, dtype=np.int64)
        t = np.asarray(ts, dtype=float)
        outside = ~((t >= 0.0) & (t <= 1.0))
        if outside.any():
            j = int(np.flatnonzero(outside)[0])
            raise InvalidPoint(f"parameter {float(t[j])} outside [0, 1] on edge {g.edges[edge[j]].id!r}")
        e = np.asarray(es, dtype=float)
        cell = e / sep
        if not (np.abs(cell) < _CELL_LIMIT).all():
            raise WrongInput(f"base embedding too large for separation {sep}")
        length = g._len_arr[edge]
        pu, pv = t * length, (1.0 - t) * length
        return _Points(e, edge, t, cell.astype(np.int64), (pu / sep).astype(np.int64),
                       pu <= 2 * sep, pv <= 2 * sep)

    def _cell_key(self, bc: np.ndarray, edge: np.ndarray, ac: np.ndarray) -> np.ndarray:
        return (bc * len(self.g.edges) + edge) * self._arcs + ac + 1

    def _vertex_keys(self, p: _Points, db: int) -> tuple[np.ndarray, np.ndarray]:
        """Per point and per end of its edge that it is near, the key of
        (that end vertex, base cell + db), with the point's position."""
        keys, at = [], []
        for near, ends in ((p.near_u, self.g._u_arr), (p.near_v, self.g._v_arr)):
            k = np.flatnonzero(near)
            keys.append(ends[p.edge[k]] * _VERTEX_STRIDE + p.bc[k] + (db + _CELL_LIMIT + 2))
            at.append(k)
        return np.concatenate(keys), np.concatenate(at)

    def _index_of(self, p: _Points, ids: np.ndarray) -> _Index:
        """The keys the points p register under, with their ids."""
        cell_keys = self._cell_key(p.bc, p.edge, p.ac)
        vertex_keys, at = self._vertex_keys(p, 0)
        co = np.argsort(cell_keys, kind="stable")
        vo = np.argsort(vertex_keys, kind="stable")
        return _Index(cell_keys[co], ids[co], vertex_keys[vo], ids[at[vo]])

    def _candidate_ranges(self, p: _Points, index: _Index) -> list[tuple[np.ndarray, ...]]:
        """The grid candidates in index of p's points, per kind of key (cell,
        then vertex): (the ids of that kind, start, stop, owner), each
        candidate a position in [start, stop) of that kind's keys and owner
        the position in p whose candidate it is.  The needles are searched
        in key order."""
        lo = self._cell_key(p.bc, p.edge, p.ac - 1)
        co = np.argsort(lo, kind="stable")
        # one base row apart is a fixed key step, so each row's needles are sorted
        lo = (lo[co] + np.array([[-1], [0], [1]]) * len(self.g.edges) * self._arcs).ravel()
        vlo, vat = self._vertex_keys(p, -1)
        vo = np.argsort(vlo, kind="stable")
        return [
            (ids, np.searchsorted(keys, needles, "left"), np.searchsorted(keys, needles + 2, "right"), owner)
            for keys, ids, needles, owner in (
                (index.cell_keys, index.cell_ids, lo, np.tile(co, 3)),
                (index.vertex_keys, index.vertex_ids, vlo[vo], vat[vo]),
            )
        ]

    def _close_pairs(self, p: _Points, candidates: list[tuple[np.ndarray, ...]], e: np.ndarray,
                     edge: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pairs (i, j) such that point j, which is (e[j], edge[j], t[j]), is
        among the candidates of p's point i (from ``_candidate_ranges``) and
        lies within sep of it in the base and in the fibre.  A pair may
        repeat, and the pairs come in no particular order."""
        i, j = [], []
        for ids, start, stop, owner in candidates:
            a, pos = _ranges(start, stop, owner)
            i.append(a)
            j.append(ids[pos])
        i, j = np.concatenate(i), np.concatenate(j)
        near = np.abs(p.e[i] - e[j]) <= self.sep
        i, j = i[near], j[near]
        near = self.g.pair_distances(p.edge[i], p.t[i], edge[j], t[j]) <= self.sep
        return i[near], j[near]

    def _append(self, p: _Points) -> None:
        """Append the points p to the kept arrays."""
        end = self.n + len(p.e)
        if end > len(self.e):
            cap = max(2 * len(self.e), end)
            for name in ("e", "edge", "t"):
                old = getattr(self, name)
                grown = np.empty(cap, dtype=old.dtype)
                grown[:self.n] = old[:self.n]
                setattr(self, name, grown)
        self.e[self.n:end], self.edge[self.n:end], self.t[self.n:end] = p.e, p.edge, p.t
        self.n = end


def thin_blocks(
    g: MetricGraph, sep: float, blocks: Iterable[tuple[Sequence[Tag], Sequence, Sequence, Sequence]]
) -> tuple[list[Tag], KeptSet]:
    """Greedy first-seen sep-thinning of points offered a block at a time,
    each block (tags, base embeddings, fibre edge indices, fibre t): the
    tags of the kept points, in order, and the kept set."""
    kept = KeptSet(g, sep)
    tags: list[Tag] = []
    for block in blocks:
        block_tags, es, edges, ts = block
        tags.extend(block_tags[i] for i in kept.offer_block(es, edges, ts))
        # release this block before the next one is drawn, so that at most
        # one block of points is alive
        del block, block_tags, es, edges, ts
    return tags, kept
