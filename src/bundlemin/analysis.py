"""Orbit-closure sampling, fibre classification, and the empirical verdicts:
the end-point dichotomy, circle-count reports with image disjointness, and
the typical-fibre trichotomy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from .base_systems import BasePoint, BaseSystem
from .bundles import Bundle, BundlePoint, SkewSystem, cut_sides, orbit_blocks
from .errors import NoProbes, NotCircleCase, WrongInput
from .fibre_index import FibreIndex
from .graphs import (
    Circle,
    GraphPoint,
    MetricGraph,
    circles_disjoint,
    enumerate_circles,
    eval_graph_map_arrays,
    star_branch_count,
)
from . import thinning

# ---------------------------------------------------------------------------
# sampled sets


#: widening of a slice's base window beyond delta_base, far above the
#: rounding of the window ends and of the distance test (embeddings are
#: O(1)); the exact test on the candidates decides
SLICE_MARGIN = 1e-9


@dataclass
class SampledSet:
    """Finite approximation of an invariant set, held as arrays: per sample
    point its base point, fibre edge index, fibre parameter ``t`` and base
    embedding.

    ``base_embed`` is computed from ``bases`` when not given.
    """

    delta: float
    bases: list[BasePoint]
    edge_idx: np.ndarray = field(repr=False)
    ts: np.ndarray = field(repr=False)
    provenance: dict
    base: BaseSystem
    bundle: Bundle
    base_embed: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.base_embed is None:
            self.base_embed = np.array([float(self.base.embedding(b)) for b in self.bases], dtype=float)
        self._circular = self.base.circular
        self._probe_classes: dict[tuple, FibreClass | None] = {}

    @classmethod
    def from_points(
        cls, delta: float, points: Sequence[BundlePoint], provenance: dict, base: BaseSystem, bundle: Bundle
    ) -> SampledSet:
        """The sample of the given (base point, fibre point) pairs."""
        ei, tt = bundle.fibre.point_arrays([x.y for x in points])
        return cls(delta, [x.b for x in points], ei, tt, provenance, base, bundle)

    @cached_property
    def points(self) -> list[BundlePoint]:
        """The sample as point objects, for library callers; the pipeline
        reads the arrays."""
        ys = self.bundle.fibre.points_from_arrays(self.edge_idx, self.ts)
        return [BundlePoint(b, y) for b, y in zip(self.bases, ys)]

    @cached_property
    def _sorted_embed(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.base_embed, kind="stable")
        return order, self.base_embed[order]

    def base_offsets(self, embeds: np.ndarray, e: float) -> np.ndarray:
        """Signed base offsets embeds - e, wrapped into [-1/2, 1/2] on a circular base."""
        d = embeds - e
        return d - np.round(d) if self._circular else d

    def slice_indices(self, b: BasePoint, delta_base: float) -> np.ndarray:
        """Indices, ascending, of the points within delta_base of b in the
        base (distances wrap for a circular base).  Only the points in a
        slightly wider window of the sorted embeddings are tested."""
        e = float(self.base.embedding(b))
        order, sorted_e = self._sorted_embed
        w = delta_base + SLICE_MARGIN
        if not self._circular:
            windows = [(e - w, e + w)]
        elif 2.0 * w < 1.0:
            # circular embeddings lie in [0, 1]: the wrapped copies of the
            # window are disjoint
            windows = [(e + k - w, e + k + w) for k in (-1.0, 0.0, 1.0)]
        else:
            windows = [(-np.inf, np.inf)]
        cand = np.concatenate([
            order[np.searchsorted(sorted_e, lo, "left"):np.searchsorted(sorted_e, hi, "right")]
            for lo, hi in windows
        ])
        return np.sort(cand[np.abs(self.base_offsets(self.base_embed[cand], e)) <= delta_base])

    def slice_arrays(self, b: BasePoint, delta_base: float) -> tuple[np.ndarray, np.ndarray]:
        """The fibre slice over b as (edge index, t) arrays: ``chart_arrays``
        of the points within delta_base of b in the base."""
        return self.chart_arrays(self.slice_indices(b, delta_base), b)

    def chart_arrays(self, idx: np.ndarray, b: BasePoint) -> tuple[np.ndarray, np.ndarray]:
        """The fibre points of the sample points idx as (edge index, t)
        arrays in the chart of b.  Only the points whose short base arc to b
        crosses the cut are glued."""
        ei, tt = self.edge_idx[idx], self.ts[idx]
        if self.bundle.is_monodromy:
            side = cut_sides(self.base_embed[idx], float(self.base.embedding(b)))
            for sign, m in ((1, self.bundle.gluing), (-1, self.bundle.gluing_inverse)):
                glued = side == sign
                if glued.any():
                    ei[glued], tt[glued] = eval_graph_map_arrays(m, ei[glued], tt[glued])
        return ei, tt

    def fibre_slice(self, b: BasePoint, delta_base: float) -> list[GraphPoint]:
        """``slice_arrays`` as a point list."""
        return self.bundle.fibre.points_from_arrays(*self.slice_arrays(b, delta_base))

    def probe_class(self, b: BasePoint, delta_base: float, delta: float) -> FibreClass | None:
        """``classify_fibre`` of the fibre slice over b, None when the slice is
        empty; memoised, so the reports that probe one base point share it."""
        key = (b, delta_base, delta)
        if key not in self._probe_classes:
            ys = self.fibre_slice(b, delta_base)
            self._probe_classes[key] = classify_fibre(self.bundle.fibre, ys, delta) if ys else None
        return self._probe_classes[key]


def _thin_points(
    g: MetricGraph,
    base_embed: Sequence[float],
    ys: Sequence[GraphPoint],
    sep: float,
) -> list[int]:
    """Indices of the points that greedy first-seen sep-thinning keeps.

    The batch form of ``thinning.thin_blocks``, ``THIN_BLOCK`` points at a
    time: only the tests and ``perfbench/tracer.py`` (which times it by
    name) call it, and it goes when the benchmark reads stage spans instead
    of patching names (ROADMAP item 1).
    """
    edges = [g._eidx.get(y.edge, -1) for y in ys]
    if -1 in edges:
        for y in ys:
            g.validate_point(y)
    k = thinning.THIN_BLOCK
    blocks = ((range(i, i + k), base_embed[i:i + k], edges[i:i + k], [y.t for y in ys[i:i + k]])
              for i in range(0, len(ys), k))
    return thinning.thin_blocks(g, sep, blocks)[0]


def approximate_minimal_set(
    s: SkewSystem,
    seed: BundlePoint,
    transient: int,
    n: int,
    delta: float,
) -> SampledSet:
    """Thinned orbit sample after a transient.

    The kept subset is the greedy first-seen delta/4-thinning of the orbit
    (the ``thinning`` module says which pairs it compares); keeping the
    separation below delta preserves delta-coverage for the classifiers
    downstream.  The orbit is thinned as it is generated, one block at a
    time, so memory grows with the kept count, not with n.
    """
    if n < 1 or transient < 0 or delta <= 0:
        raise WrongInput("need n >= 1, transient >= 0 and delta > 0")
    sep = delta / 4.0
    blocks = orbit_blocks(s, seed, transient, n, thinning.THIN_BLOCK)
    bases, kept = thinning.thin_blocks(s.bundle.fibre, sep, blocks)
    embeds, edges, ts = kept.arrays()
    return SampledSet(
        delta,
        bases,
        edges,
        ts,
        provenance={
            "system": s.id,
            "seed": repr(seed),
            "transient": transient,
            "steps": n,
            "separation": sep,
        },
        base=s.base,
        bundle=s.bundle,
        base_embed=embeds,
    )


# ---------------------------------------------------------------------------
# fibre classification


@dataclass(frozen=True)
class FibreClass:
    kind: str  # "finite" | "cantor" | "circles" | "unknown"
    n: int | None = None
    m: int | None = None
    circles: tuple[Circle, ...] = ()
    #: the fibre slice the verdict was computed from, as (edge index, t) arrays
    edge_idx: np.ndarray | None = field(default=None, compare=False, repr=False)
    ts: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"FiniteN({self.n})"
        if self.kind == "circles":
            return f"Circles({self.m})"
        return self.kind.capitalize()


def _cluster_diameter(
    g: MetricGraph, edge_idx: np.ndarray, ts: np.ndarray, comp: np.ndarray, cap: float
) -> float:
    """Largest path distance within the component or, when one point's
    eccentricity (itself such a distance) already reaches cap, that
    eccentricity."""
    ei, tt = edge_idx[comp], ts[comp]
    ecc = float(g.distance_matrix(ei[:1], tt[:1], ei, tt).max())
    if ecc >= cap:
        return ecc
    return float(g.distance_matrix(ei, tt, ei, tt).max())


@lru_cache(maxsize=8)
def _circles(g: MetricGraph) -> tuple[tuple[Circle, np.ndarray], ...]:
    """Each circle of g with the indices of its edges; enumerated once per
    graph, and shared, so read-only."""
    return tuple((c, np.array([g.edge_index(e) for e, _ in c.steps])) for c in enumerate_circles(g))


def _covered_circles(g: MetricGraph, index: FibreIndex, delta: float) -> list[tuple[Circle, np.ndarray]]:
    """Circles of g every edge of which lies within delta of the indexed
    points, each with its edge indices."""
    covered = index.covered_edges(delta)
    return [(c, ei) for c, ei in _circles(g) if covered[ei].all()]


CANTOR_MIN_COMPONENTS = 20


def classify_fibre(g: MetricGraph, fibre_sample: Sequence[GraphPoint], delta: float) -> FibreClass:
    """Finite-resolution fibre verdict.

    Order of tests: finite point set, union of circles, Cantor-like dust,
    Unknown. The slice is clustered as given (``FibreIndex`` keeps that
    O(n log n)), and it is kept on the verdict as ``edge_idx`` and ``ts``.
    """
    if not fibre_sample:
        raise WrongInput("empty fibre sample")
    edge_idx, ts = g.point_arrays(fibre_sample)
    verdict = partial(FibreClass, edge_idx=edge_idx, ts=ts)
    index = FibreIndex(g, edge_idx, ts)
    comps, gap = index.components(delta)
    n = len(comps)
    cap = 10.0 * delta
    # the largest component diameter; once one reaches cap, no test reads the rest
    diam = 0.0
    for c in comps:
        diam = max(diam, _cluster_diameter(g, edge_idx, ts, c, cap))
        if diam >= cap:
            break
    if diam < delta / 2.0:
        if n == 1:
            return verdict("finite", n=1)
        if n * gap > 10.0 * delta:
            return verdict("finite", n=n)
    covered = _covered_circles(g, index, delta)
    if covered:
        # every sample point must sit near the union of the covered circles
        union = np.zeros(len(g.edges), dtype=bool)
        for _, ei in covered:
            union[ei] = True
        if (index.distance_to_edges(union) <= delta / 2.0).all():
            return verdict("circles", m=len(covered), circles=tuple(c for c, _ in covered))
    if n >= CANTOR_MIN_COMPONENTS and diam < cap:
        finer = len(index.components(delta / 2.0)[0])
        if finer >= 1.5 * n:
            return verdict("cantor", n=n)
    return verdict("unknown")


# ---------------------------------------------------------------------------
# end-point statistics (dichotomy)


@dataclass(frozen=True)
class DichotomyReport:
    endpoint_fraction: float
    interior_detected: bool
    verdict: str  # "A1" | "A2" | "Inconclusive"
    r: float
    delta: float
    points_checked: int


ENDPOINT_BLOCK = 1 << 16  # entries per distance-matrix block (end-points, interior)
ENDPOINT_MAX_POINTS = 1200  # endpoint_statistics checks every (n // this)-th of n points


def endpoint_statistics(sample: SampledSet, delta: float, delta_base: float) -> DichotomyReport:
    """Fraction of sample points that are end-points of their fibre slice
    at scales (r = 3·delta, delta), combined with the interior detector
    into a dichotomy verdict."""
    g = sample.bundle.fibre
    r = 3.0 * delta
    n = len(sample.bases)
    if n == 0:
        raise WrongInput("empty sample")
    step = max(1, n // ENDPOINT_MAX_POINTS)
    # checked points grouped by quantized base coordinate, in first-seen
    # order; each group shares the slice over its first point
    groups: dict[int, list[int]] = {}
    for i in range(0, n, step):
        groups.setdefault(int(sample.base_embed[i] / (delta_base / 2.0)), []).append(i)
    endpoints = 0
    for rows in groups.values():
        ei, tt = sample.slice_arrays(sample.bases[rows[0]], delta_base)
        # one distance matrix per slice, in blocks of rows to bound memory
        block = max(1, ENDPOINT_BLOCK // len(ei))
        for lo in range(0, len(rows), block):
            pe, pt = sample.edge_idx[rows[lo:lo + block]], sample.ts[rows[lo:lo + block]]
            dist = g.distance_matrix(pe, pt, ei, tt)
            for j in range(len(pe)):
                k = star_branch_count(g, pe[j], pt[j], ei, tt, dist[j], r, delta)
                endpoints += k < 2
    checked = len(range(0, n, step))
    fraction = endpoints / checked
    interior = interior_detector(sample, delta)
    if fraction == 0.0 and interior:
        verdict = "A2"
    elif fraction >= 0.5 and not interior:
        verdict = "A1"
    else:
        verdict = "Inconclusive"
    return DichotomyReport(fraction, interior, verdict, r, delta, checked)


# ---------------------------------------------------------------------------
# interior detection

INTERIOR_WINDOW_FACTOR = 17.0  # fibre window radius, in units of delta


def _fibre_window_probes(
    g: MetricGraph, e0: int, t0: float, radius: float, spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """The points of a spacing-fine grid on every edge that lie within
    radius of the point (edge index e0, t0), as (edge index, t) arrays in
    edge order."""
    grids = [np.linspace(0.0, 1.0, max(2, int(math.ceil(e.length / spacing))) + 1) for e in g.edges]
    ei = np.repeat(np.arange(len(grids)), [len(t) for t in grids])
    tt = np.concatenate(grids)
    d = g.distance_matrix(np.array([e0]), np.array([t0]), ei, tt)[0]
    keep = d <= radius
    return ei[keep], tt[keep]


def interior_detector(sample: SampledSet, delta: float) -> bool:
    """True when some product box (base ball x fibre graph ball) around a
    sample point is delta/2-covered by the sample, relative to the sampled
    base space.

    The box around a sample point x0 is ``slice_arrays`` over x0, in the
    chart of x0, and its base offsets wrap as in ``slice_indices``, so the
    verdict does not depend on where the seam of a circular base falls.
    Base probes are taken from the sample's own base coordinates, so a
    Cantor base does not count its embedding gaps against coverage.
    """
    g = sample.bundle.fibre
    n = len(sample.bases)
    if n == 0:
        return False
    for x0 in [(j * n) // 8 for j in range(min(8, n))]:
        box = sample.slice_indices(sample.bases[x0], delta)
        if len(box) < 4:
            continue
        ei, tt = sample.chart_arrays(box, sample.bases[x0])
        be = sample.base_embed[box]
        # base probes: the boxed points farthest back, in the middle and
        # farthest on from x0 along the base
        order = np.argsort(sample.base_offsets(be, sample.base_embed[x0]))
        base_gaps = [np.abs(sample.base_offsets(be, be[order[i]])) for i in (0, len(order) // 2, -1)]
        pe, pt = _fibre_window_probes(
            g, sample.edge_idx[x0], sample.ts[x0], INTERIOR_WINDOW_FACTOR * delta, delta / 4.0
        )
        # covered when every (fibre probe, base probe) pair has a box point
        # delta/2-close in the product metric; probe rows in blocks, as in
        # endpoint_statistics, to bound memory
        block = max(1, ENDPOINT_BLOCK // len(box))
        for lo in range(0, len(pe), block):
            dfib = g.distance_matrix(pe[lo:lo + block], pt[lo:lo + block], ei, tt)
            if any((np.maximum(dfib, gap).min(axis=1) > delta / 2.0).any() for gap in base_gaps):
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# typical fibre (trichotomy)


@dataclass(frozen=True)
class TrichotomyReport:
    typical: FibreClass | None
    N: int | None
    exceptional_tags: tuple[str, ...]
    totally_disconnected_fraction: float
    probes_used: int


def _in_homeo_part(base: BaseSystem, b: BasePoint) -> bool:
    """Each of b, f^-1(b), ..., f^-9(b) has exactly one preimage."""
    if base.preimages is None:
        return True
    x = b
    for _ in range(10):
        pres = base.preimages(x)
        if len(pres) != 1:
            return False
        x = pres[0]
    return True


def _probe_verdicts(
    sample: SampledSet, probes: Sequence[BasePoint], delta_base: float, delta: float
) -> list[tuple[BasePoint, FibreClass]]:
    """(probe, ``probe_class``) of each probe with a nonempty fibre slice,
    in probe order; both fibre reports read this one list."""
    return [(b, v) for b in probes if (v := sample.probe_class(b, delta_base, delta)) is not None]


def _modal(keys: list) -> object:
    """The most frequent key; a tie goes to the key seen first."""
    return max(keys, key=keys.count)


def typical_fibre_report(
    s: SkewSystem, sample: SampledSet, probes: Sequence[BasePoint], delta: float, delta_base: float
) -> TrichotomyReport:
    """Classify fibre slices over homeo-part probes and report the modal class."""
    homeo = [b for b in probes if _in_homeo_part(s.base, b)]
    verdicts = _probe_verdicts(sample, homeo, delta_base, delta)
    if not verdicts:
        raise NoProbes("no usable probes after the homeo-part filter")
    keys = [str(v) for _, v in verdicts]
    modal = _modal(keys)
    share = keys.count(modal) / len(keys)
    typical = next(v for _, v in verdicts if str(v) == modal) if share >= 0.9 else None
    finite_ns = [v.n for _, v in verdicts if v.kind == "finite" and v.n is not None]
    N = min(finite_ns) if finite_ns and typical is not None and typical.kind == "finite" else None
    exceptional = tuple(repr(b) for (b, v) in verdicts if str(v) != modal)
    td = sum(1 for _, v in verdicts if v.kind in ("finite", "cantor")) / len(verdicts)
    return TrichotomyReport(typical, N, exceptional, td, len(verdicts))


# ---------------------------------------------------------------------------
# circle fibres (C4 / C8)


@dataclass(frozen=True)
class CirclesReport:
    m: int
    exceptional_tags: tuple[str, ...]
    image_disjointness: bool
    probes_used: int


IMAGE_PROBES = 10  # most probes with the modal count whose images circles_report checks


def circles_report(
    s: SkewSystem, sample: SampledSet, probes: Sequence[BasePoint], delta: float, delta_base: float
) -> CirclesReport:
    """Modal circle count over probed fibres plus the image-disjointness check:
    each probed fibre's circle points must map delta-close onto pairwise
    disjoint circles of the image fibre."""
    g = s.bundle.fibre
    verdicts = _probe_verdicts(sample, probes, delta_base, delta)
    if not verdicts:
        raise NoProbes("no nonempty fibre slices over the probes")
    non_circle = sum(1 for _, v in verdicts if v.kind != "circles")
    if 2 * non_circle > len(verdicts):
        raise NotCircleCase(f"{non_circle}/{len(verdicts)} probes are not circle fibres")
    m = _modal([v.m for _, v in verdicts if v.kind == "circles"])
    exceptional = tuple(
        repr(b) for b, v in verdicts if v.kind == "circles" and v.m > m
    )
    # image check on a probe subset with the modal count
    ok = True
    tested = 0
    for b, v in verdicts:
        if v.kind != "circles" or v.m != m or tested >= IMAGE_PROBES:
            continue
        tested += 1
        images = eval_graph_map_arrays(s.fibre_family(b), v.edge_idx, v.ts)
        img_class = classify_fibre(g, g.points_from_arrays(*images), delta)
        if img_class.kind != "circles" or img_class.m != m:
            ok = False
            continue
        if not circles_disjoint(g, img_class.circles):
            ok = False
    return CirclesReport(m, exceptional, ok and tested > 0, len(verdicts))

