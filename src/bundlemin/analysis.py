"""Orbit-closure sampling, fibre classification, and the empirical verdicts:
the end-point dichotomy, circle-count reports with image disjointness, the
typical-fibre trichotomy, redundant-open-set falsification, and discrepancy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .base_systems import BasePoint, BaseSystem, star_discrepancy
from .bundles import Bundle, BundlePoint, SkewSystem, cut_sides, orbit_stream
from .errors import EmptyG, EmptyInput, NoProbes, NotCircleCase, WrongInput
from .fibre_index import FibreIndex
from .graphs import (
    Circle,
    GraphPoint,
    MetricGraph,
    enumerate_circles,
    eval_graph_map,
    star_branch_count,
)

# ---------------------------------------------------------------------------
# sampled sets


@dataclass
class SampledSet:
    """Finite approximation of an invariant set, with numpy coordinate caches.

    ``base_embed`` holds the base embedding of each point; it is computed
    from the points when not given.
    """

    delta: float
    points: list[BundlePoint]
    provenance: dict
    base: BaseSystem
    bundle: Bundle
    base_embed: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.base_embed is None:
            self.base_embed = np.array([float(self.base.embedding(x.b)) for x in self.points])
        self.edge_idx, self.ts = self.bundle.fibre.point_arrays([x.y for x in self.points])
        self._circular = self.base.circular
        self._probe_classes: dict[tuple, FibreClass | None] = {}

    def base_distances(self, b: BasePoint) -> np.ndarray:
        e = float(self.base.embedding(b))
        d = np.abs(self.base_embed - e)
        if self._circular:
            d %= 1.0
            d = np.minimum(d, 1.0 - d)
        return d

    def slice_indices(self, b: BasePoint, delta_base: float) -> np.ndarray:
        return np.where(self.base_distances(b) <= delta_base)[0]

    def slice_arrays(self, b: BasePoint, delta_base: float) -> tuple[np.ndarray, np.ndarray]:
        """The fibre slice over b as (edge index, t) arrays: the points
        within delta_base of b in the base, in the chart of b.  Only the
        points whose short base arc to b crosses the cut are glued."""
        idx = self.slice_indices(b, delta_base)
        ei, tt = self.edge_idx[idx], self.ts[idx]
        if self.bundle.is_monodromy:
            side = cut_sides(self.base_embed[idx], float(self.base.embedding(b)))
            for j in np.flatnonzero(side):
                m = self.bundle.gluing if side[j] > 0 else self.bundle.gluing_inverse
                y = eval_graph_map(m, self.points[idx[j]].y)
                ei[j], tt[j] = self.bundle.fibre.edge_index(y.edge), y.t
        return ei, tt

    def fibre_slice(self, b: BasePoint, delta_base: float) -> list[GraphPoint]:
        """``slice_arrays`` as a point list."""
        edges = self.bundle.fibre.edges
        ei, tt = self.slice_arrays(b, delta_base)
        return [GraphPoint(edges[e].id, t) for e, t in zip(ei.tolist(), tt.tolist())]

    def probe_class(self, b: BasePoint, delta_base: float, delta: float) -> FibreClass | None:
        """``classify_fibre`` of the fibre slice over b, None when the slice is
        empty; memoised, so the reports that probe one base point share it."""
        key = (b, delta_base, delta)
        if key not in self._probe_classes:
            ys = self.fibre_slice(b, delta_base)
            self._probe_classes[key] = classify_fibre(self.bundle.fibre, ys, delta) if ys else None
        return self._probe_classes[key]


class _Thinner:
    """Online sep-separated subset (product max-metric), greedy first-seen.

    Points are offered one at a time; a point is kept unless an earlier
    kept point lies within sep of it, so the kept set depends only on
    earlier points and memory grows with the kept count alone.  Hash grid
    on (base cell, edge, arc cell); near-vertex points are also registered
    under per-vertex buckets so cross-edge duplicates are caught.
    """

    def __init__(self, g: MetricGraph, sep: float):
        self.g = g
        self.sep = sep
        self._vdist = g._vdist.tolist()
        self._vidx = g._vidx
        self.cells: dict[tuple, list[int]] = {}
        self.vcells: dict[tuple, list[int]] = {}
        # per kept point: (base embedding, edge id, t, arc to u, arc to v,
        # vertex index of u, vertex index of v)
        self.kept: list[tuple] = []

    def offer(self, e: float, y: GraphPoint) -> bool:
        """Keep (e, y) unless it duplicates a kept point; True when kept."""
        g, sep, vd = self.g, self.sep, self._vdist
        g.validate_point(y)
        edge = g.edge_of(y.edge)
        L, t = edge.length, y.t
        pu, pv = t * L, (1.0 - t) * L
        iu, iv = self._vidx[edge.u], self._vidx[edge.v]
        bc = int(e / sep)
        ac = int(pu / sep)
        near_u, near_v = pu <= 2 * sep, pv <= 2 * sep
        buckets = [
            self.cells.get((bc + db, y.edge, ac + da), ())
            for db in (-1, 0, 1)
            for da in (-1, 0, 1)
        ]
        if near_u:
            buckets += [self.vcells.get((bc + db, edge.u), ()) for db in (-1, 0, 1)]
        if near_v:
            buckets += [self.vcells.get((bc + db, edge.v), ()) for db in (-1, 0, 1)]
        kept = self.kept
        for bucket in buckets:
            for j in bucket:
                ej, eid, tj, qu, qv, ju, jv = kept[j]
                if abs(e - ej) > sep:
                    continue
                # MetricGraph.path_distance(y, kept point) with its float
                # operations in the same order, minus the per-pair validation
                d = abs(t - tj) * L if eid == y.edge else math.inf
                d = min(d, pu + vd[iu][ju] + qu, pu + vd[iu][jv] + qv,
                        pv + vd[iv][ju] + qu, pv + vd[iv][jv] + qv)
                if d <= sep:
                    return False
        i = len(kept)
        kept.append((e, y.edge, t, pu, pv, iu, iv))
        self.cells.setdefault((bc, y.edge, ac), []).append(i)
        if near_u:
            self.vcells.setdefault((bc, edge.u), []).append(i)
        if near_v:
            self.vcells.setdefault((bc, edge.v), []).append(i)
        return True


def _thin_points(
    g: MetricGraph,
    base_embed: Sequence[float],
    ys: Sequence[GraphPoint],
    sep: float,
) -> list[int]:
    """Indices of a sep-separated subset (product max-metric), greedy first-seen.

    The batch form of ``_Thinner``: only the tests and ``perfbench/tracer.py``
    (which times it by name) call it, and it goes when the benchmark reads
    stage spans instead of patching names (ROADMAP item 1).
    """
    thinner = _Thinner(g, sep)
    return [i for i, (e, y) in enumerate(zip(base_embed, ys)) if thinner.offer(e, y)]


def approximate_minimal_set(
    s: SkewSystem,
    seed: BundlePoint,
    transient: int,
    n: int,
    delta: float,
    separation: float | None = None,
) -> SampledSet:
    """Thinned orbit sample after a transient.

    ``separation`` (default delta/4) is the pairwise product-metric
    separation of the kept subset; keeping it below delta preserves
    delta-coverage for the classifiers downstream.  The orbit is thinned
    as it is generated, so memory grows with the kept count, not with n.
    """
    if n < 1 or transient < 0 or delta <= 0:
        raise WrongInput("need n >= 1, transient >= 0 and delta > 0")
    sep = separation if separation is not None else delta / 4.0
    thinner = _Thinner(s.bundle.fibre, sep)
    points, embeds = [], []
    for b, e, y in islice(orbit_stream(s, seed), transient, transient + n):
        if thinner.offer(e, y):
            points.append(BundlePoint(b, y))
            embeds.append(e)
    return SampledSet(
        delta=delta,
        points=points,
        provenance={
            "system": s.id,
            "seed": repr(seed),
            "transient": transient,
            "steps": n,
            "separation": sep,
        },
        base=s.base,
        bundle=s.bundle,
        base_embed=np.array(embeds),
    )


# ---------------------------------------------------------------------------
# fibre classification


@dataclass(frozen=True)
class FibreClass:
    kind: str  # "finite" | "cantor" | "circles" | "unknown"
    n: int | None = None
    m: int | None = None
    scale: float = 0.0
    circles: tuple[frozenset, ...] = ()
    #: the fibre slice the verdict was computed from, as given
    points: tuple[GraphPoint, ...] = field(default=(), compare=False, repr=False)

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


def _cluster_gap(
    g: MetricGraph, edge_idx: np.ndarray, ts: np.ndarray, comps: list[np.ndarray]
) -> float:
    """Smallest distance from a point of a later component to an earlier one."""
    gap = math.inf
    for a in range(len(comps) - 1):
        rest = np.concatenate(comps[a + 1:])
        near = FibreIndex(g, edge_idx[comps[a]], ts[comps[a]]).nearest(edge_idx[rest], ts[rest])
        gap = min(gap, float(near.min()))
    return gap


def _circle_grid(g: MetricGraph, c: Circle, spacing: float) -> list[GraphPoint]:
    k = max(8, int(math.ceil(c.length / spacing)))
    return [c.point_at(g, c.length * i / k) for i in range(k)]


@lru_cache(maxsize=8)
def _circle_grids(g: MetricGraph, spacing: float) -> tuple[tuple[Circle, np.ndarray, np.ndarray], ...]:
    """Each circle of g with its probe grid as (edge index, t) arrays;
    computed once per graph and spacing, and shared, so read-only."""
    return tuple((c, *g.point_arrays(_circle_grid(g, c, spacing))) for c in enumerate_circles(g))


def _covered_circles(
    g: MetricGraph, index: FibreIndex, delta: float
) -> list[tuple[Circle, np.ndarray, np.ndarray]]:
    """Circles of g whose delta/4 probe grid lies delta-close to the indexed
    points, each with its grid."""
    return [
        (c, ge, gt)
        for c, ge, gt in _circle_grids(g, delta / 4.0)
        if not (index.nearest(ge, gt) > delta).any()
    ]


CANTOR_MIN_COMPONENTS = 20


def classify_fibre(g: MetricGraph, fibre_sample: Sequence[GraphPoint], delta: float) -> FibreClass:
    """Finite-resolution fibre verdict.

    Order of tests: finite point set, union of circles, Cantor-like dust,
    Unknown. The slice is clustered as given (``FibreIndex`` keeps that
    O(n log n)), and it is kept on the verdict as ``points``.
    """
    if not fibre_sample:
        raise EmptyInput("empty fibre sample")
    pts = tuple(fibre_sample)
    verdict = partial(FibreClass, scale=delta, points=pts)
    edge_idx, ts = g.point_arrays(pts)
    index = FibreIndex(g, edge_idx, ts)
    comps = index.components(delta)
    n = len(comps)
    diams = [_cluster_diameter(g, edge_idx, ts, c, 10.0 * delta) for c in comps]
    if max(diams) < delta / 2.0:
        if n == 1:
            return verdict("finite", n=1)
        gap = _cluster_gap(g, edge_idx, ts, comps)
        if n * gap > 10.0 * delta:
            return verdict("finite", n=n)
    covered = _covered_circles(g, index, delta)
    if covered:
        # every sample point must sit near the covered union
        _, grid_e, grid_t = zip(*covered)
        union = FibreIndex(g, np.concatenate(grid_e), np.concatenate(grid_t))
        if (union.nearest(edge_idx, ts) <= delta / 2.0 + delta / 8.0).all():
            return verdict(
                "circles", m=len(covered), circles=tuple(c.edge_ids() for c, _, _ in covered)
            )
    if n >= CANTOR_MIN_COMPONENTS and max(diams) < 10.0 * delta:
        finer = len(index.components(delta / 2.0))
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


def endpoint_statistics(
    g: MetricGraph,
    sample: SampledSet,
    r: float,
    delta: float,
    delta_base: float | None = None,
    max_points: int = 1200,
) -> DichotomyReport:
    """Fraction of sample points that are end-points of their fibre slice,
    combined with the interior detector into a dichotomy verdict."""
    if delta_base is None:
        delta_base = delta
    n = len(sample.points)
    if n == 0:
        raise EmptyInput("empty sample")
    step = max(1, n // max_points)
    # checked points grouped by quantized base coordinate, in first-seen
    # order; each group shares the slice over its first point
    groups: dict[int, list[int]] = {}
    for i in range(0, n, step):
        groups.setdefault(int(sample.base_embed[i] / (delta_base / 2.0)), []).append(i)
    endpoints = 0
    for rows in groups.values():
        ei, tt = sample.slice_arrays(sample.points[rows[0]].b, delta_base)
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
    interior = interior_detector(sample.bundle, sample, delta)
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
    g: MetricGraph, y0: GraphPoint, radius: float, spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """The points of a spacing-fine grid on every edge that lie within
    radius of y0, as (edge index, t) arrays in edge order."""
    grids = [np.linspace(0.0, 1.0, max(2, int(math.ceil(e.length / spacing))) + 1) for e in g.edges]
    ei = np.repeat(np.arange(len(grids)), [len(t) for t in grids])
    tt = np.concatenate(grids)
    d = g.distance_matrix(np.array([g.edge_index(y0.edge)]), np.array([y0.t]), ei, tt)[0]
    keep = d <= radius
    return ei[keep], tt[keep]


def interior_detector(bundle: Bundle, sample: SampledSet, delta: float) -> bool:
    """True when some product box (base ball x fibre graph ball) around a
    sample point is delta/2-covered by the sample, relative to the sampled
    base space.

    Base probes are taken from the sample's own base coordinates, so a
    Cantor base does not count its embedding gaps against coverage.
    """
    g = bundle.fibre
    n = len(sample.points)
    if n == 0:
        return False
    candidates = [sample.points[(j * n) // 8] for j in range(min(8, n))]
    for x0 in candidates:
        box = sample.slice_indices(x0.b, delta)
        if len(box) < 4:
            continue
        ei = sample.edge_idx[box]
        tt = sample.ts[box]
        be = sample.base_embed[box]
        # base probes: spread through the boxed base coordinates
        order = np.argsort(be)
        base_gaps = [np.abs(be - be[order[i]]) for i in (0, len(order) // 2, -1)]
        pe, pt = _fibre_window_probes(g, x0.y, INTERIOR_WINDOW_FACTOR * delta, delta / 4.0)
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


def _in_homeo_part(base: BaseSystem, b: BasePoint, window: int = 10) -> bool:
    if base.preimages is None:
        return True
    x = b
    for _ in range(window):
        pres = base.preimages(x)
        if len(pres) != 1:
            return False
        x = pres[0]
    return True


def typical_fibre_report(
    s: SkewSystem,
    sample: SampledSet,
    base_probe: Sequence[BasePoint],
    delta: float,
    delta_base: float | None = None,
) -> TrichotomyReport:
    """Classify fibre slices over homeo-part probes and report the modal class."""
    if delta_base is None:
        delta_base = delta
    verdicts: list[tuple[BasePoint, FibreClass]] = []
    for b in base_probe:
        if not _in_homeo_part(s.base, b):
            continue
        v = sample.probe_class(b, delta_base, delta)
        if v is not None:
            verdicts.append((b, v))
    if not verdicts:
        raise NoProbes("no usable probes after the homeo-part filter")
    keys = [str(v) for _, v in verdicts]
    modal = max(set(keys), key=keys.count)
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


def _circles_disjoint(g: MetricGraph, circles: Sequence[Circle]) -> bool:
    vsets = [c.vertices(g) for c in circles]
    return not any(
        vsets[i] & vsets[j] or circles[i].edge_ids() & circles[j].edge_ids()
        for i in range(len(circles))
        for j in range(i + 1, len(circles))
    )


def circles_report(
    s: SkewSystem,
    sample: SampledSet,
    delta: float,
    base_probe: Sequence[BasePoint],
    delta_base: float | None = None,
    image_probes: int = 10,
) -> CirclesReport:
    """Modal circle count over probed fibres plus the image-disjointness check:
    each probed fibre's circle points must map delta-close onto pairwise
    disjoint circles of the image fibre."""
    if delta_base is None:
        delta_base = delta
    g = s.bundle.fibre
    all_circles = {c.edge_ids(): c for c, _, _ in _circle_grids(g, delta / 4.0)}
    verdicts: list[tuple[BasePoint, FibreClass]] = []
    for b in base_probe:
        v = sample.probe_class(b, delta_base, delta)
        if v is not None:
            verdicts.append((b, v))
    if not verdicts:
        raise NoProbes("no nonempty fibre slices over the probes")
    non_circle = sum(1 for _, v in verdicts if v.kind != "circles")
    if 2 * non_circle > len(verdicts):
        raise NotCircleCase(f"{non_circle}/{len(verdicts)} probes are not circle fibres")
    counts = [v.m for _, v in verdicts if v.kind == "circles"]
    m = max(set(counts), key=counts.count)
    exceptional = tuple(
        repr(b) for b, v in verdicts if v.kind == "circles" and v.m > m
    )
    # image check on a probe subset with the modal count
    ok = True
    tested = 0
    for b, v in verdicts:
        if v.kind != "circles" or v.m != m or tested >= image_probes:
            continue
        tested += 1
        fm = s.fibre_family(b)
        images = [eval_graph_map(fm, y) for y in v.points]
        img_class = classify_fibre(g, images, delta)
        if img_class.kind != "circles" or img_class.m != m:
            ok = False
            continue
        img_circles = [all_circles[key] for key in img_class.circles]
        if not _circles_disjoint(g, img_circles):
            ok = False
    return CirclesReport(m, exceptional, ok and tested > 0, len(verdicts))


# ---------------------------------------------------------------------------
# redundant open sets and discrepancy


def redundant_open_set_test(
    apply_fn: Callable,
    points: Sequence,
    metric: Callable,
    predicate: Callable[[object], bool],
    delta: float,
) -> bool:
    """True when every image of a predicate point lies within delta of the
    image of some non-predicate point: evidence against minimality."""
    inside = [p for p in points if predicate(p)]
    outside = [p for p in points if not predicate(p)]
    if not inside:
        raise EmptyG("predicate holds nowhere on the sample")
    if not outside:
        return False
    img_out = [apply_fn(p) for p in outside]
    for p in inside:
        ip = apply_fn(p)
        if all(metric(ip, q) > delta for q in img_out):
            return False
    return True


def equidistribution_discrepancy(angles: Sequence[float]) -> float:
    if len(angles) == 0:
        raise EmptyInput("empty angle list")
    return star_discrepancy(angles)
