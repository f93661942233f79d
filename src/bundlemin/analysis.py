"""Orbit-closure sampling, fibre classification, and the empirical verdicts:
the end-point dichotomy, circle-count reports with image disjointness, the
typical-fibre trichotomy, redundant-open-set falsification, and discrepancy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .base_systems import BasePoint, BaseSystem, star_discrepancy
from .bundles import Bundle, BundlePoint, SkewSystem, orbit_stream, transport_to
from .errors import EmptyG, EmptyInput, NoProbes, NotCircleCase, WrongInput
from .graphs import (
    Circle,
    GraphPoint,
    MetricGraph,
    _initial_germ,
    enumerate_circles,
    eval_graph_map,
)

# ---------------------------------------------------------------------------
# sampled sets


@dataclass
class SampledSet:
    """Finite approximation of an invariant set, with numpy coordinate caches."""

    delta: float
    points: list[BundlePoint]
    provenance: dict
    base: BaseSystem
    bundle: Bundle

    def __post_init__(self) -> None:
        g = self.bundle.fibre
        self.base_embed = np.array([float(self.base.embedding(x.b)) for x in self.points])
        self.edge_idx = np.array([g.edge_index(x.y.edge) for x in self.points], dtype=int)
        self.ts = np.array([x.y.t for x in self.points])
        self._circular = self.base.circular

    def base_distances(self, b: BasePoint) -> np.ndarray:
        e = float(self.base.embedding(b))
        d = np.abs(self.base_embed - e)
        if self._circular:
            d = np.minimum(d % 1.0, 1.0 - (d % 1.0))
        return d

    def slice_indices(self, b: BasePoint, delta_base: float) -> np.ndarray:
        return np.where(self.base_distances(b) <= delta_base)[0]

    def fibre_slice(self, b: BasePoint, delta_base: float) -> list[GraphPoint]:
        idx = self.slice_indices(b, delta_base)
        out = []
        for i in idx:
            x = self.points[int(i)]
            y = x.y
            if self.bundle.is_monodromy:
                y = transport_to(self.bundle, self.base, x.b, b, y)
            out.append(y)
        return out


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
    """Indices of a sep-separated subset (product max-metric), greedy first-seen."""
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
    points = [
        BundlePoint(b, y)
        for b, e, y in islice(orbit_stream(s, seed), transient, transient + n)
        if thinner.offer(e, y)
    ]
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

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"FiniteN({self.n})"
        if self.kind == "circles":
            return f"Circles({self.m})"
        return self.kind.capitalize()


def _thin_fibre(g: MetricGraph, pts: Sequence[GraphPoint], sep: float) -> list[GraphPoint]:
    kept = _thin_points(g, [0.0] * len(pts), pts, sep)
    return [pts[i] for i in kept]


def _clusters(g: MetricGraph, pts: list[GraphPoint], cutoff: float) -> list[list[int]]:
    """Single-linkage components at the cutoff, grown with vectorized distances."""
    n = len(pts)
    edge_idx = np.array([g.edge_index(p.edge) for p in pts], dtype=int)
    ts = np.array([p.t for p in pts])
    unseen = np.ones(n, dtype=bool)
    out: list[list[int]] = []
    for start in range(n):
        if not unseen[start]:
            continue
        comp = [start]
        unseen[start] = False
        frontier = [start]
        while frontier:
            i = frontier.pop()
            d = g.distances_to_many(pts[i], edge_idx, ts)
            hits = np.where(unseen & (d <= cutoff))[0]
            for j in hits:
                unseen[j] = False
                comp.append(int(j))
                frontier.append(int(j))
        out.append(comp)
    return out


def _cluster_diameter(g: MetricGraph, pts: list[GraphPoint], comp: list[int]) -> float:
    edge_idx = np.array([g.edge_index(pts[i].edge) for i in comp], dtype=int)
    ts = np.array([pts[i].t for i in comp])
    diam = 0.0
    for i in comp:
        diam = max(diam, float(g.distances_to_many(pts[i], edge_idx, ts).max()))
    return diam


def _cluster_gap(g: MetricGraph, pts: list[GraphPoint], comps: list[list[int]]) -> float:
    gap = math.inf
    for a in range(len(comps)):
        edge_idx = np.array([g.edge_index(pts[i].edge) for i in comps[a]], dtype=int)
        ts = np.array([pts[i].t for i in comps[a]])
        for b in range(a + 1, len(comps)):
            for i in comps[b]:
                gap = min(gap, float(g.distances_to_many(pts[i], edge_idx, ts).min()))
    return gap


def _circle_grid(g: MetricGraph, c: Circle, spacing: float) -> list[GraphPoint]:
    k = max(8, int(math.ceil(c.length / spacing)))
    return [c.point_at(g, c.length * i / k) for i in range(k)]


def _covered_circles(
    g: MetricGraph, pts: list[GraphPoint], delta: float
) -> list[Circle]:
    edge_idx = np.array([g.edge_index(p.edge) for p in pts], dtype=int)
    ts = np.array([p.t for p in pts])
    covered = []
    for c in enumerate_circles(g):
        ok = True
        for probe in _circle_grid(g, c, delta / 4.0):
            if float(g.distances_to_many(probe, edge_idx, ts).min()) > delta:
                ok = False
                break
        if ok:
            covered.append(c)
    return covered


CANTOR_MIN_COMPONENTS = 20


def classify_fibre(g: MetricGraph, fibre_sample: Sequence[GraphPoint], delta: float) -> FibreClass:
    """Finite-resolution fibre verdict.

    Order of tests: finite point set, union of circles, Cantor-like dust,
    Unknown. The input is thinned to delta/8 separation first so clustering
    stays near-linear on dense slices.
    """
    if not fibre_sample:
        raise EmptyInput("empty fibre sample")
    pts = _thin_fibre(g, list(fibre_sample), delta / 8.0)
    comps = _clusters(g, pts, delta)
    n = len(comps)
    diams = [_cluster_diameter(g, pts, c) for c in comps]
    if max(diams) < delta / 2.0:
        if n == 1:
            return FibreClass("finite", n=1, scale=delta)
        gap = _cluster_gap(g, pts, comps)
        if n * gap > 10.0 * delta:
            return FibreClass("finite", n=n, scale=delta)
    covered = _covered_circles(g, pts, delta)
    if covered:
        # every sample point must sit near the covered union
        union_pts: list[GraphPoint] = []
        for c in covered:
            union_pts.extend(_circle_grid(g, c, delta / 4.0))
        edge_idx = np.array([g.edge_index(p.edge) for p in union_pts], dtype=int)
        ts = np.array([p.t for p in union_pts])
        if all(
            float(g.distances_to_many(p, edge_idx, ts).min()) <= delta / 2.0 + delta / 8.0
            for p in pts
        ):
            return FibreClass(
                "circles",
                m=len(covered),
                scale=delta,
                circles=tuple(c.edge_ids() for c in covered),
            )
    if n >= CANTOR_MIN_COMPONENTS and max(diams) < 10.0 * delta:
        finer = len(_clusters(g, pts, delta / 2.0))
        if finer >= 1.5 * n:
            return FibreClass("cantor", n=n, scale=delta)
    return FibreClass("unknown", scale=delta)


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


def _classify_endpoint_fast(
    g: MetricGraph,
    edge_idx: np.ndarray,
    ts: np.ndarray,
    pts: list[GraphPoint],
    p: GraphPoint,
    r: float,
    delta: float,
) -> bool:
    """True when p looks like an end-point of the sliced set at scale (r, delta)."""
    d = g.distances_to_many(p, edge_idx, ts)
    sel = np.where((d > delta) & (d <= r))[0]
    witnesses: dict[tuple[str, int], float] = {}
    for j in sel:
        q = pts[int(j)]
        germ = _initial_germ(g, p, q, delta)
        dj = float(d[j])
        if dj < witnesses.get(germ, math.inf):
            witnesses[germ] = dj
    k = sum(1 for v in witnesses.values() if v <= 2.0 * delta)
    return k < 2


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
    idxs = range(0, n, step)
    # slices cached per quantized base coordinate
    slice_cache: dict[int, tuple[np.ndarray, np.ndarray, list[GraphPoint]]] = {}
    endpoints = 0
    checked = 0
    for i in idxs:
        x = sample.points[i]
        key = int(sample.base_embed[i] / (delta_base / 2.0))
        got = slice_cache.get(key)
        if got is None:
            ys = sample.fibre_slice(x.b, delta_base)
            ei = np.array([g.edge_index(y.edge) for y in ys], dtype=int)
            tt = np.array([y.t for y in ys])
            got = (ei, tt, ys)
            slice_cache[key] = got
        ei, tt, ys = got
        if _classify_endpoint_fast(g, ei, tt, ys, x.y, r, delta):
            endpoints += 1
        checked += 1
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
) -> list[GraphPoint]:
    probes = []
    for e in g.edges:
        k = max(2, int(math.ceil(e.length / spacing)))
        grid_t = np.linspace(0.0, 1.0, k + 1)
        ei = np.full(len(grid_t), g.edge_index(e.id), dtype=int)
        d = g.distances_to_many(y0, ei, grid_t)
        for t, dd in zip(grid_t, d):
            if dd <= radius:
                probes.append(GraphPoint(e.id, float(t)))
    return probes


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
        probe_base = [be[order[0]], be[order[len(order) // 2]], be[order[-1]]]
        fibre_probes = _fibre_window_probes(
            g, x0.y, INTERIOR_WINDOW_FACTOR * delta, delta / 4.0
        )
        covered = True
        for fp in fibre_probes:
            dfib = g.distances_to_many(fp, ei, tt)
            for pb in probe_base:
                dprod = np.maximum(dfib, np.abs(be - pb))
                if float(dprod.min()) > delta / 2.0:
                    covered = False
                    break
            if not covered:
                break
        if covered:
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
        if base.preimage_count(x) != 1:
            return False
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
    g = s.bundle.fibre
    verdicts: list[tuple[BasePoint, FibreClass]] = []
    for b in base_probe:
        if not _in_homeo_part(s.base, b):
            continue
        ys = sample.fibre_slice(b, delta_base)
        if not ys:
            continue
        verdicts.append((b, classify_fibre(g, ys, delta)))
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
    for i in range(len(circles)):
        vi: set[str] = set()
        for eid, _ in circles[i].steps:
            e = g.edge_of(eid)
            vi.update((e.u, e.v))
        for j in range(i + 1, len(circles)):
            vj: set[str] = set()
            for eid, _ in circles[j].steps:
                e = g.edge_of(eid)
                vj.update((e.u, e.v))
            if vi & vj or circles[i].edge_ids() & circles[j].edge_ids():
                return False
    return True


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
    all_circles = {c.edge_ids(): c for c in enumerate_circles(g)}
    verdicts: list[tuple[BasePoint, FibreClass, list[GraphPoint]]] = []
    for b in base_probe:
        ys = sample.fibre_slice(b, delta_base)
        if not ys:
            continue
        verdicts.append((b, classify_fibre(g, ys, delta), ys))
    if not verdicts:
        raise NoProbes("no nonempty fibre slices over the probes")
    non_circle = sum(1 for _, v, _ in verdicts if v.kind != "circles")
    if 2 * non_circle > len(verdicts):
        raise NotCircleCase(f"{non_circle}/{len(verdicts)} probes are not circle fibres")
    counts = [v.m for _, v, _ in verdicts if v.kind == "circles"]
    m = max(set(counts), key=counts.count)
    exceptional = tuple(
        repr(b) for b, v, _ in verdicts if v.kind == "circles" and v.m > m
    )
    # image check on a probe subset with the modal count
    ok = True
    tested = 0
    for b, v, ys in verdicts:
        if v.kind != "circles" or v.m != m or tested >= image_probes:
            continue
        tested += 1
        fm = s.fibre_family(b)
        thin = _thin_fibre(g, ys, delta / 8.0)
        images = [eval_graph_map(fm, y) for y in thin]
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
