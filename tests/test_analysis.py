"""Sampling, fibre classification, dichotomy / trichotomy / circle reports."""
from __future__ import annotations

import math
import tracemalloc
from itertools import islice

import pytest

from bundlemin import analysis
from bundlemin.analysis import (
    SampledSet,
    _thin_points,
    approximate_minimal_set,
    circles_report,
    classify_fibre,
    endpoint_statistics,
    equidistribution_discrepancy,
    interior_detector,
    redundant_open_set_test,
    typical_fibre_report,
)
from bundlemin.base_systems import GOLDEN, CircleAngle, circle_rotation
from bundlemin.bundles import BundlePoint, orbit, orbit_stream, product_bundle
from bundlemin.constructions import (
    build_m_circles,
    build_mobius,
    build_sturmian_cylinder,
    build_torus_on_mobius,
    chained_loops_graph,
    word_embed,
)
from bundlemin.errors import EmptyG, EmptyInput, WrongInput
from bundlemin.graphs import GraphPoint, circle_graph, enumerate_circles, interval_graph

SQRT2_FRAC = math.sqrt(2.0) - 1.0


class TestApproximateMinimalSet:
    def test_sample_is_separated_and_tracks_orbit(self):
        res = build_mobius(GOLDEN)
        s = res.system
        seed = BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0))
        sample = approximate_minimal_set(s, seed, transient=50, n=5_000, delta=0.05)
        assert len(sample.points) > 10
        # kept points pairwise separated in the product metric
        pts = sample.points
        g = s.bundle.fibre
        for i in range(0, len(pts), 7):
            for j in range(i + 1, len(pts), 13):
                d = max(
                    s.base.metric(pts[i].b, pts[j].b),
                    g.path_distance(pts[i].y, pts[j].y),
                )
                assert d > 0.05 / 4 - 1e-12

    def test_rejects_bad_arguments(self):
        res = build_mobius(GOLDEN)
        seed = BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0))
        with pytest.raises(WrongInput):
            approximate_minimal_set(res.system, seed, 0, 0, 0.05)
        with pytest.raises(WrongInput):
            approximate_minimal_set(res.system, seed, -1, 10, 0.05)

    @pytest.mark.parametrize("name", ["torus-on-mobius", "sturmian-cylinder"])
    def test_streamed_sample_equals_batch_thinning_of_orbit(self, name):
        s, seed = _orbit_system(name)
        n, transient, sep = 5_000, 100, 0.02 / 4.0
        pts = orbit(s, seed, n, transient=transient)
        streamed = list(islice(orbit_stream(s, seed), transient, transient + n))
        assert [BundlePoint(b, y) for b, _, y in streamed] == pts
        embeds = [float(s.base.embedding(x.b)) for x in pts]
        assert [e for _, e, _ in streamed] == embeds
        ys = [x.y for x in pts]
        kept = _thin_points(s.bundle.fibre, embeds, ys, sep)
        assert kept == _reference_thin_points(s.bundle.fibre, embeds, ys, sep)
        sample = approximate_minimal_set(s, seed, transient, n, 0.02)
        assert sample.points == [pts[i] for i in kept]

    @pytest.mark.parametrize("name", ["torus-on-mobius", "sturmian-cylinder"])
    def test_handed_over_embeddings_equal_recomputed(self, name):
        s, seed = _orbit_system(name)
        sample = approximate_minimal_set(s, seed, 100, 5_000, 0.02)
        rebuilt = SampledSet(0.02, sample.points, {}, s.base, s.bundle)
        assert sample.base_embed.tolist() == rebuilt.base_embed.tolist()

    def test_memory_grows_with_kept_points_not_steps(self):
        s, seed = _orbit_system("sturmian-cylinder")
        peaks = []
        for n in (20_000, 80_000):
            tracemalloc.start()
            try:
                approximate_minimal_set(s, seed, 100, n, 0.02)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


def _orbit_system(name):
    if name == "sturmian-cylinder":
        s = build_sturmian_cylinder(GOLDEN).system
        w = s.base.sampler(1)[0]
        return s, BundlePoint(w, GraphPoint("I", word_embed(w)))
    s = build_torus_on_mobius(GOLDEN, SQRT2_FRAC).system
    return s, BundlePoint(CircleAngle(0.1), GraphPoint("A", 0.2))


def _reference_thin_points(g, base_embed, ys, sep):
    """The batch thinner the online one replaced: greedy first-seen over
    the whole buffered orbit, with MetricGraph.path_distance per pair."""
    kept = []
    cells = {}
    vcells = {}

    def cell_of(i):
        y = ys[i]
        arc = y.t * g.edge_of(y.edge).length
        return (int(base_embed[i] / sep), y.edge, int(arc / sep))

    def near_keys(i):
        bc, eid, ac = cell_of(i)
        return [(bc + db, eid, ac + da) for db in (-1, 0, 1) for da in (-1, 0, 1)]

    def vertex_keys(i):
        y = ys[i]
        e = g.edge_of(y.edge)
        bc = int(base_embed[i] / sep)
        keys = []
        if y.t * e.length <= 2 * sep:
            keys += [(bc + db, e.u) for db in (-1, 0, 1)]
        if (1.0 - y.t) * e.length <= 2 * sep:
            keys += [(bc + db, e.v) for db in (-1, 0, 1)]
        return keys

    for i in range(len(ys)):
        cands = set()
        for k in near_keys(i):
            cands.update(cells.get(k, ()))
        for k in vertex_keys(i):
            cands.update(vcells.get(k, ()))
        if any(
            abs(base_embed[i] - base_embed[j]) <= sep and g.path_distance(ys[i], ys[j]) <= sep
            for j in cands
        ):
            continue
        kept.append(i)
        cells.setdefault(cell_of(i), []).append(i)
        for k in vertex_keys(i):
            if k[0] == int(base_embed[i] / sep):
                vcells.setdefault(k, []).append(i)
    return kept


class TestClassifyFibre:
    def test_single_point(self):
        g = interval_graph(1.0)
        c = classify_fibre(g, [GraphPoint("I", 0.5)], 0.05)
        assert str(c) == "FiniteN(1)"

    def test_two_points(self):
        g = interval_graph(1.0)
        pts = [GraphPoint("I", 0.1), GraphPoint("I", 0.9)]
        c = classify_fibre(g, pts, 0.02)
        assert str(c) == "FiniteN(2)"

    def test_full_circle(self):
        g = circle_graph(1.0)
        pts = [GraphPoint("c", i / 200.0) for i in range(200)]
        c = classify_fibre(g, pts, 0.02)
        assert c.kind == "circles"
        assert c.m == 1

    def test_two_circles(self):
        g = chained_loops_graph(2)
        pts = [GraphPoint(e, i / 200.0) for e in ("s1", "s2") for i in range(200)]
        c = classify_fibre(g, pts, 0.02)
        assert str(c) == "Circles(2)"

    def test_cantor_like(self):
        # middle-thirds endpoints to depth 7: many small well-separated clusters
        g = interval_graph(1.0)
        pts = []
        for i in range(3**7):
            digs = []
            v = i
            ok = True
            for _ in range(7):
                v, d = divmod(v, 3)
                if d == 1:
                    ok = False
                    break
                digs.append(d)
            if ok:
                t = sum(dd * 3.0 ** -(k + 1) for k, dd in enumerate(digs))
                pts.append(GraphPoint("I", t))
        c = classify_fibre(g, pts, 3.0**-6)
        assert c.kind == "cantor"

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            classify_fibre(interval_graph(1.0), [], 0.05)


def _mobius_sample(delta=0.02, n=30_000):
    res = build_mobius(GOLDEN)
    seed = BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0))
    return res, approximate_minimal_set(res.system, seed, 100, n, delta)


def _torus_sample(delta=0.02, n=100_000):
    res = build_torus_on_mobius(GOLDEN, SQRT2_FRAC)
    seed = BundlePoint(CircleAngle(0.1), GraphPoint("A", 0.2))
    return res, approximate_minimal_set(res.system, seed, 100, n, delta)


class TestDichotomy:
    def test_mobius_boundary_is_all_endpoints(self):
        res, sample = _mobius_sample()
        rep = endpoint_statistics(res.system.bundle.fibre, sample, r=0.06, delta=0.02)
        assert rep.endpoint_fraction == 1.0
        assert not rep.interior_detected
        assert rep.verdict == "A1"

    def test_torus_circles_have_no_endpoints(self):
        res, sample = _torus_sample()
        rep = endpoint_statistics(res.system.bundle.fibre, sample, r=0.06, delta=0.02)
        assert rep.endpoint_fraction == 0.0
        assert rep.interior_detected
        assert rep.verdict == "A2"

    def test_empty_sample_rejected(self):
        res = build_mobius(GOLDEN)
        s = res.system
        sample = SampledSet(0.02, [], {}, s.base, s.bundle)
        with pytest.raises(EmptyInput):
            endpoint_statistics(s.bundle.fibre, sample, 0.06, 0.02)


class TestInteriorDetector:
    def test_torus_sample_has_interior(self):
        res, sample = _torus_sample()
        assert interior_detector(res.system.bundle, sample, 0.02)

    def test_mobius_boundary_has_none(self):
        res, sample = _mobius_sample()
        assert not interior_detector(res.system.bundle, sample, 0.02)


class TestTrichotomy:
    def test_mobius_boundary_is_finite_two(self):
        res, sample = _mobius_sample()
        probes = [sample.points[i].b for i in range(0, len(sample.points), 20)][:20]
        rep = typical_fibre_report(res.system, sample, probes, 0.02)
        assert str(rep.typical) == "FiniteN(2)"
        assert rep.N == 2
        assert rep.totally_disconnected_fraction == 1.0

    def test_torus_is_circle_pair(self):
        res, sample = _torus_sample()
        probes = [sample.points[i].b for i in range(0, len(sample.points), 30)][:15]
        rep = typical_fibre_report(res.system, sample, probes, 0.02)
        assert str(rep.typical) == "Circles(2)"


class TestCirclesReport:
    def test_m_circles_modal_count(self):
        g = chained_loops_graph(2)
        circles = [c for c in enumerate_circles(g) if len(c.steps) == 1]
        circles.sort(key=lambda c: next(iter(c.edge_ids())))
        res = build_m_circles(circle_rotation(GOLDEN), g, circles, angle=SQRT2_FRAC)
        seed = BundlePoint(CircleAngle(0.1), GraphPoint("s1", 0.0))
        sample = approximate_minimal_set(res.system, seed, 100, 30_000, 0.02)
        probes = [sample.points[i].b for i in range(0, len(sample.points), 60)][:10]
        rep = circles_report(res.system, sample, 0.02, probes)
        assert rep.m == 2
        assert rep.exceptional_tags == ()
        assert rep.image_disjointness

    def test_reports_classify_each_probe_once(self, monkeypatch):
        res, sample = _torus_sample(n=20_000)
        probes = [sample.points[i].b for i in range(0, len(sample.points), 300)][:8]
        calls = []
        classify = analysis.classify_fibre
        monkeypatch.setattr(
            analysis, "classify_fibre", lambda *args: calls.append(args) or classify(*args)
        )
        tri = typical_fibre_report(res.system, sample, probes, 0.02)
        assert len(calls) == tri.probes_used == len(probes)
        calls.clear()
        rep = circles_report(res.system, sample, 0.02, probes, image_probes=3)
        assert rep.m == 2 and rep.image_disjointness
        # only the three image fibres are classified; each maps the probe's
        # thinned slice, the points its verdict was computed from
        assert len(calls) == 3
        thinned = [sample.probe_class(b, 0.02, 0.02).points for b in probes[:3]]
        assert [len(args[1]) for args in calls] == [len(pts) for pts in thinned]


class TestRedundantOpenSet:
    def test_rotation_never_redundant(self):
        pts = [i / 100.0 for i in range(100)]
        metric = lambda a, b: min(abs(a - b) % 1.0, 1.0 - abs(a - b) % 1.0)
        rot = lambda x: (x + GOLDEN) % 1.0
        pred = lambda x: 0.3 <= x < 0.4
        assert not redundant_open_set_test(rot, pts, metric, pred, delta=1e-3)

    def test_constant_map_redundant(self):
        pts = [i / 100.0 for i in range(100)]
        metric = lambda a, b: abs(a - b)
        const = lambda x: 0.5
        pred = lambda x: 0.3 <= x < 0.4
        assert redundant_open_set_test(const, pts, metric, pred, delta=1e-6)

    def test_predicate_must_hold_somewhere(self):
        with pytest.raises(EmptyG):
            redundant_open_set_test(lambda x: x, [0.0], lambda a, b: 0.0, lambda x: False, 0.1)


class TestDiscrepancyWrapper:
    def test_matches_direct_computation(self):
        vals = [(i * GOLDEN) % 1.0 for i in range(500)]
        assert equidistribution_discrepancy(vals) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            equidistribution_discrepancy([])
