"""Sampling, fibre classification, dichotomy / trichotomy / circle reports."""
from __future__ import annotations

import io
import math
import tracemalloc
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemin import analysis, thinning
from bundlemin.analysis import (
    FibreClass,
    SampledSet,
    _thin_points,
    approximate_minimal_set,
    circles_report,
    classify_fibre,
    endpoint_statistics,
    interior_detector,
    typical_fibre_report,
)
from bundlemin.base_systems import (
    GOLDEN,
    BaseSystem,
    CircleAngle,
    DoubledCode,
    circle_rotation,
    doubled_cantor,
    word_embedding,
)
from bundlemin.bundles import (
    Bundle,
    BundlePoint,
    SkewSystem,
    monodromy_bundle,
    orbit,
    orbit_blocks,
)
from bundlemin.cli import csv_to_points, sample_to_csv
from bundlemin.constructions import (
    CONSTRUCTIONS,
    build_circle_minimal_product,
    build_m_circles,
    build_mobius,
    build_sturmian_cylinder,
    build_torus_on_mobius,
    chained_loops_graph,
)
from bundlemin.errors import InvalidPoint, NoProbes, WrongInput
from bundlemin.graphs import (
    Circle,
    Edge,
    GraphMap,
    GraphPoint,
    MapPiece,
    MetricGraph,
    PathSeg,
    circle_graph,
    circle_rotation_pieces,
    enumerate_circles,
    eval_graph_map,
    interval_graph,
    star_branch_count,
)

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
                    s.base.distance(pts[i].b, pts[j].b),
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
        _assert_blocks_are_orbit(s, list(orbit_blocks(s, seed, transient, n, thinning.THIN_BLOCK)), pts)
        embeds = [float(s.base.embedding(x.b)) for x in pts]
        ys = [x.y for x in pts]
        kept = _thin_points(s.bundle.fibre, embeds, ys, sep)
        assert kept == _reference_thin_points(s.bundle.fibre, embeds, ys, sep)
        sample = approximate_minimal_set(s, seed, transient, n, 0.02)
        assert sample.points == [pts[i] for i in kept]

    @pytest.mark.parametrize("name", ["torus-on-mobius", "sturmian-cylinder"])
    def test_handed_over_embeddings_equal_recomputed(self, name):
        s, seed = _orbit_system(name)
        sample = approximate_minimal_set(s, seed, 100, 5_000, 0.02)
        rebuilt = SampledSet.from_points(0.02, sample.points, {}, s.base, s.bundle)
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


    def test_memory_per_kept_point(self):
        # the kept set lives in flat arrays and one block of orbit points;
        # per-point tuples and grid dicts took about 580 B a kept point
        s, seed = _orbit_system("torus-on-mobius")
        tracemalloc.start()
        try:
            sample = approximate_minimal_set(s, seed, 100, 20_000, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(sample.bases) < 400, (peak, len(sample.bases))

    def test_memory_of_a_dense_orbit(self):
        # the orbit barely moves, so each block's fresh points are grid
        # candidates of each other; deciding a block in one array pass held
        # every pair of them, about 170 MB
        res = CONSTRUCTIONS["circle-product"]({"alpha": 1e-6, "angle": 1e-6})
        tracemalloc.start()
        try:
            approximate_minimal_set(res.system, res.seed(0), 100, 30_000, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    @pytest.mark.parametrize("transient", [0, 100])
    @pytest.mark.parametrize("y", [GraphPoint("Z", 0.5), GraphPoint("A", 1.5), GraphPoint("A", math.nan)])
    def test_bad_seed_raises(self, y, transient):
        s, seed = _orbit_system("torus-on-mobius")
        with pytest.raises(InvalidPoint, match="unknown edge 'Z'" if y.edge == "Z" else "outside"):
            approximate_minimal_set(s, BundlePoint(seed.b, y), transient, 10, 0.02)

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("t", [1.5, -0.25])
    def test_orbit_point_outside_its_edge_raises(self, t, last):
        # a constant piece returns its image point unchecked, so the bad
        # point reaches the thinner; as the run's last step it is never
        # mapped again, and only the thinner's check sees it
        g = interval_graph(1.0)
        bad = GraphMap(g, g, {"I": (MapPiece(0.0, 1.0, (PathSeg("I", t, t),)),)})
        base = circle_rotation(GOLDEN)
        s = SkewSystem(base, Bundle(g), lambda e: bad)
        seed = BundlePoint(CircleAngle(0.1), GraphPoint("I", 0.5))
        n = 2 if last else 3_000
        with pytest.raises(InvalidPoint, match=rf"parameter {t} outside \[0, 1\] on edge 'I'"):
            approximate_minimal_set(s, seed, 0, n, 0.05)

    @pytest.mark.parametrize("name", ["torus-on-mobius", "sturmian-cylinder"])
    def test_cached_embeddings_are_the_base_embedding(self, name):
        s, seed = _orbit_system(name)
        streamed = approximate_minimal_set(s, seed, 100, 5_000, 0.02)
        buf = io.StringIO()
        sample_to_csv(streamed, buf)
        buf.seek(0)
        bases, edge_idx, ts, _ = csv_to_points(buf, s.base, s.bundle.fibre)
        loaded = SampledSet(0.02, bases, edge_idx, ts, {}, s.base, s.bundle)
        for sample in (streamed, loaded):
            assert len(sample.base_embed) == len(sample.points)
            for i, x in enumerate(sample.points):
                assert sample.base_embed[i] == float(s.base.embedding(x.b))


class TestOrbitBlocks:
    """``orbit_blocks`` against ``orbit`` (iterated ``apply_skew``) on each
    side of the block boundaries: over a gluing on every wrap
    (torus-on-mobius), over constant fibre maps (sturmian-cylinder) and
    over fibre maps chosen by the part of the image base point
    (theorem-d-1, theorem-d-2:two)."""

    @pytest.mark.parametrize("transient", [0, 100])
    @pytest.mark.parametrize("name", ["torus-on-mobius", "sturmian-cylinder", "theorem-d-1", "theorem-d-2:two"])
    def test_equals_orbit(self, name, transient):
        s, seed = _orbit_system(name)
        size = thinning.THIN_BLOCK
        sizes = [1, size - 1, size, size + 1, 2 * size + 3]
        pts = orbit(s, seed, max(sizes), transient=transient)
        for n in sizes:
            blocks = list(orbit_blocks(s, seed, transient, n, size))
            assert [len(b[0]) for b in blocks] == [size] * (n // size) + [n % size] * (n % size > 0), n
            _assert_blocks_are_orbit(s, blocks, pts[:n])


def _assert_blocks_are_orbit(s, blocks, pts):
    """The blocks, joined, hold the points pts: the same base points, their
    base embeddings, and the fibre points bit for bit."""
    bases, embeds, edges, ts = ([v for block in blocks for v in block[i]] for i in range(4))
    assert bases == [x.b for x in pts]
    assert embeds == [float(s.base.embedding(x.b)) for x in pts]
    fibre = s.bundle.fibre
    assert edges == [fibre.edge_index(x.y.edge) for x in pts]
    assert np.array(ts).view(np.int64).tolist() == np.array([x.y.t for x in pts]).view(np.int64).tolist()


def _orbit_system(name):
    if name.startswith("theorem-d"):
        res = CONSTRUCTIONS[name]({})
        return res.system, res.seed(0)
    if name == "sturmian-cylinder":
        s = build_sturmian_cylinder(GOLDEN).system
        w = s.base.sampler(1)[0]
        return s, BundlePoint(w, GraphPoint("I", word_embedding(w)))
    s = build_torus_on_mobius(GOLDEN, SQRT2_FRAC).system
    return s, BundlePoint(CircleAngle(0.1), GraphPoint("A", 0.2))


@st.composite
def _thinning_cases(draw):
    """A random graph with loops and parallel edges, a separation, and a
    point sequence crowded onto the thinner's edge cases: vertices, the
    2*sep bands at edge ends, cell boundaries, and pairs sep apart in the
    base or the fibre, each possibly one float step off."""
    nv = draw(st.integers(1, 3))
    lengths = st.sampled_from([0.03, 0.1, 1.0]) | st.floats(0.01, 2.0)
    edges = [
        Edge(f"e{k}", f"v{draw(st.integers(0, nv - 1))}", f"v{draw(st.integers(0, nv - 1))}", draw(lengths))
        for k in range(draw(st.integers(1, 4)))
    ]
    g = MetricGraph([f"v{i}" for i in range(nv)], edges)
    sep = draw(st.sampled_from([0.005, 0.01, 0.025]))
    step = st.sampled_from([-1, 0, 0, 1])

    def nudge(x):
        return {-1: math.nextafter(x, -math.inf), 0: x, 1: math.nextafter(x, math.inf)}[draw(step)]

    es, ys = [], []
    for _ in range(draw(st.integers(1, 40))):
        if es and draw(st.booleans()):
            j = draw(st.integers(0, len(es) - 1))
            edge = g.edge_of(ys[j].edge)
            e = es[j] + draw(st.sampled_from([-sep, 0.0, sep]))
            t = ys[j].t + draw(st.sampled_from([-sep, 0.0, sep])) / edge.length
        else:
            edge = draw(st.sampled_from(edges))
            e = draw(st.sampled_from([k * sep for k in range(-2, 6)]) | st.floats(-0.05, 1.0))
            cells = [k * sep / edge.length for k in range(4)]
            t = draw(st.sampled_from(
                [0.0, 1.0, 2 * sep / edge.length, 1.0 - 2 * sep / edge.length, *cells]
            ) | st.floats(0.0, 1.0))
        es.append(nudge(e))
        ys.append(GraphPoint(edge.id, min(max(nudge(t), 0.0), 1.0)))
    return g, sep, es, ys


class TestBlockThinning:
    @settings(max_examples=300, deadline=None)
    @given(
        case=_thinning_cases(),
        block=st.sampled_from([1, 2, 7, None]),
        chunk=st.sampled_from([1, 2, 3, thinning._CHUNK]),
    )
    def test_equals_reference(self, case, block, chunk):
        # a small _CHUNK lets chunks grow past it by their pair budget
        # _CHUNK**2, which no case of 40 points reaches at the shipped value
        g, sep, es, ys = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thinning, "THIN_BLOCK", block or len(ys) + 1)
            mp.setattr(thinning, "_CHUNK", chunk)
            assert _thin_points(g, es, ys, sep) == _reference_thin_points(g, es, ys, sep)

    def test_grid_keys_that_would_overflow_are_refused(self):
        g = interval_graph(1.0)
        with pytest.raises(WrongInput, match="base embedding too large"):
            _thin_points(g, [0.5, 1e300], [GraphPoint("I", 0.5)] * 2, 0.01)
        with pytest.raises(WrongInput, match="too small for the fibre"):
            _thin_points(g, [0.5], [GraphPoint("I", 0.5)], 1e-12)

    def test_first_bad_point_is_named(self):
        g = interval_graph(1.0)
        ys = [GraphPoint("I", 0.5), GraphPoint("J", 0.5), GraphPoint("I", 2.0)]
        with pytest.raises(InvalidPoint, match="unknown edge 'J'"):
            _thin_points(g, [0.0, 0.5, 0.9], ys, 0.01)
        ys = [GraphPoint("I", 0.5), GraphPoint("I", math.nan), GraphPoint("J", 0.5)]
        with pytest.raises(InvalidPoint, match="parameter nan outside"):
            _thin_points(g, [0.0, 0.5, 0.9], ys, 0.01)


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


def reference_transport_to(bundle, base, b_from, b_to, y):
    """``bundles.transport_to`` with its scalar cut test, as it was before
    the cut test took arrays, verbatim."""
    if not bundle.is_monodromy:
        return y
    t_from = float(base.embedding(b_from)) % 1.0
    t_to = float(base.embedding(b_to)) % 1.0
    d_direct = abs(t_from - t_to)
    if d_direct <= 1.0 - d_direct:
        return y  # short arc avoids the cut
    if t_from > t_to:
        # crossing the cut forward (angle wraps past 1 -> 0)
        return eval_graph_map(bundle.gluing, y)
    return eval_graph_map(bundle.gluing_inverse, y)


def reference_fibre_slice(sample, b, delta_base):
    """``SampledSet.fibre_slice`` as a per-point transport loop, verbatim."""
    idx = sample.slice_indices(b, delta_base)
    out = []
    for i in idx:
        x = sample.points[int(i)]
        y = x.y
        if sample.bundle.is_monodromy:
            y = reference_transport_to(sample.bundle, sample.base, x.b, b, y)
        out.append(y)
    return out


# base angles on both sides of the cut, at half-turn ties (0 and 1/2, 1/8
# and 5/8, ...) and one float step off them
CUT_ANGLES = [k / 8.0 for k in range(8)] + [
    math.nextafter(k / 8.0, d) for k in range(1, 8) for d in (0.0, 1.0)
] + [math.nextafter(1.0, 0.0), 5e-324]


def _rotated_circle_bundle():
    """Monodromy bundle over a rotation whose gluing turns the fibre circle
    by a quarter, so the gluing and its inverse differ."""
    g = circle_graph(1.0)
    c = enumerate_circles(g)[0]
    turn = {s: GraphMap(g, g, {"c": circle_rotation_pieces(g, "c", c, s, 1.0)}) for s in (0.25, 0.75)}
    base = circle_rotation(GOLDEN)
    return base, monodromy_bundle(base, g, turn[0.25], turn[0.75])


class TestArraySlice:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["torus-on-mobius", "rotated-circle"]),
        st.lists(st.sampled_from(CUT_ANGLES) | st.floats(0.0, 1.0, exclude_max=True),
                 min_size=1, max_size=30),
        st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 1.0)), min_size=30, max_size=30),
        st.sampled_from([0.02, 0.3, 0.5, 1.0]),
    )
    def test_equals_per_point_transport(self, name, angles, ys, delta_base):
        if name == "torus-on-mobius":
            s = build_torus_on_mobius(GOLDEN, SQRT2_FRAC).system
            base, bundle = s.base, s.bundle
        else:
            base, bundle = _rotated_circle_bundle()
        edges = [e.id for e in bundle.fibre.edges]
        pts = [
            BundlePoint(CircleAngle(a), GraphPoint(edges[e % len(edges)], t))
            for a, (e, t) in zip(angles, ys)
        ]
        sample = SampledSet.from_points(0.02, pts, {}, base, bundle)
        for x in pts:
            got = sample.fibre_slice(x.b, delta_base)
            assert got == reference_fibre_slice(sample, x.b, delta_base)
            assert sample.slice_arrays(x.b, delta_base)[1].tolist() == [y.t for y in got]

    def test_half_turn_tie_is_not_glued(self):
        s = build_torus_on_mobius(GOLDEN, SQRT2_FRAC).system
        pts = [BundlePoint(CircleAngle(a), GraphPoint("A", 0.25)) for a in (0.25, 0.75, 0.9)]
        sample = SampledSet.from_points(0.02, pts, {}, s.base, s.bundle)
        # 0.25 -> 0.75 is a tie and keeps its chart; 0.9 -> 0.25 crosses the cut
        got = sample.fibre_slice(CircleAngle(0.25), 0.5)
        assert got == reference_fibre_slice(sample, CircleAngle(0.25), 0.5)
        assert [y.edge for y in got] == ["A", "A", "B"]

    def test_crossing_direction_picks_gluing_or_inverse(self):
        base, bundle = _rotated_circle_bundle()
        pts = [BundlePoint(CircleAngle(a), GraphPoint("c", 0.5)) for a in (0.95, 0.05)]
        sample = SampledSet.from_points(0.02, pts, {}, base, bundle)
        # forward across the cut turns by +1/4, backward by -1/4
        assert [y.t for y in sample.fibre_slice(CircleAngle(0.05), 0.2)] == [0.75, 0.5]
        assert [y.t for y in sample.fibre_slice(CircleAngle(0.95), 0.2)] == [0.5, 0.25]
        for b in (CircleAngle(0.05), CircleAngle(0.95)):
            assert sample.fibre_slice(b, 0.2) == reference_fibre_slice(sample, b, 0.2)

    def test_monodromy_sample(self):
        res, sample = _torus_sample(n=20_000)
        angles = [float(x.b) for x in sample.points]
        assert min(angles) < 0.02 and max(angles) > 0.98
        for b in [CircleAngle(a) for a in (0.0, 0.005, 0.5, 0.995)] + [x.b for x in sample.points[::500]]:
            assert sample.fibre_slice(b, 0.02) == reference_fibre_slice(sample, b, 0.02)


def reference_slice_indices(sample, b, delta_base):
    """``SampledSet.slice_indices`` as a scan of every base embedding, as it
    was before the embeddings were sorted, verbatim."""
    e = float(sample.base.embedding(b))
    d = np.abs(sample.base_embed - e)
    if sample.base.circular:
        d %= 1.0
        d = np.minimum(d, 1.0 - d)
    return np.where(d <= delta_base)[0]


def _angle_base(circular):
    """A base whose embedding is the angle itself, unreduced, so a probe can
    sit exactly at 1 (an interval base when not circular)."""
    return BaseSystem(
        id=f"identity(circular={circular})", apply=lambda x: x,
        sampler=lambda n: [], embedding=lambda x: x.theta, circular=circular,
    )


def _around(x):
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


class TestSortedSliceIndices:
    @settings(max_examples=300, deadline=None)
    @given(
        st.booleans(),
        st.sampled_from([0.0, 1.0, 0.5, 5e-324, math.nextafter(1.0, 0.0)]) | st.floats(0.0, 1.0),
        st.sampled_from([1e-6, 0.02, 0.25, 0.5, 1.0]) | st.floats(1e-6, 1.0),
        st.lists(st.floats(-0.5, 1.5), max_size=20),
        st.integers(1, 3),
    )
    def test_equals_full_scan(self, circular, e, width, extra, copies):
        # embeddings at +-width from the probe, one float step either side,
        # and the same across the wrap at 0 and 1, each repeated
        edges = [e - width, e + width, e - width + 1.0, e + width - 1.0, 0.0, 1.0]
        embeds = [x for y in edges for x in _around(y)] + extra
        if circular:
            embeds = [x for x in embeds if 0.0 <= x <= 1.0]
        embeds = embeds * copies
        base = _angle_base(circular)
        n = len(embeds)
        sample = SampledSet(
            0.02, [CircleAngle(x) for x in embeds], np.zeros(n, dtype=int), np.zeros(n), {},
            base, Bundle(interval_graph(1.0)),
        )
        for b in [CircleAngle(e)] + sample.bases[:12]:
            got = sample.slice_indices(b, width)
            assert np.array_equal(got, reference_slice_indices(sample, b, width)), (b, width)

    def test_monodromy_sample(self):
        res, sample = _torus_sample(n=20_000)
        for b in [CircleAngle(a) for a in (0.0, 0.005, 0.5, 0.995)] + sample.bases[::500]:
            for width in (0.02, 0.3):
                assert np.array_equal(
                    sample.slice_indices(b, width), reference_slice_indices(sample, b, width)
                )


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

    def test_a_hole_between_probe_grid_points_is_not_a_circle(self):
        # 91 points about 0.01 apart, from 0.3015 round to 0.2005: the one gap,
        # 0.101, leaves the arc (0.2505, 0.2515) farther than 0.05 from every
        # point, and no point of a 0.0125-spaced grid falls in it
        g = circle_graph(1.0)
        pts = [GraphPoint("c", float(t % 1.0)) for t in np.linspace(0.3015, 1.2005, 91)]
        assert classify_fibre(g, pts, 0.05).kind != "circles"

    def test_empty_rejected(self):
        with pytest.raises(WrongInput, match="^empty fibre sample$"):
            classify_fibre(interval_graph(1.0), [], 0.05)

    def test_verdict_keeps_the_slice_as_given(self):
        # spaced below delta/8, so a thinning pass would drop points
        g = circle_graph(1.0)
        pts = [GraphPoint("c", i / 400.0) for i in range(400)]
        c = classify_fibre(g, pts, 0.05)
        assert str(c) == "Circles(1)"
        assert c.edge_idx.tolist() == [0] * 400
        assert c.ts.tolist() == [p.t for p in pts]


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
        rep = endpoint_statistics(sample, 0.02, 0.02)
        assert rep.endpoint_fraction == 1.0
        assert not rep.interior_detected
        assert rep.verdict == "A1"

    def test_torus_circles_have_no_endpoints(self):
        res, sample = _torus_sample()
        rep = endpoint_statistics(sample, 0.02, 0.02)
        assert rep.endpoint_fraction == 0.0
        assert rep.interior_detected
        assert rep.verdict == "A2"

    def test_empty_sample_rejected(self):
        res = build_mobius(GOLDEN)
        s = res.system
        sample = SampledSet.from_points(0.02, [], {}, s.base, s.bundle)
        with pytest.raises(WrongInput, match="^empty sample$"):
            endpoint_statistics(sample, 0.02, 0.02)


def reference_endpoint_count(g, sample, r, delta, delta_base, max_points=1200):
    """End-points among the checked points as ``endpoint_statistics``
    counted them before slices were grouped: one slice per quantized base
    coordinate, built from the first point with that key, and one
    ``distances_to_many`` row and ``star_branch_count`` per point."""
    n = len(sample.points)
    slices = {}
    endpoints = 0
    for i in range(0, n, max(1, n // max_points)):
        x = sample.points[i]
        key = int(sample.base_embed[i] / (delta_base / 2.0))
        if key not in slices:
            slices[key] = g.point_arrays(reference_fibre_slice(sample, x.b, delta_base))
        ei, tt = slices[key]
        dist = g.distances_to_many(x.y, ei, tt)
        endpoints += star_branch_count(g, g.edge_index(x.y.edge), x.y.t, ei, tt, dist, r, delta) < 2
    return endpoints


class TestGroupedEndpointStatistics:
    @pytest.mark.parametrize("block", [1, 7, analysis.ENDPOINT_BLOCK])
    @pytest.mark.parametrize("delta_base", [0.02, 0.08])
    def test_equals_per_point_loop(self, monkeypatch, block, delta_base):
        monkeypatch.setattr(analysis, "ENDPOINT_BLOCK", block)
        monkeypatch.setattr(analysis, "ENDPOINT_MAX_POINTS", 300)
        for res, sample in (_torus_sample(n=10_000), _mobius_sample(n=5_000)):
            g = res.system.bundle.fibre
            rep = endpoint_statistics(sample, 0.02, delta_base)
            want = reference_endpoint_count(g, sample, 0.06, 0.02, delta_base, max_points=300)
            assert rep.endpoint_fraction == want / rep.points_checked

    def test_circles_enumerated_once_per_graph(self, monkeypatch):
        g = circle_graph(1.0)
        calls = []
        monkeypatch.setattr(
            analysis, "enumerate_circles", lambda g: calls.append(g) or enumerate_circles(g)
        )
        pts = [GraphPoint("c", i / 200.0) for i in range(200)]
        for _ in range(3):
            assert str(classify_fibre(g, pts, 0.05)) == "Circles(1)"
        assert len(calls) == 1


def reference_fibre_window_probes(g, y0, radius, spacing):
    """``_fibre_window_probes`` before it returned arrays: one
    ``distances_to_many`` per edge."""
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


def reference_interior_detector(bundle, sample, delta):
    """``interior_detector`` as a loop over fibre probes, one
    ``distances_to_many`` per probe, stopping at the first uncovered pair.
    The box is ``reference_fibre_slice`` over x0, each point transported to
    the chart of x0; on a circular base, base offsets wrap the short way
    round, and the base probes are the boxed points farthest back, in the
    middle and farthest on from x0."""
    g = bundle.fibre
    n = len(sample.points)
    if n == 0:
        return False
    circular = sample.base.circular

    def base_gap(a, b):
        d = np.abs(a - b)
        return np.minimum(d % 1.0, 1.0 - d % 1.0) if circular else d

    candidates = [sample.points[(j * n) // 8] for j in range(min(8, n))]
    for x0 in candidates:
        box = sample.slice_indices(x0.b, delta)
        if len(box) < 4:
            continue
        ei, tt = g.point_arrays(reference_fibre_slice(sample, x0.b, delta))
        be = sample.base_embed[box]
        e0 = float(sample.base.embedding(x0.b))
        order = np.argsort((be - e0 + 0.5) % 1.0 - 0.5 if circular else be - e0, kind="stable")
        probe_base = [be[order[0]], be[order[len(order) // 2]], be[order[-1]]]
        fibre_probes = reference_fibre_window_probes(
            g, x0.y, analysis.INTERIOR_WINDOW_FACTOR * delta, delta / 4.0
        )
        covered = True
        for fp in fibre_probes:
            dfib = g.distances_to_many(fp, ei, tt)
            for pb in probe_base:
                dprod = np.maximum(dfib, base_gap(be, pb))
                if float(dprod.min()) > delta / 2.0:
                    covered = False
                    break
            if not covered:
                break
        if covered:
            return True
    return False


class TestInteriorDetector:
    # (construction, steps, delta) -> verdict
    CASES = {
        ("mobius", 5_000, 0.02): False,
        ("mobius", 5_000, 0.05): False,
        ("torus-on-mobius", 5_000, 0.02): False,
        ("torus-on-mobius", 5_000, 0.05): False,
        ("theorem-d-1", 5_000, 0.02): False,
        ("theorem-d-1", 5_000, 0.05): True,
        ("theorem-d-1", 20_000, 0.02): True,
    }

    @pytest.mark.parametrize("block", [7, analysis.ENDPOINT_BLOCK])
    @pytest.mark.parametrize("case", list(CASES), ids=["-".join(map(str, c)) for c in CASES])
    def test_equals_per_probe_loop(self, monkeypatch, case, block):
        name, steps, delta = case
        res = CONSTRUCTIONS[name]({})
        sample = approximate_minimal_set(res.system, res.seed(0), 100, steps, delta)
        want = reference_interior_detector(res.system.bundle, sample, delta)
        assert want is self.CASES[case]
        monkeypatch.setattr(analysis, "ENDPOINT_BLOCK", block)
        assert interior_detector(sample, delta) is want

    # (base angle, fibre points spread over the circle) groups, in sample
    # order; a one-point group leaves its base probe uncovered, unless it
    # lies 0.02 from a full group, the short way round the base: the last
    # three layouts are one layout turned, so the seam must not matter
    LAYOUTS = {
        "min-probe-uncovered": ([(0.44, 1), (0.48, 50)], False),
        "median-probe-uncovered": ([(0.49, 1), (0.455, 50), (0.525, 50)], False),
        "max-probe-uncovered": ([(0.52, 1), (0.48, 50)], False),
        "covered": ([(0.455, 50), (0.49, 50), (0.525, 50)], True),
        "across-the-seam": ([(0.99, 50), (0.01, 1)], True),
        "just-across-the-seam": ([(0.995, 50), (0.015, 1)], True),
        "turned-off-the-seam": ([(0.49, 50), (0.51, 1)], True),
    }

    @pytest.mark.parametrize("layout", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_each_base_probe_counts(self, layout):
        groups, want = layout
        s = CONSTRUCTIONS["circle-product"]({}).system
        points = [
            BundlePoint(CircleAngle(b), GraphPoint("c", i / k)) for b, k in groups for i in range(k)
        ]
        sample = SampledSet.from_points(0.05, points, {}, s.base, s.bundle)
        assert reference_interior_detector(s.bundle, sample, 0.05) is want
        assert interior_detector(sample, 0.05) is want

    def test_window_probes_equal_per_edge_grid(self):
        res, sample = _torus_sample(n=5_000)
        g = res.system.bundle.fibre
        for x in sample.points[::400]:
            ei, tt = analysis._fibre_window_probes(g, g.edge_index(x.y.edge), x.y.t, 0.34, 0.005)
            got = [GraphPoint(g.edges[e].id, t) for e, t in zip(ei.tolist(), tt.tolist())]
            assert got == reference_fibre_window_probes(g, x.y, 0.34, 0.005)

    def test_torus_sample_has_interior(self):
        res, sample = _torus_sample()
        assert interior_detector(sample, 0.02)

    def test_mobius_boundary_has_none(self):
        res, sample = _mobius_sample()
        assert not interior_detector(sample, 0.02)


class TestTrichotomy:
    def test_mobius_boundary_is_finite_two(self):
        res, sample = _mobius_sample()
        probes = [sample.points[i].b for i in range(0, len(sample.points), 20)][:20]
        rep = typical_fibre_report(res.system, sample, probes, 0.02, 0.02)
        assert str(rep.typical) == "FiniteN(2)"
        assert rep.N == 2
        assert rep.totally_disconnected_fraction == 1.0

    def test_torus_is_circle_pair(self):
        res, sample = _torus_sample()
        probes = [sample.points[i].b for i in range(0, len(sample.points), 30)][:15]
        rep = typical_fibre_report(res.system, sample, probes, 0.02, 0.02)
        assert str(rep.typical) == "Circles(2)"

    TIED = [FibreClass("finite", n=2), FibreClass("cantor", n=30), FibreClass("circles", m=2)]

    @pytest.mark.parametrize("first, second", list(permutations(TIED, 2)), ids=str)
    def test_modal_tie_goes_to_first_probe_class(self, first, second):
        # probe classes tie 2-2; the modal class is the one probed first, so
        # the other two probes are the exceptional ones, whatever the hash order
        probes = [CircleAngle(x) for x in (0.1, 0.2, 0.3, 0.4)]
        classes = dict(zip(probes, [first, second, second, first]))
        system = SimpleNamespace(base=SimpleNamespace(preimages=None))
        sample = SimpleNamespace(probe_class=lambda b, delta_base, delta: classes[b])
        rep = typical_fibre_report(system, sample, probes, 0.02, 0.02)
        assert rep.typical is None
        assert rep.exceptional_tags == (repr(probes[1]), repr(probes[2]))

    def test_probe_with_two_preimages_is_dropped(self):
        # over the doubled Cantor set the blow-up point a has two preimages
        # (the doubled pair), and so has a backward orbit step of its image
        g = circle_graph(1.0)
        res = build_circle_minimal_product(doubled_cantor(), g, enumerate_circles(g)[0])
        s = res.system
        sample = approximate_minimal_set(s, res.seed(0), 100, 5_000, 0.02)
        a = DoubledCode(s.base.params["a"], 0)
        assert len(s.base.preimages(a)) == 2
        dropped = [a, s.base.apply(a)]
        # their fibre slices are not empty: only the filter drops them
        assert all(sample.probe_class(b, 0.02, 0.02) is not None for b in dropped)
        kept = sample.bases[:: len(sample.bases) // 4][:4]
        rep = typical_fibre_report(s, sample, dropped + kept, 0.02, 0.02)
        assert rep.probes_used == len(kept)
        with pytest.raises(NoProbes):
            typical_fibre_report(s, sample, dropped, 0.02, 0.02)


class TestCirclesReport:
    def test_modal_tie_goes_to_first_probe_count(self, monkeypatch):
        # circle counts tie 2-2; the modal count is the one probed first,
        # as in the trichotomy, not the smaller one
        probes = [CircleAngle(x) for x in (0.1, 0.2, 0.3, 0.4)]
        two, one = FibreClass("circles", m=2), FibreClass("circles", m=1)
        classes = dict(zip(probes, [two, one, one, two]))
        system = SimpleNamespace(bundle=SimpleNamespace(fibre=circle_graph(1.0)))
        sample = SimpleNamespace(probe_class=lambda b, delta_base, delta: classes[b])
        monkeypatch.setattr(analysis, "IMAGE_PROBES", 0)
        rep = circles_report(system, sample, probes, 0.02, 0.02)
        assert rep.m == 2
        assert rep.exceptional_tags == ()

    def test_m_circles_modal_count(self):
        g = chained_loops_graph(2)
        circles = [c for c in enumerate_circles(g) if len(c.steps) == 1]
        circles.sort(key=lambda c: next(iter(c.edge_ids())))
        res = build_m_circles(circle_rotation(GOLDEN), g, circles, angle=SQRT2_FRAC)
        seed = BundlePoint(CircleAngle(0.1), GraphPoint("s1", 0.0))
        sample = approximate_minimal_set(res.system, seed, 100, 30_000, 0.02)
        probes = [sample.points[i].b for i in range(0, len(sample.points), 60)][:10]
        rep = circles_report(res.system, sample, probes, 0.02, 0.02)
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
        tri = typical_fibre_report(res.system, sample, probes, 0.02, 0.02)
        assert len(calls) == tri.probes_used == len(probes)
        calls.clear()
        monkeypatch.setattr(analysis, "IMAGE_PROBES", 3)
        rep = circles_report(res.system, sample, probes, 0.02, 0.02)
        assert rep.m == 2 and rep.image_disjointness
        # only the three image fibres are classified; each maps the probe's
        # fibre slice, the points its verdict was computed from
        assert len(calls) == 3
        slices = [sample.probe_class(b, 0.02, 0.02).ts for b in probes[:3]]
        assert [len(args[1]) for args in calls] == [len(ts) for ts in slices]

    def test_folding_two_circles_onto_one_fails_the_image_check(self):
        # the fibre map sends both circles A and B onto A (and the interval
        # joining them to A's vertex), so each image fibre is one circle
        res, sample = _torus_sample(n=20_000)
        g = res.system.bundle.fibre
        a = Circle((("A", 1),), 1.0)
        fold = GraphMap(g, g, {
            "A": circle_rotation_pieces(g, "A", a, 0.0, 1.0),
            "B": circle_rotation_pieces(g, "B", a, 0.0, 1.0),
            "I": (MapPiece(0.0, 1.0, (PathSeg("A", 0.0, 0.0),)),),
        })
        folded = SkewSystem(res.system.base, res.system.bundle, lambda e: fold)
        probes = [sample.points[i].b for i in range(0, len(sample.points), 300)][:8]
        rep = circles_report(folded, sample, probes, 0.02, 0.02)
        assert rep.m == 2 and not rep.image_disjointness

