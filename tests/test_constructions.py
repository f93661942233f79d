"""The example systems: structural invariants of each factory."""
from __future__ import annotations

import math
import re
from bisect import bisect_right

import numpy as np
import pytest

from bundlemin.base_systems import GOLDEN, CircleAngle, circle_rotation, coding_word, word_embedding
from bundlemin.bundles import BundlePoint, apply_skew, orbit
from bundlemin.constructions import (
    build_circle_minimal_product,
    build_m_circles,
    build_mobius,
    build_sturmian_cylinder,
    build_theorem_d_case1,
    build_theorem_d_case2,
    build_torus_on_mobius,
    case2_branch_images,
    chained_loops_graph,
    mobius_boundary_circle_map,
)
from bundlemin import constructions
from bundlemin.cli import CONSTRUCTIONS
from bundlemin.errors import InvalidPoint, WrongInput
from bundlemin.graphs import (
    Edge,
    GraphMap,
    GraphPoint,
    MapPiece,
    MetricGraph,
    PathSeg,
    check_continuity,
    enumerate_circles,
    eval_et,
    eval_graph_map,
    rotation_number_of_circle_map,
)
from bundlemin.fibre_index import eval_graph_map_arrays

SQRT2_FRAC = math.sqrt(2.0) - 1.0


class TestMobius:
    def test_rejects_rational_hostile_angle(self):
        with pytest.raises(WrongInput, match=r"^rotation angle 0\.0 outside \(0, 1\)$"):
            build_mobius(0.0)

    def test_centre_section_invariant(self):
        res = build_mobius(GOLDEN)
        s = res.system
        x = BundlePoint(CircleAngle(0.2), GraphPoint("I", 0.5))
        for _ in range(50):
            x = apply_skew(s, x)
            assert x.y.t == pytest.approx(0.5, abs=1e-12)

    def test_boundary_stays_on_boundary(self):
        res = build_mobius(GOLDEN)
        s = res.system
        x = BundlePoint(CircleAngle(0.2), GraphPoint("I", 1.0))
        for _ in range(50):
            x = apply_skew(s, x)
            assert x.y.t in (0.0, 1.0)

    def test_boundary_alternates_on_wrap(self):
        # after one full base revolution the boundary label has flipped
        res = build_mobius(0.5 - 1e-9)  # near half rotation: wrap every 2 steps
        s = res.system
        x = BundlePoint(CircleAngle(0.25), GraphPoint("I", 1.0))
        x = apply_skew(s, x)  # 0.25 -> ~0.75, no wrap
        assert x.y.t == 1.0
        x = apply_skew(s, x)  # wraps
        assert x.y.t == 0.0

    def test_boundary_rotation_number_is_half_alpha(self):
        res = build_mobius(GOLDEN)
        fn = mobius_boundary_circle_map(res)
        rho = rotation_number_of_circle_map(fn, 0.1, 5_000)
        assert rho == pytest.approx(GOLDEN / 2.0, abs=5e-3)


class TestTorusOnMobius:
    def test_fibre_map_continuous(self):
        res = build_torus_on_mobius(GOLDEN, SQRT2_FRAC)
        phi = res.system.fibre_family(CircleAngle(0.0))
        assert check_continuity(phi)

    def test_circle_pair_invariant(self):
        res = build_torus_on_mobius(GOLDEN, SQRT2_FRAC)
        s = res.system
        x = BundlePoint(CircleAngle(0.3), GraphPoint("A", 0.2))
        for _ in range(60):
            x = apply_skew(s, x)
            assert x.y.edge in ("A", "B")

    def test_circles_rotate_by_beta(self):
        res = build_torus_on_mobius(GOLDEN, SQRT2_FRAC)
        phi = res.system.fibre_family(CircleAngle(0.0))
        q = eval_graph_map(phi, GraphPoint("A", 0.1))
        assert q.edge == "A"
        assert q.t == pytest.approx((0.1 + SQRT2_FRAC) % 1.0, abs=1e-12)

    def test_interval_midpoint_fixed(self):
        res = build_torus_on_mobius(GOLDEN, SQRT2_FRAC)
        phi = res.system.fibre_family(CircleAngle(0.0))
        q = eval_graph_map(phi, GraphPoint("I", 0.5))
        assert q.edge == "I"
        assert q.t == pytest.approx(0.5, abs=1e-9)


class TestSturmianCylinder:
    def test_embedding_graph_invariant(self):
        res = build_sturmian_cylinder(GOLDEN, precision=400)
        s = res.system
        w = coding_word(0.23, GOLDEN, 400)
        x = BundlePoint(w, GraphPoint("I", word_embedding(w)))
        for _ in range(40):
            x = apply_skew(s, x)
            assert x.y.t == pytest.approx(word_embedding(x.b), abs=1e-12)

    def test_off_graph_points_collapse_in_one_step(self):
        res = build_sturmian_cylinder(GOLDEN, precision=400)
        s = res.system
        w = coding_word(0.23, GOLDEN, 400)
        a = apply_skew(s, BundlePoint(w, GraphPoint("I", 0.0)))
        b = apply_skew(s, BundlePoint(w, GraphPoint("I", 1.0)))
        assert a.y.t == b.y.t


class TestCircleProduct:
    def test_orbit_lands_and_stays_on_circle(self):
        g = chained_loops_graph(2)
        c = next(cc for cc in enumerate_circles(g) if cc.edge_ids() == frozenset({"s1"}))
        res = build_circle_minimal_product(circle_rotation(GOLDEN), g, c, angle=SQRT2_FRAC)
        s = res.system
        x = BundlePoint(CircleAngle(0.1), GraphPoint("a1", 0.7))
        for _ in range(30):
            x = apply_skew(s, x)
            assert c.contains_point(g, x.y)

    def test_rotation_minimality_proxy(self):
        # the circle coordinate of the orbit is delta-dense for irrational angle
        g = chained_loops_graph(2)
        c = next(cc for cc in enumerate_circles(g) if cc.edge_ids() == frozenset({"s1"}))
        res = build_circle_minimal_product(circle_rotation(GOLDEN), g, c, angle=SQRT2_FRAC)
        s = res.system
        xs = orbit(s, BundlePoint(CircleAngle(0.1), GraphPoint("s1", 0.0)), 400, transient=5)
        coords = sorted(c.coord_of(g, x.y) / c.length for x in xs)
        gaps = [b - a for a, b in zip(coords, coords[1:])]
        gaps.append(1.0 - coords[-1] + coords[0])
        assert max(gaps) < 0.05


class TestMCircles:
    def test_intersecting_circles_rejected(self):
        g = MetricGraph(["p", "q"], [Edge(e, "p", "q", L) for e, L in (("a", 1.0), ("b", 1.0), ("c", 2.0))])
        c1, c2 = enumerate_circles(g)[:2]
        with pytest.raises(WrongInput, match="^two of the circles share points$"):
            build_m_circles(circle_rotation(GOLDEN), g, [c1, c2], angle=SQRT2_FRAC)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cyclic_permutation(self, m):
        g = chained_loops_graph(m)
        circles = [c for c in enumerate_circles(g) if len(c.steps) == 1]
        circles.sort(key=lambda c: next(iter(c.edge_ids())))
        res = build_m_circles(circle_rotation(GOLDEN), g, circles, angle=SQRT2_FRAC)
        h = res.system.fibre_family(CircleAngle(0.0))
        assert check_continuity(h)
        for i, c in enumerate(circles):
            q = eval_graph_map(h, c.point_at(g, 0.3))
            assert circles[(i + 1) % m].contains_point(g, q)

    def test_mth_return_is_rotation(self):
        g = chained_loops_graph(3)
        circles = [c for c in enumerate_circles(g) if len(c.steps) == 1]
        circles.sort(key=lambda c: next(iter(c.edge_ids())))
        res = build_m_circles(circle_rotation(GOLDEN), g, circles, angle=SQRT2_FRAC)
        h = res.system.fibre_family(CircleAngle(0.0))
        c0 = circles[0]
        p = c0.point_at(g, 0.2)
        q = p
        for _ in range(3):
            q = eval_graph_map(h, q)
        shift = (c0.coord_of(g, q) - c0.coord_of(g, p)) / c0.length
        assert shift % 1.0 == pytest.approx(SQRT2_FRAC % 1.0, abs=1e-9)


class TestCase1:
    def test_sides_partition_base(self):
        res = build_theorem_d_case1(precision=30)
        part = res.system.reference["part_of"]
        q = res.system.base
        parts = {part(q.embedding(x)) for x in q.sampler(64)}
        assert parts == {1, 2}

    def test_fibre_maps_continuous(self):
        res = build_theorem_d_case1(precision=30)
        q = res.system.base
        seen = set()
        for b in q.sampler(16):
            m = res.system.fibre_family(b)
            if id(m) in seen:
                continue
            seen.add(id(m))
            assert check_continuity(m, tol=1e-9)

    def test_orbit_rides_circles(self):
        res = build_theorem_d_case1(precision=30)
        s = res.system
        xs = orbit(s, res.system.reference["seed"], 200, transient=2)
        part = res.system.reference["part_of"]
        for x in xs:
            assert x.y.edge == ("s1" if part(s.base.embedding(x.b)) == 1 else "s2")


class TestCase2:
    def test_bad_pattern_rejected(self):
        with pytest.raises(WrongInput, match=r"^unknown pattern 'spiral'; expected point \| arc \| two$"):
            build_theorem_d_case2("spiral")
        with pytest.raises(WrongInput, match=r"^plateau end 0\.0 outside \(0, 2\*pi\)$"):
            build_theorem_d_case2("arc", theta0=0.0)

    @pytest.mark.parametrize("pattern", ["point", "arc", "two"])
    def test_charts_roundtrip(self, pattern):
        res = build_theorem_d_case2(pattern, precision=20)
        geo = res.system.reference["geometry"]
        for k in range(1, 40):
            th = k * math.tau / 40.0
            p = geo.push_outer(th)
            assert geo.theta_of(p) == pytest.approx(th, abs=1e-9)
            p = geo.push_inner(th)
            assert geo.theta_of(p) == pytest.approx(th, abs=1e-9)

    @pytest.mark.parametrize("pattern", ["point", "arc", "two"])
    def test_branches_agree_on_seams(self, pattern):
        res = build_theorem_d_case2(pattern, precision=20)
        geo = res.system.reference["geometry"]
        g = geo.graph
        for th in geo.seam_thetas:
            y = geo.push_outer(th)
            for target_inner in (False, True):
                a, b = case2_branch_images(res, y, target_inner)
                assert g.path_distance(a, b) < 1e-9

    def test_radial_projection_moves_points_off_seam(self):
        res = build_theorem_d_case2("point", precision=20)
        geo = res.system.reference["geometry"]
        y = geo.push_outer(math.pi)  # inner radius is 1/2 here
        p = geo.radial_project(y)
        assert p.edge != y.edge
        assert geo.theta_of(p) == pytest.approx(geo.theta_of(y), abs=1e-9)
        assert geo.graph.path_distance(y, p) > 0.1

    def test_fibre_map_interpolation_accuracy(self):
        res = build_theorem_d_case2("point", precision=20)
        geo = res.system.reference["geometry"]
        rho = res.system.reference["rotation"]
        # part-2 map pushes onto the inner curve; compare against the formula
        part = res.system.reference["part_of"]
        q = res.system.base
        b = next(x for x in q.sampler(16) if part(q.embedding(q.apply(x))) == 2)
        m = res.system.fibre_family(b)
        for k in range(1, 20):
            th = k * math.tau / 20.0
            y = geo.push_outer(th)
            expect = geo.push_inner(th + rho * math.tau)
            got = eval_graph_map(m, y)
            assert geo.graph.path_distance(got, expect) < 1e-3


def _reference_eval(m, p):
    """The graph-map evaluator as it was before maps were compiled."""
    m.domain.validate_point(p)
    plist = m.pieces[p.edge]
    lows = [pc.lo for pc in plist]
    i = min(max(bisect_right(lows, p.t) - 1, 0), len(plist) - 1)
    piece = plist[i]
    if not (piece.lo - 1e-12 <= p.t <= piece.hi + 1e-12):
        for piece in plist:
            if piece.lo - 1e-12 <= p.t <= piece.hi + 1e-12:
                break
        else:
            raise InvalidPoint(f"no piece covers t={p.t} on edge {p.edge!r}")
    g2 = m.codomain
    total = sum(seg.length(g2) for seg in piece.path)
    if total <= 0.0 or piece.hi - piece.lo <= 0.0:
        seg = piece.path[0]
        return GraphPoint(seg.edge, seg.t0)
    u = (p.t - piece.lo) / (piece.hi - piece.lo)
    u = min(max(u, 0.0), 1.0)
    s = u * total
    for seg in piece.path:
        sl = seg.length(g2)
        if s <= sl + 1e-15 or seg is piece.path[-1]:
            frac = s / sl if sl > 0 else 0.0
            frac = min(max(frac, 0.0), 1.0)
            t = seg.t0 + (seg.t1 - seg.t0) * frac
            return GraphPoint(seg.edge, min(max(t, 0.0), 1.0))
        s -= sl
    raise AssertionError("unreachable")


def _construction_maps(name):
    s = CONSTRUCTIONS[name]({}).system
    maps = {}
    if s.bundle.is_monodromy:
        for m in (s.bundle.gluing, s.bundle.gluing_inverse):
            maps[id(m)] = m
    for b in s.base.sampler(64):
        m = s.fibre_family(b)
        maps[id(m)] = m
    return list(maps.values())


def _t_grid(m, edge):
    ts = {k / 32.0 for k in range(33)}
    for pc in m.pieces[edge]:
        for t in (pc.lo, pc.hi, (pc.lo + pc.hi) / 2.0):
            ts.update((t, math.nextafter(t, -1.0), math.nextafter(t, 2.0)))
    return sorted(t for t in ts if 0.0 <= t <= 1.0)


def _assert_same_as_reference(m):
    for e in m.domain.edges:
        for t in _t_grid(m, e.id):
            p = GraphPoint(e.id, t)
            try:
                want = _reference_eval(m, p)
            except InvalidPoint:
                with pytest.raises(InvalidPoint):
                    eval_graph_map(m, p)
                continue
            assert eval_graph_map(m, p) == want, (e.id, t)


def _bits(ts):
    return np.array(ts, dtype=float).view(np.int64).tolist()


def _assert_arrays_same_as_scalar(m):
    """``eval_graph_map_arrays`` on one batch of every grid point of every
    edge, edges interleaved, against ``eval_graph_map`` point by point."""
    g, g2 = m.domain, m.codomain
    points, want = [], []
    for e in g.edges:
        k = g.edge_index(e.id)
        for t in _t_grid(m, e.id) + [-0.0]:
            try:
                want.append(eval_graph_map(m, GraphPoint(e.id, t)))
            except InvalidPoint:
                with pytest.raises(InvalidPoint):
                    eval_graph_map_arrays(m, np.array([k]), np.array([t]))
                continue
            points.append((t, k))
        for t in (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(InvalidPoint):
                eval_graph_map_arrays(m, np.array([k, k]), np.array([0.5, t]))
    order = sorted(range(len(points)), key=lambda i: points[i])
    ei = np.array([points[i][1] for i in order])
    tt = np.array([points[i][0] for i in order])
    got_e, got_t = eval_graph_map_arrays(m, ei, tt)
    assert got_e.tolist() == [g2.edge_index(want[i].edge) for i in order]
    assert _bits(got_t) == _bits([want[i].t for i in order])


def _assert_et_same_as_scalar(m):
    """``eval_et`` on every grid point and -0.0 of every edge against
    ``eval_graph_map`` and ``_reference_eval``, bit for bit."""
    g, g2 = m.domain, m.codomain
    for e in g.edges:
        k = g.edge_index(e.id)
        for t in _t_grid(m, e.id) + [-0.0]:
            got_e, got_t = eval_et(m, k, t)
            for want in (eval_graph_map(m, GraphPoint(e.id, t)), _reference_eval(m, GraphPoint(e.id, t))):
                assert (got_e, _bits([got_t])) == (g2.edge_index(want.edge), _bits([want.t])), (e.id, t)


class TestCompiledGraphMaps:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_matches_reference_evaluator(self, name):
        for m in _construction_maps(name):
            _assert_same_as_reference(m)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_arrays_match_scalar(self, name):
        for m in _construction_maps(name):
            _assert_arrays_same_as_scalar(m)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_et_matches_scalar(self, name):
        for m in _construction_maps(name):
            _assert_et_same_as_scalar(m)

    def test_et_clamps_keep_signed_zero_and_nan(self):
        # a path from -0.0: t = -0.0 keeps its sign through all three
        # clamps, and NaN, which only an unchecked point can carry, passes
        g = MetricGraph(("v0", "v1"), (Edge("I", "v0", "v1", 1.0),))
        m = GraphMap(g, g, {"I": (MapPiece(0.0, 0.5, (PathSeg("I", -0.0, 1.0),)),
                                  MapPiece(0.5, 1.0, (PathSeg("I", 1.0, 0.0),)))})
        _assert_et_same_as_scalar(m)
        assert _bits([eval_et(m, 0, -0.0)[1]]) == _bits([-0.0])
        assert math.isnan(eval_et(m, 0, math.nan)[1])

    def test_pieces_must_tile_each_edge(self):
        g = MetricGraph(("v0", "v1", "v2"), (Edge("I", "v0", "v1", 2.0), Edge("J", "v1", "v2", 1.0)))
        whole_j = (MapPiece(0.0, 1.0, (PathSeg("J", 0.0, 1.0),)),)
        split_i = {
            "gap": ((0.0, 0.6), (0.7, 1.0)),
            "overlap": ((0.0, 0.6), (0.5, 1.0)),
            "empty-piece": ((0.0, 0.5), (0.5, 0.5), (0.5, 1.0)),
            "short-of-one": ((0.0, 0.5), (0.5, 0.9)),
            "after-zero": ((0.1, 1.0),),
            "no-pieces": (),
        }
        for bounds in split_i.values():
            split = tuple(MapPiece(lo, hi, (PathSeg("I", lo, hi),)) for lo, hi in bounds)
            with pytest.raises(InvalidPoint, match="'I' do not tile"):
                GraphMap(g, g, {"I": split, "J": whole_j})
        with pytest.raises(InvalidPoint, match="'I' do not tile"):
            GraphMap(g, g, {"J": whole_j})
        # a tiling with a constant piece is accepted and evaluates as the
        # reference does, on both evaluators
        m = GraphMap(g, g, {
            "I": (MapPiece(0.0, 0.5, (PathSeg("I", 0.0, 1.0),)),
                  MapPiece(0.5, 1.0, (PathSeg("J", 0.3, 0.3),))),
            "J": whole_j,
        })
        _assert_same_as_reference(m)
        _assert_arrays_same_as_scalar(m)


# The command line's construction knowledge as it stood before each factory
# declared its own seed rule and slice width, kept verbatim as the reference.
DELTA_BASE = {"sturmian-cylinder": 1e-6}


def default_seed(name: str, result, seed_index: int) -> BundlePoint:
    s = result.system
    if name == "mobius":
        return BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0))
    if name == "sturmian-cylinder":
        w = s.base.sampler(seed_index + 1)[-1]
        return BundlePoint(w, GraphPoint("I", word_embedding(w)))
    ref_seed = result.system.reference.get("seed")
    if ref_seed is not None and seed_index == 0:
        return ref_seed
    b = s.base.sampler(seed_index + 1)[-1]
    e = s.bundle.fibre.edges[0]
    return BundlePoint(b, GraphPoint(e.id, 0.37))


# params keys each command-line construction accepts, with their defaults
DECLARED_PARAMS = {
    "mobius": {"alpha": GOLDEN},
    "torus-on-mobius": {"alpha": GOLDEN, "beta": SQRT2_FRAC},
    "sturmian-cylinder": {"alpha": GOLDEN, "precision": 1500},
    "circle-product": {"alpha": GOLDEN, "length": 1.0, "angle": SQRT2_FRAC},
    "m-circles": {"m": 3, "alpha": GOLDEN, "angle": SQRT2_FRAC},
    "theorem-d-1": {"precision": 40},
    "theorem-d-2:point": {"precision": 40},
    "theorem-d-2:arc": {"precision": 40, "theta0": math.pi / 2},
    "theorem-d-2:two": {"precision": 40},
}


class TestRegistry:
    def test_cli_shares_the_registry(self):
        assert CONSTRUCTIONS is constructions.CONSTRUCTIONS
        assert sorted(CONSTRUCTIONS) == sorted(DECLARED_PARAMS)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_seed_and_slice_width_match_reference(self, name):
        result = CONSTRUCTIONS[name]({})
        for i in range(10):
            want = default_seed(name, result, i)
            got = result.seed(i)
            assert got == want and repr(got) == repr(want), i
        assert result.delta_base == DELTA_BASE.get(name)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_declared_params(self, name):
        declared = DECLARED_PARAMS[name]
        assert CONSTRUCTIONS[name](dict(declared)).system.id == CONSTRUCTIONS[name]({}).system.id
        with pytest.raises(WrongInput, match=re.escape(str(sorted(declared)))):
            CONSTRUCTIONS[name]({**declared, "alhpa": 0.3})

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_every_declared_param_is_in_the_id(self, name):
        # provenance.json names the system by its id, so two builds under
        # different params must not share one
        default = CONSTRUCTIONS[name]({}).system.id
        for key, value in DECLARED_PARAMS[name].items():
            other = value + 1 if type(value) is int else value * 0.9
            assert CONSTRUCTIONS[name]({key: other}).system.id != default, key

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_base_points_have_the_declared_type(self, name):
        result = CONSTRUCTIONS[name]({})
        base = result.system.base
        points = base.sampler(8) + [result.seed(i).b for i in range(3)]
        points += [base.apply(b) for b in points]
        if "exceptional_base" in result.system.reference:
            points.append(result.system.reference["exceptional_base"])
        # a decoded tag equals its point, so it is of the base's own type
        assert [base.decode(b.tag()) for b in points] == points
