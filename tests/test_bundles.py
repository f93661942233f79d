"""Bundles, skew products, monodromy transport."""
from __future__ import annotations

import math

import pytest

from bundlemin.analysis import SampledSet
from bundlemin.base_systems import GOLDEN, CircleAngle, circle_rotation
from bundlemin.bundles import (
    Bundle,
    BundlePoint,
    SkewSystem,
    apply_skew,
    monodromy_bundle,
    orbit,
    transport_to,
)
from bundlemin.errors import WrongInput
from bundlemin.graphs import (
    GraphMap,
    GraphPoint,
    MapPiece,
    PathSeg,
    circle_graph,
    identity_map,
    interval_graph,
)


def flip_map(g) -> GraphMap:
    return GraphMap(g, g, {"I": (MapPiece(0.0, 1.0, (PathSeg("I", 1.0, 0.0),)),)})


class TestBundleConstruction:
    def test_product_is_not_monodromy(self):
        b = Bundle(interval_graph(1.0))
        assert not b.is_monodromy

    def test_monodromy_roundtrip_checked(self):
        g = interval_graph(1.0)
        b = monodromy_bundle(circle_rotation(GOLDEN), g, flip_map(g), flip_map(g))
        assert b.is_monodromy

    def test_bad_inverse_rejected(self):
        g = interval_graph(1.0)
        with pytest.raises(WrongInput, match="^gluing round trip off by "):
            monodromy_bundle(circle_rotation(GOLDEN), g, flip_map(g), identity_map(g))

    def test_non_circle_base_rejected(self):
        from bundlemin.base_systems import adding_machine

        g = interval_graph(1.0)
        with pytest.raises(WrongInput):
            monodromy_bundle(adding_machine(8), g, flip_map(g), flip_map(g))


def _product_system(alpha=GOLDEN):
    base = circle_rotation(alpha)
    g = interval_graph(1.0)
    bundle = Bundle(g)
    ident = identity_map(g)
    return SkewSystem(base, bundle, lambda e: ident, id="test-product")


class TestSkewOrbit:
    def test_base_advances(self):
        s = _product_system(0.25)
        x = BundlePoint(CircleAngle(0.0), GraphPoint("I", 0.3))
        y = apply_skew(s, x)
        assert float(y.b) == pytest.approx(0.25)
        assert y.y == x.y

    def test_orbit_length_and_transient(self):
        s = _product_system()
        x = BundlePoint(CircleAngle(0.0), GraphPoint("I", 0.3))
        xs = orbit(s, x, 10, transient=5)
        assert len(xs) == 10
        # first reported point is the 5th iterate
        direct = x
        for _ in range(5):
            direct = apply_skew(s, direct)
        assert s.base.distance(xs[0].b, direct.b) < 1e-12

    def test_monodromy_glues_on_wrap(self):
        base = circle_rotation(0.75)
        g = interval_graph(1.0)
        bundle = monodromy_bundle(base, g, flip_map(g), flip_map(g))
        ident = identity_map(g)
        s = SkewSystem(base, bundle, lambda e: ident, id="test-monodromy")
        x = BundlePoint(CircleAngle(0.5), GraphPoint("I", 0.2))
        y = apply_skew(s, x)  # 0.5 -> 0.25 wraps past the cut
        assert y.y.t == pytest.approx(0.8)

    def test_no_gluing_without_wrap(self):
        base = circle_rotation(0.25)
        g = interval_graph(1.0)
        bundle = monodromy_bundle(base, g, flip_map(g), flip_map(g))
        ident = identity_map(g)
        s = SkewSystem(base, bundle, lambda e: ident, id="test-monodromy")
        y = apply_skew(s, BundlePoint(CircleAngle(0.1), GraphPoint("I", 0.2)))
        assert y.y.t == pytest.approx(0.2)


class TestTransport:
    def test_product_transport_is_identity(self):
        base = circle_rotation(GOLDEN)
        g = interval_graph(1.0)
        bundle = Bundle(g)
        y = transport_to(bundle, base, CircleAngle(0.1), CircleAngle(0.9), GraphPoint("I", 0.3))
        assert y.t == 0.3

    def test_monodromy_transport_across_cut(self):
        base = circle_rotation(GOLDEN)
        g = interval_graph(1.0)
        bundle = monodromy_bundle(base, g, flip_map(g), flip_map(g))
        # short arc from 0.95 to 0.05 crosses the cut at 0
        y = transport_to(bundle, base, CircleAngle(0.95), CircleAngle(0.05), GraphPoint("I", 0.3))
        assert y.t == pytest.approx(0.7)
        # short arc from 0.4 to 0.6 does not
        y = transport_to(bundle, base, CircleAngle(0.4), CircleAngle(0.6), GraphPoint("I", 0.3))
        assert y.t == pytest.approx(0.3)


class TestFibreSlice:
    def test_slice_selects_nearby_bases(self):
        base = circle_rotation(GOLDEN)
        g = interval_graph(1.0)
        bundle = Bundle(g)
        pts = [
            BundlePoint(CircleAngle(0.10), GraphPoint("I", 0.1)),
            BundlePoint(CircleAngle(0.11), GraphPoint("I", 0.2)),
            BundlePoint(CircleAngle(0.50), GraphPoint("I", 0.9)),
        ]
        ys = SampledSet.from_points(0.01, pts, {}, base, bundle).fibre_slice(CircleAngle(0.105), 0.01)
        assert sorted(y.t for y in ys) == [0.1, 0.2]

    def test_slice_transports_in_monodromy_chart(self):
        base = circle_rotation(GOLDEN)
        g = interval_graph(1.0)
        bundle = monodromy_bundle(base, g, flip_map(g), flip_map(g))
        pts = [BundlePoint(CircleAngle(0.99), GraphPoint("I", 0.3))]
        ys = SampledSet.from_points(0.01, pts, {}, base, bundle).fibre_slice(CircleAngle(0.01), 0.05)
        assert len(ys) == 1
        assert ys[0].t == pytest.approx(0.7)
