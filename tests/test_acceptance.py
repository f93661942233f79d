"""End-to-end acceptance checks for every shipped construction and report.

Heavy orbit samples are computed once per module and shared across checks;
all tolerances are asserted at the stated values.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from bundlemin.analysis import (
    approximate_minimal_set,
    circles_report,
    classify_fibre,
    endpoint_statistics,
    typical_fibre_report,
)
from bundlemin.base_systems import (
    GOLDEN,
    CircleAngle,
    adding_machine,
    circle_distance,
    circle_rotation,
    coding_word,
    recurrence_horizon,
    sturmian,
    sturmian_fibre_codings,
    word_embedding,
)
from bundlemin.bundles import BundlePoint
from bundlemin.cli import main as cli_main
from bundlemin.constructions import (
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
from bundlemin.fibre_index import FibreIndex
from bundlemin.graphs import (
    Edge,
    GraphPoint,
    MetricGraph,
    build_retraction,
    circle_graph,
    enumerate_circles,
    eval_graph_map,
    interval_graph,
    rotation_number_of_circle_map,
    star_graph,
)
from reference_bases import sturmian_factor
from weyl_rotation import weyl_minimal_rotation

SQRT2_FRAC = math.sqrt(2.0) - 1.0
DELTA = 0.02
STEPS = 100_000


def _sample(result, seed, delta=DELTA, steps=STEPS):
    return approximate_minimal_set(result.system, seed, 100, steps, delta)


@pytest.fixture(scope="module")
def mobius():
    res = build_mobius(GOLDEN)
    seed = BundlePoint(CircleAngle(0.1), GraphPoint("I", 1.0))
    return res, _sample(res, seed, steps=30_000)


@pytest.fixture(scope="module")
def torus():
    res = build_torus_on_mobius(GOLDEN, SQRT2_FRAC)
    seed = BundlePoint(CircleAngle(0.1), GraphPoint("A", 0.2))
    return res, _sample(res, seed)


@pytest.fixture(scope="module")
def sturmian_cylinder():
    res = build_sturmian_cylinder(GOLDEN, precision=1500)
    w0 = coding_word(0.2, GOLDEN, 1500)
    seed = BundlePoint(w0, GraphPoint("I", word_embedding(w0)))
    return res, _sample(res, seed)


@pytest.fixture(scope="module")
def m_circle_systems():
    out = {}
    for m in (1, 2, 3):
        g = chained_loops_graph(m)
        circles = sorted(
            (c for c in enumerate_circles(g) if len(c.steps) == 1),
            key=lambda c: next(iter(c.edge_ids())),
        )
        res = build_m_circles(circle_rotation(GOLDEN), g, circles, angle=SQRT2_FRAC)
        seed = BundlePoint(CircleAngle(0.1), GraphPoint("s1", 0.0))
        out[m] = (res, _sample(res, seed))
    return out


@pytest.fixture(scope="module")
def two_disjoint_circles():
    t0 = time.monotonic()
    res = build_theorem_d_case1(precision=40)
    sample = _sample(res, res.system.reference["seed"])
    return res, sample, time.monotonic() - t0


@pytest.fixture(scope="module")
def two_intersecting_circles():
    out = {}
    for pattern in ("point", "arc", "two"):
        res = build_theorem_d_case2(pattern, precision=40)
        out[pattern] = (res, _sample(res, res.system.reference["seed"]))
    return out


# -- 1. exceptional fibre with two disjoint circles -------------------------


class TestTwoDisjointCircles:
    def test_exceptional_fibre_is_two_circles(self, two_disjoint_circles):
        res, sample, _ = two_disjoint_circles
        c_l = res.system.reference["exceptional_base"]
        ys = sample.fibre_slice(c_l, DELTA)
        assert str(classify_fibre(res.system.bundle.fibre, ys, DELTA)) == "Circles(2)"

    def test_fifty_generic_fibres_are_one_circle(self, two_disjoint_circles):
        res, sample, _ = two_disjoint_circles
        s = res.system
        c_l = res.system.reference["exceptional_base"]
        rng = random.Random(7)
        probes = []
        while len(probes) < 50:
            b = sample.points[rng.randrange(len(sample.points))].b
            if s.base.distance(b, c_l) > 0.05:
                probes.append(b)
        for b in probes:
            ys = sample.fibre_slice(b, DELTA)
            assert str(classify_fibre(s.bundle.fibre, ys, DELTA)) == "Circles(1)"

    def test_pipeline_runtime_under_budget(self, two_disjoint_circles):
        _, _, elapsed = two_disjoint_circles
        assert elapsed < 60.0


# -- 2. exceptional fibre with two intersecting circles ---------------------


class TestTwoIntersectingCircles:
    @pytest.mark.parametrize("pattern", ["point", "arc", "two"])
    def test_exceptional_fibre_covers_both_circles(self, two_intersecting_circles, pattern):
        res, sample = two_intersecting_circles[pattern]
        g = res.system.bundle.fibre
        geo = res.system.reference["geometry"]
        ei, ts = sample.slice_arrays(res.system.reference["exceptional_base"], DELTA)
        covered = FibreIndex(g, ei, ts).covered_edges(DELTA)
        for circ in (geo.outer, geo.inner):
            for eid, _ in circ.steps:
                assert covered[g.edge_index(eid)]

    @pytest.mark.parametrize("pattern", ["point", "arc", "two"])
    def test_branch_formulas_agree_on_seams(self, two_intersecting_circles, pattern):
        res, _ = two_intersecting_circles[pattern]
        geo = res.system.reference["geometry"]
        g = geo.graph
        if geo.seam_arc is not None:
            a, b = geo.seam_arc
            thetas = [a + i * (b - a) / 999.0 for i in range(1000)]
        else:
            thetas = [geo.seam_thetas[i % len(geo.seam_thetas)] for i in range(1000)]
        for th in thetas:
            y = geo.push_outer(th)
            for target_inner in (False, True):
                p, q = case2_branch_images(res, y, target_inner)
                assert g.path_distance(p, q) < 1e-9

    @pytest.mark.parametrize("pattern", ["point", "arc", "two"])
    def test_image_independent_of_radial_identification(
        self, two_intersecting_circles, pattern
    ):
        # evaluating the exceptional-fibre formula at y or at its radial
        # identification gives the same image point
        res, _ = two_intersecting_circles[pattern]
        geo = res.system.reference["geometry"]
        g = geo.graph
        for i in range(1000):
            th = (i + 0.5) * math.tau / 1000.0
            y = geo.push_outer(th)
            for target_inner in (False, True):
                p, q = case2_branch_images(res, y, target_inner)
                assert g.path_distance(p, q) < 1e-6


# -- 3. interval band with flip gluing ---------------------------------------


class TestFlipBand:
    def test_boundary_rotation_number_is_half_base_angle(self, mobius):
        res, _ = mobius
        fn = mobius_boundary_circle_map(res)
        rho = rotation_number_of_circle_map(fn, 0.1, 100_000)
        assert abs(rho - GOLDEN / 2.0) < 1e-3

    def test_boundary_fibres_are_two_points(self, mobius):
        res, sample = mobius
        probes = [sample.points[i].b for i in range(0, len(sample.points), 12)][:20]
        rep = typical_fibre_report(res.system, sample, probes, DELTA, DELTA)
        assert str(rep.typical) == "FiniteN(2)"
        assert rep.N == 2


# -- 4. coding system over an irrational rotation ----------------------------


class TestCodingSystem:
    def test_generic_fibres_have_one_coding(self):
        for i in range(1000):
            theta = (0.123 + i * 0.618 * GOLDEN) % 1.0
            assert len(sturmian_fibre_codings(GOLDEN, theta, 1500)) == 1

    def test_boundary_orbit_fibres_have_two_codings(self):
        for n in range(20):
            theta = (1.0 - GOLDEN - n * GOLDEN) % 1.0
            words = sturmian_fibre_codings(GOLDEN, theta, 1500)
            assert len(words) == 2

    def test_factor_commutes_with_shift(self):
        bs = sturmian(GOLDEN, 1500)
        bound = 2.0 * coding_word(0.1, GOLDEN, 1500).arc[1] + 1e-12
        for i in range(1000):
            w = coding_word((0.123 + i * 0.000917) % 1.0, GOLDEN, 1500)
            lhs = float(sturmian_factor(bs.apply(w), GOLDEN))
            rhs = (float(sturmian_factor(w, GOLDEN)) + GOLDEN) % 1.0
            assert circle_distance(lhs, rhs) < bound


# -- 5. endpoint/interior dichotomy across all constructions -----------------


class TestDichotomyNeverViolated:
    def _check(self, res, sample, delta_base=DELTA):
        rep = endpoint_statistics(sample, DELTA, delta_base)
        assert not (0.0 < rep.endpoint_fraction < 0.5 and rep.interior_detected)
        return rep

    def test_flip_band(self, mobius):
        self._check(*mobius)

    def test_torus_band_is_interior_everywhere(self, torus):
        rep = self._check(*torus)
        assert rep.endpoint_fraction == 0.0
        assert rep.interior_detected
        assert rep.verdict == "A2"

    def test_coding_cylinder_is_all_endpoints(self, sturmian_cylinder):
        rep = self._check(*sturmian_cylinder, delta_base=1e-6)
        assert rep.endpoint_fraction == 1.0
        assert not rep.interior_detected
        assert rep.verdict == "A1"

    def test_circle_permutations(self, m_circle_systems):
        for res, sample in m_circle_systems.values():
            self._check(res, sample)

    def test_exceptional_circle_constructions(
        self, two_disjoint_circles, two_intersecting_circles
    ):
        res, sample, _ = two_disjoint_circles
        self._check(res, sample)
        for res, sample in two_intersecting_circles.values():
            self._check(res, sample)


# -- 6. circle fibres map onto disjoint circles -------------------------------


class TestCircleFibreImages:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_fifty_probes_land_on_m_disjoint_circles(self, m_circle_systems, m):
        res, sample = m_circle_systems[m]
        rng = random.Random(11)
        probes = [sample.points[rng.randrange(len(sample.points))].b for _ in range(50)]
        rep = circles_report(res.system, sample, probes, DELTA, DELTA)
        assert rep.probes_used == 50
        assert rep.m == m
        assert rep.exceptional_tags == ()
        assert rep.image_disjointness


# -- 7. equidistributed rotation search ---------------------------------------


def _star_discrepancy_oracle(values):
    # independent recomputation: D*_n = max_i max(i/n - x_(i), x_(i) - (i-1)/n)
    xs = sorted(values)
    n = len(xs)
    return max(
        max((i + 1) / n - x, x - i / n) for i, x in enumerate(xs)
    )


class TestRotationSearch:
    def test_exponential_times_pass_at_five_percent(self):
        n_seq = [2**k for k in range(1, 10_001)]
        alpha = weyl_minimal_rotation(n_seq, K=10_000, tol=0.05)
        vals = []
        den = alpha.denominator
        num = alpha.numerator
        for n in n_seq:
            vals.append(((n % den) * num % den) / den)
        assert _star_discrepancy_oracle(vals) < 0.05

    def test_linear_times_golden_passes_at_two_percent(self):
        vals = [(k * GOLDEN) % 1.0 for k in range(1, 1001)]
        assert _star_discrepancy_oracle(vals) < 0.02
        alpha = weyl_minimal_rotation(list(range(1, 1001)), K=1000, tol=0.02)
        vals = [float(Fraction(k) * alpha % 1) for k in range(1, 1001)]
        assert _star_discrepancy_oracle(vals) < 0.02


# -- 8. exact graph core -------------------------------------------------------


def _brute_force_circles(g):
    found = 0
    for r in range(1, len(g.edges) + 1):
        for subset in itertools.combinations(g.edges, r):
            deg, adj = {}, {}
            for e in subset:
                deg[e.u] = deg.get(e.u, 0) + 1
                deg[e.v] = deg.get(e.v, 0) + 1
                adj.setdefault(e.u, set()).add(e.v)
                adj.setdefault(e.v, set()).add(e.u)
            if any(d != 2 for d in deg.values()):
                continue
            seen, stack = {subset[0].u}, [subset[0].u]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            found += len(seen) == len(deg)
    return found


class TestGraphCore:
    def test_circle_counts_match_brute_force(self):
        four_star = star_graph(4, 1.0)
        figure_eight = MetricGraph(["v"], [Edge("l", "v", "v", 1.0), Edge("r", "v", "v", 1.0)])
        theta = MetricGraph(["p", "q"], [Edge(e, "p", "q", L) for e, L in (("a", 1.0), ("b", 1.0), ("c", 2.0))])
        for g, expect in ((four_star, 0), (figure_eight, 2), (theta, 3)):
            assert len(enumerate_circles(g)) == expect == _brute_force_circles(g)

    def test_retraction_idempotent_on_thousand_points(self):
        theta = MetricGraph(["p", "q"], [Edge(e, "p", "q", L) for e, L in (("a", 1.0), ("b", 1.0), ("c", 2.0))])
        c = next(cc for cc in enumerate_circles(theta) if "c" not in cc.edge_ids())
        r = build_retraction(theta, c)
        rng = random.Random(5)
        for _ in range(1000):
            p = GraphPoint(rng.choice(["a", "b", "c"]), rng.random())
            q1 = eval_graph_map(r, p)
            q2 = eval_graph_map(r, q1)
            assert theta.path_distance(q1, q2) <= 1e-12


# -- 9. odometer recurrence ----------------------------------------------------


class TestOdometerRecurrence:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_return_time_is_two_to_the_k(self, k):
        bs = adding_machine(40)
        for seed in bs.sampler(3):
            assert recurrence_horizon(bs, seed, 3.0 ** (-k), 10_000) == 2**k


# -- 10. determinism -------------------------------------------------------------


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        outputs = {}
        for run in ("first", "second"):
            out = tmp_path / run
            assert cli_main(["build", "torus-on-mobius", "--out", str(out)]) == 0
            assert cli_main(["minimal-set", "--out", str(out), "--steps", "20000"]) == 0
            cli_main(["classify", "--out", str(out)])
            assert cli_main(["plot", "--out", str(out)]) == 0
            outputs[run] = {
                f.name: f.read_bytes() for f in sorted(out.iterdir())
            }
        assert outputs["first"] == outputs["second"]
        for name in (
            "sample.csv",
            "dichotomy.json",
            "trichotomy.json",
            "circles.json",
            "sample.svg",
            "verdict.txt",
        ):
            assert name in outputs["first"]
