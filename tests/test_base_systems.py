"""Base dynamics: rotations, odometers, doubled Cantor sets, symbolic words."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemin.base_systems import (
    GOLDEN,
    CircleAngle,
    DoubledCode,
    SymbolicWord,
    TernaryCode,
    adding_machine,
    circle_distance,
    circle_rotation,
    code_from_digits,
    coding_word,
    default_blowup_center,
    doubled_cantor,
    doubled_pair,
    embed_code,
    quotient_base,
    recurrence_horizon,
    sturmian,
    sturmian_fibre_codings,
)
from bundlemin.constructions import THEOREM_D_ROTATION
from bundlemin.errors import WrongInput
from weyl_rotation import _discrepancy_exact, weyl_minimal_rotation


class TestPointTypes:
    @pytest.mark.parametrize("point", [
        CircleAngle(0.25), TernaryCode(5, 3), DoubledCode(TernaryCode(5, 3), 1), SymbolicWord(5, 3, (0.1, 0.2)),
    ], ids=lambda p: type(p).__name__)
    def test_points_have_slots_only(self, point):
        # the orbit makes one point per step and the sample keeps one per
        # row: a per-instance dict nearly doubled their size
        assert not hasattr(point, "__dict__")


class TestCircleRotation:
    def test_apply(self):
        bs = circle_rotation(0.25)
        x = CircleAngle(0.9)
        assert float(bs.apply(x)) == pytest.approx(0.15)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("alpha", [2.0**-52, 1.0 - 2.0**-52], ids=["2^-52", "1-2^-52"])
    def test_angle_one_ulp_from_the_ends_moves_every_theta(self, alpha, theta):
        assert circle_rotation(alpha).apply(CircleAngle(theta)).theta != theta
        sturmian(alpha, 8)

    @pytest.mark.parametrize("make", [circle_rotation, lambda a: sturmian(a, 8)], ids=["rotation", "sturmian"])
    @pytest.mark.parametrize("alpha", [1e-300, 2.0**-53, 1.0 - 2.0**-53], ids=["1e-300", "2^-53", "1-2^-53"])
    def test_angle_nearer_the_ends_refused(self, make, alpha):
        with pytest.raises(WrongInput, match=r"within 2\^-52 of 0 or 1"):
            make(alpha)

    def test_angle_below_one_ulp_can_stand_still(self):
        # why the floor is 2^-52: a smaller step is lost in rounding
        assert (0.5 + 2.0**-54) % 1.0 == 0.5

    def test_metric_wraps(self):
        bs = circle_rotation(GOLDEN)
        assert bs.distance(CircleAngle(0.05), CircleAngle(0.95)) == pytest.approx(0.1)

    def test_preimages_invert(self):
        bs = circle_rotation(GOLDEN)
        x = CircleAngle(0.3)
        (y,) = bs.preimages(x)
        assert bs.distance(bs.apply(y), x) < 1e-12
        assert len(bs.preimages(x)) == 1

    def test_sampler_is_orbit(self):
        bs = circle_rotation(GOLDEN)
        xs = bs.sampler(5)
        for a, b in zip(xs, xs[1:]):
            assert bs.distance(bs.apply(a), b) < 1e-12

    @given(t=st.floats(0.0, 1.0), n=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_rotation_is_isometry(self, t, n):
        bs = circle_rotation(GOLDEN)
        x, y = CircleAngle(t), CircleAngle((t + 0.3) % 1.0)
        d0 = bs.distance(x, y)
        for _ in range(n):
            x, y = bs.apply(x), bs.apply(y)
        assert bs.distance(x, y) == pytest.approx(d0, abs=1e-9)


class TestAddingMachine:
    def test_single_increment(self):
        bs = adding_machine(8)
        x = code_from_digits([0] * 8)
        y = bs.apply(x)
        assert y.digits() == (2, 0, 0, 0, 0, 0, 0, 0)

    def test_carry_propagates(self):
        bs = adding_machine(4)
        x = code_from_digits([2, 2, 0, 0])
        y = bs.apply(x)
        assert y.digits() == (0, 0, 2, 0)

    def test_full_cycle(self):
        bs = adding_machine(4)
        x = code_from_digits([0, 0, 0, 0])
        seen = {x}
        y = x
        for _ in range(2**4 - 1):
            y = bs.apply(y)
            seen.add(y)
        assert len(seen) == 2**4
        assert bs.apply(y) == x

    def test_embedding_respects_metric(self):
        bs = adding_machine(12)
        x = code_from_digits([0, 2, 0, 2] + [0] * 8)
        y = code_from_digits([0, 2, 0, 0] + [0] * 8)
        # single digit difference of 2 at index 3 -> metric 2 * 3^-4
        assert bs.distance(x, y) == pytest.approx(2.0 * 3.0**-4)
        assert abs(bs.embedding(x) - bs.embedding(y)) == pytest.approx(bs.distance(x, y))

    def test_embed_code_is_ternary_sum(self):
        c = code_from_digits([2, 0, 2])
        assert embed_code(c) == pytest.approx(2 / 3 + 2 / 27)

    def test_minimality_small_case(self):
        # every cylinder of depth 3 is visited within 8 steps from anywhere
        bs = adding_machine(6)
        x = code_from_digits([2, 0, 2, 0, 0, 2])
        visited = set()
        y = x
        for _ in range(8):
            visited.add(y.digits()[:3])
            y = bs.apply(y)
        assert len(visited) == 8

    @given(bits=st.integers(0, 2**10 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_is_bijective_increment(self, bits):
        bs = adding_machine(10)
        x = TernaryCode(bits, 10)
        y = bs.apply(x)
        assert y.bits == (bits + 1) % 2**10


class TestRecurrenceHorizon:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_exact_powers(self, k):
        bs = adding_machine(40)
        x0 = bs.sampler(1)[0]
        assert recurrence_horizon(bs, x0, 3.0 ** (-k), 10_000) == 2**k


class TestDoubledCantor:
    def test_default_center_valid(self):
        a = default_blowup_center(40)
        bs = doubled_cantor(a)
        assert bs.params["a"] == a

    def test_rejects_endpoint_like_center(self):
        # all-zero tail looks like a removed-interval endpoint
        with pytest.raises(WrongInput, match="^center has a constant tail at this precision$"):
            doubled_cantor(code_from_digits([2] + [0] * 39))

    def test_doubled_points_are_distinct_but_close(self):
        bs = doubled_cantor()
        lo, hi = doubled_pair(bs)
        assert lo.side == -1 and hi.side == +1
        gap = bs.embedding(hi) - bs.embedding(lo)
        assert gap > 0.0
        assert gap < 1e-10

    def test_backward_orbit_tags_shift(self):
        bs = doubled_cantor()
        lo, _ = doubled_pair(bs)
        pres = bs.preimages(lo)
        assert len(pres) == 1
        assert pres[0].side == -1

    def test_untagged_points_follow_odometer(self):
        bs = doubled_cantor()
        am = adding_machine(bs.params["a"].K)
        x = DoubledCode(am.sampler(1)[0], 0)
        y = bs.apply(x)
        assert y.side == 0
        assert y.code == am.apply(x.code)

    def test_two_preimages_only_at_blowup_point(self):
        bs = doubled_cantor()
        lo, hi = doubled_pair(bs)
        target = DoubledCode(bs.params["a"], 0)
        assert len(bs.preimages(target)) == 2
        assert set(bs.preimages(target)) == {lo, hi}
        assert bs.apply(lo) == target
        assert bs.apply(hi) == target
        assert len(bs.preimages(lo)) == 1

    def test_backward_orbit_gaps_match_schedule(self):
        bs = doubled_cantor()
        lo, hi = doubled_pair(bs)
        gaps = bs.params["gaps"]
        x, y = lo, hi
        gap = bs.embedding(y) - bs.embedding(x)
        assert gap == pytest.approx(gaps[0], rel=1e-6)
        for j in range(1, 5):
            (x,) = bs.preimages(x)
            (y,) = bs.preimages(y)
            gap = bs.embedding(y) - bs.embedding(x)
            assert gap == pytest.approx(gaps[j], rel=1e-6)

    def test_embedding_monotone_on_samples(self):
        bs = doubled_cantor()
        pts = bs.sampler(64)
        order = sorted(pts, key=bs.embedding)
        for a, b in zip(order, order[1:]):
            assert bs.distance(a, b) > 0.0


class TestQuotient:
    def test_identified_pair_has_equal_embedding(self):
        dc = doubled_cantor()
        q = quotient_base(dc)
        lo, hi = q.params["c_l"], q.params["c_r"]
        assert q.embedding(lo) == pytest.approx(q.embedding(hi), abs=1e-12)
        assert q.distance(lo, hi) == 0.0

    def test_preimage_count_is_one_everywhere(self):
        dc = doubled_cantor()
        q = quotient_base(dc)
        for x in q.sampler(32):
            assert len(q.preimages(x)) == 1

    def test_preimages_invert_apply(self):
        dc = doubled_cantor()
        q = quotient_base(dc)
        for x in q.sampler(16):
            (y,) = q.preimages(x)
            assert q.distance(q.apply(y), x) == 0.0


class TestSturmian:
    def test_coding_word_matches_rotation(self):
        alpha = GOLDEN
        w = coding_word(0.2, alpha, 50)
        # digit n is 1 exactly when theta + n*alpha lands in [1 - alpha, 1)
        for n in range(50):
            t = (0.2 + n * alpha) % 1.0
            assert w.digit(n) == (1 if t >= 1.0 - alpha else 0)

    def test_factor_recovers_angle(self):
        bs, factor = sturmian(GOLDEN, precision=800)
        w = coding_word(0.37, GOLDEN, 800)
        assert circle_distance(float(factor(w)), 0.37) < w.arc[1] + 1e-12
        assert w.arc[1] < 1e-2

    def test_shift_commutes_with_rotation(self):
        bs, factor = sturmian(GOLDEN, precision=800)
        w = coding_word(0.61, GOLDEN, 800)
        lhs = float(factor(bs.apply(w)))
        rhs = (float(factor(w)) + GOLDEN) % 1.0
        assert circle_distance(lhs, rhs) < 2 * w.arc[1] + 1e-12

    def test_generic_point_single_coding(self):
        words = sturmian_fibre_codings(GOLDEN, 0.2, 300)
        assert len(words) == 1

    def test_boundary_point_double_coding(self):
        # theta on the coding-cell boundary has two limit codings
        words = sturmian_fibre_codings(GOLDEN, 1.0 - GOLDEN, 300)
        assert len(words) == 2
        assert words[0] != words[1]

    def test_sampler_words_distinct(self):
        bs, _ = sturmian(GOLDEN, precision=400)
        ws = bs.sampler(12)
        assert len(set(ws)) == 12


class TestDiscrepancy:
    """The exact star discrepancy the rotation search ranks candidates by."""

    def test_uniform_grid_is_small(self):
        # (i + 0.5) / 1000 = (2i + 1) / 2000
        assert _discrepancy_exact([2 * i + 1 for i in range(1000)], 2000) < 2e-3

    def test_clustered_is_large(self):
        assert _discrepancy_exact([1] * 100, 10) > 0.8

    def test_golden_rotation_low_discrepancy(self):
        # these floats are whole multiples of 2^-64, so the numerators are exact
        den = 1 << 64
        nums = [int(Fraction((i * GOLDEN) % 1.0) * den) for i in range(1000)]
        assert _discrepancy_exact(nums, den) < 0.02


class TestWeylSearch:
    def test_linear_times_finds_sqrt2(self):
        alpha = weyl_minimal_rotation([k for k in range(1, 1001)], K=1000, tol=0.02)
        assert isinstance(alpha, Fraction)
        assert abs(float(alpha) - (math.sqrt(2.0) - 1.0)) < 1e-6

    def test_rederives_the_theorem_d_rotation_bit_for_bit(self):
        # the declared constant is the search's answer along the odometer's
        # return times 2, ..., 2^200, a 281-bit dyadic rounded to a float
        alpha = weyl_minimal_rotation([2 ** k for k in range(1, 201)], K=200, tol=0.05)
        assert alpha.denominator == 1 << 281
        assert float(alpha).hex() == THEOREM_D_ROTATION.hex()

    def test_impossible_tolerance_exhausts(self):
        with pytest.raises(WrongInput, match="^no candidate of 3 reached discrepancy 1e-09 at K=3$"):
            weyl_minimal_rotation([1, 2, 3], K=3, tol=1e-9, budget=3)
