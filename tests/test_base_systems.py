"""Base dynamics: rotations, odometers, doubled Cantor sets, symbolic words."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlemin.base_systems import (
    DOUBLING_HORIZON,
    GOLDEN,
    CircleAngle,
    LazyPoints,
    DoubledCode,
    SymbolicWord,
    TernaryCode,
    adding_machine,
    blown_up_odometer,
    circle_distance,
    circle_rotation,
    code_from_digits,
    coding_word,
    default_blowup_center,
    embed_code,
    _arc_intersect,
    _cell_arc,
    _digit_of,
    _word_arc,
    recurrence_horizon,
    sturmian,
    sturmian_fibre_codings,
)
from bundlemin.constructions import THEOREM_D_ROTATION
from bundlemin.errors import InvalidPoint, WrongInput
from reference_bases import doubled_cantor, quotient_base, sturmian_factor
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


def _bits(xs):
    """The floats xs as int64 bit patterns, so -0.0 and NaN compare exactly."""
    return np.array(xs, dtype=float).view(np.int64).tolist()


def _reference_angle_decode(tag):
    """The rotation's one-tag decode before tags were read in blocks."""
    head, _, rest = tag.partition(":")
    fields = rest.split(":")
    if head != "angle" or len(fields) != 1:
        raise InvalidPoint("not a angle: tag with 1 field(s)")
    return CircleAngle(float(fields[0]))


def _outcome(read):
    try:
        return "read", read()
    except (InvalidPoint, ValueError) as exc:
        return "refused", type(exc), str(exc)


class TestRotationReader:
    """The rotation's block tag reader is its decode and embedding."""

    @given(st.lists(st.floats() | st.sampled_from([-0.0, 0.0, 1.0, math.nan, 0.5]), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_equals_decode_and_embedding(self, thetas):
        bs = circle_rotation(GOLDEN)
        tags = [CircleAngle(t).tag() for t in thetas]
        points, embeddings = bs.read(tags)
        assert len(points) == len(tags)
        want = [_reference_angle_decode(tag) for tag in tags]
        assert _bits([p.theta for p in points]) == _bits([bs.decode(tag).theta for tag in tags]) \
            == _bits([p.theta for p in want])
        assert _bits(embeddings) == _bits([float(bs.embedding(p)) for p in want])

    def test_angle_one_embeds_at_zero(self):
        points, embeddings = circle_rotation(GOLDEN).read(["angle:1.0", "angle:-0.0"])
        assert _bits([p.theta for p in points]) == _bits([1.0, -0.0])
        assert _bits(embeddings) == _bits([0.0, 0.0])

    @pytest.mark.parametrize("tag", [
        "angle:xyz", "angle", "angle:", "angle:1:2", "angle::0.5", "angles:0.5", "ANGLE:0.5", "word:1:2",
        "", ":0.5", "angle:0x1p-3", "angle: 0.5 ", "angle:1_0", "angle:nan", "angle:-inf", "angle:0.5\n",
    ])
    def test_refuses_what_decode_refused(self, tag):
        bs = circle_rotation(GOLDEN)
        want = _outcome(lambda: _reference_angle_decode(tag))
        one = _outcome(lambda: bs.decode(tag))
        block = _outcome(lambda: bs.read(["angle:0.25", tag, "angle:0.5"]))
        if want[0] == "refused":
            assert one == block == want
        else:
            assert _bits([one[1].theta]) == _bits([want[1].theta])
            assert _bits([p.theta for p in block[1][0]]) == _bits([0.25, want[1].theta, 0.5])


class TestLazyPoints:
    def test_slice_of_a_walk(self):
        points = circle_rotation(0.3).walk(CircleAngle(0.1), 5)[0]
        assert isinstance(points, LazyPoints)
        assert list(points[1:3]) == list(points)[1:3]

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("sl", [
        slice(None), slice(1, 3), slice(None, None, 2), slice(None, None, -1), slice(5, 1, -2),
        slice(-3, None), slice(None, -2), slice(-1, -8, -3), slice(3, 3), slice(4, 1), slice(100, 200),
        slice(-100, 100, 3), slice(None, None, -100),
    ], ids=repr)
    def test_slice_is_the_list_slice(self, n, sl):
        lazy = LazyPoints(n, lambda i: CircleAngle(i / 8.0))
        full = list(lazy)
        assert len(full) == n
        for _ in range(2):
            # the slice, then the same slice of it
            lazy, full = lazy[sl], full[sl]
            assert isinstance(lazy, LazyPoints)
            assert len(lazy) == len(full) and list(lazy) == full
            # every index, the negative ones too
            assert [lazy[i] for i in range(-len(full), len(full))] == full + full
            with pytest.raises(IndexError):
                lazy[len(full)]

    @given(n=st.integers(0, 40), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_slice_of_a_slice(self, n, data):
        lazy = LazyPoints(n, lambda i: CircleAngle(i / 64.0))
        full = list(lazy)
        for _ in range(data.draw(st.integers(1, 3))):
            sl = data.draw(st.slices(len(full)))
            lazy, full = lazy[sl], full[sl]
            assert len(lazy) == len(full) and list(lazy) == full


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
    """The blown-up odometer's doubled backward orbit, past the identified
    first pair."""

    def test_default_center_valid(self):
        a = default_blowup_center(40)
        bs = blown_up_odometer(a)
        assert bs.params["a"] == a

    def test_rejects_endpoint_like_center(self):
        # all-zero tail looks like a removed-interval endpoint
        with pytest.raises(WrongInput, match="^center has a constant tail at this precision$"):
            blown_up_odometer(code_from_digits([2] + [0] * 39))

    def test_doubled_points_are_distinct_but_close(self):
        # the second pair, c_l's two preimages: the first is identified
        bs = blown_up_odometer()
        lo, hi = bs.preimages(bs.params["c_l"])
        assert (lo, hi) == (DoubledCode(lo.code, -1), DoubledCode(lo.code, +1))
        gap = bs.embedding(hi) - bs.embedding(lo)
        assert gap > 0.0
        assert gap < 1e-10

    def test_backward_orbit_tags_shift(self):
        bs = blown_up_odometer()
        a, K = bs.params["a"], bs.params["K"]
        second = TernaryCode((a.bits - 2) % (1 << K), K)
        pres = bs.preimages(bs.params["c_l"])
        assert pres == [DoubledCode(second, -1), DoubledCode(second, +1)]
        assert bs.preimages(bs.params["c_r"]) == pres
        assert bs.preimages(pres[1]) == [DoubledCode(TernaryCode((second.bits - 1) % (1 << K), K), +1)]

    def test_untagged_points_follow_odometer(self):
        bs = blown_up_odometer()
        am = adding_machine(bs.params["a"].K)
        x = DoubledCode(am.sampler(1)[0], 0)
        y = bs.apply(x)
        assert y.side == 0
        assert y.code == am.apply(x.code)

    def test_two_preimages_only_at_blowup_point(self):
        # before the identification (the reference's doubled base) a has
        # the doubled pair as its two preimages; in the blown-up odometer
        # both are c_l, which steps to a as the untagged a_-1 does, and the
        # two members of the second pair both step to c_l
        dc, bs = doubled_cantor(), blown_up_odometer()
        c_l, c_r = bs.params["c_l"], bs.params["c_r"]
        target = DoubledCode(bs.params["a"], 0)
        assert set(dc.preimages(target)) == {c_l, c_r}
        assert bs.preimages(target) == [DoubledCode(c_l.code, 0), c_l]
        assert bs.apply(c_l) == target
        assert bs.apply(c_r) == target
        second = bs.preimages(c_l)
        assert second == [DoubledCode(second[0].code, -1), DoubledCode(second[0].code, +1)]
        assert [bs.apply(x) for x in second] == [c_l, c_l]

    def test_backward_orbit_gaps_match_schedule(self):
        bs = blown_up_odometer()
        gaps = bs.params["gaps"]
        x, y = bs.params["c_l"], bs.params["c_r"]
        assert bs.embedding(y) == bs.embedding(x)
        x, y = bs.preimages(x)
        for j in range(1, 5):
            gap = bs.embedding(y) - bs.embedding(x)
            assert gap == pytest.approx(gaps[j], rel=1e-6)
            (x,), (y,) = bs.preimages(x), bs.preimages(y)

    def test_embedding_monotone_on_samples(self):
        bs = blown_up_odometer()
        pts = bs.sampler(64)
        order = sorted(pts, key=bs.embedding)
        for a, b in zip(order, order[1:]):
            assert bs.distance(a, b) > 0.0


class TestQuotient:
    def test_identified_pair_has_equal_embedding(self):
        q = blown_up_odometer()
        lo, hi = q.params["c_l"], q.params["c_r"]
        assert q.embedding(lo) == q.embedding(hi)
        assert q.distance(lo, hi) == 0.0

    def test_preimage_count_is_one_everywhere(self):
        q = blown_up_odometer()
        for x in q.sampler(32):
            assert len(q.preimages(x)) == 1

    def test_preimages_invert_apply(self):
        q = blown_up_odometer()
        for x in q.sampler(16):
            (y,) = q.preimages(x)
            assert q.distance(q.apply(y), x) == 0.0


def _two_try_arc_intersect(a, b):
    """``_arc_intersect`` as it was with a second try on the wrapped copy of
    b when the first is empty."""
    s1, l1 = a
    s2, l2 = b
    t = (s2 - s1) % 1.0
    lo = max(0.0, t if t < l1 else t - 1.0)
    hi = min(l1, (t + l2) if t < l1 else (t - 1.0 + l2))
    if hi <= lo:
        t2 = t - 1.0
        lo = max(0.0, t2)
        hi = min(l1, t2 + l2)
        if hi <= lo:
            return (s1, 0.0)
    return ((s1 + lo) % 1.0, hi - lo)


_TINY = st.sampled_from([0.0, 5e-324, 2.0**-1074 * 3, 2.0**-60, 2.0**-54, 2.0**-53, 2.0**-52, 1e-12])
#: arc starts in [0, 1), and arc lengths in [0, 1], both also a tiny step
#: from either end
_ARC_ENDS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True), _TINY, _TINY.map(lambda d: max(0.0, math.nextafter(1.0, 0.0) - d)))
_ARC_LENGTHS = st.one_of(st.floats(0.0, 1.0), _TINY, _TINY.map(lambda d: 1.0 - d))


class TestSturmian:
    def test_coding_word_matches_rotation(self):
        alpha = GOLDEN
        w = coding_word(0.2, alpha, 50)
        # digit n is 1 exactly when theta + n*alpha lands in [1 - alpha, 1)
        for n in range(50):
            t = (0.2 + n * alpha) % 1.0
            assert w.digit(n) == (1 if t >= 1.0 - alpha else 0)

    def test_factor_recovers_angle(self):
        w = coding_word(0.37, GOLDEN, 800)
        assert circle_distance(float(sturmian_factor(w, GOLDEN)), 0.37) < w.arc[1] + 1e-12
        assert w.arc[1] < 1e-2

    def test_shift_commutes_with_rotation(self):
        bs = sturmian(GOLDEN, precision=800)
        w = coding_word(0.61, GOLDEN, 800)
        lhs = float(sturmian_factor(bs.apply(w), GOLDEN))
        rhs = (float(sturmian_factor(w, GOLDEN)) + GOLDEN) % 1.0
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
        bs = sturmian(GOLDEN, precision=400)
        ws = bs.sampler(12)
        assert len(set(ws)) == 12

    @given(s1=_ARC_ENDS, l1=_ARC_LENGTHS, l2=_ARC_LENGTHS, data=st.data())
    @settings(max_examples=2000, deadline=None)
    def test_arc_intersect_needs_no_second_try(self, s1, l1, l2, data):
        # b starts anywhere, or a tiny step before a's start (so its offset
        # t from a is 1 or just below) or around a's end
        s2 = data.draw(st.one_of(_ARC_ENDS, *(
            _TINY.map(lambda d, at=at, sign=sign: (at + sign * d) % 1.0)
            for at in (s1, s1 + l1) for sign in (-1.0, 1.0))))
        got, want = _arc_intersect((s1, l1), (s2, l2)), _two_try_arc_intersect((s1, l1), (s2, l2))
        assert repr(got) == repr(want)


def _rotation_step(alpha):
    """The one-point rotation step, the reference its block walk is held to."""
    return lambda x: CircleAngle((x.theta + alpha) % 1.0)


def _sturmian_step(alpha, K):
    """The one-word Sturmian step, the reference its block walk is held to:
    the new digit is that of the word's arc midpoint K steps on, and the
    rotated arc is cut to that digit's cell, or kept whole where the cut
    is empty."""
    k_alpha = K * alpha
    cells = tuple(((c[0] - ((K - 1) * alpha) % 1.0) % 1.0, c[1]) for c in (_cell_arc(0, alpha), _cell_arc(1, alpha)))

    def step(w):
        s, l = w.arc if w.arc is not None else _word_arc(w.bits, w.K, alpha)
        new_digit = _digit_of((s + l / 2.0) % 1.0 + k_alpha, alpha)
        rotated = ((s + alpha) % 1.0, l)
        arc = _arc_intersect(rotated, cells[new_digit])
        return SymbolicWord((w.bits >> 1) | (new_digit << (K - 1)), K, arc if arc[1] > 0.0 else rotated)

    return step


def _assert_walk_is_iterated_step(bs, b, n, step):
    """``bs.walk(b, n)`` holds the points ``step`` and ``bs.apply`` reach
    from b, equal and with equal tags (words also with their arcs, bit for
    bit), and their embeddings bit for bit; the points read in any order."""
    points, embeds = bs.walk(b, n)
    assert len(points) == len(embeds) == n
    for one_step in (step, bs.apply):
        want, x = [], b
        for _ in range(n):
            x = one_step(x)
            want.append(x)
        got = [points[i] for i in reversed(range(n))][::-1]
        assert got == want and [p.tag() for p in got] == [p.tag() for p in want]
        if isinstance(b, SymbolicWord):
            assert [_bits(p.arc) for p in got] == [_bits(p.arc) for p in want]
        assert _bits(embeds) == _bits([float(bs.embedding(x)) for x in want])


#: rotation angles a few ulps inside the refusal floor 2^-52 at each end
_EDGE_ALPHAS = [2.0**-52 + k * math.ulp(2.0**-52) for k in range(3)] + [1.0 - k * 2.0**-53 for k in (2, 3, 4)]
_ALPHAS = st.one_of(st.floats(2.0**-52, 1.0 - 2.0**-52), st.sampled_from(_EDGE_ALPHAS))


class TestWalk:
    """Each base's block walk equals its one-point step iterated."""

    @given(alpha=_ALPHAS, seed=st.one_of(st.integers(0, 20), st.sampled_from(["angle:1.5", "angle:-0.25", "below"])),
           n=st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_rotation(self, alpha, seed, n):
        bs = circle_rotation(alpha)
        if seed == "below":
            # theta + alpha is a tiny negative sum, so the first angle is
            # 1.0 or just below it, and its embedding 0.0 or that angle
            seed = f"angle:{-(alpha + math.ulp(alpha))!r}"
        b = bs.sampler(seed + 1)[-1] if isinstance(seed, int) else bs.decode(seed)
        _assert_walk_is_iterated_step(bs, b, n, _rotation_step(alpha))

    @given(alpha=_ALPHAS, K=st.sampled_from([1, 2, 35, 36, 64, 1500]), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_sturmian(self, alpha, K, data):
        bs = sturmian(alpha, K)
        if data.draw(st.booleans()):
            b = bs.sampler(data.draw(st.integers(1, min(K + 1, 40))))[-1]
        else:
            # a decoded word carries no arc; most such words code no angle
            b = bs.decode(f"word:{data.draw(st.integers(0, 2**K - 1)):x}:{K}")
            assert b.arc is None
        n = data.draw(st.integers(0, 2 * K + 40 if K < 1500 else 200))
        _assert_walk_is_iterated_step(bs, b, n, _sturmian_step(alpha, K))

    def test_sturmian_collapsed_arc(self):
        # at alpha = 1 - 2^-52 the arc of the word 10 rotates off the cell
        # of the digit its midpoint gives, and the step keeps the rotated
        # arc whole
        alpha, K = 1.0 - 2.0**-52, 2
        bs = sturmian(alpha, K)
        w = bs.decode("word:1:2")
        s, l = _word_arc(w.bits, K, alpha)
        cells = [((c[0] - ((K - 1) * alpha) % 1.0) % 1.0, c[1]) for c in (_cell_arc(0, alpha), _cell_arc(1, alpha))]
        assert _arc_intersect(((s + alpha) % 1.0, l), cells[_digit_of((s + l / 2.0) % 1.0 + K * alpha, alpha)])[1] <= 0.0
        _assert_walk_is_iterated_step(bs, w, 5, _sturmian_step(alpha, K))

    def test_blown_up_odometer(self):
        bs, ref = blown_up_odometer(), quotient_base(doubled_cantor())
        for b in [*_doubled_points(bs), *bs.sampler(3)]:
            _assert_walk_is_iterated_step(bs, b, 16, ref.apply)


def _doubled_points(bs):
    """Every doubled backward point of a blown-up odometer, on both sides
    and untagged; the first pair is c_l and c_r."""
    a, K = bs.params["a"], bs.params["K"]
    back = [TernaryCode((a.bits - j) % (1 << K), K) for j in range(1, DOUBLING_HORIZON + 1)]
    return [DoubledCode(c, side) for c in back for side in (-1, 0, 1)]


@lru_cache(maxsize=None)
def _blown_up_and_reference(K):
    return blown_up_odometer(precision=K), quotient_base(doubled_cantor(precision=K))


def _decoded(bs, tag):
    """The point bs decodes from tag, or the type of the error it refuses it with."""
    try:
        return bs.decode(tag)
    except (InvalidPoint, ValueError) as e:
        return type(e)


class TestBlownUpOdometer:
    """``blown_up_odometer`` is the reference's doubled base quotiented:
    equal points, preimages and walks, bit-equal embeddings, and the same
    tags decoded and refused."""

    @given(K=st.sampled_from([25, 40, 63]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, K, data):
        bs, ref = _blown_up_and_reference(K)
        a, mod = bs.params["a"].bits, 1 << K
        x = data.draw(st.one_of(
            st.sampled_from(_doubled_points(bs)),
            # untagged codes just before a, whose walks cross it, and anywhere
            st.integers(-80, 0).map(lambda d: DoubledCode(TernaryCode((a + d) % mod, K), 0)),
            st.integers(0, mod - 1).map(lambda bits: DoubledCode(TernaryCode(bits, K), 0)),
        ))
        assert _bits([bs.embedding(x)]) == _bits([ref.embedding(x)])
        pres = bs.preimages(x)
        assert len(set(pres)) == len(pres) and set(pres) == ref.preimages(x)
        n = data.draw(st.integers(0, 64))
        (points, embeds), (want, want_embeds) = bs.walk(x, n), ref.walk(x, n)
        assert list(points) == want and _bits(embeds) == _bits(want_embeds)

    @given(K=st.sampled_from([25, 40, 63]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_decodes_the_reference_tags(self, K, data):
        bs, ref = _blown_up_and_reference(K)
        tag = data.draw(st.one_of(
            st.tuples(st.sampled_from(_doubled_points(bs)), st.integers(-2, 2)).map(
                lambda p: f"dcode:{p[0].code.bits:x}:{K}:{p[1]}"),
            st.tuples(st.integers(-1, 1 << (K + 1)), st.sampled_from([K - 1, K, K + 1]), st.integers(-2, 2)).map(
                lambda f: "dcode:{:x}:{}:{}".format(*f)),
            st.text(max_size=24),
        ))
        assert _decoded(bs, tag) == _decoded(ref, tag)


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
