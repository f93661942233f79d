"""Minimal base dynamical systems: circle rotations, the dyadic adding machine
on the ternary Cantor set, its blow-up with a doubled backward orbit, the
quotient base identifying the doubled pair, Sturmian codings, and an
equidistribution-driven rotation-angle search.

Coded points carry a finite precision K; all comparisons happen at that
precision.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import (
    BadBlowupCenter,
    EmptyInput,
    InvalidPoint,
    OutOfRange,
    SearchExhausted,
    WrongInput,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # fractional part of the golden ratio


# ---------------------------------------------------------------------------
# point types


@dataclass(frozen=True)
class CircleAngle:
    theta: float  # in [0, 1)

    def __float__(self) -> float:
        return self.theta % 1.0


@dataclass(frozen=True)
class TernaryCode:
    """Finite-precision code over digits {0, 2}.

    Digit i (1-based) is 2 when bit (i-1) of ``bits`` is set; the embedded
    real is sum(d_i 3^-i).
    """

    bits: int
    K: int

    def digit(self, i: int) -> int:
        return 2 * ((self.bits >> (i - 1)) & 1)

    def digits(self) -> tuple[int, ...]:
        return tuple(self.digit(i) for i in range(1, self.K + 1))


def code_from_digits(digits: Sequence[int], K: int | None = None) -> TernaryCode:
    K = K if K is not None else len(digits)
    bits = 0
    for i, d in enumerate(digits):
        if d not in (0, 2):
            raise InvalidPoint(f"digit {d} outside {{0, 2}}")
        if d == 2:
            bits |= 1 << i
    return TernaryCode(bits, K)


@lru_cache(maxsize=65536)
def _embed_code(bits: int, K: int) -> float:
    e = 0.0
    w = 1.0
    for i in range(K):
        w /= 3.0
        if (bits >> i) & 1:
            e += 2.0 * w
    return e


def embed_code(c: TernaryCode) -> float:
    return _embed_code(c.bits, c.K)


@dataclass(frozen=True)
class DoubledCode:
    """A ternary code with a side tag; tags mark the doubled backward orbit."""

    code: TernaryCode
    side: int = 0  # -1 | 0 | +1


@dataclass(frozen=True)
class SymbolicWord:
    """Finite binary coding word with a cached admissible angle arc.

    The arc (start, length on the circle) collects the angles whose coding
    matches the word; it is excluded from equality and hashing.
    """

    bits: int
    K: int
    arc: tuple[float, float] | None = field(default=None, compare=False, hash=False)

    def digit(self, n: int) -> int:
        return (self.bits >> n) & 1


@dataclass(frozen=True)
class PeriodicIndex:
    i: int
    q: int


BasePoint = CircleAngle | TernaryCode | DoubledCode | SymbolicWord | PeriodicIndex


# ---------------------------------------------------------------------------
# the system record


@dataclass(frozen=True)
class BaseSystem:
    """A minimal base system packaged as pure callables.

    ``point_type`` is the one point class the callables take.
    ``preimages`` is optional backward dynamics used by the homeo-part
    filter in the analysis layer.  ``circular`` marks an embedding that is
    an angle mod 1, in [0, 1], so base distances wrap around.
    """

    id: str
    point_type: type
    apply: Callable[[BasePoint], BasePoint]
    metric: Callable[[BasePoint, BasePoint], float]
    sampler: Callable[[int], list[BasePoint]]
    embedding: Callable[[BasePoint], float]
    preimages: Optional[Callable[[BasePoint], list[BasePoint]]] = None
    params: dict = field(default_factory=dict, compare=False)
    circular: bool = False

    def preimage_count(self, x: BasePoint) -> int:
        return len(self.preimages(x))


# ---------------------------------------------------------------------------
# circle rotation


def circle_distance(a: float, b: float) -> float:
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def circle_rotation(alpha: float) -> BaseSystem:
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"rotation angle {alpha} outside (0, 1)")

    def apply(x: CircleAngle) -> CircleAngle:
        return CircleAngle((x.theta + alpha) % 1.0)

    def metric(x: CircleAngle, y: CircleAngle) -> float:
        return circle_distance(x.theta, y.theta)

    def sampler(n: int) -> list[CircleAngle]:
        return [CircleAngle((0.0123456789 + i * GOLDEN) % 1.0) for i in range(n)]

    def preimages(x: CircleAngle) -> list[CircleAngle]:
        return [CircleAngle((x.theta - alpha) % 1.0)]

    return BaseSystem(
        id=f"rotation({alpha})",
        point_type=CircleAngle,
        apply=apply,
        metric=metric,
        sampler=sampler,
        embedding=lambda x: x.theta % 1.0,
        preimages=preimages,
        params={"alpha": alpha},
        circular=True,
    )


def periodic_orbit(q: int) -> BaseSystem:
    if q < 1:
        raise OutOfRange("period must be >= 1")

    def metric(x: PeriodicIndex, y: PeriodicIndex) -> float:
        d = abs(x.i - y.i) % q
        return min(d, q - d) / q

    return BaseSystem(
        id=f"periodic({q})",
        point_type=PeriodicIndex,
        apply=lambda x: PeriodicIndex((x.i + 1) % q, q),
        metric=metric,
        sampler=lambda n: [PeriodicIndex(i % q, q) for i in range(min(n, q))],
        embedding=lambda x: x.i / q,
        preimages=lambda x: [PeriodicIndex((x.i - 1) % q, q)],
        params={"q": q},
    )


# ---------------------------------------------------------------------------
# adding machine (dyadic odometer on the ternary Cantor set)


def adding_machine(precision: int = 40) -> BaseSystem:
    if precision < 1:
        raise OutOfRange("precision must be >= 1")
    K = precision
    mod = 1 << K

    def apply(x: TernaryCode) -> TernaryCode:
        return TernaryCode((x.bits + 1) % mod, K)

    def metric(x: TernaryCode, y: TernaryCode) -> float:
        return abs(embed_code(x) - embed_code(y))

    def sampler(n: int) -> list[TernaryCode]:
        return [TernaryCode(i % mod, K) for i in range(min(n, mod))]

    return BaseSystem(
        id=f"odometer(K={K})",
        point_type=TernaryCode,
        apply=apply,
        metric=metric,
        sampler=sampler,
        embedding=embed_code,
        preimages=lambda x: [TernaryCode((x.bits - 1) % mod, K)],
        params={"K": K},
    )


def default_blowup_center(K: int = 40) -> TernaryCode:
    """Code with 2s at positions 2, 5, 9, 14, ... (gaps grow by one).

    The tail is never eventually constant, so the point is not an endpoint
    of a removed interval at any precision.
    """
    bits = 0
    pos, step = 2, 3
    while pos <= K:
        bits |= 1 << (pos - 1)
        pos += step
        step += 1
    return TernaryCode(bits, K)


def _is_endpoint_like(a: TernaryCode) -> bool:
    """Constant tail from some index <= K/2 marks a removed-interval endpoint."""
    digs = a.digits()
    half = max(1, a.K // 2)
    for j in range(half):
        tail = digs[j:]
        if all(d == tail[0] for d in tail):
            return True
    return False


def _gap_widths(a: TernaryCode, horizon: int, mod: int) -> list[float]:
    """Default inserted-gap lengths L_{-j} = 4^-j * nearest removed-interval width."""
    out = []
    for j in range(1, horizon + 1):
        aj = TernaryCode((a.bits - j) % mod, a.K)
        out.append((0.25 ** j) * _nearest_gap_width(aj))
    return out


def _nearest_gap_width(a: TernaryCode) -> float:
    """Width of the removed ternary interval closest to the embedded point."""
    x = embed_code(a)
    best_d, best_w = math.inf, 1.0 / 3.0
    prefix = 0.0
    w = 1.0
    for j in range(1, a.K + 1):
        w /= 3.0
        lo = prefix + w
        hi = prefix + 2.0 * w
        d = max(0.0, lo - x, x - hi)
        if d < best_d:
            best_d, best_w = d, w
        if a.digit(j) == 2:
            prefix += 2.0 * w
    return best_w


#: how many backward-orbit points carry explicit side tags
DOUBLING_HORIZON = 12


def doubled_cantor(
    a: TernaryCode | None = None,
    gaps: Sequence[float] | None = None,
    precision: int = 40,
) -> BaseSystem:
    """Adding machine with the backward orbit of ``a`` doubled.

    Backward-orbit points a_{-j} (j up to DOUBLING_HORIZON) are replaced by
    side-tagged pairs separated by a gap of length L_{-j} in the embedding;
    both members of the first pair map to ``a``, deeper pairs shift one step
    forward keeping their tag. Untagged codes always follow the plain
    odometer.
    """
    K = precision
    if a is None:
        a = default_blowup_center(K)
    if a.K != K:
        raise BadBlowupCenter("center precision does not match system precision")
    if _is_endpoint_like(a):
        raise BadBlowupCenter("center has a constant tail at this precision")
    mod = 1 << K
    J = DOUBLING_HORIZON
    if gaps is None:
        L = _gap_widths(a, J, mod)
    else:
        L = [float(g) for g in gaps[:J]]
        if len(L) < J or any(g <= 0 for g in L):
            raise BadBlowupCenter(f"need {J} positive gap lengths")
    back_codes = {((a.bits - j) % mod): j for j in range(1, J + 1)}
    back_embed = sorted(
        (embed_code(TernaryCode((a.bits - j) % mod, K)), j) for j in range(1, J + 1)
    )

    def shifted_embed(e0: float) -> float:
        # gap inserted at a_{-j} pushes everything strictly to its right
        s = e0
        for ej, j in back_embed:
            if ej < e0:
                s += L[j - 1]
            else:
                break
        return s

    def embedding(x: DoubledCode) -> float:
        e = shifted_embed(embed_code(x.code))
        if x.side > 0:
            j = back_codes.get(x.code.bits)
            if j is None:
                raise InvalidPoint("side tag off the doubled backward orbit")
            e += L[j - 1]
        return e

    def validate(x: DoubledCode) -> int | None:
        j = back_codes.get(x.code.bits)
        if x.side != 0 and j is None:
            raise InvalidPoint("side tag off the doubled backward orbit")
        return j

    def apply(x: DoubledCode) -> DoubledCode:
        j = validate(x)
        if x.side != 0:
            if j == 1:
                return DoubledCode(a, 0)
            return DoubledCode(TernaryCode((x.code.bits + 1) % mod, K), x.side)
        return DoubledCode(TernaryCode((x.code.bits + 1) % mod, K), 0)

    def preimages(x: DoubledCode) -> list[DoubledCode]:
        j = validate(x)
        prev = TernaryCode((x.code.bits - 1) % mod, K)
        if x.side == 0 and x.code.bits == a.bits:
            return [DoubledCode(prev, -1), DoubledCode(prev, +1)]
        if x.side != 0:
            if j == J:
                return [DoubledCode(prev, 0)]
            return [DoubledCode(prev, x.side)]
        return [DoubledCode(prev, 0)]

    def metric(x: DoubledCode, y: DoubledCode) -> float:
        return abs(embedding(x) - embedding(y))

    def sampler(n: int) -> list[DoubledCode]:
        return [DoubledCode(TernaryCode(i % mod, K), 0) for i in range(min(n, mod))]

    return BaseSystem(
        id=f"doubled-cantor(K={K})",
        point_type=DoubledCode,
        apply=apply,
        metric=metric,
        sampler=sampler,
        embedding=embedding,
        preimages=preimages,
        params={"K": K, "a": a, "gaps": tuple(L), "horizon": J},
    )


def doubled_pair(dc: BaseSystem) -> tuple[DoubledCode, DoubledCode]:
    """The first doubled pair (c_l, c_r) of a doubled-Cantor system."""
    a: TernaryCode = dc.params["a"]
    K: int = dc.params["K"]
    prev = TernaryCode((a.bits - 1) % (1 << K), K)
    return DoubledCode(prev, -1), DoubledCode(prev, +1)


def quotient_base(dc: BaseSystem) -> BaseSystem:
    """Identify the first doubled pair and close up the embedding gap.

    Everything at or right of c_r is translated left by the first gap
    length, making the identified point a genuine single point of the
    quotient; c_l is the canonical representative.
    """
    if not {"a", "K", "gaps"} <= dc.params.keys():
        raise WrongInput("quotient_base expects a doubled-Cantor system")
    c_l, c_r = doubled_pair(dc)
    L1 = dc.params["gaps"][0]
    e_r = dc.embedding(c_r)

    def canonical(x: DoubledCode) -> DoubledCode:
        return c_l if x == c_r else x

    def apply(x: DoubledCode) -> DoubledCode:
        return canonical(dc.apply(canonical(x)))

    def embedding(x: DoubledCode) -> float:
        e = dc.embedding(canonical(x))
        return e - L1 if e >= e_r - 1e-15 else e

    def metric(x: DoubledCode, y: DoubledCode) -> float:
        return abs(embedding(x) - embedding(y))

    a: TernaryCode = dc.params["a"]

    def preimages(x: DoubledCode) -> list[DoubledCode]:
        if x.side == 0 and x.code.bits == a.bits:
            return [c_l]
        pres = dc.preimages(canonical(x))
        return [canonical(p) for p in pres]

    def sampler(n: int) -> list[DoubledCode]:
        return [canonical(p) for p in dc.sampler(n)]

    return BaseSystem(
        id=f"quotient({dc.id})",
        point_type=dc.point_type,
        apply=apply,
        metric=metric,
        sampler=sampler,
        embedding=embedding,
        preimages=preimages,
        params={**dc.params, "c_l": c_l, "c_r": c_r},
    )


# ---------------------------------------------------------------------------
# Sturmian coding of an irrational rotation


def _arc_intersect(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Intersection of two circle arcs (start, length), assumed nonempty and
    returning the component containing the overlap nearest a's start."""
    s1, l1 = a
    s2, l2 = b
    # shift so a starts at 0
    t = (s2 - s1) % 1.0
    lo = max(0.0, t if t < l1 else t - 1.0)
    hi = min(l1, (t + l2) if t < l1 else (t - 1.0 + l2))
    if hi <= lo:
        # try the wrapped copy of b
        t2 = t - 1.0
        lo = max(0.0, t2)
        hi = min(l1, t2 + l2)
        if hi <= lo:
            return (s1, 0.0)
    return ((s1 + lo) % 1.0, hi - lo)


def _cell_arc(digit: int, alpha: float) -> tuple[float, float]:
    # coding cell: digit 1 <-> [1 - alpha, 1), digit 0 <-> [0, 1 - alpha)
    return (1.0 - alpha, alpha) if digit else (0.0, 1.0 - alpha)


def _digit_of(theta: float, alpha: float) -> int:
    return 1 if (theta % 1.0) >= 1.0 - alpha else 0


DEFAULT_STURMIAN_K = 1500


def coding_word(theta: float, alpha: float, K: int) -> SymbolicWord:
    """Length-K coding of theta under the rotation, with its admissible arc."""
    bits = 0
    t = theta % 1.0
    for n in range(K):
        d = _digit_of(t, alpha)
        if d:
            bits |= 1 << n
        t = (t + alpha) % 1.0
    return SymbolicWord(bits, K, _word_arc(bits, K, alpha, hint=theta))


def _word_arc(bits: int, K: int, alpha: float, hint: float | None = None) -> tuple[float, float]:
    arc = (0.0, 1.0)
    shift = 0.0
    for n in range(K):
        cell = _cell_arc((bits >> n) & 1, alpha)
        # constraint on theta: theta + n*alpha in cell  <=>  theta in cell - n*alpha
        c = ((cell[0] - shift) % 1.0, cell[1])
        arc = _arc_intersect(arc, c)
        if arc[1] <= 0.0:
            # numerically empty; fall back to hint or collapse
            centre = hint % 1.0 if hint is not None else arc[0]
            return (centre - 1e-12, 2e-12)
        shift = (shift + alpha) % 1.0
    return arc


def word_precision(w: SymbolicWord) -> float:
    return w.arc[1] if w.arc is not None else 1.0


def word_embedding(w: SymbolicWord) -> float:
    """Cantor-style coordinate of a coding word, read from its first 35 digits.

    Memoised on those digits alone: the words of a Sturmian subshift have
    only n + 1 distinct prefixes of length n.
    """
    m = min(w.K, 35)
    return _embed_code(w.bits & ((1 << m) - 1), m)


def sturmian(alpha: float, precision: int = DEFAULT_STURMIAN_K):
    """Sturmian base system plus the factor map onto the rotation.

    Returns (BaseSystem, factor) where factor(word) is the CircleAngle the
    word codes, recovered as the midpoint of the word's admissible arc.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"rotation angle {alpha} outside (0, 1)")
    if precision < 1:
        raise OutOfRange("precision must be >= 1")
    K = precision
    k_alpha = K * alpha
    # the coding cell of each new digit, shifted back to the word's start
    shifted_cells = tuple(
        ((cell[0] - ((K - 1) * alpha) % 1.0) % 1.0, cell[1])
        for cell in (_cell_arc(0, alpha), _cell_arc(1, alpha))
    )

    def ensure_arc(w: SymbolicWord) -> SymbolicWord:
        if w.arc is None:
            return SymbolicWord(w.bits, w.K, _word_arc(w.bits, w.K, alpha))
        return w

    def factor(w: SymbolicWord) -> CircleAngle:
        w = ensure_arc(w)
        s, l = w.arc
        return CircleAngle((s + l / 2.0) % 1.0)

    def apply(w: SymbolicWord) -> SymbolicWord:
        w = ensure_arc(w)
        s, l = w.arc
        theta = (s + l / 2.0) % 1.0
        new_digit = _digit_of(theta + k_alpha, alpha)
        bits = (w.bits >> 1) | (new_digit << (K - 1))
        rotated = ((s + alpha) % 1.0, l)
        arc = _arc_intersect(rotated, shifted_cells[new_digit])
        if arc[1] <= 0.0:
            arc = rotated
        return SymbolicWord(bits, K, arc)

    def metric(x: SymbolicWord, y: SymbolicWord) -> float:
        diff = x.bits ^ y.bits
        if diff == 0:
            return 0.0
        m = (diff & -diff).bit_length() - 1
        return 3.0 ** (-m)

    def sampler(n: int) -> list[SymbolicWord]:
        out: list[SymbolicWord] = []
        seen: set[int] = set()
        i = 0
        while len(out) < n and i < 16 * n + 64:
            w = coding_word((0.2 + i * GOLDEN) % 1.0, alpha, K)
            if w.bits not in seen:
                seen.add(w.bits)
                out.append(w)
            i += 1
        return out

    bs = BaseSystem(
        id=f"sturmian(alpha={alpha},K={K})",
        point_type=SymbolicWord,
        apply=apply,
        metric=metric,
        sampler=sampler,
        embedding=word_embedding,
        params={"alpha": alpha, "K": K},
    )
    return bs, factor


def sturmian_fibre_codings(
    alpha: float, theta: float, K: int, boundary_tol: float = 1e-9
) -> list[SymbolicWord]:
    """The one or two coding words over a rotation point.

    Two words appear exactly when the forward orbit of theta hits a coding
    boundary (0 or 1 - alpha) within K steps, resolved as left and right
    limit codings.
    """
    t = theta % 1.0
    hits = False
    bits_l = bits_r = 0
    for n in range(K):
        near0 = min(t, 1.0 - t) < boundary_tol
        near_b = abs(t - (1.0 - alpha)) < boundary_tol
        if near0 or near_b:
            hits = True
            # left limit: just below the boundary; right limit: at/above it
            dl = 0 if near_b else 1
            dr = 1 if near_b else 0
        else:
            dl = dr = _digit_of(t, alpha)
        bits_l |= dl << n
        bits_r |= dr << n
        t = (t + alpha) % 1.0
    wl = SymbolicWord(bits_l, K, None)
    if not hits or bits_l == bits_r:
        return [wl]
    return [wl, SymbolicWord(bits_r, K, None)]


# ---------------------------------------------------------------------------
# Weyl-based selection of a rotation angle


def star_discrepancy(values: Sequence[float]) -> float:
    """Exact star discrepancy of a finite sequence of angles mod 1."""
    if not values:
        raise EmptyInput("discrepancy of an empty sequence")
    u = sorted(v % 1.0 for v in values)
    K = len(u)
    d = 0.0
    for i, ui in enumerate(u, start=1):
        d = max(d, i / K - ui, ui - (i - 1) / K)
    return d


def _discrepancy_exact(numerators: list[int], den: int) -> Fraction:
    """Star discrepancy of {num/den} given exactly as a fraction."""
    nums = sorted(numerators)
    K = len(nums)
    best_num = 0  # over common denominator K * den
    for i, v in enumerate(nums, start=1):
        best_num = max(best_num, i * den - K * v, K * v - (i - 1) * den)
    return Fraction(best_num, K * den)


def _isqrt_frac_bits(p: int, B: int) -> int:
    """First B fractional bits of sqrt(p) as an integer (floor truncation)."""
    s = math.isqrt(p << (2 * B))
    return s % (1 << B)


def weyl_minimal_rotation(
    n_seq: Sequence[int], K: int, tol: float, budget: int = 300
) -> Fraction:
    """A rotation angle equidistributed along the given integer sequence.

    Candidates are quadratic-irrational truncations followed by seeded
    pseudo-random dyadics; the first whose exact star discrepancy over
    {alpha * n_k} for k <= K is below tol wins. The return value is an exact
    dyadic Fraction so callers can re-verify the discrepancy independently.
    """
    n_seq = list(n_seq)
    if any(b >= c for b, c in zip(n_seq, n_seq[1:])):
        raise OutOfRange("sequence must be strictly increasing")
    if K > len(n_seq):
        raise OutOfRange("K exceeds the sequence length")
    ns = n_seq[:K]
    B = max(x.bit_length() for x in ns) + 80
    den = 1 << B
    tol_f = Fraction(tol).limit_denominator(10**12)

    def candidates():
        count = 0
        # quadratic irrationals first
        p = 2
        while count < budget // 2:
            # skip perfect squares
            r = math.isqrt(p)
            if r * r != p:
                yield _isqrt_frac_bits(p, B)
                count += 1
            p += 1
        rng = random.Random(20240101)
        while count < budget:
            yield rng.getrandbits(B) | 1
            count += 1

    for A in candidates():
        if A == 0:
            continue
        numerators = [(A * n) % den for n in ns]
        if _discrepancy_exact(numerators, den) < tol_f:
            return Fraction(A, den)
    raise SearchExhausted(
        f"no candidate of {budget} reached discrepancy {tol} at K={K}"
    )


# ---------------------------------------------------------------------------
# recurrence


def recurrence_horizon(
    bs: BaseSystem,
    x0: BasePoint,
    delta: float,
    max_steps: int,
    ref_size: int = 512,
) -> int | None:
    """Smallest N with the first N orbit points a delta-net of a reference
    sample, or None when max_steps is not enough."""
    if delta <= 0:
        raise OutOfRange("delta must be positive")
    refs = bs.sampler(ref_size)
    uncovered = list(range(len(refs)))
    x = x0
    for step in range(1, max_steps + 1):
        still = [i for i in uncovered if bs.metric(refs[i], x) > delta]
        uncovered = still
        if not uncovered:
            return step
        x = bs.apply(x)
    return None
