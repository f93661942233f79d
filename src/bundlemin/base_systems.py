"""Minimal base dynamical systems: circle rotations, the dyadic adding machine
on the ternary Cantor set, the blown-up odometer (its backward orbit of one
point doubled, the first doubled pair identified), and Sturmian codings.

Coded points carry a finite precision K; all comparisons happen at that
precision. Each point writes its own ``sample.csv`` tag (``tag()``), and
each base decodes and fully checks its own tags (``BaseSystem.decode``), so
the orbit path checks nothing only a file can get wrong.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .errors import InvalidPoint, WrongInput

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # fractional part of the golden ratio


# ---------------------------------------------------------------------------
# point types


@dataclass(frozen=True, slots=True)
class CircleAngle:
    theta: float  # in [0, 1)

    def __float__(self) -> float:
        return self.theta % 1.0

    def tag(self) -> str:
        return f"angle:{self.theta!r}"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class DoubledCode:
    """A ternary code with a side tag; tags mark the doubled backward orbit."""

    code: TernaryCode
    side: int = 0  # -1 | 0 | +1

    def tag(self) -> str:
        return f"dcode:{self.code.bits:x}:{self.code.K}:{self.side}"


@dataclass(frozen=True, slots=True)
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

    def tag(self) -> str:
        return f"word:{self.bits:x}:{self.K}"


BasePoint = CircleAngle | TernaryCode | DoubledCode | SymbolicWord


class LazyPoints(Sequence):
    """n base points, point i built by ``make(i)`` each time it is read, so
    a walk builds only the points its caller reads; so does a slice."""

    __slots__ = ("_n", "_make")

    def __init__(self, n: int, make: Callable[[int], BasePoint]) -> None:
        self._n, self._make = n, make

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int | slice) -> BasePoint | LazyPoints:
        k = range(self._n)[i]
        return LazyPoints(len(k), lambda j: self._make(k[j])) if isinstance(k, range) else self._make(k)


def _tag_fields(tag: str, kind: str, n: int) -> list[str]:
    """The n fields of a ``kind:`` tag; another kind or count is refused."""
    head, _, rest = tag.partition(":")
    fields = rest.split(":")
    if head != kind or len(fields) != n:
        raise InvalidPoint(f"not a {kind}: tag with {n} field(s)")
    return fields


def _code_bits(digits: str, k: str, K: int) -> int:
    """The code of a tag's hex digit block and precision k, which must be
    the base's K; a sign or more than K digits is refused."""
    if int(k) != K:
        raise InvalidPoint(f"precision {k}, not {K}")
    bits = int(digits, 16)
    if bits < 0 or bits.bit_length() > K:
        raise InvalidPoint(f"digits {digits} are not a {K}-digit code")
    return bits


# ---------------------------------------------------------------------------
# the system record


@dataclass(frozen=True)
class BaseSystem:
    """A minimal base system packaged as pure callables.

    ``decode`` reads a point back from its ``tag()``, refusing (with
    ``InvalidPoint`` or ``ValueError``) any tag that is not a point of this
    base; it is None only for a base no construction samples.
    ``preimages`` is optional backward dynamics used by the homeo-part
    filter in the analysis layer.  ``circular`` marks an embedding that is
    an angle mod 1, in [0, 1], so base distances wrap around.

    ``walk(b, n)`` is the base's one step, stated a block at a time:
    ``(points, embeddings)``, the n base points after b, ``apply^1(b), ...,
    apply^n(b)``, and a list of their embeddings as floats, each bit-equal
    to ``float(embedding(apply^k(b)))``.  ``points`` may be a ``LazyPoints``
    that builds a point only when it is read.  ``apply`` is the first point
    of ``walk(b, 1)``.  ``apply`` and ``embedding`` are read through the
    instance, and the class keeps no slots: ``perfbench/tracer.py``
    replaces both on the instance.

    ``read(tags)`` decodes a block of tags as ``decode`` does, with their
    embeddings as ``walk`` gives them; a base with its own (``reader``) states
    its tag grammar there, and its ``decode`` is the first point of ``read``.
    """

    id: str
    walk: Callable[[BasePoint, int], tuple[Sequence[BasePoint], list[float]]]
    sampler: Callable[[int], list[BasePoint]]
    embedding: Callable[[BasePoint], float]
    decode: Optional[Callable[[str], BasePoint]] = None
    preimages: Optional[Callable[[BasePoint], list[BasePoint]]] = None
    params: dict = field(default_factory=dict, compare=False)
    circular: bool = False
    reader: Optional[Callable[[Sequence[str]], tuple[Sequence[BasePoint], list[float]]]] = field(
        default=None, compare=False)

    def apply(self, b: BasePoint) -> BasePoint:
        """The base point after b: the first point of ``walk(b, 1)``."""
        return self.walk(b, 1)[0][0]

    def read(self, tags: Sequence[str]) -> tuple[Sequence[BasePoint], list[float]]:
        """The points of the tags and their embeddings (see the class)."""
        if self.reader is not None:
            return self.reader(tags)
        points = list(map(self.decode, tags))
        return points, [float(self.embedding(b)) for b in points]

    def distance(self, x: BasePoint, y: BasePoint) -> float:
        """The difference of the two embeddings, wrapped when ``circular``."""
        ex, ey = self.embedding(x), self.embedding(y)
        return circle_distance(ex, ey) if self.circular else abs(ex - ey)


# ---------------------------------------------------------------------------
# circle rotation


def circle_distance(a: float, b: float) -> float:
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


def _check_rotation_angle(alpha: float) -> None:
    """Refuse an angle outside (0, 1), or nearer 0 or 1 than one ulp of
    1.0 (2^-52): there (theta + alpha) % 1.0 == theta for some theta in
    [0, 1), and a float orbit through it never moves."""
    if not 0.0 < alpha < 1.0:
        raise WrongInput(f"rotation angle {alpha} outside (0, 1)")
    if min(alpha, 1.0 - alpha) < math.ulp(1.0):
        raise WrongInput(f"rotation angle {alpha} is within 2^-52 of 0 or 1, too near to move every float angle")


def circle_rotation(alpha: float) -> BaseSystem:
    _check_rotation_angle(alpha)

    def walk(x: CircleAngle, n: int) -> tuple[LazyPoints, list[float]]:
        th, thetas = x.theta, []
        for _ in range(n):
            th = (th + alpha) % 1.0
            thetas.append(th)
        # th is 1.0, not its embedding 0.0, when a tiny negative sum wraps
        return LazyPoints(n, lambda i: CircleAngle(thetas[i])), [th % 1.0 for th in thetas]

    def read(tags: Sequence[str]) -> tuple[LazyPoints, list[float]]:
        # a block of tags that are all "angle:" and one field is parsed in one pass
        cells = [tag[6:] for tag in tags]
        plain = [tag[:6] for tag in tags] == ["angle:"] * len(tags) and ":" not in "".join(cells)
        thetas = list(map(float, cells)) if plain else [float(_tag_fields(tag, "angle", 1)[0]) for tag in tags]
        return LazyPoints(len(thetas), lambda i: CircleAngle(thetas[i])), [th % 1.0 for th in thetas]

    def sampler(n: int) -> list[CircleAngle]:
        return [CircleAngle((0.0123456789 + i * GOLDEN) % 1.0) for i in range(n)]

    def preimages(x: CircleAngle) -> list[CircleAngle]:
        return [CircleAngle((x.theta - alpha) % 1.0)]

    return BaseSystem(
        id=f"rotation({alpha})",
        walk=walk,
        sampler=sampler,
        embedding=lambda x: x.theta % 1.0,
        decode=lambda tag: read([tag])[0][0],
        preimages=preimages,
        circular=True,
        reader=read,
    )


# ---------------------------------------------------------------------------
# adding machine (dyadic odometer on the ternary Cantor set)


def adding_machine(precision: int = 40) -> BaseSystem:
    if precision < 1:
        raise WrongInput("precision must be >= 1")
    K = precision
    mod = 1 << K

    def walk(x: TernaryCode, n: int) -> tuple[list[TernaryCode], list[float]]:
        points = [TernaryCode((x.bits + i) % mod, K) for i in range(1, n + 1)]
        return points, list(map(embed_code, points))

    def sampler(n: int) -> list[TernaryCode]:
        return [TernaryCode(i % mod, K) for i in range(min(n, mod))]

    return BaseSystem(
        id=f"odometer(K={K})",
        walk=walk,
        sampler=sampler,
        embedding=embed_code,
        preimages=lambda x: [TernaryCode((x.bits - 1) % mod, K)],
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
    """Inserted-gap lengths L_{-j} = 4^-j * nearest removed-interval width."""
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


def blown_up_odometer(a: TernaryCode | None = None, precision: int = 40) -> BaseSystem:
    """Adding machine with the backward orbit of ``a`` doubled and its first
    doubled pair identified.

    Backward-orbit points a_{-j} (j up to DOUBLING_HORIZON) are replaced by
    side-tagged pairs separated by a gap of length L_{-j} in the embedding;
    deeper pairs shift one step forward keeping their tag, and untagged
    codes follow the plain odometer.  The first pair c_l = (a_{-1}, -1),
    c_r = (a_{-1}, +1) is one point, c_l its representative: it steps to
    ``a``, both members of the second pair step to it, and everything at
    or right of c_r is translated left by the first gap length, which
    closes that gap.  The backward points need distinct codes, so the
    precision must give 2^K > DOUBLING_HORIZON.
    """
    K = precision
    if K < 1 or 1 << K <= DOUBLING_HORIZON:
        raise WrongInput(
            f"precision {K} has too few codes for {DOUBLING_HORIZON} distinct doubled backward points"
        )
    if a is None:
        a = default_blowup_center(K)
    if a.K != K:
        raise WrongInput("center precision does not match system precision")
    if _is_endpoint_like(a):
        raise WrongInput("center has a constant tail at this precision")
    mod = 1 << K
    J = DOUBLING_HORIZON
    L = _gap_widths(a, J, mod)
    back_codes = {((a.bits - j) % mod): j for j in range(1, J + 1)}
    back_embed = sorted((_embed_code((a.bits - j) % mod, K), j) for j in range(1, J + 1))
    c_l, c_r = (DoubledCode(TernaryCode((a.bits - 1) % mod, K), side) for side in (-1, 1))

    def shifted(bits: int) -> float:
        # the gap inserted at a_{-j} pushes everything strictly to its right
        e0 = e = _embed_code(bits, K)
        for ej, j in back_embed:
            if ej >= e0:
                break
            e += L[j - 1]
        return e

    closed_from = shifted(c_r.code.bits) + L[0] - 1e-15  # c_r's embedding before the close, less 1e-15

    def embed(bits: int, side: int) -> float:
        # a right member sits past its pair's gap, except c_r, which is c_l
        e = shifted(bits)
        if side > 0 and bits != c_r.code.bits:
            e += L[back_codes[bits] - 1]
        return e - L[0] if e >= closed_from else e

    def validate(x: DoubledCode) -> int | None:
        j = back_codes.get(x.code.bits)
        if x.side != 0 and j is None:
            raise InvalidPoint("side tag off the doubled backward orbit")
        return j

    def decode(tag: str) -> DoubledCode:
        digits, k, side = _tag_fields(tag, "dcode", 3)
        x = DoubledCode(TernaryCode(_code_bits(digits, k, K), K), int(side))
        if x.side not in (-1, 0, 1):
            raise InvalidPoint(f"side {side} outside {{-1, 0, 1}}")
        validate(x)
        return x

    def walk(x: DoubledCode, n: int) -> tuple[LazyPoints, list[float]]:
        # the orbit is stepped as a code, a side and, on a tagged point, its
        # index j on the backward orbit; the points are built only when read
        bits, side, j = x.code.bits, x.side, validate(x)
        codes, sides, embeddings = [], [], []
        for _ in range(n):
            if side and j == 1:
                bits, side = a.bits, 0
            else:
                bits = (bits + 1) % mod
                if side:
                    j -= 1
                    side = -1 if j == 1 else side  # the second pair steps to c_l
            codes.append(bits)
            sides.append(side)
            embeddings.append(embed(bits, side))
        return LazyPoints(n, lambda i: DoubledCode(TernaryCode(codes[i], K), sides[i])), embeddings

    def preimages(x: DoubledCode) -> list[DoubledCode]:
        j = validate(x)
        prev = TernaryCode((x.code.bits - 1) % mod, K)
        if x.side == 0:
            return [c_l if x.code.bits == a.bits else DoubledCode(prev, 0)]
        # c_r is read as c_l, and the deepest pair's preimage is untagged
        return [DoubledCode(prev, 0 if j == J else -1 if j == 1 else x.side)]

    def sampler(n: int) -> list[DoubledCode]:
        return [DoubledCode(TernaryCode(i, K), 0) for i in range(min(n, mod))]

    return BaseSystem(
        id=f"quotient(doubled-cantor(K={K}))",
        walk=walk,
        sampler=sampler,
        embedding=lambda x: embed(x.code.bits, x.side),
        decode=decode,
        preimages=preimages,
        params={"K": K, "a": a, "gaps": tuple(L), "c_l": c_l, "c_r": c_r},
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
#: ``bytes.translate`` table from digit bytes 0 and 1 to the text "0" and "1"
_DIGIT_CHARS = bytes.maketrans(b"\0\1", b"01")


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


#: ``_embed_code`` memoised for ``word_embedding``: the words of one
#: Sturmian subshift have only n + 1 distinct prefixes of length n
_embed_prefix = lru_cache(maxsize=256)(_embed_code)


def word_embedding(w: SymbolicWord) -> float:
    """Cantor-style coordinate of a coding word, read from its first 35 digits."""
    m = min(w.K, 35)
    return _embed_prefix(w.bits & ((1 << m) - 1), m)


def sturmian(alpha: float, precision: int = DEFAULT_STURMIAN_K) -> BaseSystem:
    """The shift on the length-K coding words of the rotation by alpha;
    each stepped word carries its admissible arc."""
    _check_rotation_angle(alpha)
    if precision < 1:
        raise WrongInput("precision must be >= 1")
    K = precision
    k_alpha = K * alpha
    # the coding cell of each new digit, shifted back to the word's start
    shifted_cells = tuple(
        ((cell[0] - ((K - 1) * alpha) % 1.0) % 1.0, cell[1])
        for cell in (_cell_arc(0, alpha), _cell_arc(1, alpha))
    )

    top, m, one_minus_alpha = K - 1, min(K, 35), 1.0 - alpha  # m: the digits ``word_embedding`` reads
    prefix_mask, word_mask = (1 << m) - 1, (1 << K) - 1

    def walk(w: SymbolicWord, n: int) -> tuple[LazyPoints, list[float]]:
        # each step shifts in the digit of the arc's midpoint K steps on
        # and cuts the rotated arc to that digit's cell, keeping it whole
        # where the cut is empty.  This is the orbit's base step, so
        # ``_digit_of`` and ``_arc_intersect`` are written out, with the
        # same float operations and min/max results.  The second try of
        # ``_arc_intersect`` is left out: a cell at least 2^-52 long that
        # starts inside the arc always meets it, and otherwise the second
        # try repeats the first.  The words are kept as w's bits and the
        # new digits, and built only when read
        bits, (s, l) = w.bits, w.arc if w.arc is not None else _word_arc(w.bits, w.K, alpha)
        digits, arcs, embeddings = bytearray(), [], []
        for _ in range(n):
            new_digit = 1 if ((s + l / 2.0) % 1.0 + k_alpha) % 1.0 >= one_minus_alpha else 0
            bits = (bits >> 1) | (new_digit << top)
            s = (s + alpha) % 1.0
            cell_start, cell_len = shifted_cells[new_digit]
            t = (cell_start - s) % 1.0
            lo, hi = (t, t + cell_len) if t < l else (0.0, t - 1.0 + cell_len)
            hi = hi if hi < l else l
            if hi > lo:
                s, l = (s + lo) % 1.0, hi - lo
            digits.append(new_digit)
            arcs.append((s, l))
            embeddings.append(_embed_prefix(bits & prefix_mask, m))

        def word(i: int) -> SymbolicWord:
            new = int(digits[i::-1].translate(_DIGIT_CHARS), 2)
            return SymbolicWord(((w.bits | new << K) >> (i + 1)) & word_mask, K, arcs[i])

        return LazyPoints(n, word), embeddings

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

    return BaseSystem(
        id=f"sturmian(alpha={alpha},K={K})",
        walk=walk,
        sampler=sampler,
        embedding=word_embedding,
        decode=lambda tag: SymbolicWord(_code_bits(*_tag_fields(tag, "word", 2), K), K),
    )


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
        raise WrongInput("delta must be positive")
    refs = bs.sampler(ref_size)
    uncovered = list(range(len(refs)))
    x = x0
    for step in range(1, max_steps + 1):
        still = [i for i in uncovered if bs.distance(refs[i], x) > delta]
        uncovered = still
        if not uncovered:
            return step
        x = bs.apply(x)
    return None
