"""Reference maps of the base systems that ``src/`` no longer carries.

The blown-up odometer in two layers, the reference ``blown_up_odometer`` is
held to: ``doubled_cantor`` doubles the backward orbit of the blow-up
centre a, and ``quotient_base`` identifies its first doubled pair, stepping
and embedding through ``canonical``.  Each layer steps by iterating its own
one-point ``apply``.  ``doubled_cantor`` alone is a base with two preimages
at a point (the doubled pair are a's), which the homeo-part filter tests
need.

``sturmian_factor`` is the factor map of the Sturmian base onto its
rotation.
"""
from __future__ import annotations

from bundlemin.base_systems import (
    DOUBLING_HORIZON,
    BaseSystem,
    CircleAngle,
    DoubledCode,
    TernaryCode,
    _code_bits,
    _gap_widths,
    _is_endpoint_like,
    _tag_fields,
    _word_arc,
    default_blowup_center,
    embed_code,
)
from bundlemin.errors import InvalidPoint, WrongInput


def iterated_walk(apply, embedding):
    """The block walk of a one-point step: ``apply`` iterated n times, each
    point embedded by ``embedding``."""

    def walk(b, n):
        points, embeddings = [], []
        for _ in range(n):
            b = apply(b)
            points.append(b)
            embeddings.append(float(embedding(b)))
        return points, embeddings

    return walk


def doubled_cantor(a: TernaryCode | None = None, precision: int = 40) -> BaseSystem:
    """Adding machine with the backward orbit of ``a`` doubled.

    Backward-orbit points a_{-j} (j up to DOUBLING_HORIZON) are replaced by
    side-tagged pairs separated by a gap of length L_{-j} in the embedding;
    both members of the first pair map to ``a``, deeper pairs shift one step
    forward keeping their tag. Untagged codes always follow the plain
    odometer. Those backward points need distinct codes, so the precision
    must give 2^K > DOUBLING_HORIZON.
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
            e += L[back_codes[x.code.bits] - 1]
        return e

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

    def sampler(n: int) -> list[DoubledCode]:
        return [DoubledCode(TernaryCode(i % mod, K), 0) for i in range(min(n, mod))]

    return BaseSystem(
        id=f"doubled-cantor(K={K})",
        walk=iterated_walk(apply, embedding),
        sampler=sampler,
        embedding=embedding,
        decode=decode,
        preimages=preimages,
        params={"K": K, "a": a, "gaps": tuple(L)},
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
        walk=iterated_walk(apply, embedding),
        sampler=sampler,
        embedding=embedding,
        decode=dc.decode,
        preimages=preimages,
        params={**dc.params, "c_l": c_l, "c_r": c_r},
    )


def sturmian_factor(w, alpha):
    """The angle a Sturmian word codes under the rotation by alpha: the
    midpoint of the word's admissible arc."""
    s, l = w.arc if w.arc is not None else _word_arc(w.bits, w.K, alpha)
    return CircleAngle((s + l / 2.0) % 1.0)
