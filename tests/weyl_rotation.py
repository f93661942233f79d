"""The rotation search that ``constructions.THEOREM_D_ROTATION`` came from:
quadratic-irrational truncations, then seeded pseudo-random dyadics, ranked
by their exact star discrepancy along a return-time sequence.  The tests use
it as the oracle that re-derives the constant, and its discrepancy as an
exact reference."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from bundlemin.errors import WrongInput


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
        raise WrongInput("sequence must be strictly increasing")
    if K > len(n_seq):
        raise WrongInput("K exceeds the sequence length")
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
    raise WrongInput(f"no candidate of {budget} reached discrepancy {tol} at K={K}")
