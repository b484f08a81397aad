"""Double-pass parametric down-conversion source.

One pump pass emits a polarization singlet into (a1, b1); the reflected
pass emits into (a2, b2).  Conditioning on two pairs total leaves three
cases: both pairs from the first pass, both from the second, or one from
each.  The emission is their coherent superposition with configurable
case weights; same-pass components pick up bosonic double-occupation
structure and are renormalized, so the weights mean exactly what they say.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .states import H, V, PureState, ket

UPPER_ARM = ("a1", "b1")
LOWER_ARM = ("a2", "b2")

# classical uniform choice over (pass i, pass j): (1,1), (2,2), {(1,2),(2,1)}
DEFAULT_WEIGHTS = (0.25, 0.25, 0.5)

# A case's smallest emission amplitude is sqrt(w) / 2, and PureState drops
# amplitudes under PRUNE_TOL, which would erase a case with w < 4e-24
# without a word.  The floor, (100 PRUNE_TOL)^2, keeps it at 50 PRUNE_TOL.
MIN_CASE_WEIGHT = 1e-20


class CaseWeights(
    namedtuple("CaseWeights", "upper_upper lower_lower mixed", defaults=DEFAULT_WEIGHTS)
):
    """Weights of the three two-pair emission cases, each 0 or >= MIN_CASE_WEIGHT."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        w = self.as_tuple()
        if not all(math.isfinite(x) for x in w):
            raise ValueError(f"case weights must be finite, got {w}")
        if any(x < 0 for x in w):
            raise ValueError(f"negative case weight in {w}")
        if any(0 < x < MIN_CASE_WEIGHT for x in w):
            raise ValueError(f"nonzero case weight under {MIN_CASE_WEIGHT} in {w}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"case weights must sum to 1, got {sum(w)!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


def pdc_pair(a: str, b: str) -> PureState:
    """Polarization singlet (|H>_a |V>_b - |V>_a |H>_b) / sqrt(2)."""
    if a == b:
        raise ValueError("pair modes must be distinct")
    s = ket((a, H), (b, V)) - ket((a, V), (b, H))
    return s.normalized()


@lru_cache(maxsize=4)
def two_pair_product(i: int, j: int) -> PureState:
    """Two pairs, one from pass ``i`` and one from pass ``j``, normalized.

    For i == j the bosonic product develops double occupations with
    sqrt(2) enhancements; the state is renormalized afterwards so every
    case enters the superposition with unit norm.  Cached: the state does
    not depend on the case weights, and a ``PureState`` is never mutated.
    """
    arms = {1: UPPER_ARM, 2: LOWER_ARM}
    if i not in arms or j not in arms:
        raise ValueError(f"pass index must be 1 or 2, got ({i}, {j})")
    first = pdc_pair(*arms[i])
    second = pdc_pair(*arms[j])
    return first.product(second).normalized()


def dual_pass_emission(weights: CaseWeights | None = None) -> PureState:
    """Coherent three-case superposition with amplitudes sqrt(w_k), each
    case scaled and summed onto 0j in order; the cases share no ket, so
    this is the public ``+`` chain's result, bit for bit."""
    weights = weights or CaseWeights()
    acc: dict = {}
    for w, (i, j) in zip(weights.as_tuple(), ((1, 1), (2, 2), (1, 2))):
        if w:
            for k, a in two_pair_product(i, j)._scaled(math.sqrt(w))._terms.items():
                acc[k] = acc.get(k, 0j) + a
    return PureState._pruned(acc.items())
