"""Constructors for the optical elements used by the generator networks.

Each constructor interns its ``ModeTransform`` in a bounded cache of
``INTERN_SIZE`` entries: equal calls share one element and its ``apply``
plans.  Sign conventions (unobservable in the postselected quantities;
fixed so the displayed single-photon evolutions show all plus signs):

  * PBS: transmits H, reflects V, no reflection phase.  From the first
    port, H -> out_t and V -> out_r; from the second port, H -> out_r and
    V -> out_t.
  * 50:50 BS: polarization preserving; first port splits (+1, +1)/sqrt(2),
    second port (-1, +1)/sqrt(2).
  * hwp45: Hadamard on polarization. hwp90: H <-> V swap.

Omitting the second input of a PBS or BS models an unused vacuum port; the
resulting transform is a rectangular isometry.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .states import H, V, ModeTransform, Rail

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
INTERN_SIZE = 64  # elements kept per constructor; fig3 needs at most 11 of one


def _distinct(name: str, modes) -> None:
    modes = [m for m in modes if m is not None]
    if len(set(modes)) != len(modes):
        raise ValueError(f"{name}: duplicate spatial mode in {modes}")


@lru_cache(maxsize=INTERN_SIZE)
def make_pbs(
    in1: str, in2: str | None, out_t: str, out_r: str
) -> ModeTransform:
    """Polarizing beam splitter; ``in2=None`` leaves the second port dark."""
    _distinct("pbs", (in1, in2, out_t, out_r))
    out_rails = (Rail(out_t, H), Rail(out_t, V), Rail(out_r, H), Rail(out_r, V))
    routes = {(in1, H): (out_t, H), (in1, V): (out_r, V)}
    if in2 is not None:
        routes[(in2, H)] = (out_r, H)
        routes[(in2, V)] = (out_t, V)
    in_rails = tuple(Rail(*r) for r in routes)
    m = [[0j] * len(in_rails) for _ in out_rails]
    for j, rail in enumerate(in_rails):
        m[out_rails.index(Rail(*routes[rail]))][j] = 1.0
    label = f"pbs({in1},{in2 or '.'}->{out_t},{out_r})"
    return ModeTransform(name=label, in_rails=in_rails, out_rails=out_rails, matrix=m)


@lru_cache(maxsize=INTERN_SIZE)
def make_bs(in1: str, in2: str | None, out1: str, out2: str) -> ModeTransform:
    """Polarization-preserving 50:50 splitter; ``in2=None`` for a dark port."""
    _distinct("bs", (in1, in2, out1, out2))
    in_modes = (in1,) if in2 is None else (in1, in2)
    in_rails = tuple(Rail(m, p) for m in in_modes for p in (H, V))
    out_rails = tuple(Rail(m, p) for m in (out1, out2) for p in (H, V))
    m = [[0j] * len(in_rails) for _ in out_rails]
    for p_i, pol in enumerate((H, V)):
        m[0 + p_i][0 + p_i] = _INV_SQRT2  # in1 -> out1
        m[2 + p_i][0 + p_i] = _INV_SQRT2  # in1 -> out2
        if in2 is not None:
            m[0 + p_i][2 + p_i] = -_INV_SQRT2  # in2 -> out1, reflection sign
            m[2 + p_i][2 + p_i] = _INV_SQRT2  # in2 -> out2
    label = f"bs({in1},{in2 or '.'}->{out1},{out2})"
    return ModeTransform(name=label, in_rails=in_rails, out_rails=out_rails, matrix=m)


@lru_cache(maxsize=INTERN_SIZE)
def make_hwp45(mode: str) -> ModeTransform:
    rails = (Rail(mode, H), Rail(mode, V))
    m = [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]
    return ModeTransform(name=f"hwp45({mode})", in_rails=rails, out_rails=rails, matrix=m)


@lru_cache(maxsize=INTERN_SIZE)
def make_hwp90(mode: str) -> ModeTransform:
    rails = (Rail(mode, H), Rail(mode, V))
    m = [[0.0, 1.0], [1.0, 0.0]]
    return ModeTransform(name=f"hwp90({mode})", in_rails=rails, out_rails=rails, matrix=m)


@lru_cache(maxsize=INTERN_SIZE)
def make_route(src: str, dst: str) -> ModeTransform:
    """Lossless rerouting (mirror or fiber): relabels the spatial mode."""
    _distinct("route", (src, dst))
    in_rails = (Rail(src, H), Rail(src, V))
    out_rails = (Rail(dst, H), Rail(dst, V))
    return ModeTransform(
        name=f"route({src}->{dst})",
        in_rails=in_rails,
        out_rails=out_rails,
        matrix=[[1.0, 0.0], [0.0, 1.0]],
    )
