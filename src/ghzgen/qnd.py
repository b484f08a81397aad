"""Cross-Kerr nondemolition branch discrimination.

Two Kerr media couple the source's pass-1 and pass-2 signal paths to a
shared coherent probe with opposite signs, so the probe phase tags which
pass the photons came from without absorbing them.  An X-quadrature
homodyne measurement on the probe then separates |tag| = theta (both
pairs from the same pass) from tag 0 (one pair from each pass).  The
X quadrature is insensitive to the tag's sign, so the +theta and -theta
components stay coherently superposed; the measurement only imprints
known phases exp(+-i phi(x)) that a feed-forward rotation removes.

Couplings are listed per rail in units of theta.  The builtin circuits'
``kerr`` lines place +1/2 per photon anywhere in a1 and -1/2 per photon
anywhere in a2: every two-pair emission ket then tags exactly +1, -1, or
0 according to its case, including the double-occupation kets.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .states import FockKet, NetworkError, PureState, Rail, sum_in_order

if TYPE_CHECKING:
    import numpy as np

    from ._rng import Generator

DEFAULT_THETA = 0.01
DEFAULT_ALPHA = math.sqrt(1e5)

# how far a ket's tag may sit from the classes -1, 0, 1 (units of theta)
_TAG_TOL = 1e-9


class KerrCoupling(NamedTuple):
    """Probe phase per photon on one rail, in units of theta."""

    mode: str
    pol: str
    units: float


def tag_phases(
    state: PureState, couplings: Sequence[KerrCoupling]
) -> dict[FockKet, float]:
    """The probe phase, in units of theta, that each ket of ``state``
    imprints through the ``couplings``."""
    per_rail: dict[Rail, float] = {}
    for c in couplings:
        rail = Rail(c.mode, c.pol)
        per_rail[rail] = per_rail.get(rail, 0.0) + c.units
    return {k: sum_in_order(per_rail.get(r, 0.0) * n for r, n in k) for k in state.terms}


class QndOutcome(NamedTuple):
    """One homodyne branch: A (|tag| = theta) or B (tag 0).

    ``conditional`` is normalized and, for branch A, carries the
    measurement phases exp(i * tag * phi); ``tag_signs`` records each
    ket's tag so feed-forward can undo them exactly.
    """

    branch: str
    probability: float
    conditional: PureState
    x: float
    phi: float
    tag_signs: Mapping[FockKet, int]


def homodyne_discriminate(
    state: PureState,
    tags: Mapping[FockKet, float],
    theta: float = DEFAULT_THETA,
    alpha: float = DEFAULT_ALPHA,
    rng: Generator | np.random.Generator | None = None,
) -> list[QndOutcome]:
    """Split ``state`` into its homodyne branches by the ``tags`` of
    ``tag_phases``.

    Deterministic by default: the quadrature record x sits at the branch
    mean, so phi(x) = 0.  Passing ``rng``, a generator with numpy's
    ``.normal``/``.random``, samples x from the branch's Gaussian
    N(2 alpha cos(tag theta), 1) instead; the resulting phases
    phi(x) = alpha sin(theta) (x - mean) are recorded for feed-forward.
    Branch probabilities are the squared norms of the tag classes.
    """
    sides: dict[str, dict[FockKet, complex]] = {"A": {}, "B": {}}
    signs: dict[FockKet, int] = {}
    for k, amp in state.terms.items():
        t = tags[k]
        # the range test goes first: round() fails on an infinite or NaN tag
        if not -1.5 < t < 1.5 or abs(t - round(t)) > _TAG_TOL:
            raise NetworkError(
                f"tag {t} theta on {k} is outside the protocol classes "
                "(miswired couplings?)"
            )
        signs[k] = round(t)
        sides["A" if signs[k] else "B"][k] = amp
    total = state.norm() ** 2
    if total == 0.0:
        raise ValueError("cannot discriminate the zero state")
    outcomes: list[QndOutcome] = []
    for branch in ("A", "B"):
        part = PureState(sides[branch])
        prob = part.norm() ** 2 / total
        if prob == 0.0:
            continue
        mean = 2.0 * alpha * (math.cos(theta) if branch == "A" else 1.0)
        x = float(rng.normal(mean, 1.0)) if rng is not None else mean
        phi = alpha * math.sin(theta) * (x - mean) if branch == "A" else 0.0
        if phi:
            part = PureState(
                {k: amp * cmath.exp(1j * signs[k] * phi) for k, amp in part.terms.items()}
            )
        outcomes.append(
            QndOutcome(
                branch=branch,
                probability=prob,
                conditional=part.normalized(),
                x=x,
                phi=phi,
                tag_signs={k: signs[k] for k in part.terms},
            )
        )
    return outcomes


def feed_forward(outcome: QndOutcome) -> PureState:
    """Undo the measurement phases using the recorded x; exact inverse.

    Branch B (and a branch-A outcome with phi = 0) passes through as is.
    """
    if outcome.branch != "A" or outcome.phi == 0.0:
        return outcome.conditional
    phi = outcome.phi
    return PureState(
        {
            k: amp * cmath.exp(-1j * outcome.tag_signs[k] * phi)
            for k, amp in outcome.conditional.terms.items()
        }
    )


def probe_distinguishability(alpha: float, theta: float) -> float:
    """Overlap |<alpha | alpha e^{i theta}>| = exp(-alpha^2 (1 - cos theta)).

    Governs how well separated the homodyne peaks are; smaller is better.
    Exposed as a diagnostic only, discrimination itself is ideal.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return math.exp(-(alpha**2) * (1.0 - math.cos(theta)))
