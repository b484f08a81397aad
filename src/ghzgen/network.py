"""Circuit network container and structural analysis.

A ``CircuitNetwork`` is what both the programmatic builders and the DSL
elaborator produce: plain data, an ordered element chain plus the
source, the Kerr couplings, and the detector groups.  ``analyze`` is the
one reader of its wiring.  It recovers the protocol roles the runner
needs as a ``NetworkStructure``: the trigger group, which modes carry
each photon, where the channel (the noise insertion point) sits, and,
when the network ends in polarization-resolving merges, the coincidence
patterns those merges read.  A network with patterns is "generator"
style, like the full GHZ generator; one that exposes the raw fan-out
arms is "source" style.

Every record here is an immutable named tuple.  ``SourceSpec`` and
``NetworkSettings`` check their values in the constructor, so a changed
copy goes through it (``with_settings``), never through ``_replace``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .elements import make_pbs
from .qnd import DEFAULT_ALPHA, DEFAULT_THETA, KerrCoupling, NetworkError
from .source import CaseWeights
from .states import ModeTransform

TRIGGER_GROUP = "T"


class SourceSpec(namedtuple("SourceSpec", "kind weights")):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.kind != "pdc2":
            raise ValueError(f"unknown source kind {self.kind!r}")


class DetectorGroup(NamedTuple):
    name: str
    modes: tuple[str, ...]


class NetworkSettings(
    namedtuple("NetworkSettings", "theta alpha", defaults=(DEFAULT_THETA, DEFAULT_ALPHA))
):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # a NaN probe setting would turn every amplitude into NaN, which
        # pruning then drops without a word
        if not math.isfinite(self.theta):
            raise NetworkError(f"theta must be finite, got {self.theta!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise NetworkError(f"alpha must be finite and nonnegative, got {self.alpha!r}")
        if math.isinf(self.alpha * self.alpha):
            raise NetworkError(f"alpha squared must be finite, got {self.alpha!r}")


class CircuitNetwork(NamedTuple):
    name: str
    elements: tuple[ModeTransform, ...]
    couplings: tuple[KerrCoupling, ...] = ()
    detectors: tuple[DetectorGroup, ...] = ()
    source: SourceSpec | None = None
    settings: NetworkSettings = NetworkSettings()

    def with_settings(self, **kwargs) -> "CircuitNetwork":
        settings = NetworkSettings(**{**self.settings._asdict(), **kwargs})
        return self._replace(settings=settings)

    def with_overrides(
        self,
        weights: CaseWeights | None = None,
        theta: float | None = None,
        alpha: float | None = None,
    ) -> "CircuitNetwork":
        """A copy with the given source weights and probe settings; an
        argument left as ``None`` keeps the network's own value.  Weights
        replace those of the declared source; a network that declares none
        keeps none, so that it fails the same way with and without them."""
        network = self
        if weights is not None and self.source is not None:
            network = self._replace(source=SourceSpec(self.source.kind, weights))
        if theta is not None:
            network = network.with_settings(theta=theta)
        if alpha is not None:
            network = network.with_settings(alpha=alpha)
        return network


class CoincidencePattern(NamedTuple):
    """Which output mode fired for each photon.

    ``shape`` records the structural choice per photon, one letter each
    ("ttr"): "t" for the resolving merge's transmitted output, "r" for the
    reflected one.
    ``groups`` select it: one photon in each fired mode, none in its partner.
    """

    modes: tuple[str, str, str]
    shape: str
    groups: tuple[tuple[tuple[str], int], ...]

    @property
    def label(self) -> str:
        return "".join(self.modes)


class NetworkStructure(NamedTuple):
    """The protocol roles ``analyze`` reads off a wiring; its ``style``
    follows from whether the wiring has coincidence patterns."""

    trigger: DetectorGroup
    boundary: int  # elements[:boundary] = fan-out, elements[boundary:] = fan-in
    # one mode group per photon: the channel pairs of a generator, the
    # detector groups of a source
    positions: tuple[tuple[str, ...], ...]
    patterns: tuple[CoincidencePattern, ...]  # ("t", "r")^3 order; () for a source

    @property
    def style(self) -> str:
        return "generator" if self.patterns else "source"


def _as_resolving_pbs(
    element: ModeTransform, group_modes: set[str]
) -> tuple[str, str, str, str] | None:
    """The mode names ``(lower, upper, out_t, out_r)`` of ``element`` if it
    is a polarization-resolving PBS whose outputs are ``group_modes``:
    ``lower`` keeps its polarization (H exits at ``out_t``), ``upper``
    arrives after an upstream half-wave flip (its original H exits at
    ``out_t`` flipped to V)."""
    in_modes = []
    for rail in element.in_rails:
        if rail.mode not in in_modes:
            in_modes.append(rail.mode)
    out_modes = []
    for rail in element.out_rails:
        if rail.mode not in out_modes:
            out_modes.append(rail.mode)
    if len(in_modes) != 2 or set(out_modes) != group_modes:
        return None
    reference = make_pbs(in_modes[0], in_modes[1], out_modes[0], out_modes[1])
    if element.in_rails != reference.in_rails or element.out_rails != reference.out_rails:
        return None
    if element.rows != reference.rows:
        return None
    return (*in_modes, *out_modes)


def analyze(network: CircuitNetwork) -> NetworkStructure:
    """Classify the network and locate its channel stage.

    Generator style requires every photon group's two modes to be the two
    outputs of a single polarization-resolving PBS; the channel modes are
    that element's inputs and the fan-in boundary is the first element
    consuming any of them.  Two coincidence patterns with one label raise
    ``NetworkError``.  Memoized on ``(elements, detectors)``: copies with
    other settings or source weights share one structure.
    """
    return _analyze(network.elements, network.detectors)


@lru_cache(maxsize=8)
def _analyze(elements, detectors) -> NetworkStructure:
    trigger = next((g for g in detectors if g.name == TRIGGER_GROUP), None)
    if trigger is None:
        raise NetworkError(f"network has no detector group named {TRIGGER_GROUP!r}")
    groups = [g for g in detectors if g.name != TRIGGER_GROUP]
    if len(groups) != 3:
        raise NetworkError(f"expected 3 photon detector groups, found {len(groups)}")
    for group in groups:
        if len(set(group.modes)) != 2:
            raise NetworkError(f"detector group {group.name} must pair two modes")

    pairs, outputs = [], []
    for group in groups:
        modes = set(group.modes)
        merge = next(filter(None, (_as_resolving_pbs(e, modes) for e in elements)), None)
        if merge is None:
            positions = tuple(g.modes for g in groups)
            return NetworkStructure(trigger, len(elements), positions, patterns=())
        lower, upper, out_t, out_r = merge
        pairs.append((lower, upper))
        outputs.append((out_t, out_r))

    channel_modes = {m for pair in pairs for m in pair}
    boundary = len(elements)
    for i, element in enumerate(elements):
        if any(rail.mode in channel_modes for rail in element.in_rails):
            boundary = i
            break
    patterns: dict[str, CoincidencePattern] = {}
    for shape in map("".join, product("tr", repeat=3)):
        fired = tuple(t if c == "t" else r for (t, r), c in zip(outputs, shape))
        silent = tuple(r if c == "t" else t for (t, r), c in zip(outputs, shape))
        occupancy = tuple(((m,), 1) for m in fired) + tuple(((m,), 0) for m in silent)
        pattern = CoincidencePattern(modes=fired, shape=shape, groups=occupancy)
        if patterns.setdefault(pattern.label, pattern) is not pattern:
            raise NetworkError(f"two coincidence patterns both read {pattern.label!r}")
    return NetworkStructure(trigger, boundary, tuple(pairs), tuple(patterns.values()))
