"""Depolarization noise on the channel photons and family classification.

The channel carries three photons, photon k living in a superposition of
its spatial pair (d_k, D_k), the k-th of the network's channel
``positions`` (``analyze(network).positions``) that ``family_state``,
``classify_family`` and ``apply_errors`` take.  Depolarization acts on
polarization only: per photon a bit flip (X), a phase flip (Z), or both
(Y, composed as Z after X; the global phase is irrelevant everywhere
downstream).

The noiseless channel state is

    psi+ = 1/2 [ |HHV>(d1 d2 D3 + D1 D2 d3) + |VVH>(d1 D2 d3 + D1 d2 D3) ]

and every per-photon Pauli combination maps it to a state of the same
shape: one polarization word on the first spatial quadruple, its
complement on the second, a relative sign, and possibly the two words
exchanged between the quadruples ("mirrored").  That gives 4 word pairs
x 2 signs x 2 pairings = 16 reachable states; classification recognizes
all of them.  The mirrored=False half is the classic eight-family set.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterable, Sequence

from .qnd import NetworkError
from .states import MASK_CACHE_SIZE, H, V, FockKet, PureState, Rail, fidelity, ket

FAMILY_TAGS = ("psi", "psi0", "psi1", "psi2")

# (word on the first spatial group, complementary word on the second)
FAMILY_WORDS = {
    "psi": ("HHV", "VVH"),
    "psi0": ("HHH", "VVV"),
    "psi1": ("VHH", "HVV"),
    "psi2": ("HVH", "VHV"),
}

CLASSIFY_TOL = 1e-9
# literal states that ``family_state`` keeps per (family, positions) and
# ``pipeline.ghz_target`` per modes; a generator fills 16 and 8
LITERAL_CACHE_SIZE = 64


class PauliError(namedtuple("PauliError", "photon kind")):
    """One polarization error on one channel photon."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.photon not in (1, 2, 3):
            raise ValueError(f"photon index must be 1..3, got {self.photon}")
        if self.kind not in ("X", "Z", "Y"):
            raise ValueError(f"error kind must be X, Z or Y, got {self.kind!r}")


class NoiseFamily(namedtuple("NoiseFamily", "tag sign mirrored", defaults=(False,))):
    """Which reachable channel state: word pair, relative sign, pairing."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def label(self) -> str:
        base = self.tag + ("+" if self.sign > 0 else "-")
        return base + ("'" if self.mirrored else "")


PSI_PLUS = NoiseFamily(tag="psi", sign=1)


def _spatial_quadruples(
    positions: Sequence[tuple[str, str]]
) -> tuple[tuple, tuple]:
    (l1, u1), (l2, u2), (l3, u3) = positions
    first = ((l1, l2, u3), (u1, u2, l3))
    second = ((l1, u2, l3), (u1, l2, u3))
    return first, second


def _word_ket(word: str, modes: Sequence[str]) -> PureState:
    return ket(*zip(modes, word))


def family_state(
    family: NoiseFamily, positions: Sequence[tuple[str, str]]
) -> PureState:
    """The literal four-ket channel state of a family on the channel
    ``positions`` (``NetworkStructure.positions``: each photon's two
    spatial modes).  Memoized: a ``PureState`` is never mutated."""
    return _family_state(family, tuple(map(tuple, positions)))


@lru_cache(maxsize=LITERAL_CACHE_SIZE)
def _family_state(
    family: NoiseFamily, positions: tuple[tuple[str, str], ...]
) -> PureState:
    w1, w2 = FAMILY_WORDS[family.tag]
    if family.mirrored:
        w1, w2 = w2, w1
    first, second = _spatial_quadruples(positions)
    out = PureState()
    for modes in first:
        out = out + 0.5 * _word_ket(w1, modes)
    for modes in second:
        out = out + (0.5 * family.sign) * _word_ket(w2, modes)
    return out


_FAMILIES = tuple(
    NoiseFamily(tag=tag, sign=sign, mirrored=mirrored)
    for tag in FAMILY_TAGS
    for mirrored in (False, True)
    for sign in (1, -1)
)


def all_families() -> tuple[NoiseFamily, ...]:
    return _FAMILIES


def classify_family(
    state: PureState, positions: Sequence[tuple[str, str]]
) -> NoiseFamily:
    """Identify the channel state on ``positions`` among the reachable
    families.

    Comparison is by fidelity, so global phase is irrelevant.  A state
    outside the set (a spatial-mode error, which the model excludes, or a
    miswired fan-out) raises ``NetworkError``.  Only the families whose
    literal state shares a ket with ``state`` are scored (``_candidates``,
    per ket order and positions): the fidelity of any other is exactly
    0.0, so the family chosen, or the error raised, is the full scan's.
    """
    for fam, literal in _candidates(tuple(state._terms), tuple(map(tuple, positions))):
        if fidelity(state, literal) > 1.0 - CLASSIFY_TOL:
            return fam
    raise NetworkError("state does not match any depolarization family")


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _candidates(kets: tuple[FockKet, ...], positions: tuple) -> tuple:
    """The ``(family, literal state on positions)`` pairs, in
    ``all_families`` order, whose literal state holds one of ``kets``."""
    literals = [(fam, _family_state(fam, positions)) for fam in _FAMILIES]
    return tuple(p for p in literals if not p[1]._terms.keys().isdisjoint(kets))


def apply_errors(
    state: PureState,
    errors: Iterable[PauliError],
    positions: Sequence[tuple[str, str]],
) -> PureState:
    """Apply per-photon polarization errors, in order, on the channel
    ``positions``.

    Each error acts on both spatial modes of its photon; spatial labels
    are untouched.  Y is the composition Z(X(state)) (phase after flip).
    Each ket's image and sign are memoized per ket order, errors and
    positions (``_errored``); each amplitude times its sign is summed
    onto 0j.
    """
    terms = state._terms
    images = _errored(tuple(terms), tuple(errors), tuple(map(tuple, positions)))
    acc: dict[FockKet, complex] = {}
    for (new_k, phase), amp in zip(images, terms.values()):
        acc[new_k] = acc.get(new_k, 0j) + amp * phase
    return PureState._pruned(acc.items())


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _errored(kets: tuple[FockKet, ...], errors: tuple, positions: tuple) -> tuple:
    """Per ket of ``kets``, in order, its image under ``errors`` on
    ``positions`` and its sign: each rail walks its photon's errors in
    order, so the signs come out as with one error at a time."""
    kinds: dict[str, list[str]] = {}
    for err in errors:
        for mode in positions[err.photon - 1]:
            kinds.setdefault(mode, []).append(err.kind)
    out = []
    for k in kets:
        entries = []
        phase = 1.0
        for r, n in k:
            pol = r.pol
            for kind in kinds.get(r.mode, ()):
                if kind != "Z":
                    pol = V if pol == H else H
                if kind != "X" and pol == V:
                    phase *= (-1.0) ** n
            entries.append((Rail(r.mode, pol), n))
        # a flip maps the rails of one mode onto each other, so no two
        # entries merge, but it can move a rail past its neighbour
        out.append((FockKet._canonical(tuple(sorted(entries))), phase))
    return tuple(out)


def depolarizing_mixture(p: float) -> list[tuple[float, tuple[PauliError, ...]]]:
    """Independent per-photon error distribution.

    Each photon is untouched with probability 1-p and suffers X, Z or Y
    with probability p/3 each.  Returns the nonzero-weight combinations in
    a fixed photon-major order; weights sum to 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"error probability must be in [0, 1], got {p}")
    single = ((None, 1.0 - p), ("X", p / 3.0), ("Z", p / 3.0), ("Y", p / 3.0))
    out = []
    for combo in itertools.product(single, repeat=3):
        weight = 1.0
        errors = []
        for photon, (kind, w) in enumerate(combo, start=1):
            weight *= w
            if kind is not None:
                errors.append(PauliError(photon=photon, kind=kind))
        if weight > 0.0:
            out.append((weight, tuple(errors)))
    return out


def parse_noise_spec(text: str) -> tuple[PauliError, ...]:
    """Parse a comma-separated error list like ``X@1,Z@3``."""
    errors = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, sep, photon = chunk.partition("@")
        if not sep:
            raise ValueError(f"bad error term {chunk!r}, expected KIND@PHOTON")
        try:
            idx = int(photon)
        except ValueError:
            raise ValueError(f"bad photon index {photon!r} in {chunk!r}") from None
        errors.append(PauliError(photon=idx, kind=kind.strip().upper()))
    return tuple(errors)


def format_noise_spec(errors: Iterable[PauliError]) -> str:
    return ",".join(f"{e.kind}@{e.photon}" for e in errors)
