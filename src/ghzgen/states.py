"""Sparse multi-photon state algebra over polarization rails.

A *rail* is one bosonic mode: a spatial label plus a polarization ('H' or
'V').  States are sparse complex superpositions of Fock kets over rails,
stored as dictionaries keyed by Fock kets.  Everything downstream
(sources, optical elements, projections, entanglement diagnostics) is
built on the handful of primitives in this module.

Conventions:
  * a ket is interned: there is one live ``FockKet`` per canonical
    occupation tuple, so ket equality and hashing are identity and run in
    C.  The intern table holds its kets weakly, and no output depends on
    a ket's address: kets are ordered by their occupations or by
    insertion, never by hash
  * kets are normalized occupation-number states, |n> = (a†)^n / sqrt(n!) |0>
  * amplitudes with magnitude below ``PRUNE_TOL`` are dropped after every
    arithmetic operation, so zero really means zero
  * ``ModeTransform.apply`` builds a stage on the first sight of each
    input ket order, from one plan per input count pattern, and replays
    it on every later call: the same floating-point operations, in the
    same order, so a replay is bit-identical to a first sight.  Pattern
    plans and stages are per distinct element (the ``elements``
    constructors intern); pattern plans grow with the distinct count
    patterns it meets, stages are kept for at most ``STAGE_CACHE_SIZE``
    orders, and a stage wider than ``MAX_KETS`` is refused.  ``PRUNE_TOL``
    pruning stays outside both, in ``PureState._pruned``
  * nothing is renormalized implicitly; callers decide when a state is a
    conditional state (``project_occupancy`` returns the probability
    separately for exactly this reason)
  * the state algebra and the element matrices are plain Python; numpy is
    imported only by ``entanglement_summary``, when it runs
"""

from __future__ import annotations

import cmath
import math
import threading
import weakref
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from typing import NamedTuple

H = "H"
V = "V"
POLARIZATIONS = (H, V)

PRUNE_TOL = 1e-12
ISOMETRY_TOL = 1e-9
SCHMIDT_TOL = 1e-10

# the most kets a state may hold after one element; the builtin circuits
# never exceed 40, while a deep tree of splitters grows past any memory
MAX_KETS = 1 << 16
# input ket orders whose stage one element keeps; the builtin circuits
# meet at most 9 per element
STAGE_CACHE_SIZE = 32
# (ket order, groups) keep-masks that ``project_occupancy`` keeps, and
# ket-order pattern assignments that ``pipeline.postselect_coincidence``
# keeps; runs of the builtin circuits meet 2 and 9
MASK_CACHE_SIZE = 256


class NetworkError(ValueError):
    """A network or its settings cannot serve the requested run: a wrong
    detector structure, a miswired fan-out, Kerr couplings that tag a ket
    outside the protocol classes, a non-finite, negative or overflowing
    probe setting, a state that outgrows ``MAX_KETS``, or an operation the
    network's style or weights do not support.  Bad input, not an engine
    fault.  It lives here, at the bottom of the import graph, so that
    element application, branch discrimination and noise classification
    can all raise it; ``qnd`` and ``network`` re-export it."""


class Rail(NamedTuple):
    """One bosonic mode: spatial label plus polarization."""

    mode: str
    pol: str


def _as_rail(value) -> Rail:
    rail = Rail(*value)
    if rail.pol not in POLARIZATIONS:
        raise ValueError(f"polarization must be H or V, got {rail.pol!r}")
    return rail


def sum_in_order(values: Iterable[float]) -> float:
    """Sum of ``values`` left to right, rounding after each addition.  The
    builtin ``sum`` compensates float rounding from Python 3.12 on, so the
    last bits of its result, and the printed output, would depend on the
    interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


# the one live ket per occupation tuple (see ``FockKet``)
_KETS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_KETS_LOCK = threading.Lock()


class FockKet:
    """Occupation-number ket over rails, canonically ordered and interned.

    Stored as a tuple of (rail, count) pairs sorted by (mode, pol) with all
    counts positive; the empty tuple is the vacuum.  There is one live
    ket per occupation tuple: construction returns the instance in
    ``_KETS`` when there is one, so equality and hashing are by identity
    and run in C.  The table holds its kets weakly; a ket lives as long
    as some state, stage or cache holds it.
    """

    __slots__ = ("_occ", "__weakref__")

    def __new__(cls, occupations: Mapping[Rail, int] | Iterable[tuple] = ()):
        if isinstance(occupations, Mapping):
            items = occupations.items()
        else:
            items = occupations
        merged: dict[Rail, int] = {}
        for rail, count in items:
            rail = _as_rail(rail)
            count = int(count)
            if count < 0:
                raise ValueError(f"negative occupation {count} on {rail}")
            if count:
                merged[rail] = merged.get(rail, 0) + count
        return cls._canonical(tuple(sorted(merged.items())))

    @classmethod
    def _canonical(cls, occ: tuple[tuple[Rail, int], ...]) -> "FockKet":
        """The ket of an occupation tuple that is already canonical (sorted
        by rail, every rail a ``Rail``, every count a positive int),
        skipping validation.  For engine internals only."""
        k = _KETS.get(occ)
        if k is None:
            # check again under the lock, so that two threads never mint
            # two kets for one occupation tuple
            with _KETS_LOCK:
                k = _KETS.get(occ)
                if k is None:
                    k = object.__new__(cls)
                    k._occ = occ
                    _KETS[occ] = k
        return k

    def __reduce__(self):
        # rebuild through _canonical, so that an unpickled or copied ket is
        # the interned one of this interpreter
        return FockKet._canonical, (self._occ,)

    @property
    def occupations(self) -> tuple[tuple[Rail, int], ...]:
        return self._occ

    def count_in_modes(self, modes: Iterable[str]) -> int:
        mode_set = set(modes)
        return sum(n for r, n in self._occ if r.mode in mode_set)

    def __iter__(self) -> Iterator[tuple[Rail, int]]:
        return iter(self._occ)

    def __lt__(self, other: "FockKet") -> bool:
        return self._occ < other._occ

    def __repr__(self) -> str:
        if not self._occ:
            return "|vac>"
        parts = []
        for rail, n in self._occ:
            label = f"{rail.pol}@{rail.mode}"
            parts.append(label if n == 1 else f"{n}x{label}")
        return "|" + " ".join(parts) + ">"


class PureState:
    """Sparse complex superposition of Fock kets.

    Supports linear arithmetic (+, -, scalar *), the bosonic tensor product,
    and deterministic iteration.  Not implicitly normalized.  The public
    constructor raises ``ValueError`` on a NaN or infinite amplitude, which
    pruning would otherwise drop without a word.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[FockKet, complex] | Iterable[tuple] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[FockKet, complex] = {}
        for k, amp in items:
            if not isinstance(k, FockKet):
                k = FockKet(k)
            amp = complex(amp)
            acc[k] = acc.get(k, 0j) + amp
        if not all(map(cmath.isfinite, acc.values())):
            bad = next(k for k, a in acc.items() if not cmath.isfinite(a))
            raise ValueError(f"non-finite amplitude {acc[bad]} on {bad}")
        self._terms = {k: a for k, a in acc.items() if abs(a) > PRUNE_TOL}

    @classmethod
    def _pruned(cls, items: Iterable[tuple[FockKet, complex]]) -> "PureState":
        """State from distinct ``(ket, amplitude)`` pairs whose amplitudes
        are already summed onto ``0j``, as the public constructor sums
        them; only the pruning is left to do.  For engine internals only."""
        state = object.__new__(cls)
        state._terms = {k: a for k, a in items if abs(a) > PRUNE_TOL}
        return state

    @property
    def terms(self) -> dict[FockKet, complex]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[FockKet, complex]]:
        return sorted(self._terms.items(), key=lambda item: item[0].occupations)

    def amplitude(self, k: FockKet) -> complex:
        if not isinstance(k, FockKet):
            k = FockKet(k)
        return self._terms.get(k, 0j)

    def norm(self) -> float:
        # ``sum_in_order`` inline: every projection and normalization runs it
        total = 0.0
        for a in self._terms.values():
            total += abs(a) ** 2
        return math.sqrt(total)

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self * (1.0 / n)

    def is_zero(self) -> bool:
        return not self._terms

    def num_terms(self) -> int:
        return len(self._terms)

    def __add__(self, other: "PureState") -> "PureState":
        acc = dict(self._terms)
        for k, a in other._terms.items():
            acc[k] = acc.get(k, 0j) + a
        return PureState(acc)

    def __sub__(self, other: "PureState") -> "PureState":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PureState":
        scalar = complex(scalar)
        return PureState({k: a * scalar for k, a in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "PureState":
        return self * -1.0

    def product(self, other: "PureState") -> "PureState":
        """Bosonic product: creation operators of both factors on the shared
        vacuum.  Overlapping rails pick up sqrt(binomial) enhancement factors
        because |m> x a†^n hits sqrt((m+n)!/(m! n!)) |m+n>."""
        acc: dict[FockKet, complex] = {}
        for ka, aa in self._terms.items():
            occ_a = dict(ka.occupations)
            for kb, ab in other._terms.items():
                factor = 1.0
                merged = dict(occ_a)
                for rail, n in kb.occupations:
                    m = merged.get(rail, 0)
                    if m:
                        factor *= math.sqrt(math.comb(m + n, n))
                    merged[rail] = m + n
                k = FockKet(merged)
                acc[k] = acc.get(k, 0j) + aa * ab * factor
        return PureState(acc)

    def __iter__(self) -> Iterator[tuple[FockKet, complex]]:
        return iter(self.sorted_terms())

    def __eq__(self, other) -> bool:
        return isinstance(other, PureState) and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "PureState(0)"
        parts = []
        for k, a in self.sorted_terms()[:6]:
            parts.append(f"{a:.4g} {k}")
        suffix = " + ..." if len(self._terms) > 6 else ""
        return "PureState(" + " + ".join(parts) + suffix + ")"


def ket(*rails, amp: complex = 1.0) -> PureState:
    """Single-ket state from rail entries.

    Each entry is (mode, pol) for one photon or (mode, pol, count) for a
    multiply occupied rail.
    """
    occ: dict[Rail, int] = {}
    for entry in rails:
        if len(entry) == 2:
            rail, count = _as_rail(entry), 1
        elif len(entry) == 3:
            rail, count = _as_rail(entry[:2]), int(entry[2])
        else:
            raise ValueError(f"rail entry must have 2 or 3 fields, got {entry!r}")
        occ[rail] = occ.get(rail, 0) + count
    return PureState({FockKet(occ): amp})


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over the shared sparse support."""
    if a.num_terms() > b.num_terms():
        return inner_product(b, a).conjugate()
    total = 0j
    for k, amp in a._terms.items():
        other = b._terms.get(k)
        if other is not None:
            total += amp.conjugate() * other
    return total


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 for the normalized versions of both states."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return abs(inner_product(a, b)) ** 2 / (na * nb) ** 2


def phase_fixed(state: PureState) -> PureState:
    """Rotate the global phase so the first canonical amplitude is positive
    real.  Handy for displaying states defined up to phase."""
    terms = state.sorted_terms()
    if not terms:
        return state
    _, lead = terms[0]
    return state * (abs(lead) / lead)


# --- optical-element transforms ----------------------------------------


def _orthonormal(columns: Sequence[Sequence[complex]]) -> bool:
    """Whether the Gram matrix of ``columns`` is the identity, by the rule
    of ``np.allclose(gram, eye, atol=ISOMETRY_TOL)``: each entry within
    ISOMETRY_TOL, plus a relative 1e-5 on the diagonal."""
    for a, col_a in enumerate(columns):
        for b in range(a, len(columns)):
            delta = 1.0 if a == b else 0.0
            g = sum(x.conjugate() * y for x, y in zip(col_a, columns[b]))
            if not abs(g - delta) <= ISOMETRY_TOL + 1e-5 * delta:
                return False
    return True


class ModeTransform:
    """Linear-optical element acting on a fixed tuple of input rails.

    ``matrix[i, j]`` is the single-photon amplitude from ``in_rails[j]`` to
    ``out_rails[i]``: a†(in_j) -> sum_i matrix[i, j] a†(out_i).  The matrix
    must be an isometry (orthonormal columns); square elements are unitary,
    rectangular ones model elements with an unused vacuum port.

    The matrix is kept as ``rows``, a tuple of rows of Python complex
    numbers.  Instances are immutable and hashable.  The pattern plans
    and stages ``apply`` stores are a cache: equality, hashing and
    pickling ignore them, and an unpickled instance starts with none.
    """

    __slots__ = (
        "name",
        "in_rails",
        "out_rails",
        "rows",
        "_hash",
        "_rail_index",
        "_columns",
        "_patterns",
        "_stages",
    )

    def __init__(
        self,
        name: str,
        in_rails: Iterable,
        out_rails: Iterable,
        matrix: Iterable[Iterable[complex]],
    ):
        in_rails = tuple(_as_rail(r) for r in in_rails)
        out_rails = tuple(_as_rail(r) for r in out_rails)
        try:
            rows = tuple(tuple(complex(u) for u in row) for row in matrix)
        except TypeError:
            rows = None
        if (
            rows is None
            or len(rows) != len(out_rails)
            or any(len(row) != len(in_rails) for row in rows)
        ):
            raise ValueError(
                f"{name}: matrix shape does not match "
                f"{len(out_rails)} outputs x {len(in_rails)} inputs"
            )
        if len(set(in_rails)) != len(in_rails):
            raise ValueError(f"{name}: duplicate input rail")
        if len(set(out_rails)) != len(out_rails):
            raise ValueError(f"{name}: duplicate output rail")
        columns = [tuple(row[j] for row in rows) for j in range(len(in_rails))]
        if not _orthonormal(columns):
            raise ValueError(f"{name}: columns are not orthonormal")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "in_rails", in_rails)
        object.__setattr__(self, "out_rails", out_rails)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((name, in_rails, out_rails, rows)))
        # what apply's stages are built from: the column index of each input
        # rail, -1 for an output rail that is no input (a passthrough photon
        # there collides), and per input column the nonzero (output index,
        # amplitude) entries in output order
        rail_index = dict.fromkeys(out_rails, -1)
        rail_index.update((r, j) for j, r in enumerate(in_rails))
        object.__setattr__(self, "_rail_index", rail_index)
        object.__setattr__(
            self,
            "_columns",
            tuple(tuple((i, u) for i, u in enumerate(c) if u != 0) for c in columns),
        )
        # filled by apply: per input count pattern and per input ket order
        object.__setattr__(self, "_patterns", {})
        object.__setattr__(self, "_stages", {})

    def __setattr__(self, attr, *_):
        raise AttributeError(f"ModeTransform is immutable; cannot set {attr!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ModeTransform, (self.name, self.in_rails, self.out_rails, self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeTransform):
            return NotImplemented
        return (
            self.name == other.name
            and self.in_rails == other.in_rails
            and self.out_rails == other.out_rails
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"ModeTransform(name={self.name!r}, in_rails={self.in_rails!r}, "
            f"out_rails={self.out_rails!r})"
        )

    def apply(self, state: PureState) -> PureState:
        """Rewrite every creation operator on an input rail through the
        matrix.  Rails outside ``in_rails`` pass through untouched but must
        not collide with ``out_rails``.

        The floating-point operations and their order are fixed: a ket's
        amplitude is divided by sqrt(prod n!) of its input counts, then
        each created photon multiplies by u * sqrt(m + 1), and outputs are
        summed onto 0j in ket order.  Results are therefore bit-for-bit
        reproducible, not merely close.

        Which operations those are depends on the input ket alone, never on
        its amplitude, and which output kets they reach, in which order,
        on the input ket order alone.  So the first sight of an order
        builds its stage (``_stage``) from the kets' count-pattern plans
        (``_pattern_plan``), and this and every later call on that order
        replay it in three passes over one buffer of complex slots, all
        starting at 0j: each ket's amplitude is divided into its own slot;
        the op layers of every ket run in ket order, each step adding
        ``src * u * sq`` onto its destination slot; and each ket's
        last-layer slots are summed, in ket order, onto the output slots.
        Those are numbered in first-appearance order, so the result's ket
        order is the one a dict keyed on the output kets would give.
        Amplitudes under ``PRUNE_TOL`` are dropped afterwards, by
        ``PureState._pruned``, never inside a stage.

        An order whose stage would reach more than ``MAX_KETS`` output
        kets raises ``NetworkError`` naming this element, before any
        arithmetic."""
        terms = state._terms
        order = tuple(terms)
        stage = self._stages.get(order)
        if stage is None:
            stage = self._stage(order)
        size, width, divs, ops, sums, outs = stage
        buf = [0j] * size
        buf[width : width + len(divs)] = [a / d for a, d in zip(terms.values(), divs)]
        for dst, src, u, sq in ops:
            buf[dst] = buf[dst] + buf[src] * u * sq
        for dst, src in sums:
            buf[dst] = buf[dst] + buf[src]
        return PureState._pruned(zip(outs, buf))

    def _stage(self, order: tuple[FockKet, ...]) -> tuple:
        """Build, store and return the stage of the input ket ``order``.

        Each ket's rails are split into its sorted (input index, count)
        pattern and its passthrough entries.  The pattern's divisor and op
        layers come from ``_pattern_plan``, shared by every ket with that
        pattern through ``_patterns``; the ket's output kets add its
        passthrough entries to each last-layer slot's entries.  A ket with
        no photon on an input rail is divided by sqrt(1), runs no op layer
        and is its own only output, object and all: no other ket's image
        can land on it, because it holds no photon on an output either.

        Its buffer holds the output slots first, one per output ket in
        first-appearance order, then one input slot per ket of ``order``,
        then the slots of every ket's op layers.  The stage is ``(size,
        width, divs, ops, sums, outs)``: the buffer size, the number of
        output slots, each ket's divisor, the ``(dst, src, u, sq)`` steps
        of all op layers renumbered into the buffer, the ``(output slot,
        last-layer slot)`` sums, and the output kets.  A rail on an output
        of this element raises ``ValueError`` and an output past
        ``MAX_KETS`` raises ``NetworkError``; either stores no stage.  When
        ``STAGE_CACHE_SIZE`` stages are kept, the oldest is dropped."""
        rail_index = self._rail_index
        patterns = self._patterns
        index: dict[FockKet, int] = {}
        kets = []
        for k in order:
            counts: list[tuple[int, int]] = []
            passthrough: list[tuple[Rail, int]] = []
            for entry in k._occ:
                j = rail_index.get(entry[0])
                if j is None:
                    passthrough.append(entry)
                elif j < 0:
                    raise ValueError(
                        f"{self.name}: rail {entry[0]} is already occupied "
                        "on an output of this element"
                    )
                else:
                    counts.append((j, entry[1]))
            if counts:
                counts.sort()
                pattern = tuple(counts)
                shared = patterns.get(pattern)
                if shared is None:
                    shared = patterns[pattern] = self._pattern_plan(pattern)
                div, layers, out_entries = shared
                outs = [
                    FockKet._canonical(tuple(sorted(passthrough + entries)))
                    for entries in out_entries
                ]
            else:
                div, layers, outs = 1.0, (), (k,)
            slots = [index.setdefault(o, len(index)) for o in outs]
            if len(index) > MAX_KETS:
                raise NetworkError(
                    f"{self.name}: the state would hold more than {MAX_KETS} "
                    "kets after this element"
                )
            kets.append((div, layers, slots))
        width = len(index)
        size = width + len(kets)
        ops: list[tuple] = []
        sums: list[tuple[int, int]] = []
        for i, (_, layers, slots) in enumerate(kets):
            base = width + i
            for w, steps in layers:
                ops += [(size + dst, base + src, u, sq) for dst, src, u, sq in steps]
                base = size
                size += w
            sums += zip(slots, range(base, base + len(slots)))
        stages = self._stages
        if len(stages) >= STAGE_CACHE_SIZE:
            del stages[next(iter(stages))]
        stage = stages[order] = (
            size,
            width,
            tuple([div for div, _, _ in kets]),
            tuple(ops),
            tuple(sums),
            tuple(index),
        )
        return stage

    def _pattern_plan(self, pattern: tuple[tuple[int, int], ...]) -> tuple:
        """The plan of the sorted (input index, count) ``pattern``, shared
        by every ket with that pattern: the sqrt(prod n!) divisor; one op
        layer per created photon, as ``(width, ops)``; and the ``(rail,
        count)`` entries of each slot of the last layer.

        A layer maps the previous layer's slots to ``width`` new ones, one
        per occupation reached by creating one more photon of the pattern.
        Its ``ops`` are ``(dst, src, u, sqrt(m + 1))`` steps, taken per
        source slot in slot order and per nonzero column entry in output
        order; ``u`` is the column's own object, and ``m`` the photons
        already on that output.  A new slot is numbered when it is first
        reached."""
        norm_div = 1.0
        for _, n in pattern:
            norm_div *= math.factorial(n)
        columns = self._columns
        occs = [(0,) * len(self.out_rails)]
        layers = []
        for j, n in pattern:
            column = columns[j]
            for _ in range(n):
                index: dict[tuple[int, ...], int] = {}
                ops: list = []
                for src, occ in enumerate(occs):
                    for i, u in column:
                        m = occ[i]
                        key = occ[:i] + (m + 1,) + occ[i + 1 :]
                        dst = index.setdefault(key, len(index))
                        ops.append((dst, src, u, math.sqrt(m + 1)))
                layers.append((len(index), tuple(ops)))
                occs = list(index)
        out_rails = self.out_rails
        out_entries = tuple(
            [(out_rails[i], m) for i, m in enumerate(occ) if m] for occ in occs
        )
        return math.sqrt(norm_div), tuple(layers), out_entries


def compose(transforms: Sequence[ModeTransform], state: PureState) -> PureState:
    for t in transforms:
        state = t.apply(state)
    return state


# --- projections ---------------------------------------------------------


def project_occupancy(
    state: PureState, groups: Sequence[tuple[Iterable[str], int]]
) -> tuple[PureState, float]:
    """Project onto kets holding exactly ``count`` photons in each group of
    spatial modes.  Returns (normalized conditional state, probability);
    probability is relative to the squared norm of the input.

    Which kets pass depends on the ket order and the groups alone, so the
    selection is memoized on both (``_keep_mask``); the amplitudes are
    read on every call."""
    resolved = tuple((frozenset(modes), int(count)) for modes, count in groups)
    terms = state._terms
    mask = _keep_mask(tuple(terms), resolved)
    kept = {k: amp for keep, (k, amp) in zip(mask, terms.items()) if keep}
    total = state.norm() ** 2
    if total == 0.0:
        return PureState(), 0.0
    projected = PureState(kept)
    prob = projected.norm() ** 2 / total
    if projected.is_zero():
        return projected, 0.0
    return projected.normalized(), prob


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _keep_mask(
    kets: tuple[FockKet, ...], groups: tuple[tuple[frozenset[str], int], ...]
) -> tuple[bool, ...]:
    """Per ket of ``kets``, whether it holds exactly ``count`` photons in
    each ``(modes, count)`` group."""
    return tuple(
        [all(k.count_in_modes(modes) == count for modes, count in groups) for k in kets]
    )


# --- polarization-versus-path entanglement -------------------------------


def entanglement_summary(state: PureState, positions: Sequence[Iterable[str]]) -> dict:
    """Polarization-versus-path structure of the normalized ``state``.

    Each position is a group of spatial modes that must hold exactly one
    photon; a ket's polarization word and path word list its photons'
    polarizations and modes in position order.  With ``m`` the amplitudes
    arranged as m[polarization word, path word], returns:

      * ``schmidt_rank`` and ``schmidt_coefficients``: the singular values
        of ``m`` above ``SCHMIDT_TOL``, in descending order;
      * ``polarization_purity``: tr(rho_pol^2) of the reduced polarization
        state rho_pol = m m^dagger;
      * ``product_state_deviation``: the largest entry of
        |rho - rho_pol (x) rho_path|, zero exactly for a product state.

    Raises ``ValueError`` when a ket does not hold exactly one photon per
    position or has a photon outside them.  This is the one function of
    the package that imports numpy.
    """
    import numpy as np

    groups = [tuple(p) for p in positions]
    all_modes = {m for g in groups for m in g}
    pol_index: dict[tuple, int] = {}
    path_index: dict[tuple, int] = {}
    entries: list[tuple[int, int, complex]] = []
    for k, amp in state.normalized().sorted_terms():
        pols, modes = [], []
        for group in groups:
            found = [(r, n) for r, n in k if r.mode in group]
            if len(found) != 1 or found[0][1] != 1:
                raise ValueError(f"{k} does not hold exactly one photon in {group}")
            rail = found[0][0]
            pols.append(rail.pol)
            modes.append(rail.mode)
        if any(r.mode not in all_modes for r, _ in k):
            raise ValueError(f"{k} has photons outside the positions")
        i = pol_index.setdefault(tuple(pols), len(pol_index))
        j = path_index.setdefault(tuple(modes), len(path_index))
        entries.append((i, j, amp))
    m = np.zeros((len(pol_index), len(path_index)), dtype=complex)
    for i, j, amp in entries:
        m[i, j] += amp
    coeffs = tuple(float(s) for s in np.linalg.svd(m, compute_uv=False) if s > SCHMIDT_TOL)
    rho_pol = m @ m.conj().T
    rho_path = m.T @ m.conj()
    v = m.reshape(-1)
    deviation = np.abs(np.outer(v, v.conj()) - np.kron(rho_pol, rho_path))
    return {
        "schmidt_rank": len(coeffs),
        "schmidt_coefficients": coeffs,
        "polarization_purity": float((rho_pol @ rho_pol).trace().real),
        "product_state_deviation": float(np.max(deviation)),
    }


# --- serialization -------------------------------------------------------


def to_json_terms(state: PureState) -> list[dict]:
    """Canonical JSON-friendly term list: occupation triples plus re/im."""
    out = []
    for k, amp in state.sorted_terms():
        out.append(
            {
                "ket": [[r.mode, r.pol, n] for r, n in k],
                "re": float(amp.real),
                "im": float(amp.imag),
            }
        )
    return out
