"""End-to-end GHZ generation pipeline.

``build_ghzps`` and ``build_fig3`` elaborate the packaged circuits
``fixtures/fig1.onet`` (the photon-pair fan-out stage: trigger split,
50:50 fans, polarization merges, whose eight single-photon responses
define the device) and ``fixtures/fig3.onet`` (the same fan-out plus the
half-wave flips and the three polarization-resolving merges that turn
the channel state into detector patterns).  Those files are the one
definition of the builtin devices.  ``run_full`` drives source -> Kerr
tagging -> homodyne branch split -> feed-forward -> fan-out ->
coincidence and trigger herald -> optional channel noise -> fan-in ->
pattern postselection -> correction, and reports every branch/pattern
with its exact probability chain.  A circuit the protocol cannot serve
raises ``NetworkError`` at the stage that finds it.

States are kept exact throughout; probabilities are squared norms, never
sampled, unless an explicit seeded sample is requested.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .dsl import builtin_text, elaborate, parse
from .elements import make_hwp90
from .network import (
    CircuitNetwork,
    CoincidencePattern,
    DetectorGroup,
    NetworkError,
    NetworkSettings,
    analyze,
)
from .noise import (
    LITERAL_CACHE_SIZE,
    PSI_PLUS,
    NoiseFamily,
    PauliError,
    all_families,
    apply_errors,
    classify_family,
    depolarizing_mixture,
    family_state,
    format_noise_spec,
    parse_noise_spec,
)
from .qnd import (
    QndOutcome,
    feed_forward,
    homodyne_discriminate,
    probe_distinguishability,
    tag_phases,
)
from .source import CaseWeights, dual_pass_emission
from .states import (
    MASK_CACHE_SIZE,
    FockKet,
    ModeTransform,
    PureState,
    compose,
    entanglement_summary,
    fidelity,
    ket,
    phase_fixed,
    project_occupancy,
    sum_in_order,
)

if TYPE_CHECKING:
    import numpy as np

    from ._rng import Generator

GHZ_WORDS = ("HHV", "VVH")

# label used for the product (same-pass) branch in reports and the table
PHI_PLUS = "phi+"


def ghz_target(modes: Sequence[str]) -> PureState:
    """(|HHV> + |VVH>) / sqrt(2) over three spatial modes.  Memoized: a
    ``PureState`` is never mutated."""
    return _ghz_target(tuple(modes))


@lru_cache(maxsize=LITERAL_CACHE_SIZE)
def _ghz_target(modes: tuple[str, ...]) -> PureState:
    out = PureState()
    for word in GHZ_WORDS:
        out = out + ket(*zip(modes, word))
    return out.normalized()


@lru_cache(maxsize=None)
def build_ghzps() -> CircuitNetwork:
    """The fan-out network alone (``fig1.onet``), detectors on the raw arm
    pairs.  Cached: the network is frozen, and callers vary it through
    ``with_overrides``."""
    return elaborate(parse(builtin_text("fig1")), name="fig1")


@lru_cache(maxsize=None)
def build_fig3() -> CircuitNetwork:
    """The full generator (``fig3.onet``): fan-out plus half-wave flips and
    resolving merges.  Cached like ``build_ghzps``."""
    return elaborate(parse(builtin_text("fig3")), name="fig3")


# --- coincidence patterns and the correction table -----------------------


# Per base family: the two reachable shapes ("t"/"r" per photon), each
# with the polarization words of the literal post-fan-in state and the
# per-photon correction that turns them into the GHZ words.  The family
# sign multiplies the second shape's component.
_FAMILY_ROWS = {
    "psi": (("ttr", ("HHH", "VVV"), "IIX"), ("rrt", ("HVV", "VHH"), "IXI")),
    "psi0": (("ttt", ("HHV", "VVH"), "III"), ("rrr", ("VHV", "HVH"), "XII")),
    "psi1": (("rtt", ("VHV", "HVH"), "XII"), ("trr", ("HHV", "VVH"), "III")),
    "psi2": (("trt", ("HVV", "VHH"), "IXI"), ("rtr", ("HHH", "VVV"), "IIX")),
}

# the product branch reaches psi's shapes with the GHZ words themselves
_PHI_ROWS = (("ttr", GHZ_WORDS, "III"), ("rrt", GHZ_WORDS, "III"))


def lookup_correction(
    family: NoiseFamily | str, pattern: CoincidencePattern
) -> tuple[str, str, str]:
    """Per-photon operators recovering the GHZ target for this outcome.

    A mirrored family reaches the same two patterns as its base family
    with the two conditional states exchanged, so it uses the base rows
    with the operator assignments swapped between the patterns.  A
    pattern outside the family's two rows means the circuit is miswired
    and raises ``NetworkError``.
    """
    if isinstance(family, str):
        if family != PHI_PLUS:
            raise ValueError(f"unknown family label {family!r}")
        rows = _PHI_ROWS
        mirrored = False
    else:
        rows = _FAMILY_ROWS[family.tag]
        mirrored = family.mirrored
    (shape_a, _, ops_a), (shape_b, _, ops_b) = rows
    if mirrored:
        ops_a, ops_b = ops_b, ops_a
    if pattern.shape == shape_a:
        return tuple(ops_a)
    if pattern.shape == shape_b:
        return tuple(ops_b)
    raise NetworkError(
        f"pattern {pattern.label} is unreachable for this family "
        "(miswired circuit?)"
    )


def postselect_coincidence(
    state: PureState, patterns: Sequence[CoincidencePattern]
) -> list[tuple[CoincidencePattern, PureState, float]]:
    """Split a post-fan-in state over the coincidence ``patterns``
    (``NetworkStructure.patterns``).

    Requires exactly one photon in the fired mode and zero in the silent
    partner of every pair.  Returns only patterns with nonzero
    probability, each with its normalized conditional state.

    The input norm is taken once, and which kets each pattern keeps
    comes from ``_pattern_kets``, memoized on the ket order and the
    groups.  Each conditional is built as ``project_occupancy`` builds
    it, from the kept kets in the input's order, so the states and
    probabilities are bit-identical to projecting once per pattern.
    """
    terms = state._terms
    total = state.norm() ** 2
    if total == 0.0:
        return []
    items = list(terms.items())
    results = []
    selected = _pattern_kets(tuple(terms), tuple(p.groups for p in patterns))
    for pattern, positions in zip(patterns, selected):
        projected = PureState([items[i] for i in positions])
        if projected.is_zero():
            continue
        prob = projected.norm() ** 2 / total
        if prob > 0.0:
            results.append((pattern, projected.normalized(), prob))
    return results


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _pattern_kets(
    kets: tuple[FockKet, ...], groups: tuple[tuple[tuple[Sequence[str], int], ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Per pattern's ``groups``, the positions in ``kets`` of the kets
    holding exactly ``count`` photons in each of its ``(modes, count)``
    groups, in ket order.  A ket may land in more than one pattern."""
    return tuple(
        tuple(i for i, k in enumerate(kets) if all(k.count_in_modes(m) == n for m, n in g))
        for g in groups
    )


def apply_corrections(
    state: PureState, pattern: CoincidencePattern, ops: Sequence[str]
) -> PureState:
    for mode, op in zip(pattern.modes, ops):
        if op == "X":
            state = make_hwp90(mode).apply(state)
        elif op != "I":
            raise ValueError(f"unsupported correction op {op!r}")
    return state


# --- branch evolution ----------------------------------------------------


class BranchState(NamedTuple):
    """One homodyne branch carried to the channel boundary.

    ``coincidence_probability`` is the chance the branch passes fourfold
    coincidence.  When it does, ``conditional`` is normalized, trigger
    heralded away, supported on the channel (or detector-arm) modes; a
    branch that never passes has probability 0.0 and the zero state.
    """

    outcome: QndOutcome
    conditional: PureState
    coincidence_probability: float

    @property
    def branch(self) -> str:
        return self.outcome.branch

    @property
    def joint_probability(self) -> float:
        return self.outcome.probability * self.coincidence_probability


def branch_states(
    network: CircuitNetwork, rng: Generator | np.random.Generator | None = None
) -> list[BranchState]:
    """Emission through fan-out, fourfold coincidence and the trigger herald,
    per homodyne outcome, in ``homodyne_discriminate`` order; an outcome
    that never passes coincidence is kept with probability 0.0 (see
    ``passing``).

    ``rng``, a generator with numpy's ``.normal``/``.random``, samples the
    homodyne records (see ``homodyne_discriminate``)."""
    if network.source is None:
        raise NetworkError("network declares no source")
    structure = analyze(network)
    settings = network.settings
    emission = dual_pass_emission(network.source.weights)
    tags = tag_phases(emission, network.couplings)
    outcomes = homodyne_discriminate(
        emission, tags, theta=settings.theta, alpha=settings.alpha, rng=rng
    )
    fan_out = network.elements[: structure.boundary]
    trigger = structure.trigger
    groups = [(trigger.modes, 1)] + [(modes, 1) for modes in structure.positions]
    results = []
    for outcome in outcomes:
        state = compose(fan_out, feed_forward(outcome))
        conditional, prob = project_occupancy(state, groups)
        if prob != 0.0:
            conditional = _herald(conditional, trigger)
        results.append(
            BranchState(
                outcome=outcome, conditional=conditional, coincidence_probability=prob
            )
        )
    return results


def passing(branches: Sequence[BranchState]) -> list[BranchState]:
    """The ``branches`` that pass fourfold coincidence, in order."""
    return [bs for bs in branches if bs.coincidence_probability != 0.0]


def _herald(state: PureState, trigger: DetectorGroup) -> PureState:
    """Drop the trigger photon from every ket of a coincidence conditional.

    ``project_occupancy`` has left exactly one photon on the trigger's
    modes.  The rest is a heralded state only if that photon is in a
    product with it: the same polarization in every ket, and no two kets
    told apart by the trigger path alone.  Amplitudes are copied as they
    are, in the same order.
    """
    modes = set(trigger.modes)
    fired = None
    rest: dict[FockKet, complex] = {}
    for k, amp in state.terms.items():
        pols = [r.pol for r, _ in k if r.mode in modes]
        if fired is None:
            fired = pols
        elif pols != fired:
            raise NetworkError(f"the {trigger.name} photon is entangled with the rest")
        kept = FockKet((r, n) for r, n in k if r.mode not in modes)
        if kept in rest:
            raise NetworkError(f"two {trigger.name} paths interfere at {kept}")
        rest[kept] = amp
    return PureState(rest)


# --- full runs -----------------------------------------------------------


class RunEntry(NamedTuple):
    branch: str
    family: NoiseFamily | str | None
    pattern: CoincidencePattern | None
    branch_probability: float
    coincidence_probability: float
    pattern_probability: float | None
    joint_probability: float
    corrections: tuple[str, ...]
    state: PureState
    fidelity: float | None
    entanglement: dict | None = None


class RunReport(NamedTuple):
    network: str
    style: str
    settings: NetworkSettings
    weights: tuple[float, float, float]
    noise: tuple[PauliError, ...]
    probe_overlap: float
    entries: tuple[RunEntry, ...]
    sampled: dict | None = None


def entanglement_report(
    network: CircuitNetwork | None = None,
    weights: CaseWeights | None = None,
) -> list[tuple[str, float, dict]]:
    """Per-branch pol-vs-spatial structure of the coincidence conditionals.

    Works on either network style; for the full generator the states are
    taken at the channel boundary, before the resolving merges.
    """
    network = (network or build_ghzps()).with_overrides(weights)
    structure = analyze(network)
    return [
        (
            bs.branch,
            bs.joint_probability,
            entanglement_summary(bs.conditional, structure.positions),
        )
        for bs in passing(branch_states(network))
    ]


def _resolve(
    state: PureState,
    family: NoiseFamily | str,
    fan_in: Sequence[ModeTransform],
    patterns: Sequence[CoincidencePattern],
):
    """Fan a channel state in, postselect each coincidence pattern, apply
    the table's correction and score it against the GHZ target.

    Yields (pattern, pattern probability, ops, corrected state, fidelity).
    """
    for pattern, cond, p_pat in postselect_coincidence(compose(fan_in, state), patterns):
        ops = lookup_correction(family, pattern)
        corrected = apply_corrections(cond, pattern, ops)
        fid = fidelity(corrected, ghz_target(pattern.modes))
        yield pattern, p_pat, ops, corrected, fid


def run_full(
    noise: str | Sequence[PauliError] | None = None,
    *,
    network: CircuitNetwork | None = None,
    weights: CaseWeights | None = None,
    theta: float | None = None,
    alpha: float | None = None,
    sample: bool = False,
    seed: int = 0,
) -> RunReport:
    """Drive the whole protocol and report every branch and pattern.

    ``network`` (default: the builtin fig3 generator) is run with its own
    source weights and probe settings, each replaced by ``weights``,
    ``theta`` or ``alpha`` when given (``CircuitNetwork.with_overrides``).
    ``noise`` (a spec string like "X@1,Z@3" or parsed errors) is the only
    source of channel errors; a network carries none.  It acts on the
    three channel photons of the mixed-pass branch, which is the branch
    the recovery table addresses; the same-pass branch has no channel
    stage between fan-out and fan-in and is reported noiseless, so noise
    needs a mixed-pass branch that passes coincidence.  With
    ``sample=True`` a single homodyne outcome, drawn over all of them,
    and one of its patterns are reported, homodyne records included,
    instead of all (an outcome that fails coincidence has no entry), and
    a circuit where no branch passes coincidence raises ``NetworkError``;
    the draws are those of ``numpy.random.default_rng(seed)``, made
    without numpy.
    """
    network = (network or build_fig3()).with_overrides(weights, theta, alpha)
    structure = analyze(network)
    errors = parse_noise_spec(noise) if isinstance(noise, str) else tuple(noise or ())
    if errors and structure.style != "generator":
        raise NetworkError("channel noise needs a generator-style network")
    rng = None
    if sample:
        from ._rng import Generator

        rng = Generator(seed)
    outcomes = branch_states(network, rng=rng)
    branches = passing(outcomes)
    if errors and not any(bs.branch == "B" for bs in branches):
        raise _no_mixed_pass(network, "channel noise")
    positions = structure.positions
    fan_in = network.elements[structure.boundary :]

    entries: list[RunEntry] = []
    for bs in branches:
        if structure.style == "source":
            entries.append(
                RunEntry(
                    branch=bs.branch,
                    family=None,
                    pattern=None,
                    branch_probability=bs.outcome.probability,
                    coincidence_probability=bs.coincidence_probability,
                    pattern_probability=None,
                    joint_probability=bs.joint_probability,
                    corrections=(),
                    state=phase_fixed(bs.conditional),
                    fidelity=None,
                    entanglement=entanglement_summary(bs.conditional, positions),
                )
            )
            continue
        chan = bs.conditional
        if bs.branch == "B" and errors:
            chan = apply_errors(chan, errors, positions)
        if bs.branch == "A":
            family: NoiseFamily | str = PHI_PLUS
        else:
            family = classify_family(chan, positions)
        for pattern, p_pat, ops, corrected, fid in _resolve(
            chan, family, fan_in, structure.patterns
        ):
            entries.append(
                RunEntry(
                    branch=bs.branch,
                    family=family,
                    pattern=pattern,
                    branch_probability=bs.outcome.probability,
                    coincidence_probability=bs.coincidence_probability,
                    pattern_probability=p_pat,
                    joint_probability=bs.joint_probability * p_pat,
                    corrections=ops,
                    state=phase_fixed(corrected),
                    fidelity=fid,
                )
            )

    sampled = None
    if sample and rng is not None:
        entries, sampled = _draw_sample(entries, outcomes, rng)

    return RunReport(
        network=network.name,
        style=structure.style,
        settings=network.settings,
        weights=network.source.weights.as_tuple(),
        noise=errors,
        probe_overlap=probe_distinguishability(
            network.settings.alpha, network.settings.theta
        ),
        entries=tuple(entries),
        sampled=sampled,
    )


def _draw_sample(entries, outcomes, rng) -> tuple[list[RunEntry], dict]:
    """Draw a homodyne outcome by its probability, over every outcome of
    ``branch_states``, then one of its patterns by pattern probability;
    return the drawn entries and the record.  An outcome that fails
    coincidence has no entries, so its draw returns none and a record
    without a pattern."""
    if not passing(outcomes):
        raise NetworkError(
            "no branch passes the fourfold coincidence; there is nothing to sample"
        )
    r = float(rng.random())
    acc = 0.0
    chosen = outcomes[-1].outcome
    for bs in outcomes:
        acc += bs.outcome.probability
        if r < acc:
            chosen = bs.outcome
            break
    drawn = [e for e in entries if e.branch == chosen.branch]
    candidates = [e for e in drawn if e.pattern is not None]
    sampled: dict = {"branch": chosen.branch, "x": chosen.x, "phi": chosen.phi}
    if candidates:
        total = sum_in_order(e.pattern_probability for e in candidates)
        r = float(rng.random()) * total
        acc = 0.0
        entry = candidates[-1]
        for e in candidates:
            acc += e.pattern_probability
            if r < acc:
                entry = e
                break
        sampled["pattern"] = entry.pattern.label
        drawn = [entry]
    return drawn, sampled


def _no_mixed_pass(network: CircuitNetwork, needs: str) -> NetworkError:
    """Why a run finds no mixed-pass branch for ``needs``, which acts on it."""
    if not network.source.weights.mixed:
        return NetworkError(f"{needs} needs a nonzero mixed-pass weight")
    return NetworkError(
        f"{needs} needs the mixed-pass branch, and no mixed-pass branch passes "
        "this circuit's fourfold coincidence"
    )


def sweep_noise(p: float, *, network: CircuitNetwork | None = None) -> list[dict]:
    """One full run per Pauli term of a single-photon depolarizing channel
    of strength ``p``, in mixture order.

    Each row gives the term's errors, its mixture weight, the family the
    errors turn the channel state into, and the channel fidelity with the
    table's corrections (averaged over the coincidence patterns) and
    without any.  Other weights or probe settings come in on the
    network, through ``CircuitNetwork.with_overrides``.
    """
    network = network or build_fig3()
    structure = analyze(network)
    if structure.style != "generator":
        raise NetworkError("the noise sweep needs a generator-style network")
    positions = structure.positions
    target = family_state(PSI_PLUS, positions)
    rows = []
    for weight, errors in depolarizing_mixture(p):
        report = run_full(errors, network=network)
        channel = [e for e in report.entries if e.branch == "B"]
        if not channel:
            raise _no_mixed_pass(network, "the noise sweep")
        prob = sum_in_order(e.pattern_probability for e in channel)
        noisy = apply_errors(target, errors, positions)
        rows.append(
            {
                "errors": format_noise_spec(errors),
                "weight": weight,
                "family": classify_family(noisy, positions).label,
                "corrected_fidelity": sum_in_order(
                    e.pattern_probability * e.fidelity for e in channel
                )
                / prob,
                "uncorrected_fidelity": fidelity(noisy, target),
            }
        )
    return rows


# --- literal reference states (for the verify commands) -------------------


def verify_correction_table(
    families: Sequence[NoiseFamily] | None = None,
) -> list[dict]:
    """Check every family row of the correction table on the builtin
    generator: evolve the family through the fan-in, postselect each
    reachable pattern, apply the table's operators and compare with the
    GHZ target.  Default is the base (non-mirrored) eight, two patterns
    each; pass ``all_families()`` to sweep the mirrored half too."""
    network = build_fig3()
    structure = analyze(network)
    fan_in = network.elements[structure.boundary :]
    if families is None:
        families = [f for f in all_families() if not f.mirrored]
    rows = []
    for fam in families:
        for pattern, p_pat, ops, _, fid in _resolve(
            family_state(fam, structure.positions), fam, fan_in, structure.patterns
        ):
            rows.append(
                {
                    "family": fam.label,
                    "pattern": pattern.label,
                    "ops": ops,
                    "pattern_probability": p_pat,
                    "fidelity": fid,
                    "passed": fid >= 1.0 - 1e-12,
                }
            )
    return rows


def verify_reference_states() -> list[dict]:
    """Check the simulated conditionals against the literal constructions:
    both fan-out branches, the eight family evolutions, and the corrected
    outputs of a noiseless full run."""
    tol = 1e-12
    checks = []

    network = build_ghzps()
    structure = analyze(network)
    by_branch = {bs.branch: bs for bs in branch_states(network)}
    a_state, a_prob = by_branch["A"].conditional, by_branch["A"].joint_probability
    amps = [amp for _, amp in phase_fixed(a_state).sorted_terms()]
    amps_ok = all(abs(amp - 0.5) <= tol for amp in amps)
    fid_a = fidelity(a_state, branch_a_literal(structure.positions))
    checks.append(
        {
            "name": "same-pass branch conditional",
            "fidelity": fid_a,
            "detail": f"joint probability {a_prob:.12f}, amplitudes all 0.5: {amps_ok}",
            "passed": fid_a >= 1 - tol and amps_ok and abs(a_prob - 1 / 24) <= tol,
        }
    )

    b_state, b_prob = by_branch["B"].conditional, by_branch["B"].joint_probability
    fid_b = fidelity(b_state, family_state(PSI_PLUS, structure.positions))
    checks.append(
        {
            "name": "mixed-pass branch conditional",
            "fidelity": fid_b,
            "detail": f"joint probability {b_prob:.12f}",
            "passed": fid_b >= 1 - tol and abs(b_prob - 1 / 16) <= tol,
        }
    )

    network = build_fig3()
    structure = analyze(network)
    fan_in = network.elements[structure.boundary :]
    for fam in all_families():
        if fam.mirrored:
            continue
        state = compose(fan_in, family_state(fam, structure.positions))
        fid = fidelity(state, evolved_family_literal(fam, structure.patterns))
        checks.append(
            {
                "name": f"family {fam.label} evolution vs literal row",
                "fidelity": fid,
                "detail": "",
                "passed": fid >= 1 - tol,
            }
        )

    report = run_full()
    total = sum_in_order(e.joint_probability for e in report.entries)
    all_unit = all(e.fidelity >= 1 - tol for e in report.entries)
    checks.append(
        {
            "name": "noiseless corrected outputs",
            "fidelity": min(e.fidelity for e in report.entries),
            "detail": (
                f"{len(report.entries)} branch patterns, "
                f"total probability {total:.12f}"
            ),
            "passed": all_unit
            and len(report.entries) == 4
            and abs(total - 5 / 48) <= tol,
        }
    )
    return checks


def branch_a_literal(positions: Sequence[tuple[str, str]]) -> PureState:
    """Product-branch conditional on the photon ``positions``
    (``NetworkStructure.positions``): polarization GHZ times an equal
    superposition of the two all-one-arm spatial words.  The mixed-pass
    conditional is ``family_state(PSI_PLUS, positions)``."""
    out = PureState()
    for arms in zip(*positions):
        for word in GHZ_WORDS:
            out = out + 0.5 * ket(*zip(arms, word))
    return out


def evolved_family_literal(
    family: NoiseFamily, patterns: Sequence[CoincidencePattern]
) -> PureState:
    """The literal post-fan-in state of a base (non-mirrored) family on a
    generator's coincidence ``patterns`` (``NetworkStructure.patterns``),
    from the words of its correction-table rows, each row on the modes of
    the pattern with its shape."""
    if family.mirrored:
        raise ValueError("literal rows cover the base families only")
    modes_of = {pattern.shape: pattern.modes for pattern in patterns}
    out = PureState()
    for idx, (shape, words, _) in enumerate(_FAMILY_ROWS[family.tag]):
        modes = modes_of[shape]
        scale = 0.5 * (family.sign if idx == 1 else 1.0)
        for word in words:
            out = out + scale * ket(*zip(modes, word))
    return out
