"""The source, QND and noise layers' trusted engine paths against their
earlier public-constructor bodies in ``tests/oracles.py``, bit for bit:
the same kets, by identity, in the same order, and the same ``float.hex``
of every part."""

import itertools
import math

from hypothesis import example, given, settings, strategies as st

import oracles
from test_random_circuits import circuits

from ghzgen import (
    CaseWeights,
    KerrCoupling,
    PauliError,
    PureState,
    all_families,
    analyze,
    apply_errors,
    build_fig3,
    classify_family,
    depolarizing_mixture,
    dual_pass_emission,
    elaborate,
    entanglement_summary,
    family_state,
    feed_forward,
    homodyne_discriminate,
    parse,
    tag_phases,
)
from ghzgen._rng import Generator
from ghzgen.dsl import builtin_text
from ghzgen.source import MIN_CASE_WEIGHT
from ghzgen.states import PRUNE_TOL, FockKet, Rail, compose

_POSITIONS = analyze(build_fig3()).positions
_MODES = [m for pair in _POSITIONS for m in pair]
_SOURCE_RAILS = [Rail(m, p) for m in ("a1", "b1", "a2", "b2") for p in "HV"]


def _bits(state):
    return [(k, a.real.hex(), a.imag.hex()) for k, a in state.terms.items()]


def _outcome_bits(o):
    return (
        o.branch,
        o.probability.hex(),
        _bits(o.conditional),
        o.x.hex(),
        o.phi.hex(),
        list(o.tag_signs.items()),
    )


def _summary_bits(summary):
    return (
        summary["schmidt_rank"],
        [c.hex() for c in summary["schmidt_coefficients"]],
        summary["polarization_purity"].hex(),
        summary["product_state_deviation"].hex(),
    )


def _either(fn, *args, bits=lambda r: r):
    """``("ok", bits(result))``, or the error's type and message."""
    try:
        return "ok", bits(fn(*args))
    except ValueError as exc:
        return "error", type(exc), str(exc)


_PART = st.floats(-1, 1, allow_nan=False)


@st.composite
def _weights_st(draw):
    raw = [
        draw(st.one_of(st.just(0.0), st.sampled_from([MIN_CASE_WEIGHT, 1e-12]), st.floats(1e-6, 1)))
        for _ in range(3)
    ]
    if not any(raw):
        raw[draw(st.integers(0, 2))] = 1.0
    total = sum(raw)
    weights = [w / total for w in raw]
    # a tiny weight that normalizing pushed under the floor becomes the floor
    return CaseWeights(*[MIN_CASE_WEIGHT if 0 < w < MIN_CASE_WEIGHT else w for w in weights])


def _state_st(rails, max_photons=2):
    """Random states over ``rails``, kets of one to four entries."""
    entry = st.tuples(
        st.lists(
            st.tuples(st.sampled_from(rails), st.integers(1, max_photons)), min_size=1, max_size=4
        ),
        _PART,
        _PART,
    )
    return st.builds(
        lambda entries: PureState([(FockKet(occ), complex(re, im)) for occ, re, im in entries]),
        st.lists(entry, min_size=1, max_size=8),
    )


def _one_per_position_st():
    """Random states whose kets hold one photon per fig3 channel position,
    sometimes with one photon too many."""
    photon = st.tuples(st.sampled_from([0, 1]), st.sampled_from("HV"))

    def build(entries):
        terms = []
        for choice, extra, re, im in entries:
            occ = [(Rail(pair[i], pol), 1) for pair, (i, pol) in zip(_POSITIONS, choice)]
            if extra:
                occ.append((occ[0][0], 1))
            terms.append((FockKet(occ), complex(re, im)))
        return PureState(terms)

    entry = st.tuples(
        st.tuples(photon, photon, photon), st.integers(0, 12).map(lambda n: n == 0), _PART, _PART
    )
    return st.builds(build, st.lists(entry, min_size=1, max_size=8))


_COUPLINGS = st.lists(
    st.builds(
        KerrCoupling,
        st.sampled_from(["a1", "b1", "a2", "b2"]),
        st.sampled_from("HV"),
        st.sampled_from([0.5, -0.5, 1.0, 0.25, 0.0, -0.0]),
    ),
    max_size=6,
)


@settings(max_examples=150, derandomize=True, database=None)
@given(weights=_weights_st())
@example(weights=CaseWeights(0.0, 0.0, 1.0))
@example(weights=CaseWeights(1.0, 0.0, 0.0))
@example(weights=CaseWeights(MIN_CASE_WEIGHT, 0.5, 0.5 - MIN_CASE_WEIGHT))
def test_property_emission_is_bit_exact_to_reference(weights):
    reference = oracles.reference_dual_pass_emission(weights)
    assert _bits(dual_pass_emission(weights)) == _bits(reference)


@settings(max_examples=100, derandomize=True, database=None)
@given(state=_state_st(_SOURCE_RAILS, 3), couplings=_COUPLINGS)
def test_property_tags_are_bit_exact_to_reference(state, couplings):
    for _ in range(2):  # first sight, then the memo
        tags = tag_phases(state, couplings)
        reference = oracles.reference_tag_phases(state, couplings)
        assert [(k, t.hex()) for k, t in tags.items()] == [
            (k, t.hex()) for k, t in reference.items()
        ]


def _discriminated(state, tags, theta, alpha, seed, discriminate):
    rng = None if seed is None else Generator(seed)
    outcomes = discriminate(state, tags, theta, alpha, rng)
    return [_outcome_bits(o) for o in outcomes]


def _check_homodyne(state, tags, theta, alpha, seed):
    assert _either(
        _discriminated, state, tags, theta, alpha, seed, homodyne_discriminate
    ) == _either(
        _discriminated, state, tags, theta, alpha, seed, oracles.reference_homodyne_discriminate
    )
    rng = None if seed is None else Generator(seed)
    try:
        outcomes = homodyne_discriminate(state, tags, theta, alpha, rng)
    except ValueError:
        return
    for outcome in outcomes:
        assert _bits(feed_forward(outcome)) == _bits(oracles.reference_feed_forward(outcome))


@settings(max_examples=150, derandomize=True, database=None)
@given(
    weights=_weights_st(),
    theta=st.one_of(st.just(0.01), st.floats(-1, 1, allow_nan=False)),
    alpha=st.one_of(st.just(1e5**0.5), st.floats(0, 1e3, allow_nan=False)),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@example(weights=CaseWeights(), theta=0.01, alpha=1e5**0.5, seed=5)
def test_property_homodyne_and_feed_forward_are_bit_exact_to_reference(
    weights, theta, alpha, seed
):
    # a seed samples the record x, so phi != 0 and both phase paths run
    emission = dual_pass_emission(weights)
    tags = tag_phases(emission, build_fig3().couplings)
    _check_homodyne(emission, tags, theta, alpha, seed)


@settings(max_examples=100, derandomize=True, database=None)
@given(
    state=_state_st(_SOURCE_RAILS, 3),
    data=st.data(),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_property_homodyne_on_random_tags_is_bit_exact_to_reference(state, data, seed):
    # tags off the classes -1, 0, 1 raise NetworkError on both sides
    tag = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-2, 2, allow_nan=False))
    tags = {k: data.draw(tag) for k in state.terms}
    _check_homodyne(state, tags, 0.01, 1e5**0.5, seed)


_MIXTURE = [errors for _, errors in depolarizing_mixture(0.3)]


def _check_errors(state, errors, positions):
    for _ in range(2):  # first sight, then the memo
        assert _either(apply_errors, state, errors, positions, bits=_bits) == _either(
            oracles.reference_apply_errors, state, errors, positions, bits=_bits
        )


def test_apply_errors_is_bit_exact_to_reference_on_every_mixture_term():
    assert len(_MIXTURE) == 64
    for fam in all_families():
        literal = family_state(fam, _POSITIONS)
        for errors in _MIXTURE:
            _check_errors(literal, errors, _POSITIONS)


@settings(max_examples=100, derandomize=True, database=None)
@given(
    state=_state_st([Rail(m, p) for m in _MODES + ["x"] for p in "HV"]),
    index=st.integers(0, 63),
    extra=st.lists(st.builds(PauliError, st.integers(1, 3), st.sampled_from("XYZ")), max_size=3),
)
def test_property_apply_errors_is_bit_exact_to_reference(state, index, extra):
    _check_errors(state, _MIXTURE[index] + tuple(extra), _POSITIONS)


def _check_classify(state, positions):
    label = lambda fam: fam.label  # noqa: E731
    assert _either(classify_family, state, positions, bits=label) == _either(
        oracles.reference_classify_family, state, positions, bits=label
    )


def _check_summary(state, positions):
    for _ in range(2):  # first sight, then the memo
        assert _either(entanglement_summary, state, positions, bits=_summary_bits) == _either(
            oracles.reference_entanglement_summary, state, positions, bits=_summary_bits
        )


@settings(max_examples=100, derandomize=True, database=None)
@given(
    index=st.integers(0, 15),
    phase=st.floats(-3.2, 3.2),
    stray=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 3), st.sampled_from([1, -1])), max_size=4
    ),
)
def test_property_classify_matches_the_full_scan(index, phase, stray):
    # a family's literal state under a global phase, with amplitudes just
    # above PRUNE_TOL on kets of other families
    families = all_families()
    state = family_state(families[index], _POSITIONS) * complex(math.cos(phase), math.sin(phase))
    extra = {}
    for fam, i, sign in stray:
        k = list(family_state(families[fam], _POSITIONS).terms)[i]
        extra[k] = 1.5 * PRUNE_TOL * sign
    noisy = state + PureState(extra)
    assert classify_family(noisy, _POSITIONS) is families[index]
    _check_classify(noisy, _POSITIONS)


def test_classify_raises_on_a_state_that_matches_no_family():
    families = all_families()
    for a, b in itertools.combinations(range(16), 2):
        mixed = family_state(families[a], _POSITIONS) + family_state(families[b], _POSITIONS)
        _check_classify(mixed, _POSITIONS)
        assert _either(classify_family, mixed, _POSITIONS)[0] == "error"


@settings(max_examples=100, derandomize=True, database=None)
@given(state=_one_per_position_st())
def test_property_classify_and_entanglement_on_random_channel_states(state):
    _check_classify(state, _POSITIONS)
    _check_summary(state, _POSITIONS)


@settings(max_examples=40, derandomize=True, database=None)
@given(text=circuits(), index=st.integers(0, 63), seed=st.integers(0, 2**32 - 1))
@example(text=builtin_text("fig1"), index=5, seed=5)
@example(text=builtin_text("fig3"), index=21, seed=5)
def test_property_random_circuits_layers_are_bit_exact_to_reference(text, index, seed):
    # every layer on a random circuit's own states: its emission, tags and
    # homodyne split (sampled and at the mean), and its fan-out states
    # under channel errors, classification and the entanglement summary
    network = elaborate(parse(text), name="random")
    structure = analyze(network)
    weights = network.source.weights
    emission = dual_pass_emission(weights)
    assert _bits(emission) == _bits(oracles.reference_dual_pass_emission(weights))
    tags = tag_phases(emission, network.couplings)
    assert tags == oracles.reference_tag_phases(emission, network.couplings)
    theta, alpha = network.settings.theta, network.settings.alpha
    for rng_seed in (None, seed):
        _check_homodyne(emission, tags, theta, alpha, rng_seed)
        rng = None if rng_seed is None else Generator(rng_seed)
        for outcome in homodyne_discriminate(emission, tags, theta, alpha, rng):
            state = compose(network.elements[: structure.boundary], feed_forward(outcome))
            _check_errors(state, _MIXTURE[index], structure.positions)
            _check_classify(state, structure.positions)
            _check_summary(state, structure.positions)
