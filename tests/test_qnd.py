"""Probe tagging, homodyne branch split, feed-forward, distinguishability."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzgen import (
    DEFAULT_ALPHA,
    DEFAULT_THETA,
    KerrCoupling,
    dual_pass_emission,
    feed_forward,
    fidelity,
    homodyne_discriminate,
    ket,
    probe_distinguishability,
    tag_phases,
    two_pair_product,
    CaseWeights,
    build_fig3,
    build_ghzps,
)

from oracles import states_close


# the probe couplings of the builtin circuits, from their kerr lines
COUPLINGS = build_ghzps().couplings


def test_default_couplings_signs():
    assert build_fig3().couplings == COUPLINGS
    assert {(c.mode, c.pol, c.units) for c in COUPLINGS} == {
        ("a1", "H", 0.5),
        ("a1", "V", 0.5),
        ("a2", "H", -0.5),
        ("a2", "V", -0.5),
    }


def test_tags_sort_the_three_cases():
    for case, expected in (((1, 1), 1.0), ((2, 2), -1.0), ((1, 2), 0.0)):
        tags = tag_phases(two_pair_product(*case), COUPLINGS)
        assert set(tags.values()) == {expected}


def test_branch_probabilities_default_weights():
    state = dual_pass_emission()
    tags = tag_phases(state, COUPLINGS)
    outcomes = homodyne_discriminate(state, tags)
    probs = {o.branch: o.probability for o in outcomes}
    assert probs["A"] == pytest.approx(0.5, abs=1e-12)
    assert probs["B"] == pytest.approx(0.5, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_record_sits_at_branch_mean():
    state = dual_pass_emission()
    tags = tag_phases(state, COUPLINGS)
    a, b = homodyne_discriminate(state, tags)
    assert a.branch == "A" and b.branch == "B"
    assert a.x == pytest.approx(2 * DEFAULT_ALPHA * math.cos(DEFAULT_THETA))
    assert b.x == pytest.approx(2 * DEFAULT_ALPHA)
    assert a.phi == 0.0 and b.phi == 0.0


def test_branch_conditionals_preserve_photon_numbers():
    state = dual_pass_emission()
    tags = tag_phases(state, COUPLINGS)
    for outcome in homodyne_discriminate(state, tags):
        for k, _ in outcome.conditional.sorted_terms():
            assert sum(n for _, n in k.occupations) == 4


def test_branch_a_keeps_sign_coherence():
    # a superposition of +1 and -1 tags stays one coherent branch
    up = two_pair_product(1, 1)
    down = two_pair_product(2, 2)
    state = (up + down) * (0.5 ** 0.5)
    tags = tag_phases(state, COUPLINGS)
    (outcome,) = homodyne_discriminate(state, tags)
    assert outcome.branch == "A"
    assert outcome.probability == pytest.approx(1.0)
    assert fidelity(outcome.conditional, state) == pytest.approx(1.0, abs=1e-12)


def test_sampled_record_phases_are_undone_by_feed_forward():
    up = two_pair_product(1, 1)
    down = two_pair_product(2, 2)
    state = (up + down) * (0.5 ** 0.5)
    tags = tag_phases(state, COUPLINGS)
    rng = np.random.default_rng(11)
    (outcome,) = homodyne_discriminate(state, tags, rng=rng)
    assert outcome.phi != 0.0
    # the raw conditional is dephased between the two tag signs
    assert fidelity(outcome.conditional, state) < 1.0
    recovered = feed_forward(outcome)
    assert states_close(recovered, state, tol=1e-10)


def test_feed_forward_is_identity_on_branch_b():
    state = dual_pass_emission()
    tags = tag_phases(state, COUPLINGS)
    _, b = homodyne_discriminate(state, tags)
    assert feed_forward(b) == b.conditional


def test_discriminate_rejects_stray_tags():
    state = ket(("a1", "H"))
    tags = tag_phases(state, (KerrCoupling("a1", "H", 0.3),))
    with pytest.raises(ValueError):
        homodyne_discriminate(state, tags)


def test_discriminate_rejects_zero_state():
    from ghzgen import PureState

    with pytest.raises(ValueError):
        homodyne_discriminate(PureState(), {})


def test_probe_distinguishability_value():
    # overlap exp(-alpha^2 (1 - cos theta)); the default operating point
    # gives exp(-5) up to the theta^4 Taylor remainder
    val = probe_distinguishability(DEFAULT_ALPHA, DEFAULT_THETA)
    exact = math.exp(-DEFAULT_ALPHA**2 * (1.0 - math.cos(DEFAULT_THETA)))
    assert val == pytest.approx(exact, rel=1e-12)
    assert val == pytest.approx(math.exp(-5.0), rel=1e-4)
    assert probe_distinguishability(0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        probe_distinguishability(-1.0, 0.01)


def test_sampling_is_deterministic_per_seed():
    state = dual_pass_emission()
    tags = tag_phases(state, COUPLINGS)
    a1 = homodyne_discriminate(state, tags, rng=np.random.default_rng(5))
    a2 = homodyne_discriminate(state, tags, rng=np.random.default_rng(5))
    assert [(o.branch, o.x, o.phi) for o in a1] == [
        (o.branch, o.x, o.phi) for o in a2
    ]


@given(
    st.tuples(
        st.floats(0.01, 1, allow_nan=False),
        st.floats(0.01, 1, allow_nan=False),
        st.floats(0.01, 1, allow_nan=False),
    )
)
def test_property_branch_probabilities_sum_to_one(raw):
    total = sum(raw)
    weights = CaseWeights(*(w / total for w in raw))
    state = dual_pass_emission(weights)
    tags = tag_phases(state, COUPLINGS)
    outcomes = homodyne_discriminate(state, tags)
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
    # mixed-case weight feeds branch B, the rest branch A
    probs = {o.branch: o.probability for o in outcomes}
    assert probs.get("B", 0.0) == pytest.approx(weights.mixed, abs=1e-9)
