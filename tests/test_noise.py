"""Channel noise families: literals, classification, Pauli closure."""

import itertools

import pytest
from hypothesis import given, strategies as st

from ghzgen import (
    FockKet,
    NetworkError,
    NoiseFamily,
    PSI_PLUS,
    PauliError,
    Rail,
    all_families,
    analyze,
    apply_errors,
    build_fig3,
    classify_family,
    depolarizing_mixture,
    family_state,
    fidelity,
    format_noise_spec,
    ket,
    parse_noise_spec,
)

from oracles import states_close

# the builtin generator's channel pairs, one (lower, upper) pair per photon
POSITIONS = analyze(build_fig3()).positions


def test_psi_plus_literal():
    s = family_state(PSI_PLUS, POSITIONS)
    assert s.norm() == pytest.approx(1.0)
    # one of the four kets: HHV on lower, lower, upper arms
    k = FockKet(
        {Rail("d1", "H"): 1, Rail("d2", "H"): 1, Rail("D3", "V"): 1}
    )
    assert s.amplitude(k) == pytest.approx(0.5)


def test_family_labels():
    assert PSI_PLUS.label == "psi+"
    assert NoiseFamily("psi2", -1, mirrored=True).label == "psi2-'"


def test_family_validation():
    with pytest.raises(ValueError):
        NoiseFamily("psi3", 1)
    with pytest.raises(ValueError):
        NoiseFamily("psi", 2)


def test_all_families_distinct_and_orthogonal():
    families = all_families()
    assert len(families) == 16
    states = [family_state(f, POSITIONS) for f in families]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert fidelity(a, b) == pytest.approx(expected, abs=1e-12)


def test_classify_family_roundtrip():
    for fam in all_families():
        assert classify_family(family_state(fam, POSITIONS), POSITIONS) == fam


def test_classify_rejects_outsiders():
    # a single product word is no superposition at all; a miswired
    # circuit is what brings one here, so it is a usage error
    with pytest.raises(NetworkError):
        classify_family(ket(("d1", "H"), ("d2", "H"), ("d3", "H")), POSITIONS)


def test_pauli_error_validation():
    with pytest.raises(ValueError):
        PauliError(photon=4, kind="X")
    with pytest.raises(ValueError):
        PauliError(photon=1, kind="W")


def test_z_flips_sign():
    for photon in (1, 2, 3):
        out = apply_errors(
            family_state(PSI_PLUS, POSITIONS), [PauliError(photon, "Z")], POSITIONS
        )
        assert classify_family(out, POSITIONS) == NoiseFamily("psi", -1)


def test_x_combo_family_map():
    # frozen map from bit-flip subsets to families; flips on one or two
    # photons land in the mirrored half
    expected = {
        (): NoiseFamily("psi", 1),
        (1,): NoiseFamily("psi2", 1, mirrored=True),
        (2,): NoiseFamily("psi1", 1, mirrored=True),
        (3,): NoiseFamily("psi0", 1),
        (1, 2): NoiseFamily("psi0", 1, mirrored=True),
        (1, 3): NoiseFamily("psi1", 1),
        (2, 3): NoiseFamily("psi2", 1),
        (1, 2, 3): NoiseFamily("psi", 1, mirrored=True),
    }
    for photons, fam in expected.items():
        errors = tuple(PauliError(p, "X") for p in photons)
        out = apply_errors(family_state(PSI_PLUS, POSITIONS), errors, POSITIONS)
        assert classify_family(out, POSITIONS) == fam, photons


def test_pauli_closure_all_families():
    # every single-photon error maps every family onto another family
    for fam in all_families():
        state = family_state(fam, POSITIONS)
        for photon in (1, 2, 3):
            for kind in ("X", "Z", "Y"):
                out = apply_errors(state, [PauliError(photon, kind)], POSITIONS)
                classify_family(out, POSITIONS)


def test_y_equals_z_after_x_up_to_phase():
    for photon in (1, 2, 3):
        state = family_state(PSI_PLUS, POSITIONS)
        y = apply_errors(state, [PauliError(photon, "Y")], POSITIONS)
        zx = apply_errors(
            apply_errors(state, [PauliError(photon, "X")], POSITIONS),
            [PauliError(photon, "Z")],
            POSITIONS,
        )
        assert fidelity(y, zx) == pytest.approx(1.0, abs=1e-12)


@given(
    st.sampled_from([f for f in all_families()]),
    st.integers(1, 3),
    st.sampled_from(["X", "Z"]),
)
def test_property_x_and_z_are_involutions(fam, photon, kind):
    err = PauliError(photon, kind)
    state = family_state(fam, POSITIONS)
    twice = apply_errors(state, [err, err], POSITIONS)
    assert states_close(twice, state, tol=1e-12)


@given(
    st.sampled_from(all_families()),
    st.lists(
        st.builds(PauliError, st.integers(1, 3), st.sampled_from(["X", "Z", "Y"])),
        max_size=6,
    ),
)
def test_property_errors_compose_one_at_a_time(fam, errors):
    # a list of errors acts as the errors applied one by one, bit for bit
    together = apply_errors(family_state(fam, POSITIONS), errors, POSITIONS)
    one_by_one = family_state(fam, POSITIONS)
    for err in errors:
        one_by_one = apply_errors(one_by_one, [err], POSITIONS)
    # repr keeps the ket order and the sign of a zero
    assert repr(together.terms) == repr(one_by_one.terms)


def test_depolarizing_mixture_weights():
    terms = depolarizing_mixture(0.3)
    assert len(terms) == 64
    assert sum(w for w, _ in terms) == pytest.approx(1.0, abs=1e-12)
    # identity term first, with weight (1-p)^3
    w0, errs0 = terms[0]
    assert errs0 == ()
    assert w0 == pytest.approx(0.7**3)


def test_depolarizing_mixture_edge_strengths():
    assert depolarizing_mixture(0.0) == [(1.0, ())]
    terms = depolarizing_mixture(1.0)
    assert len(terms) == 27  # identity weight vanishes per photon
    with pytest.raises(ValueError):
        depolarizing_mixture(1.5)


def test_noise_spec_roundtrip():
    errors = parse_noise_spec("X@1,Z@3")
    assert errors == (PauliError(1, "X"), PauliError(3, "Z"))
    assert format_noise_spec(errors) == "X@1,Z@3"
    assert parse_noise_spec("") == ()
    with pytest.raises(ValueError):
        parse_noise_spec("X1")
    with pytest.raises(ValueError):
        parse_noise_spec("X@one")
    with pytest.raises(ValueError):
        parse_noise_spec("Q@1")


def test_errors_apply_in_listed_order():
    # X then Z differs from Z then X by a global sign only
    xz = apply_errors(
        family_state(PSI_PLUS, POSITIONS), parse_noise_spec("X@1,Z@1"), POSITIONS
    )
    zx = apply_errors(
        family_state(PSI_PLUS, POSITIONS), parse_noise_spec("Z@1,X@1"), POSITIONS
    )
    assert fidelity(xz, zx) == pytest.approx(1.0, abs=1e-12)
    assert classify_family(xz, POSITIONS) == classify_family(zx, POSITIONS)
