"""End-to-end pipeline: fan-out branches, postselection, correction table,
full runs and the literal reference states."""

import pytest
from hypothesis import example, given, strategies as st

import oracles
from ghzgen import (
    CaseWeights,
    NetworkError,
    NoiseFamily,
    PHI_PLUS,
    PSI_PLUS,
    PauliError,
    all_families,
    analyze,
    branch_a_literal,
    branch_states,
    build_fig3,
    build_ghzps,
    dual_pass_emission,
    elaborate,
    entanglement_report,
    evolved_family_literal,
    family_state,
    fidelity,
    ghz_target,
    ket,
    lookup_correction,
    parse,
    postselect_coincidence,
    run_full,
    sweep_noise,
    two_pair_product,
    verify_correction_table,
    verify_reference_states,
)
from ghzgen.dsl import builtin_text
from ghzgen.pipeline import _FAMILY_ROWS, _PHI_ROWS, GHZ_WORDS
from ghzgen.source import MIN_CASE_WEIGHT

TOL = 1e-12


def _fig3_patterns():
    return analyze(build_fig3()).patterns


def _fig1_positions():
    return analyze(build_ghzps()).positions


def test_ghz_target_literal():
    t = ghz_target(("m1", "m2", "m3"))
    hhv = ((("m1", "H"), 1), (("m2", "H"), 1), (("m3", "V"), 1))
    vvh = ((("m1", "V"), 1), (("m2", "V"), 1), (("m3", "H"), 1))
    assert t.amplitude(hhv) == pytest.approx(2**-0.5)
    assert t.amplitude(vvh) == pytest.approx(2**-0.5)
    assert t.norm() == pytest.approx(1.0)


def test_literal_states_take_any_sequence():
    # the literal states are memoized on tuples: list arguments give the
    # same states as tuples, not an unhashable-argument error
    positions = _fig1_positions()
    listed = [list(pair) for pair in positions]
    for fam in all_families():
        assert family_state(fam, listed) == family_state(fam, tuple(positions))
    assert ghz_target(["m1", "m2", "m3"]) == ghz_target(("m1", "m2", "m3"))


# --- fan-out stage --------------------------------------------------------


def _fan_out(weights=None):
    # branch label -> BranchState of the fan-out network under ``weights``
    return {bs.branch: bs for bs in branch_states(build_ghzps().with_overrides(weights))}


def test_fan_out_branch_conditionals():
    results = _fan_out()
    assert set(results) == {"A", "B"}
    positions = _fig1_positions()

    a = results["A"]
    assert a.joint_probability == pytest.approx(1 / 24, abs=TOL)
    assert fidelity(a.conditional, branch_a_literal(positions)) == pytest.approx(1.0, abs=TOL)

    b = results["B"]
    assert b.joint_probability == pytest.approx(1 / 16, abs=TOL)
    b_literal = family_state(PSI_PLUS, positions)
    assert fidelity(b.conditional, b_literal) == pytest.approx(1.0, abs=TOL)


@pytest.mark.parametrize(
    "weights",
    [
        (1 / 3, 1 / 3, 1 / 3),
        (0.5, 0.25, 0.25),
        (0.1, 0.2, 0.7),
    ],
)
def test_fan_out_joint_probabilities_scale_with_weights(weights):
    # same-pass cases pass coincidence at 1/12 each, the mixed case at 1/8;
    # the branch conditionals themselves do not depend on the split
    w1, w2, w3 = weights
    results = _fan_out(CaseWeights(*weights))
    assert results["A"].joint_probability == pytest.approx((w1 + w2) / 12, abs=TOL)
    assert results["B"].joint_probability == pytest.approx(w3 / 8, abs=TOL)
    b_literal = family_state(PSI_PLUS, _fig1_positions())
    assert fidelity(results["B"].conditional, b_literal) == pytest.approx(1.0, abs=TOL)


def test_fan_out_unbalanced_weights_reshape_product_branch():
    # unequal same-pass weights leave the two spatial words unbalanced
    a_state = _fan_out(CaseWeights(0.5, 0.25, 0.25))["A"].conditional
    values = sorted(abs(amp) for _, amp in a_state.sorted_terms())
    # weight ratio 2:1 puts amplitude ratio sqrt(2):1 between the arms
    assert values[0] * 2**0.5 == pytest.approx(values[-1], abs=1e-9)


@given(
    st.lists(
        st.sampled_from([0.0, MIN_CASE_WEIGHT]) | st.floats(MIN_CASE_WEIGHT, 0.3),
        min_size=3,
        max_size=3,
    ),
    st.integers(0, 2),
)
@example([MIN_CASE_WEIGHT, MIN_CASE_WEIGHT, 0.0], 2)
@example([0.0, 0.0, MIN_CASE_WEIGHT], 0)
def test_property_no_admitted_case_vanishes(small, big):
    # two weights are 0 or admitted small ones, the third takes the rest
    small[big] = 0.0
    small[big] = 1.0 - sum(small)
    weights = CaseWeights(*small)
    w1, w2, w3 = small
    cases = [case for case, w in zip(((1, 1), (2, 2), (1, 2)), small) if w]
    expected = {k for case in cases for k in two_pair_product(*case).terms}
    assert set(dual_pass_emission(weights).terms) == expected
    branches = {e.branch for e in run_full(weights=weights).entries}
    assert branches == {b for b, w in (("A", w1 + w2), ("B", w3)) if w}


def test_engine_fan_out_matches_dense_oracle():
    state = dual_pass_emission()
    for element in build_ghzps().elements:
        state = element.apply(state)
    expected = oracles.fan_out_dense((0.25, 0.25, 0.5))
    seen = {}
    for k, amp in state.sorted_terms():
        occ = [0] * len(oracles.FAN_OUT_RAILS)
        for r, n in k:
            occ[oracles.FAN_OUT_RAILS.index((r.mode, r.pol))] = n
        seen[tuple(occ)] = amp
    assert set(seen) == set(expected)
    for key, amp in expected.items():
        assert seen[key] == pytest.approx(amp, abs=1e-10)


# --- postselection --------------------------------------------------------


def test_postselect_splits_patterns():
    hhv = ket(("e1", "H"), ("e2", "H"), ("E3", "V"))
    vvh = ket(("E1", "V"), ("E2", "V"), ("e3", "H"))
    blocked = ket(("e1", "H", 2), ("e2", "H"), ("E3", "V"), amp=0.5)
    state = 0.5 * hhv + (0.5 + 0.5j) * vvh + blocked
    results = postselect_coincidence(state, _fig3_patterns())
    by_label = {pattern.label: (pattern, cond, p) for pattern, cond, p in results}
    assert set(by_label) == {"e1e2E3", "E1E2e3"}

    pattern, cond, p = by_label["e1e2E3"]
    assert pattern.shape == "ttr"
    assert p == pytest.approx(0.25, abs=TOL)
    assert cond.norm() == pytest.approx(1.0, abs=TOL)
    assert fidelity(cond, hhv) == pytest.approx(1.0, abs=TOL)

    _, _, p2 = by_label["E1E2e3"]
    assert p2 == pytest.approx(0.5, abs=TOL)
    # the two-photon term fails the one-per-mode requirement
    assert p + p2 == pytest.approx(0.75, abs=TOL)


def test_postselect_empty_for_non_coincident_state():
    state = ket(("e1", "H"), ("e1", "V"), ("e2", "H"))
    assert postselect_coincidence(state, _fig3_patterns()) == []


# --- correction table -----------------------------------------------------


def _pattern(shape):
    return next(p for p in _fig3_patterns() if p.shape == shape)


def test_lookup_correction_base_rows():
    expected = {
        ("psi", "ttr"): ("I", "I", "X"),
        ("psi", "rrt"): ("I", "X", "I"),
        ("psi0", "ttt"): ("I", "I", "I"),
        ("psi0", "rrr"): ("X", "I", "I"),
        ("psi1", "rtt"): ("X", "I", "I"),
        ("psi1", "trr"): ("I", "I", "I"),
        ("psi2", "trt"): ("I", "X", "I"),
        ("psi2", "rtr"): ("I", "I", "X"),
    }
    for (tag, shape), ops in expected.items():
        for sign in (1, -1):
            assert lookup_correction(NoiseFamily(tag, sign), _pattern(shape)) == ops, (
                tag,
                sign,
                shape,
            )


def test_lookup_correction_mirrored_swaps_ops():
    base = NoiseFamily("psi", 1)
    mirrored = NoiseFamily("psi", 1, mirrored=True)
    ttr, rrt = _pattern("ttr"), _pattern("rrt")
    assert lookup_correction(mirrored, ttr) == lookup_correction(base, rrt)
    assert lookup_correction(mirrored, rrt) == lookup_correction(base, ttr)


def test_lookup_correction_product_branch():
    assert lookup_correction(PHI_PLUS, _pattern("ttr")) == ("I", "I", "I")
    assert lookup_correction(PHI_PLUS, _pattern("rrt")) == ("I", "I", "I")
    # an unknown label is a programming error, not a circuit one
    with pytest.raises(ValueError) as excinfo:
        lookup_correction("bell", _pattern("ttr"))
    assert not isinstance(excinfo.value, NetworkError)


def test_table_corrections_turn_row_words_into_ghz_words():
    # the table states each shape's literal words and its correction
    # once; flipping the corrected photons must give the GHZ words
    flip = str.maketrans("HV", "VH")
    rows = [row for pair in _FAMILY_ROWS.values() for row in pair] + list(_PHI_ROWS)
    for shape, words, ops in rows:
        corrected = {
            "".join(p.translate(flip) if op == "X" else p for p, op in zip(word, ops))
            for word in words
        }
        assert corrected == set(GHZ_WORDS), (shape, words, ops)


def test_lookup_correction_unreachable_pattern():
    # reachable only through a miswired circuit, so it is a usage error
    with pytest.raises(NetworkError):
        lookup_correction(NoiseFamily("psi", 1), _pattern("ttt"))


# --- full runs ------------------------------------------------------------


def test_run_full_noiseless_report():
    report = run_full()
    assert report.network == "fig3"
    assert report.style == "generator"
    assert report.noise == ()
    assert report.weights == (0.25, 0.25, 0.5)
    assert len(report.entries) == 4

    by_key = {(e.branch, e.pattern.label): e for e in report.entries}
    assert set(by_key) == {
        ("A", "e1e2E3"),
        ("A", "E1E2e3"),
        ("B", "e1e2E3"),
        ("B", "E1E2e3"),
    }
    for (branch, _), entry in by_key.items():
        assert entry.fidelity == pytest.approx(1.0, abs=TOL)
        assert entry.pattern_probability == pytest.approx(0.5, abs=TOL)
        expected_joint = 1 / 48 if branch == "A" else 1 / 32
        assert entry.joint_probability == pytest.approx(expected_joint, abs=TOL)
    assert by_key[("A", "e1e2E3")].family == PHI_PLUS
    assert by_key[("A", "e1e2E3")].corrections == ("I", "I", "I")
    assert by_key[("B", "e1e2E3")].family == PSI_PLUS
    assert by_key[("B", "e1e2E3")].corrections == ("I", "I", "X")
    assert by_key[("B", "E1E2e3")].corrections == ("I", "X", "I")

    total = sum(e.joint_probability for e in report.entries)
    assert total == pytest.approx(5 / 48, abs=TOL)


def test_run_full_output_matches_ghz_target():
    report = run_full()
    for entry in report.entries:
        target = ghz_target(entry.pattern.modes)
        assert fidelity(entry.state, target) == pytest.approx(1.0, abs=TOL)
        # states are phase-fixed: leading amplitude positive real
        amp = next(iter(entry.state.sorted_terms()))[1]
        assert amp.imag == pytest.approx(0.0, abs=TOL)
        assert amp.real > 0


@pytest.mark.parametrize(
    "spec, family, shapes",
    [
        ("X@1", NoiseFamily("psi2", 1, mirrored=True), ("trt", "rtr")),
        ("Z@3", NoiseFamily("psi", -1), ("ttr", "rrt")),
        ("X@1,Z@3", NoiseFamily("psi2", -1, mirrored=True), ("trt", "rtr")),
        ("Y@2", NoiseFamily("psi1", -1, mirrored=True), ("rtt", "trr")),
    ],
)
def test_run_full_recovers_from_channel_noise(spec, family, shapes):
    report = run_full(spec)
    b_entries = [e for e in report.entries if e.branch == "B"]
    assert len(b_entries) == 2
    assert {e.pattern.shape for e in b_entries} == set(shapes)
    for entry in b_entries:
        assert entry.family == family
        assert entry.fidelity == pytest.approx(1.0, abs=TOL)
        assert entry.joint_probability == pytest.approx(1 / 32, abs=TOL)
    # the product branch never sees the channel
    for entry in report.entries:
        if entry.branch == "A":
            assert entry.family == PHI_PLUS
            assert entry.fidelity == pytest.approx(1.0, abs=TOL)


def test_run_full_every_single_error_recovers():
    for photon in (1, 2, 3):
        for kind in ("X", "Z", "Y"):
            report = run_full((PauliError(photon, kind),))
            for entry in report.entries:
                assert entry.fidelity == pytest.approx(1.0, abs=TOL), (
                    photon,
                    kind,
                    entry.pattern.label,
                )


def test_run_full_noise_needs_generator_network():
    with pytest.raises(NetworkError):
        run_full("X@1", network=build_ghzps())


@pytest.mark.parametrize("weights", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
def test_run_full_noise_needs_mixed_pass_weight(weights):
    # noise acts only on the mixed-pass branch, so without it noise is an error
    weights = CaseWeights(*weights)
    with pytest.raises(NetworkError, match="nonzero mixed-pass weight"):
        run_full("X@1", weights=weights)
    # the same weights given on the circuit's source line
    text = builtin_text("fig3").replace("weights 0.25 0.25 0.5", "weights %r %r %r" % weights)
    network = elaborate(parse(text))
    assert network.source.weights == weights
    with pytest.raises(NetworkError, match="nonzero mixed-pass weight"):
        run_full("X@1", network=network)
    assert {e.branch for e in run_full(weights=weights).entries} == {"A"}


def test_sweep_noise_needs_generator_network():
    # rejected up front, for every strength, before any term is run
    for p in (0.0, 0.1):
        with pytest.raises(NetworkError, match="generator-style"):
            sweep_noise(p, network=build_ghzps())


def test_sweep_noise_rows():
    rows = sweep_noise(0.1)
    assert len(rows) == 64
    assert sum(r["weight"] for r in rows) == pytest.approx(1.0, abs=TOL)
    assert all(r["corrected_fidelity"] >= 1.0 - TOL for r in rows)


def test_run_full_source_style_reports_structure():
    report = run_full(network=build_ghzps())
    assert report.style == "source"
    assert len(report.entries) == 2
    by_branch = {e.branch: e for e in report.entries}
    a, b = by_branch["A"], by_branch["B"]
    for entry in (a, b):
        assert entry.family is None
        assert entry.pattern is None
        assert entry.fidelity is None
        assert entry.corrections == ()
    assert a.joint_probability == pytest.approx(1 / 24, abs=TOL)
    assert b.joint_probability == pytest.approx(1 / 16, abs=TOL)
    assert a.entanglement["schmidt_rank"] == 1
    assert b.entanglement["schmidt_rank"] == 2


def test_run_full_sampling_is_seed_deterministic():
    first = run_full(sample=True, seed=7)
    second = run_full(sample=True, seed=7)
    assert first.sampled == second.sampled
    assert first.sampled["branch"] in {"A", "B"}
    assert "x" in first.sampled and "phi" in first.sampled
    assert len(first.entries) == 1
    entry = first.entries[0]
    assert entry.branch == first.sampled["branch"]
    assert entry.pattern.label == first.sampled["pattern"]
    assert [e.pattern.label for e in second.entries] == [entry.pattern.label]


def test_run_full_sampling_covers_both_branches():
    seen = set()
    for seed in range(20):
        seen.add(run_full(sample=True, seed=seed).sampled["branch"])
        if seen == {"A", "B"}:
            break
    assert seen == {"A", "B"}


# each source arm split by a PBS, with a1's transmitted port split again:
# only the mixed-pass branch B puts one photon on each pair
_B_ONLY = "\n".join(
    [l for l in builtin_text("fig3").splitlines() if l.startswith(("source ", "kerr "))]
    + ["pbs a1 -> m0 m1", "pbs b1 -> m2 m3", "pbs a2 -> m4 m5", "pbs b2 -> m6 m7"]
    + ["pbs m0 -> m8 m9", "detect T = m1"]
    + ["detect P1 = m2 m3", "detect P2 = m4 m5", "detect P3 = m6 m7"]
) + "\n"


def test_sampling_draws_every_homodyne_outcome():
    # the draw runs over both homodyne outcomes by their probability (1/2
    # each here), so seeds draw branch A too; that outcome fails the
    # coincidence, and its draw reports no entry and no pattern
    network = elaborate(parse(_B_ONLY))
    outcomes = branch_states(network)
    assert [(bs.branch, bs.coincidence_probability > 0) for bs in outcomes] == [
        ("A", False),
        ("B", True),
    ]
    drawn = set()
    for seed in range(200):
        report = run_full(network=network, sample=True, seed=seed)
        assert set(report.sampled) == {"branch", "x", "phi"}
        assert [e.branch for e in report.entries] == (
            [] if report.sampled["branch"] == "A" else ["B"]
        )
        drawn.add(report.sampled["branch"])
    assert drawn == {"A", "B"}


def test_run_full_refuses_colliding_pattern_labels():
    # with these output names the psi patterns ttr and rrt would both read
    # "abcdxy", and a report could not tell them apart
    rename = {"e1": "ab", "E1": "a", "e2": "cdx", "E2": "bcd", "e3": "xy", "E3": "y"}
    text = "\n".join(
        " ".join(rename.get(t, t) for t in line.split())
        for line in builtin_text("fig3").splitlines()
    )
    network = elaborate(parse(text), name="collide")
    for sample in (False, True):
        with pytest.raises(NetworkError, match="both read 'abcdxy'"):
            run_full(network=network, sample=sample)


# --- verification helpers and literals -------------------------------------


def test_verify_correction_table_default_rows():
    rows = verify_correction_table()
    assert len(rows) == 16
    assert all(row["passed"] for row in rows)
    assert all(row["fidelity"] >= 1 - TOL for row in rows)
    assert all(
        row["pattern_probability"] == pytest.approx(0.5, abs=TOL) for row in rows
    )
    labels = {row["family"] for row in rows}
    assert labels == {f.label for f in all_families() if not f.mirrored}


def test_verify_correction_table_full_sweep():
    rows = verify_correction_table(all_families())
    assert len(rows) == 32
    assert all(row["passed"] for row in rows)


def test_verify_reference_states_all_pass():
    checks = verify_reference_states()
    assert len(checks) == 11
    for check in checks:
        assert check["passed"], check["name"]


def test_evolved_family_literals_match_engine():
    network = build_fig3()
    fan_in = network.elements[16:]
    positions = analyze(network).positions
    for fam in all_families():
        if fam.mirrored:
            continue
        state = family_state(fam, positions)
        for element in fan_in:
            state = element.apply(state)
        literal = evolved_family_literal(fam, _fig3_patterns())
        assert literal.norm() == pytest.approx(1.0, abs=TOL)
        assert fidelity(state, literal) == pytest.approx(1.0, abs=TOL), fam.label
    with pytest.raises(ValueError):
        evolved_family_literal(NoiseFamily("psi", 1, mirrored=True), _fig3_patterns())


def test_entanglement_report_branch_structure():
    rows = {branch: (joint, summary) for branch, joint, summary in entanglement_report()}
    a_joint, a_summary = rows["A"]
    assert a_joint == pytest.approx(1 / 24, abs=TOL)
    assert a_summary["schmidt_rank"] == 1
    assert a_summary["polarization_purity"] == pytest.approx(1.0, abs=TOL)
    assert a_summary["product_state_deviation"] < 1e-12

    b_joint, b_summary = rows["B"]
    assert b_joint == pytest.approx(1 / 16, abs=TOL)
    assert b_summary["schmidt_rank"] == 2
    assert list(b_summary["schmidt_coefficients"]) == pytest.approx(
        [2**-0.5, 2**-0.5], abs=TOL
    )
    assert b_summary["polarization_purity"] == pytest.approx(0.5, abs=TOL)
    assert b_summary["product_state_deviation"] > 0.1
