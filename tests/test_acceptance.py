"""Acceptance gate: ten criteria, one printed pass/fail line each.

Every expected state, map and table row here is written out literally and
compared against the library at the stated tolerance; nothing is imported
from the module under test beyond its public entry points.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import json
import random

import numpy as np
import pytest

import oracles
from ghzgen import (
    CaseWeights,
    NoiseFamily,
    PSI_PLUS,
    PauliError,
    all_families,
    analyze,
    apply_errors,
    branch_states,
    build_fig3,
    build_ghzps,
    classify_family,
    cli,
    dual_pass_emission,
    elaborate,
    entanglement_summary,
    family_state,
    feed_forward,
    fidelity,
    homodyne_discriminate,
    ket,
    make_hwp90,
    make_pbs,
    parse,
    pretty_print,
    project_occupancy,
    run_full,
    tag_phases,
    two_pair_product,
)
from ghzgen.dsl import ParseError

TOL = 1e-12


def _report(num: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({title}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _word_ket(modes, word, amp=1.0):
    return ket(*zip(modes, word), amp=amp)


def _ghz(modes):
    return (2**-0.5) * (_word_ket(modes, "HHV") + _word_ket(modes, "VVH"))


# the two fourfold-coincidence conditionals of the fan-out stage
def _branch_a_expected():
    out = None
    for arms in (("D1", "D2", "D3"), ("d1", "d2", "d3")):
        for word in ("HHV", "VVH"):
            term = _word_ket(arms, word, amp=0.5)
            out = term if out is None else out + term
    return out


def _branch_b_expected():
    quads = {
        "HHV": (("d1", "d2", "D3"), ("D1", "D2", "d3")),
        "VVH": (("d1", "D2", "d3"), ("D1", "d2", "D3")),
    }
    out = None
    for word, arms_pair in quads.items():
        for arms in arms_pair:
            term = _word_ket(arms, word, amp=0.5)
            out = term if out is None else out + term
    return out


def test_criterion_01_branch_state_reproduction():
    states = {bs.branch: bs.conditional for bs in branch_states(build_ghzps())}
    a_state, b_state = states["A"], states["B"]
    fid_a = fidelity(a_state, _branch_a_expected())
    fid_b = fidelity(b_state, _branch_b_expected())
    ok = (
        fid_a >= 1 - TOL
        and fid_b >= 1 - TOL
        and a_state.num_terms() == 4
        and b_state.num_terms() == 4
    )
    _report(
        1,
        "branch-state reproduction",
        ok,
        f"fidelities {fid_a:.15f} / {fid_b:.15f}",
    )


# single-photon responses of the fan-out network, one map per input rail
_SINGLE_PHOTON_EXPECTED = {
    ("a1", "H"): {("T1", "H"): 1.0},
    ("a2", "H"): {("T2", "H"): 1.0},
    ("a1", "V"): {("D1", "V"): 2**-0.5, ("D2", "H"): 2**-0.5},
    ("a2", "V"): {("d1", "V"): 2**-0.5, ("d2", "H"): 2**-0.5},
    ("b1", "H"): {("D1", "H"): 2**-0.5, ("D3", "H"): 2**-0.5},
    ("b2", "H"): {("d1", "H"): 2**-0.5, ("d3", "H"): 2**-0.5},
    ("b1", "V"): {("D2", "V"): 2**-0.5, ("D3", "V"): 2**-0.5},
    ("b2", "V"): {("d2", "V"): 2**-0.5, ("d3", "V"): 2**-0.5},
}


def test_criterion_02_single_photon_maps():
    elements = build_ghzps().elements
    worst = 0.0
    for rail, expected in _SINGLE_PHOTON_EXPECTED.items():
        state = ket(rail)
        for element in elements:
            state = element.apply(state)
        seen = {}
        for k, amp in state.sorted_terms():
            ((r, n),) = tuple(k)
            assert n == 1
            seen[(r.mode, r.pol)] = amp
        for key in set(seen) | set(expected):
            dev = abs(seen.get(key, 0.0) - expected.get(key, 0.0))
            worst = max(worst, dev)
    _report(
        2, "single-photon maps", worst <= TOL, f"max amplitude deviation {worst:.2e}"
    )


def test_criterion_03_factorization_claim():
    states = {bs.branch: bs.conditional for bs in branch_states(build_ghzps())}
    pairs = (("D1", "d1"), ("D2", "d2"), ("D3", "d3"))
    a_summary = entanglement_summary(states["A"], pairs)
    b_summary = entanglement_summary(states["B"], pairs)
    deviation = a_summary["product_state_deviation"]
    coeffs_a = a_summary["schmidt_coefficients"]
    coeffs_b = b_summary["schmidt_coefficients"]
    purity_b = b_summary["polarization_purity"]

    ok = (
        deviation < TOL
        and len(coeffs_a) == 1
        and len(coeffs_b) == 2
        and all(abs(c - 2**-0.5) <= TOL for c in coeffs_b)
        and abs(purity_b - 0.5) <= TOL
    )
    _report(
        3,
        "product vs hyperentangled branch",
        ok,
        f"A deviation {deviation:.2e}, B Schmidt rank {len(coeffs_b)}, "
        f"B purity {purity_b:.12f}",
    )


# family evolution through the fan-in merges: reachable patterns and the
# polarization words carried by each
_EVOLUTION_TABLE = {
    "psi": ((("e1", "e2", "E3"), ("HHH", "VVV")), (("E1", "E2", "e3"), ("HVV", "VHH"))),
    "psi0": ((("e1", "e2", "e3"), ("HHV", "VVH")), (("E1", "E2", "E3"), ("VHV", "HVH"))),
    "psi1": ((("E1", "e2", "e3"), ("VHV", "HVH")), (("e1", "E2", "E3"), ("HHV", "VVH"))),
    "psi2": ((("e1", "E2", "e3"), ("HVV", "VHH")), (("E1", "e2", "E3"), ("HHH", "VVV"))),
}

# per-photon recovery operations for each family/pattern row
_CORRECTION_TABLE = {
    ("psi", ("e1", "e2", "E3")): ("I", "I", "X"),
    ("psi", ("E1", "E2", "e3")): ("I", "X", "I"),
    ("psi0", ("e1", "e2", "e3")): ("I", "I", "I"),
    ("psi0", ("E1", "E2", "E3")): ("X", "I", "I"),
    ("psi1", ("E1", "e2", "e3")): ("X", "I", "I"),
    ("psi1", ("e1", "E2", "E3")): ("I", "I", "I"),
    ("psi2", ("e1", "E2", "e3")): ("I", "X", "I"),
    ("psi2", ("E1", "e2", "E3")): ("I", "I", "X"),
}

# each photon's channel pair (lower, upper), the inputs of _FAN_IN's merges
_CHANNEL = (("d1", "D1"), ("d2", "D2"), ("d3", "D3"))

_FAN_IN = (
    make_hwp90("D1"),
    make_hwp90("D2"),
    make_hwp90("D3"),
    make_pbs("d1", "D1", "e1", "E1"),
    make_pbs("d2", "D2", "e2", "E2"),
    make_pbs("d3", "D3", "e3", "E3"),
)

_ALL_PATTERNS = [
    tuple(f"e{k}" if c == "t" else f"E{k}" for k, c in zip((1, 2, 3), shape))
    for shape in itertools.product("tr", repeat=3)
]


def _project_pattern(state, modes):
    silent = tuple(
        f"E{k}" if m == f"e{k}" else f"e{k}" for k, m in zip((1, 2, 3), modes)
    )
    groups = [((m,), 1) for m in modes] + [((m,), 0) for m in silent]
    return project_occupancy(state, groups)


def test_criterion_04_family_evolution_table():
    ok = True
    details = []
    for tag, rows in _EVOLUTION_TABLE.items():
        for sign in (1, -1):
            state = family_state(NoiseFamily(tag, sign), _CHANNEL)
            for element in _FAN_IN:
                state = element.apply(state)
            expected_modes = {rows[0][0], rows[1][0]}
            for modes in _ALL_PATTERNS:
                conditional, prob = _project_pattern(state, modes)
                if modes in expected_modes:
                    row_words = dict(rows)[modes]
                    literal = (2**-0.5) * (
                        _word_ket(modes, row_words[0]) + _word_ket(modes, row_words[1])
                    )
                    fid = fidelity(conditional, literal)
                    if abs(prob - 0.5) > TOL or fid < 1 - TOL:
                        ok = False
                        details.append(f"{tag}{sign:+d}@{''.join(modes)}")
                elif prob >= TOL:
                    ok = False
                    details.append(f"{tag}{sign:+d} leaks {''.join(modes)}")
    _report(
        4,
        "family evolution table",
        ok,
        "all 8 rows at probability 1/2" if ok else "; ".join(details),
    )


def test_criterion_05_correction_table_closure():
    ok = True
    worst = 1.0
    for (tag, modes), ops in _CORRECTION_TABLE.items():
        for sign in (1, -1):
            state = family_state(NoiseFamily(tag, sign), _CHANNEL)
            for element in _FAN_IN:
                state = element.apply(state)
            conditional, prob = _project_pattern(state, modes)
            for mode, op in zip(modes, ops):
                if op == "X":
                    conditional = make_hwp90(mode).apply(conditional)
            fid = fidelity(conditional, _ghz(modes))
            worst = min(worst, fid)
            if fid < 1 - TOL or prob <= 0.0:
                ok = False

    # the no-noise path: the runner classifies the mixed-pass branch as
    # the base family and finishes with the same bit-flip rows
    report = run_full()
    channel = [e for e in report.entries if e.branch == "B"]
    finishing = {"".join(e.pattern.modes): e.corrections for e in channel}
    ok = (
        ok
        and finishing.get("e1e2E3") == ("I", "I", "X")
        and finishing.get("E1E2e3") == ("I", "X", "I")
        and all(e.fidelity >= 1 - TOL for e in channel)
        and all(e.family == PSI_PLUS for e in channel)
    )
    _report(
        5,
        "correction table closure",
        ok,
        f"16 rows, worst corrected fidelity {worst:.15f}",
    )


def test_criterion_06_pauli_closure():
    ok = True
    seen_labels = set()
    worst = 1.0
    for kinds in itertools.product(("I", "X", "Z", "Y"), repeat=3):
        errors = tuple(
            PauliError(photon, kind)
            for photon, kind in enumerate(kinds, start=1)
            if kind != "I"
        )
        noisy = apply_errors(family_state(PSI_PLUS, _CHANNEL), errors, _CHANNEL)
        family = classify_family(noisy, _CHANNEL)
        seen_labels.add((family.tag, family.sign))
        report = run_full(errors)
        for entry in report.entries:
            worst = min(worst, entry.fidelity)
            if entry.fidelity < 1 - TOL:
                ok = False
    ok = ok and len(seen_labels) == 8
    _report(
        6,
        "Pauli closure over 64 error combinations",
        ok,
        f"{len(seen_labels)} families reached, worst recovery {worst:.15f}",
    )


def test_criterion_07_qnd_properties():
    emission = dual_pass_emission()
    tags = tag_phases(emission, build_ghzps().couplings)
    outcomes = homodyne_discriminate(emission, tags)
    total = sum(o.probability for o in outcomes)
    by_branch = {o.branch: o for o in outcomes}

    same_pass = (2**-0.5) * (two_pair_product(1, 1) + two_pair_product(2, 2))
    coherence = fidelity(feed_forward(by_branch["A"]), same_pass)

    photons_ok = True
    for outcome in outcomes:
        for k, _ in feed_forward(outcome).sorted_terms():
            if sum(n for _, n in k) != 4:
                photons_ok = False

    # measurement records drawn at random must still feed forward exactly
    sampled = homodyne_discriminate(emission, tags, rng=np.random.default_rng(11))
    sampled_a = next(o for o in sampled if o.branch == "A")
    sampled_coherence = fidelity(feed_forward(sampled_a), same_pass)

    ok = (
        abs(total - 1.0) <= TOL
        and abs(by_branch["A"].probability - 0.5) <= TOL
        and abs(by_branch["B"].probability - 0.5) <= TOL
        and coherence >= 1 - TOL
        and sampled_coherence >= 1 - TOL
        and photons_ok
    )
    _report(
        7,
        "nondemolition discrimination",
        ok,
        f"P(A)={by_branch['A'].probability:.12f}, coherence {coherence:.15f}",
    )


def test_criterion_08_sparse_vs_dense_oracle():
    state = dual_pass_emission()
    for element in build_ghzps().elements:
        state = element.apply(state)
    sparse = {}
    for k, amp in state.sorted_terms():
        occ = [0] * len(oracles.FAN_OUT_RAILS)
        for r, n in k:
            occ[oracles.FAN_OUT_RAILS.index((r.mode, r.pol))] = n
        sparse[tuple(occ)] = amp

    w = oracles.fan_out_matrix()
    emission = oracles.emission_state((0.25, 0.25, 0.5))
    worst = 0.0
    for s_occ in oracles.fock_basis(len(oracles.FAN_OUT_RAILS), 4):
        dense = sum(
            amp * oracles.lifted_entry(w, s_occ, t_occ)
            for t_occ, amp in emission.items()
        )
        dev = abs(sparse.get(s_occ, 0.0) - dense)
        worst = max(worst, dev)
    _report(
        8,
        "sparse vs dense truncated-basis evolution",
        worst <= 1e-10,
        f"2380-state basis, max deviation {worst:.2e}",
    )


def test_criterion_09_dsl_fixtures_and_fuzz():
    from importlib import resources

    fixtures = resources.files("ghzgen") / "fixtures"
    builders = {"fig1": build_ghzps, "fig3": build_fig3}
    ok = True
    for name, builder in builders.items():
        doc = parse((fixtures / f"{name}.onet").read_text(encoding="utf-8"))
        again = parse(pretty_print(doc))
        ok = ok and again == doc and elaborate(again, name=name) == builder()

    # the generator is the fan-out network followed by its fan-in stage
    fan_out, generator = build_ghzps(), build_fig3()
    extends = (
        generator.elements[: analyze(generator).boundary] == fan_out.elements
        and generator.couplings == fan_out.couplings
        and generator.source == fan_out.source
        and generator.settings == fan_out.settings
    )
    ok = ok and extends

    vocab = [
        "set", "source", "pdc2", "kerr", "pbs", "bs", "hwp45", "hwp90",
        "route", "detect", "->", "=", "theta", "noise", "weights", "a1",
        "b1", "a2", "b2", "m", "H", "V", "0.5", "#", "x", "", "1e3", "@",
    ]
    rng = random.Random(0)
    crashes = 0
    for _ in range(500):
        lines = [
            " ".join(rng.choice(vocab) for _ in range(rng.randrange(8)))
            for _ in range(rng.randrange(5))
        ]
        try:
            elaborate(parse("\n".join(lines)))
        except ParseError:
            pass
        except Exception:
            crashes += 1
    ok = ok and crashes == 0
    _report(
        9,
        "circuit files, round-trip and fuzz",
        ok,
        f"fig3 extends fig1: {extends}, {crashes} fuzz crashes",
    )


def test_criterion_10_byte_deterministic_output(capsys):
    outputs = {}
    for label, argv in {
        "verify-table1": ["verify-table1"],
        "run": ["run", "--builtin", "fig3", "--seed", "7", "--sample"],
    }.items():
        first_code = cli.main(list(argv))
        first = capsys.readouterr().out
        second_code = cli.main(list(argv))
        second = capsys.readouterr().out
        outputs[label] = (
            first_code == second_code == 0
            and first.encode() == second.encode()
            and len(first) > 0
        )
    ok = all(outputs.values())
    with capsys.disabled():
        _report(
            10,
            "byte-deterministic command output",
            ok,
            ", ".join(f"{k}: {'stable' if v else 'DRIFTS'}" for k, v in outputs.items()),
        )
