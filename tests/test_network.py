"""Network container helpers and structural analysis."""

import math
import sys

import pytest

from ghzgen import (
    DEFAULT_ALPHA,
    DEFAULT_THETA,
    CircuitNetwork,
    DetectorGroup,
    NetworkError,
    NetworkSettings,
    SourceSpec,
    CaseWeights,
    analyze,
    branch_states,
    build_fig3,
    build_ghzps,
    elaborate,
    entanglement_report,
    make_bs,
    make_pbs,
    parse,
    run_full,
)
from ghzgen import network as network_module
from ghzgen.dsl import builtin_text


def test_detector_lookup_and_trigger():
    structure = analyze(build_ghzps())
    assert structure.trigger == DetectorGroup("T", ("T1", "T2"))
    assert structure.positions[1] == ("D2", "d2")
    assert len(structure.positions) == 3


def test_with_settings_is_nondestructive():
    net = build_ghzps()
    tweaked = net.with_settings(theta=0.2)
    assert tweaked.settings.theta == 0.2
    assert tweaked.settings.alpha == net.settings.alpha
    assert net.settings.theta != 0.2
    assert tweaked.elements == net.elements


def test_source_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SourceSpec(kind="spdc", weights=CaseWeights())


def test_fanout_network_is_source_style():
    structure = analyze(build_ghzps())
    assert structure.style == "source"
    assert structure.patterns == ()
    assert structure.boundary == len(build_ghzps().elements)


def test_generator_network_structure():
    net = build_fig3()
    structure = analyze(net)
    assert structure.style == "generator"
    assert structure.positions == (("d1", "D1"), ("d2", "D2"), ("d3", "D3"))
    # transmitted outputs fire in the first pattern, reflected in the last
    assert structure.patterns[0].modes == ("e1", "e2", "e3")
    assert structure.patterns[-1].modes == ("E1", "E2", "E3")
    # fan-in starts right after the shared fan-out chain
    assert structure.boundary == len(build_ghzps().elements)
    fan_in = net.elements[structure.boundary :]
    assert all(
        any(r.mode in {"d1", "D1", "d2", "D2", "d3", "D3"} for r in e.in_rails)
        for e in fan_in
    )


def _toy_generator(merge=make_pbs):
    elements = tuple(
        merge(f"lo{k}", f"hi{k}", f"t{k}", f"r{k}") for k in (1, 2, 3)
    )
    detectors = (
        DetectorGroup("T", ("trig1", "trig2")),
        DetectorGroup("P1", ("t1", "r1")),
        DetectorGroup("P2", ("t2", "r2")),
        DetectorGroup("P3", ("t3", "r3")),
    )
    return CircuitNetwork(name="toy", elements=elements, detectors=detectors)


def test_analysis_follows_wiring_not_names():
    structure = analyze(_toy_generator())
    assert structure.style == "generator"
    assert structure.positions[0] == ("lo1", "hi1")
    assert structure.boundary == 0


def test_non_resolving_merge_demotes_to_source_style():
    # a 50:50 splitter mixes polarizations, so the channel cannot be located
    structure = analyze(_toy_generator(merge=make_bs))
    assert structure.style == "source"
    assert structure.boundary == 3


def test_overrides_replace_weights_of_a_declared_source_only():
    weights = CaseWeights(0.2, 0.3, 0.5)
    assert _toy_generator().with_overrides(weights, theta=0.5).source is None
    net = build_fig3().with_overrides(weights)
    assert net.source == SourceSpec("pdc2", weights)
    assert net.elements is build_fig3().elements


def test_analysis_requires_trigger_and_three_pairs():
    net = _toy_generator()
    no_trigger = CircuitNetwork(
        name="toy", elements=net.elements, detectors=net.detectors[1:]
    )
    with pytest.raises(NetworkError):
        analyze(no_trigger)
    two_groups = CircuitNetwork(
        name="toy", elements=net.elements, detectors=net.detectors[:3]
    )
    with pytest.raises(NetworkError):
        analyze(two_groups)
    bad_pair = CircuitNetwork(
        name="toy",
        elements=net.elements,
        detectors=net.detectors[:3] + (DetectorGroup("P3", ("t3", "t3")),),
    )
    with pytest.raises(NetworkError):
        analyze(bad_pair)


def test_positions_by_style():
    # a source exposes its detector groups, a generator its channel pairs
    fan_out = analyze(build_ghzps())
    assert fan_out.style == "source"
    assert fan_out.positions == (("D1", "d1"), ("D2", "d2"), ("D3", "d3"))

    generator = analyze(build_fig3())
    assert generator.style == "generator"
    assert generator.positions == (("d1", "D1"), ("d2", "D2"), ("d3", "D3"))


def test_structure_holds_roles_and_derives_style():
    structure = analyze(build_fig3())
    assert structure._fields == ("trigger", "boundary", "positions", "patterns")
    assert structure.style == "generator"
    assert structure._replace(patterns=()).style == "source"


def test_analyze_runs_once_per_wiring(monkeypatch):
    # the structure depends on the elements and detectors alone: copies
    # with other weights or probe settings reuse it and build no reference
    # PBS, while a renamed circuit gets its own
    built = []
    monkeypatch.setattr(
        network_module, "make_pbs", lambda *modes: built.append(modes) or make_pbs(*modes)
    )
    fig3 = build_fig3()
    run_full(network=fig3)
    weights = CaseWeights(0.2, 0.3, 0.5)
    built.clear()
    run_full("X@1", network=fig3, weights=weights, theta=0.02)
    entanglement_report(fig3.with_settings(theta=0.03), weights=weights)
    branch_states(fig3.with_overrides(weights, alpha=5.0))
    assert built == []

    tuned = fig3.with_overrides(weights, theta=0.02, alpha=5.0)
    assert analyze(tuned) is analyze(fig3)
    assert analyze(elaborate(parse(builtin_text("fig3")), name="again")) is analyze(fig3)

    text = builtin_text("fig3").replace("e1", "memo_e1").replace("E1", "memo_E1")
    renamed = analyze(elaborate(parse(text), name="renamed"))
    assert built
    assert renamed is not analyze(fig3)
    assert renamed.patterns[0].label == "memo_e1e2e3"


def test_generator_patterns_in_shape_order():
    patterns = analyze(build_fig3()).patterns
    assert [p.shape for p in patterns] == [
        "ttt", "ttr", "trt", "trr", "rtt", "rtr", "rrt", "rrr"
    ]
    ttr = patterns[1]
    assert ttr.label == "e1e2E3"
    assert ttr.groups == (
        (("e1",), 1), (("e2",), 1), (("E3",), 1), (("E1",), 0), (("E2",), 0), (("e3",), 0)
    )
    assert analyze(build_ghzps()).patterns == ()


def test_settings_defaults():
    # probe settings only: channel noise is given to the run, not the network
    settings = NetworkSettings()
    assert settings._fields == ("theta", "alpha")
    assert settings == (DEFAULT_THETA, DEFAULT_ALPHA)
    assert build_ghzps().settings == settings


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta": float("nan")},
        {"theta": float("inf")},
        {"theta": float("-inf")},
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"alpha": -1.0},
        {"alpha": 1e200},
    ],
    ids=[
        "theta-nan",
        "theta-inf",
        "theta-minus-inf",
        "alpha-nan",
        "alpha-inf",
        "alpha-negative",
        "alpha-square-overflows",
    ],
)
def test_settings_reject_bad_probe_values(kwargs):
    with pytest.raises(NetworkError):
        NetworkSettings(**kwargs)
    # the override path builds new settings, so it is checked too
    with pytest.raises(NetworkError):
        build_fig3().with_overrides(**kwargs)


def test_settings_accept_zero_probe_values():
    settings = NetworkSettings(theta=0.0, alpha=0.0)
    assert (settings.theta, settings.alpha) == (0.0, 0.0)


def test_settings_alpha_square_boundary():
    # the largest alpha whose square is a finite float runs to the end
    largest = math.sqrt(sys.float_info.max)
    report = run_full(alpha=largest)
    assert report.probe_overlap == 0.0
    with pytest.raises(NetworkError, match="alpha squared must be finite"):
        NetworkSettings(alpha=math.nextafter(largest, math.inf))
