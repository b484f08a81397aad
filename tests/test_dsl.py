"""Circuit description language: parsing, elaboration, canonical text."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ghzgen import (
    CaseWeights,
    DslDocument,
    ParseError,
    analyze,
    build_fig3,
    build_ghzps,
    elaborate,
    parse,
    pretty_print,
)

FIXTURES = resources.files("ghzgen") / "fixtures"
ROOT = Path(__file__).resolve().parents[1]


def _fixture_doc(name):
    return parse((FIXTURES / name).read_text(encoding="utf-8"))


# --- the packaged fixtures -------------------------------------------------


def test_generator_fixture_extends_fan_out():
    fan_out = build_ghzps()
    generator = build_fig3()
    assert generator.elements[: analyze(generator).boundary] == fan_out.elements
    assert generator.couplings == fan_out.couplings
    assert generator.source == fan_out.source
    assert generator.settings == fan_out.settings


def test_cli_import_builds_no_network():
    code = (
        "import ghzgen.cli, ghzgen.pipeline as p; "
        "print(p.build_ghzps.cache_info().misses + p.build_fig3.cache_info().misses)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "0"


def test_readme_circuit_example_elaborates():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```text\n", 1)[1].split("```", 1)[0]
    network = elaborate(parse(block))
    assert network.source is not None
    assert network.detectors


def test_fixture_round_trip():
    for name in ("fig1.onet", "fig3.onet"):
        doc = _fixture_doc(name)
        again = parse(pretty_print(doc))
        assert again == doc
        assert elaborate(again, name="x") == elaborate(doc, name="x")


# --- parsing surface --------------------------------------------------------


def test_comments_and_blank_lines_ignored():
    doc = parse("# header\n\nset theta 0.5  # trailing note\n\n# done\n")
    assert [s.args for s in doc.statements] == [("theta", 0.5)]


def test_settings_payloads():
    doc = parse(
        "set theta 0.01\n"
        "set alpha 316.0\n"
        "source pdc2 weights 0.2 0.3 0.5\n"
    )
    assert [s.args for s in doc.statements] == [
        ("theta", 0.01),
        ("alpha", 316.0),
        ("pdc2", (0.2, 0.3, 0.5)),
    ]
    net = elaborate(doc)
    assert net.settings == (0.01, 316.0)
    assert net.source.weights == (0.2, 0.3, 0.5)


@pytest.mark.parametrize(
    "text",
    [
        "set case_weights 0.2 0.3 0.5\n",
        "set noise X@1,Z@3\n",
        "set noise Q@1\n",
        "set case_weights 0.2 0.3 0.5\nsource pdc2 weights 0.2 0.3 0.5\n",
    ],
)
def test_set_takes_only_probe_settings(text):
    # case weights go on the source line and noise comes with the run, so
    # a circuit has one way to give each
    err = _error(text)
    assert err.kind == "bad-parameter"
    assert (err.line, err.column) == (1, 5)
    assert err.message.startswith("unknown setting")


def test_source_with_weights_clause():
    doc = parse("source pdc2 weights 0.2 0.3 0.5\n")
    assert doc.statements[0].args == ("pdc2", (0.2, 0.3, 0.5))
    net = elaborate(doc)
    assert net.source.weights == CaseWeights(0.2, 0.3, 0.5)


def _error(text, elaborate_too=False):
    with pytest.raises(ParseError) as info:
        doc = parse(text)
        if elaborate_too:
            elaborate(doc)
    return info.value


def test_unknown_element():
    err = _error("splitter a -> b c\n")
    assert err.kind == "unknown-element"
    assert (err.line, err.column) == (1, 1)


def test_syntax_errors_located():
    err = _error("pbs a b c d\n")
    assert err.kind == "syntax"
    assert err.line == 1

    err = _error("set theta\n")
    assert err.kind == "syntax"

    err = _error("route a b -> c\n")
    assert err.kind == "syntax"

    err = _error("set theta 0.1\nset theta 0.2\n")
    assert err.kind == "syntax"
    assert err.line == 2

    err = _error("source pdc2\nsource pdc2\n")
    assert err.kind == "syntax"
    assert err.line == 2

    err = _error("pbs 1a -> b c\n")
    assert err.kind == "syntax"
    assert err.column == 5

    err = _error("detect 9x = m\n")
    assert err.kind == "syntax"


def test_bad_parameter_errors_located():
    err = _error("set theta abc\n")
    assert err.kind == "bad-parameter"
    assert (err.line, err.column) == (1, 11)

    err = _error("set speed 3.0\n")
    assert err.kind == "bad-parameter"
    assert err.column == 5

    err = _error("source laser\n")
    assert err.kind == "bad-parameter"

    err = _error("source pdc2\nkerr a1 D 0.5\n")
    assert err.kind == "bad-parameter"
    assert (err.line, err.column) == (2, 9)

    err = _error("source pdc2\nkerr a1 H -inf\n")
    assert err.kind == "bad-parameter"
    assert (err.line, err.column) == (2, 11)


@pytest.mark.parametrize(
    "line",
    [
        "set theta nan",
        "set theta inf",
        "set alpha inf",
        "set alpha -1",
        "set alpha 1e200",
        "source pdc2 weights 0.5 nan 0.5",
        "source pdc2 weights nan 0.5 0.5",
        "kerr a1 H nan",
        "kerr a1 H inf",
    ],
)
def test_bad_probe_setting_is_bad_parameter(line):
    text = line + "\n" if line.startswith("source") else line + "\nsource pdc2\n"
    err = _error(text, elaborate_too=True)
    assert err.kind == "bad-parameter"
    assert "must be finite" in str(err)


@pytest.mark.parametrize(
    "text",
    ["source pdc2 weights 0.5 0.5 1e-24\n", "source pdc2 weights 1e-300 1e-300 1\n"],
)
def test_tiny_case_weight_is_bad_parameter(text):
    # a weight this small would be pruned away with its whole case
    err = _error(text, elaborate_too=True)
    assert err.kind == "bad-parameter"
    assert "nonzero case weight under" in str(err)


@pytest.mark.parametrize(
    "text, line",
    [
        ("source pdc2\nset theta 0.01\nset alpha 1e200\n", 3),
        ("set alpha 316.0\nset theta nan\nsource pdc2\n", 2),
        ("set theta 0.01\n\nsource pdc2 weights nan 0.5 0.5\n", 3),
    ],
)
def test_bad_setting_is_reported_at_its_set_line(text, line):
    err = _error(text, elaborate_too=True)
    assert err.kind == "bad-parameter"
    assert (err.line, err.column) == (line, 1)
    assert str(err).startswith(f"line {line}, column 1: ")


def test_statement_level_mode_reuse():
    err = _error("pbs a a -> b c\n")
    assert err.kind == "mode-reuse"
    assert (err.line, err.column) == (1, 7)

    err = _error("detect T = m m\n")
    assert err.kind == "mode-reuse"


# --- elaboration-time flow checks -------------------------------------------


def test_elaborate_requires_declared_live_inputs():
    err = _error("bs q -> x y\n", elaborate_too=True)
    assert err.kind == "undeclared-mode"

    err = _error("kerr q H 0.5\n", elaborate_too=True)
    assert err.kind == "undeclared-mode"

    # a1 is consumed by the first splitter, reusing it is flagged
    err = _error("source pdc2\nbs a1 -> x y\nbs a1 -> z w\n", elaborate_too=True)
    assert err.kind == "mode-reuse"
    assert err.line == 3

    # declaring an output over a live mode is also a reuse
    err = _error("source pdc2\nbs a1 -> b1 q\n", elaborate_too=True)
    assert err.kind == "mode-reuse"

    err = _error("source pdc2\nhwp45 a1\nbs a1 -> x y\ndetect T = a1\n",
                 elaborate_too=True)
    assert err.kind == "mode-reuse"
    assert err.line == 4


def test_kerr_off_the_source_arms_is_bad_parameter():
    # the probe couples only to the source's emission arms; a coupling on
    # any other mode could never act
    err = _error("source pdc2\nbs a1 -> u1 u2\n  kerr u1 H 5\n", elaborate_too=True)
    assert err.kind == "bad-parameter"
    assert (err.line, err.column) == (3, 8)
    assert "not a source arm" in err.message

    net = elaborate(parse("source pdc2\nkerr a1 H 1\nkerr b1 V 1\nkerr a2 H 1\nkerr b2 V 1\n"))
    assert [c.mode for c in net.couplings] == ["a1", "b1", "a2", "b2"]


def test_elaborate_detector_and_weight_conflicts():
    err = _error(
        "source pdc2\ndetect T = a1\ndetect T = b1\n", elaborate_too=True
    )
    assert err.kind == "bad-parameter"
    assert err.line == 3

    err = _error("source pdc2 weights 0.2 0.3 0.9\n", elaborate_too=True)
    assert err.kind == "bad-parameter"


@pytest.mark.parametrize(
    "text, kind, line, column",
    [
        ("source pdc2\nbs a1 q -> x y\n", "undeclared-mode", 2, 7),
        ("source pdc2\nbs a1 -> x y\npbs b1 a1 -> z w\n", "mode-reuse", 3, 8),
        ("source pdc2\nbs a1 -> b1 q\n", "mode-reuse", 2, 10),
        ("source pdc2\nroute a1 -> b2\n", "mode-reuse", 2, 13),
        ("source pdc2\nroute q -> x\n", "undeclared-mode", 2, 7),
        ("source pdc2\nbs a1 -> x y\nhwp90  a1\n", "mode-reuse", 3, 8),
        ("source pdc2\nbs a1 -> u1 u2\nkerr u1 H 5\n", "bad-parameter", 3, 6),
        ("kerr   q H 0.5\n", "undeclared-mode", 1, 8),
        ("source pdc2\ndetect T = a1\ndetect  T = b1\n", "bad-parameter", 3, 9),
        ("source pdc2\nbs a1 -> x y\ndetect P = b1 a1\n", "mode-reuse", 3, 15),
    ],
)
def test_flow_error_points_at_its_token(text, kind, line, column):
    err = _error(text, elaborate_too=True)
    assert (err.kind, err.line, err.column) == (kind, line, column)


def test_elaborate_without_source():
    net = elaborate(parse("set theta 0.5\n"))
    assert net.source is None
    assert net.settings.theta == 0.5
    assert net.elements == ()


def test_hwp_keeps_mode_live():
    net = elaborate(parse("source pdc2\nhwp90 a1\nhwp45 a1\ndetect T = a1\n"))
    assert len(net.elements) == 2
    assert net.detectors[0].modes == ("a1",)


# --- canonical text ---------------------------------------------------------


def test_pretty_print_round_trips_every_statement_kind():
    text = (
        "set theta 0.01\n"
        "set alpha 316.0\n"
        "source pdc2 weights 0.25 0.25 0.5\n"
        "kerr a1 H 0.5\n"
        "pbs a1 -> t1 va\n"
        "bs va b1 -> s1 s2\n"
        "hwp90 s2\n"
        "route s1 -> out\n"
        "detect T = t1\n"
        "detect P = out s2\n"
        "kerr a2 V -0.5\n"
        "detect rest = a2 b2\n"
    )
    doc = parse(text)
    printed = pretty_print(doc)
    assert parse(printed) == doc
    # canonical text is a fixed point
    assert pretty_print(parse(printed)) == printed


# --- fuzzing ----------------------------------------------------------------


_WORDS = st.sampled_from(
    [
        "set", "source", "pdc2", "kerr", "pbs", "bs", "hwp45", "hwp90",
        "route", "detect", "->", "=", "theta", "alpha", "case_weights",
        "noise", "weights", "a1", "b1", "a2", "b2", "m", "x", "y", "H",
        "V", "0.5", "-0.5", "2", "abc", "#", "",
    ]
)


@settings(max_examples=300)
@given(st.lists(st.lists(_WORDS, max_size=8), max_size=6))
def test_fuzz_token_soup_parses_or_rejects(lines):
    text = "\n".join(" ".join(words) for words in lines)
    try:
        doc = parse(text)
    except ParseError:
        return
    assert isinstance(doc, DslDocument)
    try:
        elaborate(doc)
    except ParseError:
        pass


@settings(max_examples=300)
@given(st.text(alphabet="abps dethwr->=#\n0.596kc_", max_size=120))
def test_fuzz_raw_text_parses_or_rejects(text):
    try:
        doc = parse(text)
    except ParseError:
        return
    parse(pretty_print(doc))
