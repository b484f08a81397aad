"""Command-line interface: flags, output schemas, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ghzgen import (
    DEFAULT_ALPHA,
    DEFAULT_THETA,
    analyze,
    cli,
    elaborate,
    make_bs,
    make_hwp45,
    make_hwp90,
    make_pbs,
    make_route,
    parse,
)
from ghzgen.dsl import builtin_text
from ghzgen.network import TRIGGER_GROUP
from ghzgen.source import LOWER_ARM, UPPER_ARM


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# --- run --------------------------------------------------------------------


def test_run_default_report(capsys):
    code, report = _run_json(capsys, "run")
    assert code == 0
    assert report["network"] == "fig3"
    assert report["style"] == "generator"
    assert report["noise"] is None
    assert report["sampled"] is None
    assert report["weights"] == [0.25, 0.25, 0.5]
    assert len(report["entries"]) == 4
    for entry in report["entries"]:
        assert entry["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert entry["state"]
        assert {"ket", "re", "im"} <= set(entry["state"][0])
    total = sum(e["joint_probability"] for e in report["entries"])
    assert total == pytest.approx(5 / 48, abs=1e-12)


def test_run_with_noise_classifies_and_recovers(capsys):
    code, report = _run_json(capsys, "run", "--noise", "X@1,Z@3")
    assert code == 0
    assert report["noise"] == "X@1,Z@3"
    channel = [e for e in report["entries"] if e["branch"] == "B"]
    assert len(channel) == 2
    for entry in channel:
        assert entry["family"] == "psi2-'"
        assert entry["fidelity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--noise", "Q@1"),
        ("run", "--noise", "X@7"),
        ("sweep-noise", "--noise", "p=2"),
    ],
)
def test_bad_noise_flag_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _two_group_circuit(tmp_path):
    text = (resources.files("ghzgen") / "fixtures" / "fig3.onet").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("detect P3")]
    path = tmp_path / "two_groups.onet"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _edited_fig3(line, replacement):
    # fig3 with one line replaced (or deleted, for an empty replacement)
    def write(tmp_path):
        text = (resources.files("ghzgen") / "fixtures" / "fig3.onet").read_text(encoding="utf-8")
        assert line in text
        path = tmp_path / "edited.onet"
        path.write_text(text.replace(line, replacement), encoding="utf-8")
        return str(path)

    return write


def _non_utf8_circuit(tmp_path):
    path = tmp_path / "latin1.onet"
    path.write_bytes("# caf\xe9\nsource pdc2\n".encode("latin-1"))
    return str(path)


def _empty_circuit(tmp_path):
    path = tmp_path / "empty.onet"
    path.write_text("# nothing declared\n", encoding="utf-8")
    return str(path)


# a well-formed circuit, found by the random-circuit strategy, in which no
# homodyne branch passes the fourfold coincidence although every case
# weight is nonzero
_NO_COINCIDENCE = """\
source pdc2 weights 0.25 0.25 0.5
kerr a1 H 0.5
kerr a1 V 0.5
kerr a2 H -0.5
kerr a2 V -0.5
hwp90 a1
route a2 -> m0
hwp90 m0
bs b1 m0 -> m1 m2
bs m1 -> m3 m4
pbs b2 -> m5 m6
pbs m3 -> m7 m8
hwp90 m8
pbs m7 m8 -> e1 E1
hwp90 m5
pbs m4 m5 -> e2 E2
hwp90 m6
pbs a1 m6 -> e3 E3
detect T = m2
detect P1 = e1 E1
detect P2 = e2 E2
detect P3 = e3 E3
"""


def _no_coincidence_circuit(tmp_path):
    path = tmp_path / "no_coincidence.onet"
    path.write_text(_NO_COINCIDENCE, encoding="utf-8")
    return str(path)


# placeholders in argv for circuit files written per test
_CIRCUIT_FILES = {
    "<two-groups>": _two_group_circuit,
    "<non-utf8>": _non_utf8_circuit,
    "<empty>": _empty_circuit,
    "<nan-kerr>": _edited_fig3("kerr a1 H 0.5", "kerr a1 H nan"),
    "<miswired-kerr>": _edited_fig3("kerr a1 H 0.5", "kerr a1 H 0.25"),
    "<overflowing-kerr>": _edited_fig3("kerr a1 H 0.5", "kerr a1 H 1e308"),
    # miswired generators: the channel state is no depolarization family,
    # a pattern outside the correction table fires, or a beam splitter in
    # place of the trigger PBS entangles the trigger photon
    "<hwp45-u2>": _edited_fig3("hwp90 u2", "hwp45 u2"),
    "<no-hwp90-D1>": _edited_fig3("hwp90 D1\n", ""),
    "<bs-trigger>": _edited_fig3("pbs a1 -> T1 va1", "bs a1 -> T1 va1"),
    # a coupling on a fan-out mode, which no emission ket occupies
    "<kerr-off-source>": _edited_fig3("bs va1 -> u1 u2\n", "bs va1 -> u1 u2\nkerr u1 H 5\n"),
    "<same-pass-only>": _edited_fig3("weights 0.25 0.25 0.5", "weights 0 1 0"),
    "<no-coincidence>": _no_coincidence_circuit,
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--builtin", "fig1", "--noise", "X@1"), "generator-style"),
        (("run", "--alpha", "-1"), "alpha must be finite and nonnegative"),
        (("run", "--network", "<two-groups>"), "expected 3 photon detector groups"),
        (("run", "--theta", "nan"), "theta must be finite"),
        (("run", "--alpha", "inf"), "alpha must be finite and nonnegative"),
        (("run", "--weights", "nan,0.5,0.5"), "case weights must be finite"),
        (("sweep-noise", "--weights", "1,0,0"), "nonzero mixed-pass weight"),
        (("sweep-noise", "--weights", "0,1,0"), "nonzero mixed-pass weight"),
        (("run", "--weights", "1,0,0", "--noise", "X@1"), "nonzero mixed-pass weight"),
        (("run", "--network", "<same-pass-only>", "--noise", "X@1"), "nonzero mixed-pass weight"),
        (("run", "--sample", "--seed", "-1"), "seed must be nonnegative"),
        (("run", "--alpha", "1e200"), "alpha squared must be finite"),
        (("parse", "--network", "<non-utf8>"), "cannot read network file"),
        (("run", "--network", "<nan-kerr>"), "kerr units must be finite"),
        (("dump", "--network", "<miswired-kerr>"), "outside the protocol classes"),
        (("analyze-entanglement", "--network", "<miswired-kerr>"), "outside the protocol classes"),
        (("sweep-noise", "--network", "<overflowing-kerr>"), "outside the protocol classes"),
        (("run", "--network", "<hwp45-u2>"), "does not match any depolarization family"),
        (("sweep-noise", "--network", "<hwp45-u2>"), "does not match any depolarization family"),
        (("run", "--network", "<no-hwp90-D1>"), "is unreachable for this family"),
        (("sweep-noise", "--network", "<no-hwp90-D1>"), "is unreachable for this family"),
        (("run", "--network", "<bs-trigger>"), "photon is entangled with the rest"),
        (("dump", "--network", "<bs-trigger>"), "photon is entangled with the rest"),
        (("analyze-entanglement", "--network", "<bs-trigger>"), "photon is entangled with the rest"),
        (("sweep-noise", "--network", "<bs-trigger>"), "photon is entangled with the rest"),
        (("run", "--weights", "1e-300,1e-300,1"), "nonzero case weight under"),
        (("run", "--weights", "0.5,0.5,4e-24"), "nonzero case weight under"),
        (("dump", "--network", "<empty>"), "declares no source"),
        (("run", "--network", "<kerr-off-source>"), "not a source arm"),
        (("parse", "--network", "<kerr-off-source>"), "not a source arm"),
        (("analyze-entanglement", "--weights", "0,0,1"), "needs both branches"),
        (("analyze-entanglement", "--weights", "0.5,0.5,0"), "needs both branches"),
        (("analyze-entanglement", "--network", "<same-pass-only>"), "needs both branches"),
        (("run", "--theta", "nan", "--noise", "Q@1"), "theta must be finite"),
        (("sweep-noise", "--alpha", "-1", "--noise", "X@1"), "alpha must be finite"),
        (("run", "--network", "<no-coincidence>", "--sample"), "nothing to sample"),
        (("run", "--network", "<no-coincidence>", "--noise", "X@1"), "no mixed-pass branch passes"),
        (("sweep-noise", "--network", "<no-coincidence>"), "no mixed-pass branch passes"),
    ],
    ids=[
        "noise-on-source-style",
        "negative-alpha",
        "two-detector-groups",
        "nan-theta",
        "inf-alpha",
        "nan-weight",
        "sweep-without-mixed-pass-upper",
        "sweep-without-mixed-pass-lower",
        "noise-without-mixed-pass",
        "circuit-noise-without-mixed-pass",
        "negative-seed",
        "alpha-square-overflows",
        "non-utf8-circuit",
        "nan-kerr-units",
        "miswired-kerr-dump",
        "miswired-kerr-entanglement",
        "overflowing-kerr-sweep",
        "non-family-channel-run",
        "non-family-channel-sweep",
        "unreachable-pattern-run",
        "unreachable-pattern-sweep",
        "entangled-trigger-run",
        "entangled-trigger-dump",
        "entangled-trigger-entanglement",
        "entangled-trigger-sweep",
        "tiny-weights",
        "weight-under-floor",
        "dump-without-source",
        "kerr-off-source-run",
        "kerr-off-source-parse",
        "entanglement-without-branch-a",
        "entanglement-without-branch-b",
        "entanglement-circuit-without-branch-b",
        "override-checked-before-noise",
        "sweep-override-checked-before-noise",
        "sample-without-coincidence",
        "noise-without-coincident-mixed-pass",
        "sweep-without-coincident-mixed-pass",
    ],
)
def test_run_domain_error_is_usage_error(capsys, tmp_path, argv, message):
    argv = tuple(_CIRCUIT_FILES[a](tmp_path) if a in _CIRCUIT_FILES else a for a in argv)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def test_circuit_without_coincidence_reports_no_branch(capsys, tmp_path):
    # an unsampled report of such a circuit is empty, not an error
    circuit = _no_coincidence_circuit(tmp_path)
    code, report = _run_json(capsys, "run", "--network", circuit)
    assert code == 0 and report["entries"] == []
    code, dump = _run_json(capsys, "dump", "--network", circuit)
    assert code == 0 and dump["branches"] == []


@pytest.mark.parametrize("command", ["run", "dump", "analyze-entanglement", "sweep-noise"])
def test_weights_flag_keeps_the_error_of_a_circuit_without_source(capsys, tmp_path, command):
    # --weights replaces the weights of a declared source; it never adds one
    circuit = _empty_circuit(tmp_path)
    errors = []
    for extra in ((), ("--weights", "0.2,0.3,0.5")):
        code, out, err = _run(capsys, command, "--network", circuit, *extra)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        errors.append(err)
    assert errors[0] == errors[1]


_SWAPS = {"hwp90": "hwp45", "hwp45": "hwp90", "pbs": "bs", "bs": "pbs"}
_EDITABLE = {"kerr", "route", *_SWAPS}


def _one_line_mutants(builtin):
    # every deletion of an element or kerr line, and every hwp90/hwp45 and
    # pbs/bs swap, of a packaged circuit
    lines = (resources.files("ghzgen") / "fixtures" / f"{builtin}.onet").read_text(
        encoding="utf-8"
    ).splitlines()
    for i, line in enumerate(lines):
        head, _, rest = line.partition(" ")
        if head in _EDITABLE:
            yield f"{builtin}:{i + 1} deleted", lines[:i] + lines[i + 1 :]
        if head in _SWAPS:
            swapped = f"{_SWAPS[head]} {rest}"
            yield f"{builtin}:{i + 1} {swapped}", lines[:i] + [swapped] + lines[i + 1 :]


def test_circuit_mutations_never_raise(capsys, tmp_path):
    # a miswired circuit is bad input: a report, or exit 2 with one line
    mutants = [*_one_line_mutants("fig1"), *_one_line_mutants("fig3")]
    assert len(mutants) == 80
    path = tmp_path / "mutant.onet"
    allowed = {"run": {0, 2}, "dump": {0, 2}, "analyze-entanglement": {0, 1, 2}}
    failures = []
    for label, lines in mutants:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for command, codes in allowed.items():
            try:
                code, _, err = _run(capsys, command, "--network", str(path))
            except Exception as exc:
                capsys.readouterr()
                failures.append(f"{label}: {command} raised {exc!r}")
                continue
            one_error_line = len(err.splitlines()) == 1 and err.startswith("error: ")
            if code not in codes or (code == 2 and not one_error_line):
                failures.append(f"{label}: {command} exit {code}, stderr {err!r}")
    assert failures == []


def test_run_rejects_sweep_style_noise(capsys):
    code, out, err = _run(capsys, "run", "--noise", "p=0.1")
    assert code == 2
    assert "sweep-noise" in err


def test_run_weights_flag(capsys):
    code, report = _run_json(capsys, "run", "--weights", "0.2,0.3,0.5")
    assert code == 0
    assert report["weights"] == [0.2, 0.3, 0.5]

    for bad in ("0.2,0.8", "a,b,c", "0.2,0.3,0.9"):
        code, _, err = _run(capsys, "run", "--weights", bad)
        assert code == 2, bad
        assert err.startswith("error:")


def test_run_source_style_builtin(capsys):
    code, report = _run_json(capsys, "run", "--builtin", "fig1")
    assert code == 0
    assert report["style"] == "source"
    assert len(report["entries"]) == 2
    for entry in report["entries"]:
        assert entry["family"] is None
        assert entry["pattern"] is None
        assert entry["fidelity"] is None
        assert "entanglement" in entry


def test_run_sampling_repeatable_bytes(capsys):
    code, first, _ = _run(capsys, "run", "--sample", "--seed", "7")
    assert code == 0
    code, second, _ = _run(capsys, "run", "--sample", "--seed", "7")
    assert code == 0
    assert first == second
    report = json.loads(first)
    assert report["sampled"]["branch"] in {"A", "B"}
    assert len(report["entries"]) == 1
    assert report["entries"][0]["pattern"] == report["sampled"]["pattern"]


def test_run_missing_network_file(capsys):
    code, out, err = _run(capsys, "run", "--network", "/no/such/file.onet")
    assert code == 2
    assert "cannot read" in err


# --- verify commands ----------------------------------------------------------


def test_verify_table1_text_line(capsys):
    code, out, err = _run(capsys, "verify-table1")
    assert code == 0
    assert out == "16/16 rows: corrected fidelity 1.000000000000\n"


def test_verify_table1_json(capsys):
    code, payload = _run_json(capsys, "verify-table1", "--json")
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["rows"]) == 16
    assert all(row["passed"] for row in payload["rows"])


def test_verify_table1_reports_failures(capsys, monkeypatch):
    rows = [
        {"family": "psi+", "pattern": "e1e2E3", "ops": ("I", "I", "X"),
         "pattern_probability": 0.5, "fidelity": 1.0, "passed": True},
        {"family": "psi-", "pattern": "E1E2e3", "ops": ("I", "X", "I"),
         "pattern_probability": 0.5, "fidelity": 0.25, "passed": False},
    ]
    monkeypatch.setattr(cli, "verify_correction_table", lambda: rows)
    code, out, err = _run(capsys, "verify-table1")
    assert code == 1
    assert "1/2 rows passed" in out
    assert "psi-" in out


def test_verify_states_text(capsys):
    code, out, err = _run(capsys, "verify-states")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.endswith(": pass") for line in lines)


def test_verify_states_failure_exit_code(capsys, monkeypatch):
    checks = [{"name": "x", "fidelity": 0.0, "detail": "", "passed": False}]
    monkeypatch.setattr(cli, "verify_reference_states", lambda: checks)
    code, out, err = _run(capsys, "verify-states")
    assert code == 1
    assert "FAIL" in out


def test_analyze_entanglement_text_and_alias(capsys):
    code, out, err = _run(capsys, "analyze-entanglement")
    assert code == 0
    assert "branch A: Schmidt rank 1" in out
    assert "branch B: Schmidt rank 2" in out
    assert out.strip().endswith("pass")

    code, alias_out, err = _run(capsys, "verify-entanglement")
    assert code == 0
    assert alias_out == out


def test_analyze_entanglement_lost_branch_fails_the_check(capsys, tmp_path):
    # without the probe couplings both cases land in one branch: the
    # circuit is at fault, not the input, so it is a failed check
    text = (resources.files("ghzgen") / "fixtures" / "fig1.onet").read_text(encoding="utf-8")
    path = tmp_path / "no_probe.onet"
    path.write_text(
        "".join(line for line in text.splitlines(True) if not line.startswith("kerr")),
        encoding="utf-8",
    )
    code, out, err = _run(capsys, "analyze-entanglement", "--network", str(path))
    assert code == 1
    assert err == ""
    assert out.startswith("branch B:")
    assert out.endswith("pol-vs-spatial split: FAIL\n")


def test_analyze_entanglement_json(capsys):
    code, payload = _run_json(capsys, "analyze-entanglement", "--json")
    assert code == 0
    assert payload["passed"] is True
    by_branch = {row["branch"]: row for row in payload["branches"]}
    assert by_branch["A"]["schmidt_rank"] == 1
    assert by_branch["B"]["schmidt_rank"] == 2
    assert by_branch["B"]["schmidt_coefficients"] == pytest.approx(
        [2**-0.5, 2**-0.5]
    )
    assert by_branch["B"]["polarization_purity"] == pytest.approx(0.5)


# --- sweep-noise --------------------------------------------------------------


def test_sweep_noise_json(capsys):
    code, payload = _run_json(capsys, "sweep-noise", "--noise", "p=0.1", "--json")
    assert code == 0
    assert payload["passed"] is True
    assert payload["p"] == 0.1
    assert len(payload["terms"]) == 64
    assert payload["terms"][0]["errors"] == ""
    assert payload["terms"][0]["weight"] == pytest.approx(0.9**3)
    assert payload["corrected_mean_fidelity"] == pytest.approx(1.0, abs=1e-9)
    # (1-p)^3 survival plus the double phase flips that cancel
    expected = 0.9**3 + 3 * (0.1 / 3) ** 2 * 0.9
    assert payload["uncorrected_mean_fidelity"] == pytest.approx(
        expected, abs=1e-9
    )
    for term in payload["terms"]:
        assert term["corrected_fidelity"] >= 1.0 - 1e-12


def test_sweep_noise_default_strength(capsys):
    code, payload = _run_json(capsys, "sweep-noise", "--json")
    assert code == 0
    assert payload["p"] == 0.1


def test_sweep_noise_text(capsys):
    code, out, err = _run(capsys, "sweep-noise", "--noise", "p=0.05")
    assert code == 0
    assert "64 channel error terms" in out
    expected = 0.95**3 + 3 * (0.05 / 3) ** 2 * 0.95
    assert f"uncorrected mean fidelity {expected:.12f}" in out


def test_sweep_noise_rejects_error_list(capsys):
    code, out, err = _run(capsys, "sweep-noise", "--noise", "X@1")
    assert code == 2
    assert "p=0.1" in err


def test_sweep_noise_rejects_source_style_network(capsys):
    code, out, err = _run(capsys, "sweep-noise", "--builtin", "fig1")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "generator-style" in err


# --- renamed circuits ---------------------------------------------------------

_FIG3 = elaborate(parse(builtin_text("fig3")), name="fig3")
# the source arms and the trigger group are names the package itself knows
_KEPT = {*UPPER_ARM, *LOWER_ARM, TRIGGER_GROUP}
_FIG3_NAMES = sorted(
    (
        {r.mode for e in _FIG3.elements for r in e.in_rails + e.out_rails}
        | {d.name for d in _FIG3.detectors}
        | {m for d in _FIG3.detectors for m in d.modes}
    )
    - _KEPT
)
_TAKEN = {*_FIG3_NAMES, *_KEPT, "H", "V", "pdc2", "weights"}
_TAKEN |= {"set", "source", "kerr", "detect", "pbs", "bs", "hwp45", "hwp90", "route"}


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def _fig3_stdout(*argv) -> str:
    return _stdout(*argv)


def _without_mode_names(run_json: str) -> list:
    entries = json.loads(run_json)["entries"]
    return [{k: v for k, v in e.items() if k not in ("state", "pattern")} for e in entries]


@settings(max_examples=5)
@given(
    st.lists(
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
            lambda name: name not in _TAKEN
        ),
        min_size=len(_FIG3_NAMES),
        max_size=len(_FIG3_NAMES),
        unique=True,
    )
)
def test_renamed_fig3_runs_like_fig3(fresh):
    # the circuit is the only place the package learns its mode and
    # detector names: renaming them changes only the names in the output
    rename = dict(zip(_FIG3_NAMES, fresh))
    # output names that run together into one pattern label are refused
    patterns = analyze(_FIG3).patterns
    outputs = [(rename[t], rename[r]) for t, r in zip(patterns[0].modes, patterns[-1].modes)]
    assume(len({"".join(modes) for modes in itertools.product(*outputs)}) == 8)
    lines = [
        line if line.startswith("#") else " ".join(rename.get(t, t) for t in line.split())
        for line in builtin_text("fig3").splitlines()
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "renamed.onet"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sweep = ("sweep-noise", "--json", "--noise", "p=0.3")
        assert _stdout(*sweep, "--network", str(path)) == _fig3_stdout(*sweep)
        run = ("run", "--noise", "X@1,Z@3")
        assert _without_mode_names(_stdout(*run, "--network", str(path))) == (
            _without_mode_names(_fig3_stdout(*run))
        )


def _colliding_fig3(tmp_path):
    # fig3 with output names under which patterns ttr and rrt both read "abcdxy"
    rename = {"e1": "ab", "E1": "a", "e2": "cdx", "E2": "bcd", "e3": "xy", "E3": "y"}
    lines = [
        " ".join(rename.get(t, t) for t in line.split())
        for line in builtin_text("fig3").splitlines()
    ]
    path = tmp_path / "collide.onet"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["run", "dump", "sweep-noise", "analyze-entanglement"])
def test_colliding_pattern_labels_are_usage_errors(capsys, tmp_path, command):
    circuit = _colliding_fig3(tmp_path)
    code, out, err = _run(capsys, command, "--network", circuit)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "both read 'abcdxy'" in err
    # the text itself is well formed
    assert _run(capsys, "parse", "--network", circuit)[0] == 0


# --- parse and dump -----------------------------------------------------------


def test_parse_builtin_canonical_text(capsys):
    code, out, err = _run(capsys, "parse", "--builtin", "fig3")
    assert code == 0
    assert out.startswith("source pdc2")
    assert "pbs d3 D3 -> e3 E3" in out
    # canonical output is a fixed point of parse + pretty-print
    from ghzgen import parse as parse_text, pretty_print

    assert pretty_print(parse_text(out)) == out


def test_parse_json_summary(capsys):
    code, payload = _run_json(capsys, "parse", "--builtin", "fig1", "--json")
    assert code == 0
    assert payload["name"] == "fig1"
    assert payload["source"] == "pdc2"
    assert payload["elements"] == 16
    assert payload["couplings"] == 4
    assert payload["detectors"]["T"] == ["T1", "T2"]


def test_parse_requires_input(capsys):
    code, out, err = _run(capsys, "parse")
    assert code == 2
    assert "--network" in err


def test_parse_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.onet"
    bad.write_text("pbs a a -> b c\n", encoding="utf-8")
    code, out, err = _run(capsys, "parse", "--network", str(bad))
    assert code == 2
    assert "line 1" in err and "mode-reuse" in err


def test_parse_accepts_custom_file(capsys, tmp_path):
    good = tmp_path / "mini.onet"
    good.write_text(
        "source pdc2\nbs a1 -> u v\ndetect T = u\ndetect rest = v a2 b1 b2\n",
        encoding="utf-8",
    )
    code, payload = _run_json(capsys, "parse", "--network", str(good), "--json")
    assert code == 0
    assert payload["name"] == "mini"
    assert payload["elements"] == 1


def test_dump_branch_records(capsys):
    code, payload = _run_json(capsys, "dump")
    assert code == 0
    assert payload["network"] == "fig1"
    branches = {row["branch"]: row for row in payload["branches"]}
    assert set(branches) == {"A", "B"}
    for row in branches.values():
        assert row["branch_probability"] == pytest.approx(0.5, abs=1e-12)
        assert row["phi"] == 0.0
        assert row["state"]
    # deterministic homodyne records sit at the branch means
    assert branches["A"]["x"] == pytest.approx(
        2 * DEFAULT_ALPHA * math.cos(DEFAULT_THETA)
    )
    assert branches["B"]["x"] == pytest.approx(2 * DEFAULT_ALPHA)


def test_dump_honours_zero_theta(capsys):
    code, payload = _run_json(capsys, "dump", "--theta", "0")
    assert code == 0
    branches = {row["branch"]: row for row in payload["branches"]}
    assert branches["A"]["x"] == 2 * DEFAULT_ALPHA


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--builtin", "fig3"),
        ("dump", "--builtin", "fig3"),
        ("sweep-noise", "--builtin", "fig3", "--json", "--noise", "p=0.2"),
    ],
    ids=lambda argv: argv[0],
)
def test_circuit_settings_match_flags(capsys, tmp_path, argv):
    # a set line and a flag are two ways to give one value; a file named
    # after the builtin makes even the network name agree
    text = (resources.files("ghzgen") / "fixtures" / "fig3.onet").read_text(encoding="utf-8")
    path = tmp_path / "fig3.onet"
    path.write_text(text + "set theta 0.02\nset alpha 300\n", encoding="utf-8")
    command, _, _, *rest = argv
    code, from_file, err = _run(capsys, command, "--network", str(path), *rest)
    assert (code, err) == (0, "")
    code, from_flags, err = _run(capsys, *argv, "--theta", "0.02", "--alpha", "300")
    assert (code, err) == (0, "")
    assert from_file == from_flags
    if command != "sweep-noise":  # the sweep's rows do not show the probe settings
        _, default, _ = _run(capsys, *argv)
        assert default != from_flags


# --- argv handling --------------------------------------------------------------


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_builtin_and_network_are_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--builtin", "fig3", "--network", "x.onet"])
    assert info.value.code == 2


# --- golden stdout --------------------------------------------------------------

# sha256 of stdout, recorded with the plainly written ModeTransform.apply
# that tests/oracles.py keeps as reference_apply.  Output is byte-for-byte
# deterministic, so any engine change that moves a single bit of a printed
# amplitude or probability shows here; such a change must update these
# digests on purpose.  analyze-entanglement is left out because its SVD
# depends on the BLAS build, sweep-noise because it is slow.
GOLDEN_STDOUT = {
    ("run",): "208ef83fedb1e3877096b5d529aa922179da33525018274650263accae7f4d09",
    ("run", "--noise", "X@1,Z@3"): "c4d938f51ce6a12840d1c762785538df70d75bc71b9a1d802169d7cfa93c146b",
    ("run", "--builtin", "fig1"): "039d4221e290979e8f68144454873d8cd2dbb6200f4bfbd7c0a663db5e540079",
    ("run", "--sample", "--seed", "5"): "2bf1045355b686cf24500f704d9ef41a3581298302b7ea6e7c1bdb75e2a9b48d",
    ("run", "--weights", "0.2,0.3,0.5", "--theta", "0.02"): "0bd345cff4a573ce2d6965d1bb3bcd2b20b92ccc24d5fbfdb5659dc4bd0a3d7f",
    ("dump",): "01911377ec6ecafb4736c040fb6ca505359931a80795ff79edeed51a1e666ee9",
    ("dump", "--theta", "0.02", "--weights", "0.2,0.3,0.5"): "5faeb6b364f0c27a6255d643efcfb1969b35ab1f4c442ff06644bdd707cb3cbc",
    ("verify-table1", "--json"): "809faf592ff1944d06a9ab2b02231fd0200bc980247c2590dd187da804166520",
    ("verify-states", "--json"): "3fe4866f4abe959693bc32c739046959ccaf0da6b637b9be51fec2952e9adc59",
    ("analyze-entanglement", "--json"): "1b04e238aecfa52197efa309b0cdd68be2f62e38b6030d03fb1cc2128d509a0f",
    ("verify-entanglement", "--json"): "1b04e238aecfa52197efa309b0cdd68be2f62e38b6030d03fb1cc2128d509a0f",
    ("parse", "--builtin", "fig3", "--json"): "b1e65635cf8ee6b381a1c18e44ccd0867c0104a4a18493988138fdea44ba70bc",
    ("sweep-noise", "--json", "--noise", "p=0.3"): "1a648042473361d276dd52342635d7b9af5cbff9ca51e7931a009d4a9ffb26cd",
}


def test_commands_without_diagnostics_leave_numpy_unloaded():
    # numpy backs only entanglement_summary; the other commands, seeded
    # sampling included, must not pay its import in a fresh interpreter.
    # No command pays for dataclasses and the inspect it pulls in either.
    absent = ("numpy", "dataclasses", "inspect")
    argvs = [
        ["run"],
        ["dump"],
        ["verify-table1"],
        ["verify-states"],
        ["parse", "--builtin", "fig3"],
        ["run", "--sample", "--seed", "5"],
        ["run", "--sample", "--seed", "11", "--noise", "X@2"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import ghzgen.cli as cli\n"
        f"loaded = lambda: print([m for m in {absent!r} if m in sys.modules])\n"
        "loaded()\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.splitlines() == ["[]"] * (1 + len(argvs))


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids="_".join)
def test_golden_stdout(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


# runs the command once unseen, then builds every ket it met again, in
# reverse order, in a new intern table while the old kets are still held,
# so that fresh memory gives them addresses in the reverse order; with
# every package cache cleared, the command runs again and prints
_SHIFTED = """
import contextlib, gc, importlib, io, pkgutil, sys, weakref
import ghzgen
from ghzgen import cli, states
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
old = list(states._KETS.values())
states._KETS = weakref.WeakValueDictionary()
held = [states.FockKet._canonical(k.occupations) for k in reversed(old)]
for info in pkgutil.iter_modules(ghzgen.__path__, "ghzgen."):
    if info.name != "ghzgen.__main__":
        for value in vars(importlib.import_module(info.name)).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
del old
gc.collect()
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [("run",), ("sweep-noise", "--json"), ("run", "--sample", "--seed", "5")],
    ids="_".join,
)
def test_output_does_not_depend_on_ket_addresses(argv):
    # kets hash by identity: a dict or set ordered by hash would order
    # output by address.  A command prints the same bytes whatever kets
    # were built before it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    plain, shifted = (
        subprocess.run(command + list(argv), capture_output=True, env=env, timeout=120)
        for command in ([sys.executable, "-m", "ghzgen"], [sys.executable, "-c", _SHIFTED])
    )
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (shifted.returncode, shifted.stderr, shifted.stdout) == (0, b"", plain.stdout)


# --- the ket budget ----------------------------------------------------------


@pytest.mark.parametrize("command", ["run", "dump", "sweep-noise"])
def test_cli_refuses_a_circuit_past_the_ket_budget(monkeypatch, capsys, command):
    # fresh elements, so that no stage built under the real budget is hit;
    # fig3's fan-out holds up to 40 kets after one element
    for make in (make_bs, make_hwp45, make_hwp90, make_pbs, make_route):
        make.cache_clear()
    monkeypatch.setattr("ghzgen.states.MAX_KETS", 16)
    code, out, err = _run(capsys, command, "--builtin", "fig3")
    assert code == 2
    assert out == ""
    assert re.fullmatch(
        r"error: \w+\(\S+\): the state would hold more than 16 kets after this element\n", err
    )


def _splitter_tree(depth: int) -> str:
    """Each source arm fanned through a depth-``depth`` tree of one-input
    50:50 splitters, the trigger on one leaf and three resolving merges
    on pairs of leaves: a well-formed generator-style circuit whose state
    grows past any budget with depth."""
    lines = [l for l in builtin_text("fig3").splitlines() if l.startswith(("source ", "kerr "))]
    leaves = {}
    for arm in ("a1", "b1", "a2", "b2"):
        level = [arm]
        for d in range(depth):
            outs = []
            for mode in level:
                left, right = f"{mode}_{d}l", f"{mode}_{d}r"
                lines.append(f"bs {mode} -> {left} {right}")
                outs += [left, right]
            level = outs
        leaves[arm] = level
    lines.append(f"detect {TRIGGER_GROUP} = {leaves['a1'][0]}")
    for i, arm in enumerate(("b1", "a2", "b2"), start=1):
        lower, upper = leaves[arm][:2]
        lines += [f"hwp90 {upper}", f"pbs {lower} {upper} -> e{i} E{i}", f"detect P{i} = e{i} E{i}"]
    return "\n".join(lines) + "\n"


def test_cli_refuses_a_deep_splitter_tree_quickly_and_in_bounded_memory(tmp_path):
    # at depth 5 the unbounded state would reach 1.7 M kets and 3 GB; the
    # budget stops each command within seconds, in a fresh interpreter
    # whose peak resident size is read back
    path = tmp_path / "tree5.onet"
    path.write_text(_splitter_tree(5), encoding="utf-8")
    code = (
        "import contextlib, io, json, resource, sys\n"
        "import ghzgen.cli as cli\n"
        "rows = []\n"
        "for command in ('run', 'dump', 'sweep-noise'):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"        rows.append((cli.main([command, '--network', {str(path)!r}]), err.getvalue()))\n"
        "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps({'rows': rows, 'rss_mb': rss_mb}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    result = json.loads(done.stdout)
    for exit_code, err in result["rows"]:
        assert exit_code == 2
        assert re.fullmatch(r"error: bs\(\S+\): the state would hold more than 65536 kets .*\n", err)
    assert result["rss_mb"] < 512
