"""The record contract: every record pickles, is immutable, and compares
by value; a ``Statement`` ignores its source position."""

import pickle

import pytest

from ghzgen import (
    CaseWeights,
    KerrCoupling,
    NetworkSettings,
    NoiseFamily,
    PauliError,
    SourceSpec,
    analyze,
    branch_states,
    build_fig3,
    homodyne_discriminate,
    parse,
    run_full,
    tag_phases,
)
from ghzgen.dsl import Statement, builtin_text
from ghzgen.source import dual_pass_emission


def _records():
    """One instance of every public record type, by name, with the name of
    one of its fields."""
    network = build_fig3()
    structure = analyze(network)
    emission = dual_pass_emission()
    outcome = homodyne_discriminate(emission, tag_phases(emission, network.couplings))[0]
    document = parse(builtin_text("fig3"))
    report = run_full("X@1,Z@3", weights=CaseWeights(0.2, 0.3, 0.5))
    entry = report.entries[-1]
    return {
        "CaseWeights": (CaseWeights(0.2, 0.3, 0.5), "mixed"),
        "SourceSpec": (SourceSpec("pdc2", CaseWeights(0.2, 0.3, 0.5)), "kind"),
        "NetworkSettings": (NetworkSettings(theta=0.02, alpha=3.0), "theta"),
        "PauliError": (PauliError(2, "Y"), "photon"),
        "NoiseFamily": (NoiseFamily("psi1", -1, mirrored=True), "sign"),
        "KerrCoupling": (KerrCoupling("a1", "H", 0.5), "units"),
        "QndOutcome": (outcome, "tag_signs"),
        "DetectorGroup": (structure.trigger, "modes"),
        "CircuitNetwork": (network, "settings"),
        "NetworkStructure": (structure, "boundary"),
        "Statement": (document.statements[0], "line"),
        "DslDocument": (document, "statements"),
        "CoincidencePattern": (entry.pattern, "shape"),
        "BranchState": (branch_states(network)[0], "conditional"),
        "RunEntry": (entry, "fidelity"),
        "RunReport": (report, "entries"),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_pickle_round_trip(name):
    record, _ = RECORDS[name]
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert clone == record
    assert repr(clone) == repr(record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_immutable(name):
    record, field = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_statement_equality_ignores_position():
    a = Statement("kerr", ("a1", "H", 0.5), 1, 1, (6, 9, 11))
    b = Statement("kerr", ("a1", "H", 0.5), 7, 3, (8, 11, 13))
    assert a == b
    assert not a != b
    assert hash(a) == hash(b)
    assert (b.line, b.column, b.columns) == (7, 3, (8, 11, 13))
    assert a != Statement("kerr", ("a1", "H", -0.5), 1, 1, (6, 9, 11))
    assert a != Statement("route", ("a1", "H", 0.5), 1, 1, (6, 9, 11))
