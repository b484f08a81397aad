"""Random well-formed circuits through the parser, the CLI and the run.

``circuits()`` writes ``.onet`` text: the builtin ``pdc2`` source and
``kerr`` lines, a chain of at most eight elements over live modes, a
trigger and three two-mode photon groups, and sometimes a half-wave flip
plus resolving PBS merge in front of each group, so that both network
styles occur.  Most such circuits are miswired for the protocol; the
properties are that the CLI never raises, that every command exits with
one of its codes and refuses with exactly one ``error:`` line, that a
ket budget too low for the fan-out is refused naming the element that
crosses it, that a run on fresh element objects reads the same bytes
as a run on the interned ones, whose ``apply`` stages earlier examples
built, and that a run on kets rebuilt from their occupations, in a new
intern table, reads the same bytes as a run on the interned kets.
"""

import contextlib
import importlib
import io
import itertools
import json
import pickle
import pkgutil
import re
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import ghzgen
from ghzgen import cli, elaborate, parse, run_full
from ghzgen.dsl import builtin_text, pretty_print
from ghzgen.elements import make_bs, make_hwp45, make_hwp90, make_pbs, make_route
from ghzgen.network import NetworkError, TRIGGER_GROUP

# the source and probe lines of the builtin circuits
_HEADER = [
    line
    for line in builtin_text("fig3").splitlines()
    if line.startswith(("source ", "kerr "))
]
_CHAIN = ("pbs", "bs", "hwp45", "hwp90", "route")
_MAX_CHAIN = 8
# a trigger mode and three photon pairs; a chain never lowers the live
# count, and each one-input splitter raises it by one
_DETECTED = 7


@st.composite
def circuits(draw):
    live = ["a1", "b1", "a2", "b2"]
    names = (f"m{i}" for i in itertools.count())
    lines = list(_HEADER)

    def split(kind, inputs):
        outs = [next(names), next(names)]
        for mode in inputs:
            live.remove(mode)
        live.extend(outs)
        lines.append(f"{kind} {' '.join(inputs)} -> {' '.join(outs)}")

    length = draw(st.integers(0, _MAX_CHAIN - (_DETECTED - len(live))))
    for _ in range(length):
        kind = draw(st.sampled_from(_CHAIN))
        if kind in ("pbs", "bs"):
            inputs = draw(st.lists(st.sampled_from(live), min_size=1, max_size=2, unique=True))
            split(kind, inputs)
        elif kind == "route":
            src = draw(st.sampled_from(live))
            dst = next(names)
            live[live.index(src)] = dst
            lines.append(f"route {src} -> {dst}")
        else:
            lines.append(f"{kind} {draw(st.sampled_from(live))}")
    while len(live) < _DETECTED:
        split(draw(st.sampled_from(("pbs", "bs"))), [draw(st.sampled_from(live))])

    order = draw(st.permutations(live))
    trigger = order[: draw(st.integers(1, min(2, len(live) - 6)))]
    pairs = [order[len(trigger) + 2 * i : len(trigger) + 2 * i + 2] for i in range(3)]
    if draw(st.booleans()):
        merged = []
        for i, (lower, upper) in enumerate(pairs, start=1):
            lines += [f"hwp90 {upper}", f"pbs {lower} {upper} -> e{i} E{i}"]
            merged.append((f"e{i}", f"E{i}"))
        pairs = merged
    lines.append(f"detect {TRIGGER_GROUP} = {' '.join(trigger)}")
    lines += [f"detect P{i} = {a} {b}" for i, (a, b) in enumerate(pairs, start=1)]
    return "\n".join(lines) + "\n"


# each command with the exit codes it may give on a well-formed circuit
_COMMANDS = (
    (("run",), (0, 2)),
    (("run", "--sample", "--seed", "3"), (0, 2)),
    (("dump",), (0, 2)),
    (("sweep-noise",), (0, 2)),
    (("analyze-entanglement",), (0, 1, 2)),
)


def _canonical(report) -> bytes:
    """The report's every number and state, bit for bit, as bytes."""
    entries = [
        [
            e.branch,
            getattr(e.family, "label", e.family),
            e.pattern.label if e.pattern else None,
            e.branch_probability,
            e.coincidence_probability,
            e.pattern_probability,
            e.joint_probability,
            e.corrections,
            e.fidelity,
            [[k.occupations, [a.real, a.imag]] for k, a in e.state.sorted_terms()],
            e.entanglement,
        ]
        for e in report.entries
    ]
    payload = [report.style, report.weights, report.probe_overlap, entries]
    return json.dumps(payload, default=lambda o: o.tolist()).encode()


def _clear_package_caches(elements):
    """Empty every cache of the package and the stages of ``elements``:
    afterwards no cached state, stage or mask holds a ket."""
    for info in pkgutil.iter_modules(ghzgen.__path__, "ghzgen."):
        if info.name != "ghzgen.__main__":
            for value in vars(importlib.import_module(info.name)).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    for element in elements:
        element._stages.clear()


@contextlib.contextmanager
def _rebuilt_kets(elements):
    """Inside, every ket is built anew from its occupations, in a new and
    empty intern table: the kets of the old one are other objects, at
    other addresses.  No cache holds a ket of the other table on entry
    or on exit, so that neither side's kets reach the other."""
    _clear_package_caches(elements)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ghzgen.states._KETS", weakref.WeakValueDictionary())
        try:
            yield
        finally:
            _clear_package_caches(elements)


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@settings(max_examples=60, derandomize=True, database=None)
@given(text=circuits())
def test_random_circuits_round_trip_refuse_cleanly_and_replay_bit_for_bit(
    text, tmp_path_factory
):
    doc = parse(text)
    assert parse(pretty_print(doc)) == doc

    path = tmp_path_factory.getbasetemp() / "random.onet"
    path.write_text(text, encoding="utf-8")
    for command, exits in _COMMANDS:
        code, err = _main(*command, "--network", str(path))
        assert code in exits, (command, code, err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (command, err)
            # every generated circuit declares a mixed-pass weight of 0.5
            assert "mixed-pass weight" not in err, (command, err)
        else:
            assert err == "", (command, err)

    network = elaborate(doc, name="random")
    try:
        interned = run_full(network=network)
    except NetworkError:
        return
    fresh = network._replace(elements=pickle.loads(pickle.dumps(network.elements)))
    assert all(a is not b for a, b in zip(fresh.elements, network.elements))
    assert _canonical(run_full(network=fresh)) == _canonical(interned)


@settings(max_examples=60, derandomize=True, database=None)
@given(text=circuits())
@example(text=builtin_text("fig1"))
@example(text=builtin_text("fig3"))
def test_random_circuits_read_the_same_bytes_on_rebuilt_kets(text):
    # kets hash by identity; a run on kets rebuilt from their occupations,
    # other objects at other addresses, must read the same bytes.  Few
    # random circuits pass coincidence, so the builtin ones are examples
    network = elaborate(parse(text), name="random")
    try:
        interned = run_full(network=network)
    except NetworkError:
        return
    with _rebuilt_kets(network.elements):
        rebuilt = run_full(network=network)
    assert _canonical(rebuilt) == _canonical(interned)
    kets = [[k for e in report.entries for k in e.state.terms] for report in (rebuilt, interned)]
    assert all(a is not b for a, b in zip(*kets))


# a ket budget below the width of every branch state the source emits, so
# that the first element a branch meets crosses it
_LOW_BUDGET = 4


@settings(max_examples=60, derandomize=True, database=None)
@given(text=circuits())
def test_random_circuits_refuse_a_low_ket_budget_naming_an_element(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "budget.onet"
    path.write_text(text, encoding="utf-8")
    network = elaborate(parse(text), name="random")
    try:
        reached = bool(run_full(network=network).entries)
    except NetworkError:
        reached = False
    names = "|".join(re.escape(e.name) for e in network.elements)
    refusal = re.compile(
        rf"error: ({names}): the state would hold more than {_LOW_BUDGET} kets "
        r"after this element\n"
    )
    commands = ("run", "dump", "sweep-noise")
    within = [_main(command, "--network", str(path)) for command in commands]
    # fresh elements, so that no stage built under the real budget is hit
    for make in (make_bs, make_hwp45, make_hwp90, make_pbs, make_route):
        make.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ghzgen.states.MAX_KETS", _LOW_BUDGET)
        past = [_main(command, "--network", str(path)) for command in commands]
    for command, (code, err), before in zip(commands, past, within):
        if refusal.fullmatch(err):
            assert code == 2, (command, err)
        else:
            # a branch that reaches the fan-out crosses the budget there
            assert not (reached and command in ("run", "dump")), (command, err)
            # refused, or done, before any element met the budget
            assert (code, err) == before, (command, code, err)
