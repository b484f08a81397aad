"""Plain-text circuit description language (``.onet`` files).

One statement per line; ``#`` starts a comment.  Grammar:

    set theta 0.01            probe settings: theta and alpha only
    set alpha 316.23
    source pdc2 [weights w1 w2 w3]   case weights (default 0.25 0.25 0.5)
    kerr MODE POL UNITS       probe coupling on one source-arm rail
    pbs IN1 [IN2] -> OUT_T OUT_R
    bs  IN1 [IN2] -> OUT1 OUT2
    hwp45 MODE
    hwp90 MODE
    route SRC -> DST
    detect NAME = MODE [MODE ...]

``parse`` turns text into a ``DslDocument`` and raises ``ParseError``
(with line, column and an error kind) on anything malformed; it never
raises anything else.  ``elaborate`` checks mode flow, every input must
be a live declared mode and every output a fresh name, checks that each
``kerr`` line names a source arm, and builds the ``CircuitNetwork``.
``pretty_print`` emits canonical text that reparses to an equal document.
A file describes a device only: channel noise is what the transmitted
state meets on the way, so it is given to the run (``run --noise``,
``run_full``'s ``noise``), never in the circuit.

The ``pdc2`` source emits on the fixed arm names a1, b1 (first pass)
and a2, b2 (second pass).  ``builtin_text`` reads the packaged circuits
(``fixtures/fig1.onet`` and ``fixtures/fig3.onet``), the one definition
of the builtin devices.
"""

from __future__ import annotations

import math
import re
from importlib import resources
from typing import NamedTuple

from .network import (
    CircuitNetwork,
    DetectorGroup,
    NetworkSettings,
    SourceSpec,
)
from .elements import make_bs, make_hwp45, make_hwp90, make_pbs, make_route
from .qnd import KerrCoupling
from .source import LOWER_ARM, UPPER_ARM, CaseWeights
from .states import H, V

SOURCE_ARMS = UPPER_ARM + LOWER_ARM

BUILTINS = ("fig1", "fig3")

ERROR_KINDS = (
    "syntax",
    "unknown-element",
    "mode-reuse",
    "undeclared-mode",
    "bad-parameter",
)

_SET_KEYS = ("theta", "alpha")
_ELEMENT_HEADS = ("pbs", "bs", "hwp45", "hwp90", "route")
_STATEMENT_HEADS = ("set", "source", "kerr", "detect") + _ELEMENT_HEADS

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(Exception):
    """Rejection of a circuit description, located at a line and column."""

    def __init__(self, message: str, *, line: int, column: int, kind: str):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {kind!r}")
        super().__init__(f"line {line}, column {column}: {message} [{kind}]")
        self.message = message
        self.line = line
        self.column = column
        self.kind = kind


class Statement(NamedTuple):
    """One parsed line: a head keyword and its typed payload.

    ``column`` is the head's column and ``columns`` the column of each
    token in ``args``, nested the same way, so an error can point at the
    offending mode.  Source positions are carried for error reporting but
    do not take part in equality or hashing, so a reparse of canonical
    text compares equal.
    """

    kind: str
    args: tuple
    line: int
    column: int
    columns: tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.args) == (other.kind, other.args)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash((self.kind, self.args))


class DslDocument(NamedTuple):
    statements: tuple[Statement, ...]


class _Token(NamedTuple):
    text: str
    column: int


def _tokenize(line: str) -> list[_Token]:
    code = line.split("#", 1)[0]
    return [
        _Token(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)
    ]


def _fail(message: str, line: int, column: int, kind: str):
    raise ParseError(message, line=line, column=column, kind=kind)


def _float(tok: _Token, line: int) -> float:
    try:
        return float(tok.text)
    except ValueError:
        _fail(f"expected a number, got {tok.text!r}", line, tok.column, "bad-parameter")


def _mode_name(tok: _Token, line: int) -> str:
    if not _NAME_RE.match(tok.text):
        _fail(f"bad mode name {tok.text!r}", line, tok.column, "syntax")
    return tok.text


def _check_statement_dup(names: list[_Token], line: int):
    seen: dict[str, int] = {}
    for tok in names:
        if tok.text in seen:
            _fail(
                f"mode {tok.text!r} appears twice in one statement",
                line,
                tok.column,
                "mode-reuse",
            )
        seen[tok.text] = tok.column


def _parse_set(toks: list[_Token], line: int) -> Statement:
    if len(toks) < 3:
        _fail("set needs a key and a value", line, toks[0].column, "syntax")
    key = toks[1].text
    if key not in _SET_KEYS:
        _fail(
            f"unknown setting {key!r} (expected one of {', '.join(_SET_KEYS)})",
            line,
            toks[1].column,
            "bad-parameter",
        )
    if len(toks) != 3:
        _fail(f"{key} needs one number", line, toks[1].column, "syntax")
    value = _float(toks[2], line)
    return Statement("set", (key, value), line, toks[0].column, (toks[1].column, toks[2].column))


def _parse_source(toks: list[_Token], line: int) -> Statement:
    if len(toks) < 2:
        _fail("source needs a kind", line, toks[0].column, "syntax")
    kind = toks[1].text
    if kind != "pdc2":
        _fail(f"unknown source kind {kind!r}", line, toks[1].column, "bad-parameter")
    weights = columns = None
    rest = toks[2:]
    if rest:
        if rest[0].text != "weights" or len(rest) != 4:
            _fail(
                "source takes an optional 'weights w1 w2 w3' clause",
                line,
                rest[0].column,
                "syntax",
            )
        weights = tuple(_float(t, line) for t in rest[1:])
        columns = tuple(t.column for t in rest[1:])
    return Statement("source", (kind, weights), line, toks[0].column, (toks[1].column, columns))


def _parse_kerr(toks: list[_Token], line: int) -> Statement:
    if len(toks) != 4:
        _fail("kerr needs MODE POL UNITS", line, toks[0].column, "syntax")
    mode = _mode_name(toks[1], line)
    pol = toks[2].text
    if pol not in (H, V):
        _fail(f"polarization must be H or V, got {pol!r}", line, toks[2].column, "bad-parameter")
    units = _float(toks[3], line)
    if not math.isfinite(units):
        _fail(
            f"kerr units must be finite, got {toks[3].text!r}",
            line,
            toks[3].column,
            "bad-parameter",
        )
    columns = tuple(t.column for t in toks[1:])
    return Statement("kerr", (mode, pol, units), line, toks[0].column, columns)


def _parse_element(head: str, toks: list[_Token], line: int) -> Statement:
    if head in ("hwp45", "hwp90"):
        if len(toks) != 2:
            _fail(f"{head} needs one mode", line, toks[0].column, "syntax")
        mode = _mode_name(toks[1], line)
        return Statement(head, (mode,), line, toks[0].column, (toks[1].column,))
    arrow = [i for i, t in enumerate(toks) if t.text == "->"]
    if len(arrow) != 1:
        _fail(f"{head} needs one '->'", line, toks[0].column, "syntax")
    split = arrow[0]
    ins = toks[1:split]
    outs = toks[split + 1 :]
    if head == "route":
        if len(ins) != 1 or len(outs) != 1:
            _fail("route maps one mode to one mode", line, toks[0].column, "syntax")
    else:
        if len(ins) not in (1, 2) or len(outs) != 2:
            _fail(
                f"{head} takes one or two inputs and exactly two outputs",
                line,
                toks[0].column,
                "syntax",
            )
    names = [*ins, *outs]
    for tok in names:
        _mode_name(tok, line)
    _check_statement_dup(names, line)
    in_modes = tuple(t.text for t in ins)
    out_modes = tuple(t.text for t in outs)
    in_cols = tuple(t.column for t in ins)
    out_cols = tuple(t.column for t in outs)
    if head == "route":
        return Statement(
            "route", (in_modes[0], out_modes[0]), line, toks[0].column, (in_cols[0], out_cols[0])
        )
    return Statement(head, (in_modes, out_modes), line, toks[0].column, (in_cols, out_cols))


def _parse_detect(toks: list[_Token], line: int) -> Statement:
    if len(toks) < 4 or toks[2].text != "=":
        _fail("detect needs 'NAME = MODE...'", line, toks[0].column, "syntax")
    name = toks[1].text
    if not _NAME_RE.match(name):
        _fail(f"bad detector name {name!r}", line, toks[1].column, "syntax")
    modes = toks[3:]
    for tok in modes:
        _mode_name(tok, line)
    _check_statement_dup(modes, line)
    return Statement(
        "detect",
        (name, tuple(t.text for t in modes)),
        line,
        toks[0].column,
        (toks[1].column, tuple(t.column for t in modes)),
    )


def parse(text: str) -> DslDocument:
    """Parse circuit text; raises ParseError on any malformed statement."""
    statements: list[Statement] = []
    seen_set_keys: dict[str, int] = {}
    source_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        head = toks[0].text
        if head not in _STATEMENT_HEADS:
            _fail(f"unknown element {head!r}", lineno, toks[0].column, "unknown-element")
        if head == "set":
            stmt = _parse_set(toks, lineno)
            key = stmt.args[0]
            if key in seen_set_keys:
                _fail(
                    f"setting {key!r} already given on line {seen_set_keys[key]}",
                    lineno,
                    toks[0].column,
                    "syntax",
                )
            seen_set_keys[key] = lineno
        elif head == "source":
            if source_line is not None:
                _fail(
                    f"source already given on line {source_line}",
                    lineno,
                    toks[0].column,
                    "syntax",
                )
            stmt = _parse_source(toks, lineno)
            source_line = lineno
        elif head == "kerr":
            stmt = _parse_kerr(toks, lineno)
        elif head == "detect":
            stmt = _parse_detect(toks, lineno)
        else:
            stmt = _parse_element(head, toks, lineno)
        statements.append(stmt)
    return DslDocument(statements=tuple(statements))


def builtin_text(name: str) -> str:
    """Text of the packaged circuit ``name`` (one of ``BUILTINS``)."""
    fixture = resources.files("ghzgen") / "fixtures" / f"{name}.onet"
    return fixture.read_text(encoding="utf-8")


# --- elaboration -----------------------------------------------------------


class _ModeFlow:
    """Tracks which modes exist and which still carry light."""

    def __init__(self):
        self.declared: set[str] = set()
        self.live: set[str] = set()

    def declare(self, mode: str, line: int, column: int):
        if mode in self.declared:
            _fail(f"mode {mode!r} already defined", line, column, "mode-reuse")
        self.declared.add(mode)
        self.live.add(mode)

    def consume(self, mode: str, line: int, column: int):
        self.require_live(mode, line, column)
        self.live.discard(mode)

    def require_live(self, mode: str, line: int, column: int):
        if mode not in self.declared:
            _fail(f"mode {mode!r} is not declared", line, column, "undeclared-mode")
        if mode not in self.live:
            _fail(f"mode {mode!r} was already used", line, column, "mode-reuse")


def elaborate(doc: DslDocument, name: str = "network") -> CircuitNetwork:
    """Check mode flow and build the network.

    Raises ParseError on flow violations: consuming a mode twice, feeding
    an element from an undeclared or already-consumed mode, redefining an
    existing mode or detector, or detecting a dead mode; on a ``kerr``
    line off the source arms, where the probe would never act; and on a
    bad ``set`` value or source weight.  A flow or ``kerr`` error points at
    the offending token, a bad value at its statement.
    """
    flow = _ModeFlow()
    elements = []
    couplings = []
    detectors = []
    detector_names: dict[str, int] = {}
    source: SourceSpec | None = None
    settings_kw: dict = {}

    for stmt in doc.statements:
        line = stmt.line
        if stmt.kind == "set":
            key, value = stmt.args
            # each value is checked alone, so a rejection names its own line
            try:
                NetworkSettings(**{key: value})
            except ValueError as exc:
                _fail(str(exc), line, stmt.column, "bad-parameter")
            settings_kw[key] = value
        elif stmt.kind == "source":
            _, weights = stmt.args
            try:
                source = SourceSpec(kind="pdc2", weights=CaseWeights(*(weights or ())))
            except ValueError as exc:
                _fail(str(exc), line, stmt.column, "bad-parameter")
            for arm in SOURCE_ARMS:
                flow.declare(arm, line, stmt.column)
        elif stmt.kind == "kerr":
            mode, pol, units = stmt.args
            column = stmt.columns[0]
            if mode not in flow.declared:
                _fail(f"mode {mode!r} is not declared", line, column, "undeclared-mode")
            if mode not in SOURCE_ARMS:
                _fail(
                    f"kerr mode {mode!r} is not a source arm ({', '.join(SOURCE_ARMS)})",
                    line,
                    column,
                    "bad-parameter",
                )
            couplings.append(KerrCoupling(mode=mode, pol=pol, units=units))
        elif stmt.kind in ("pbs", "bs"):
            (ins, outs), (in_cols, out_cols) = stmt.args, stmt.columns
            for m, column in zip(ins, in_cols):
                flow.consume(m, line, column)
            for m, column in zip(outs, out_cols):
                flow.declare(m, line, column)
            maker = make_pbs if stmt.kind == "pbs" else make_bs
            in1 = ins[0]
            in2 = ins[1] if len(ins) == 2 else None
            elements.append(maker(in1, in2, outs[0], outs[1]))
        elif stmt.kind in ("hwp45", "hwp90"):
            (mode,), (column,) = stmt.args, stmt.columns
            flow.require_live(mode, line, column)
            maker = make_hwp45 if stmt.kind == "hwp45" else make_hwp90
            elements.append(maker(mode))
        elif stmt.kind == "route":
            (src, dst), (src_col, dst_col) = stmt.args, stmt.columns
            flow.consume(src, line, src_col)
            flow.declare(dst, line, dst_col)
            elements.append(make_route(src, dst))
        elif stmt.kind == "detect":
            (det_name, modes), (name_col, mode_cols) = stmt.args, stmt.columns
            if det_name in detector_names:
                _fail(
                    f"detector {det_name!r} already defined on line "
                    f"{detector_names[det_name]}",
                    line,
                    name_col,
                    "bad-parameter",
                )
            detector_names[det_name] = line
            for m, column in zip(modes, mode_cols):
                flow.consume(m, line, column)
            detectors.append(DetectorGroup(det_name, modes))
        else:  # pragma: no cover - parse admits no other kinds
            raise AssertionError(stmt.kind)

    return CircuitNetwork(
        name=name,
        elements=tuple(elements),
        couplings=tuple(couplings),
        detectors=tuple(detectors),
        source=source,
        settings=NetworkSettings(**settings_kw),
    )


# --- canonical text --------------------------------------------------------


def _format_number(x: float) -> str:
    return repr(float(x))


def pretty_print(doc: DslDocument) -> str:
    """Canonical text for a document; reparses to an equal document."""
    lines = []
    for stmt in doc.statements:
        if stmt.kind == "set":
            key, value = stmt.args
            lines.append(f"set {key} {_format_number(value)}")
        elif stmt.kind == "source":
            kind, weights = stmt.args
            if weights is None:
                lines.append(f"source {kind}")
            else:
                body = " ".join(_format_number(w) for w in weights)
                lines.append(f"source {kind} weights {body}")
        elif stmt.kind == "kerr":
            mode, pol, units = stmt.args
            lines.append(f"kerr {mode} {pol} {_format_number(units)}")
        elif stmt.kind in ("pbs", "bs"):
            ins, outs = stmt.args
            lines.append(f"{stmt.kind} {' '.join(ins)} -> {' '.join(outs)}")
        elif stmt.kind in ("hwp45", "hwp90"):
            lines.append(f"{stmt.kind} {stmt.args[0]}")
        elif stmt.kind == "route":
            src, dst = stmt.args
            lines.append(f"route {src} -> {dst}")
        elif stmt.kind == "detect":
            det_name, modes = stmt.args
            lines.append(f"detect {det_name} = {' '.join(modes)}")
    return "\n".join(lines) + "\n"
