"""Command-line surface.

Subcommands:

    run                   full protocol run, JSON report on stdout
    verify-table1         check all sixteen correction-table rows
    verify-states         check branch and family conditionals vs literals
    analyze-entanglement  per-branch Schmidt structure (alias:
                          verify-entanglement)
    sweep-noise           depolarization sweep with and without recovery
    parse                 validate a circuit file, print canonical text
    dump                  branch conditional states as JSON

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage,
circuit-parse or network errors (a wrong detector structure, a
miswired fan-out, output mode names under which two coincidence
patterns read alike, a non-finite, negative or overflowing probe
setting, noise on a source-style network, noise or a sweep with no
mixed-pass branch, whether its weight is zero or no mixed-pass branch
passes the fourfold coincidence, a sampled run in which no branch passes
it, an entanglement check whose case weights empty a branch, or a
circuit whose state would outgrow ``states.MAX_KETS`` kets).
The ``--weights``, ``--theta`` and ``--alpha`` flags override the
circuit's own values, the same way for every command that takes them,
and are checked with the circuit, before any other flag.  JSON output
is byte-deterministic for fixed inputs and seed: keys are sorted and
floats use their shortest round-trip form.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dsl import BUILTINS, ParseError, builtin_text, elaborate, parse, pretty_print
from .network import CircuitNetwork, NetworkError
from .noise import format_noise_spec, parse_noise_spec
from .pipeline import (
    RunReport,
    branch_states,
    entanglement_report,
    passing,
    run_full,
    sweep_noise,
    verify_correction_table,
    verify_reference_states,
)
from .source import CaseWeights
from .states import phase_fixed, sum_in_order, to_json_terms

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


def _read_circuit(flags: dict, default_builtin: str | None) -> tuple[str, str]:
    """Circuit text and name from ``--network FILE`` or ``--builtin NAME``."""
    path = flags.get("network")
    if path is not None:
        try:
            return Path(path).read_text(encoding="utf-8"), Path(path).stem
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read network file: {exc}") from exc
    name = flags.get("builtin") or default_builtin
    return builtin_text(name), name


def _load_network(flags: dict, default_builtin: str) -> CircuitNetwork:
    """The circuit with the ``--weights``, ``--theta`` and ``--alpha``
    flags applied; a flag a command lacks, or one not given, keeps the
    circuit's own value."""
    text, name = _read_circuit(flags, default_builtin)
    return elaborate(parse(text), name=name).with_overrides(
        _parse_weights(flags.get("weights")), flags.get("theta"), flags.get("alpha")
    )


def _parse_weights(text: str | None) -> CaseWeights | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError("weights need three comma-separated numbers")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad weights: {exc}") from exc
    try:
        return CaseWeights(*values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _split_noise(spec: str | None) -> tuple[str | None, float | None]:
    """A noise flag is either an explicit error list or ``p=VALUE``; both
    forms are checked here, so a bad one is a usage error."""
    if spec is None:
        return None, None
    if not spec.startswith("p="):
        try:
            parse_noise_spec(spec)
        except ValueError as exc:
            raise _UsageError(f"bad noise spec: {exc}") from exc
        return spec, None
    try:
        p = float(spec[2:])
    except ValueError as exc:
        raise _UsageError(f"bad depolarization strength: {spec!r}") from exc
    if not 0.0 <= p <= 1.0:
        raise _UsageError(f"depolarization strength must be in [0, 1], got {spec!r}")
    return None, p


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _entry_json(entry) -> dict:
    family = entry.family
    if family is not None and not isinstance(family, str):
        family = family.label
    out = {
        "branch": entry.branch,
        "family": family,
        "pattern": entry.pattern.label if entry.pattern else None,
        "shape": entry.pattern.shape if entry.pattern else None,
        "branch_probability": entry.branch_probability,
        "coincidence_probability": entry.coincidence_probability,
        "pattern_probability": entry.pattern_probability,
        "joint_probability": entry.joint_probability,
        "corrections": list(entry.corrections),
        "fidelity": entry.fidelity,
        "state": to_json_terms(entry.state),
    }
    if entry.entanglement is not None:
        out["entanglement"] = entry.entanglement
    return out


def _report_json(report: RunReport) -> dict:
    return {
        "network": report.network,
        "style": report.style,
        "theta": report.settings.theta,
        "alpha": report.settings.alpha,
        "weights": list(report.weights),
        "noise": format_noise_spec(report.noise) if report.noise else None,
        "probe_overlap": report.probe_overlap,
        "sampled": report.sampled,
        "entries": [_entry_json(e) for e in report.entries],
    }


def cmd_run(flags: dict) -> int:
    network = _load_network(flags, default_builtin="fig3")
    noise, p = _split_noise(flags.get("noise"))
    if p is not None:
        raise _UsageError(
            "a depolarization strength (p=...) only applies to sweep-noise; "
            "give run an explicit error list like X@1,Z@3"
        )
    if flags["seed"] < 0:
        raise _UsageError(f"the sampling seed must be nonnegative, got {flags['seed']}")
    report = run_full(
        noise, network=network, sample=bool(flags.get("sample")), seed=flags["seed"]
    )
    print(_dump_json(_report_json(report)))
    return EXIT_OK


def cmd_verify_table1(flags: dict) -> int:
    rows = verify_correction_table()
    passed = sum(r["passed"] for r in rows)
    if flags.get("json"):
        print(_dump_json({"rows": rows, "passed": passed == len(rows)}))
    else:
        worst = min(r["fidelity"] for r in rows)
        if passed == len(rows):
            print(f"{passed}/{len(rows)} rows: corrected fidelity {worst:.12f}")
        else:
            first = next(r for r in rows if not r["passed"])
            print(
                f"{passed}/{len(rows)} rows passed; first failure: "
                f"family {first['family']} pattern {first['pattern']} "
                f"fidelity {first['fidelity']:.12f}"
            )
    return EXIT_OK if passed == len(rows) else EXIT_CHECK_FAILED


def cmd_verify_states(flags: dict) -> int:
    checks = verify_reference_states()
    ok = all(c["passed"] for c in checks)
    if flags.get("json"):
        print(_dump_json({"checks": checks, "passed": ok}))
    else:
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"{c['name']}: fidelity {c['fidelity']:.12f}{detail}: {status}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_analyze_entanglement(flags: dict) -> int:
    network = _load_network(flags, default_builtin="fig1")
    weights = network.source.weights if network.source else None
    # a zero weight empties its branch by design, which is no failed check
    if weights and not (weights.mixed and weights.upper_upper + weights.lower_lower):
        raise _UsageError(
            "the entanglement check needs both branches: a nonzero same-pass "
            f"and a nonzero mixed-pass case weight, got {weights.as_tuple()}"
        )
    branches = entanglement_report(network)
    ranks = {}
    rows = []
    for branch, joint, summary in branches:
        ranks[branch] = summary["schmidt_rank"]
        rows.append({"branch": branch, "joint_probability": joint, **summary})
    ok = ranks.get("A") == 1 and ranks.get("B") == 2
    if flags.get("json"):
        print(_dump_json({"branches": rows, "passed": ok}))
    else:
        for row in rows:
            coeffs = ", ".join(f"{c:.6f}" for c in row["schmidt_coefficients"])
            print(
                f"branch {row['branch']}: Schmidt rank {row['schmidt_rank']} "
                f"({coeffs}), polarization purity {row['polarization_purity']:.6f}, "
                f"product-state deviation {row['product_state_deviation']:.2e}"
            )
        print("pol-vs-spatial split: " + ("pass" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sweep(flags: dict) -> int:
    network = _load_network(flags, default_builtin="fig3")
    noise, p = _split_noise(flags.get("noise"))
    if noise is not None:
        raise _UsageError("sweep-noise needs a strength spec like p=0.1")
    if p is None:
        p = 0.1
    rows = sweep_noise(p, network=network)

    corrected_mean = sum_in_order(r["weight"] * r["corrected_fidelity"] for r in rows)
    uncorrected_mean = sum_in_order(r["weight"] * r["uncorrected_fidelity"] for r in rows)
    ok = all(r["corrected_fidelity"] >= 1.0 - 1e-12 for r in rows)
    payload = {
        "p": p,
        "terms": rows,
        "corrected_mean_fidelity": corrected_mean,
        "uncorrected_mean_fidelity": uncorrected_mean,
        "passed": ok,
    }
    if flags.get("json"):
        print(_dump_json(payload))
    else:
        print(f"depolarization p={p}: {len(rows)} channel error terms")
        print(f"corrected mean fidelity   {corrected_mean:.12f}")
        print(f"uncorrected mean fidelity {uncorrected_mean:.12f}")
        if not ok:
            first = next(r for r in rows if r["corrected_fidelity"] < 1.0 - 1e-12)
            print(
                f"FAIL: errors {first['errors'] or '(none)'} recovered only "
                f"{first['corrected_fidelity']:.12f}"
            )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_parse(flags: dict) -> int:
    if not flags.get("network") and not flags.get("builtin"):
        raise _UsageError("parse needs --network FILE or --builtin NAME")
    text, name = _read_circuit(flags, default_builtin=None)
    document = parse(text)
    network = elaborate(document, name=name)
    if flags.get("json"):
        payload = {
            "name": network.name,
            "statements": len(document.statements),
            "elements": len(network.elements),
            "couplings": len(network.couplings),
            "detectors": {d.name: list(d.modes) for d in network.detectors},
            "source": network.source.kind if network.source else None,
        }
        print(_dump_json(payload))
    else:
        sys.stdout.write(pretty_print(document))
    return EXIT_OK


def cmd_dump(flags: dict) -> int:
    network = _load_network(flags, default_builtin="fig1")
    rows = []
    for bs in passing(branch_states(network)):
        rows.append(
            {
                "branch": bs.branch,
                "branch_probability": bs.outcome.probability,
                "coincidence_probability": bs.coincidence_probability,
                "joint_probability": bs.joint_probability,
                "x": bs.outcome.x,
                "phi": bs.outcome.phi,
                "state": to_json_terms(phase_fixed(bs.conditional)),
            }
        )
    print(_dump_json({"network": network.name, "branches": rows}))
    return EXIT_OK


_HANDLERS = {
    "run": cmd_run,
    "verify-table1": cmd_verify_table1,
    "verify-states": cmd_verify_states,
    "analyze-entanglement": cmd_analyze_entanglement,
    "verify-entanglement": cmd_analyze_entanglement,
    "sweep-noise": cmd_sweep,
    "parse": cmd_parse,
    "dump": cmd_dump,
}


def _add_network_flags(sub, default_builtin: str):
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--builtin",
        choices=BUILTINS,
        help=f"packaged circuit (default {default_builtin})",
    )
    group.add_argument("--network", metavar="FILE", help="circuit description file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzgen",
        description="Exact simulator for a heralded three-photon GHZ generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full protocol run (JSON report)")
    _add_network_flags(run, "fig3")
    run.add_argument("--noise", metavar="SPEC", help="channel errors, e.g. X@1,Z@3")
    run.add_argument("--weights", metavar="W1,W2,W3", help="source case weights")
    run.add_argument("--theta", type=float, help="probe cross-phase per unit")
    run.add_argument("--alpha", type=float, help="probe amplitude")
    run.add_argument("--sample", action="store_true", help="draw one outcome")
    run.add_argument("--seed", type=int, default=0, help="sampling seed")

    sub.add_parser("verify-table1", help="check the sixteen correction rows").add_argument(
        "--json", action="store_true"
    )
    sub.add_parser("verify-states", help="check conditionals vs literals").add_argument(
        "--json", action="store_true"
    )

    ent = sub.add_parser(
        "analyze-entanglement",
        aliases=["verify-entanglement"],
        help="per-branch Schmidt structure across polarization vs path",
    )
    _add_network_flags(ent, "fig1")
    ent.add_argument("--weights", metavar="W1,W2,W3")
    ent.add_argument("--json", action="store_true")

    sweep = sub.add_parser("sweep-noise", help="depolarization recovery sweep")
    _add_network_flags(sweep, "fig3")
    sweep.add_argument("--noise", metavar="p=P", help="strength (default p=0.1)")
    sweep.add_argument("--weights", metavar="W1,W2,W3")
    sweep.add_argument("--theta", type=float)
    sweep.add_argument("--alpha", type=float)
    sweep.add_argument("--json", action="store_true")

    par = sub.add_parser("parse", help="validate a circuit file")
    _add_network_flags(par, "fig3")
    par.add_argument("--json", action="store_true")

    dump = sub.add_parser("dump", help="branch conditional states as JSON")
    _add_network_flags(dump, "fig1")
    dump.add_argument("--weights", metavar="W1,W2,W3")
    dump.add_argument("--theta", type=float)
    dump.add_argument("--alpha", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    flags = vars(namespace).copy()
    command = flags.pop("command")
    try:
        return _HANDLERS[command](flags)
    except (_UsageError, ParseError, NetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
