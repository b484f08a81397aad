"""Seeded request generators and output checks for the three workloads.

Requests come in rounds.  Every round of a workload has the same
composition, so the mix of request kinds is fixed and only the seeded
parameters (weights, theta, noise, sampling seed, p) vary.  The same seed
always gives the same sequence of rounds.

* ``cli-oneshot``: one ``python -m ghzgen ...`` subprocess per request.
* ``sweep``: one ``sweep-noise --json`` subprocess per request.
* ``library-varied``: in-process library calls, no two sharing branch
  inputs.

A CLI request is a tuple of arguments.  A library request is a
``(kind, params)`` pair.
"""

from __future__ import annotations

import itertools
import json
import random

FIDELITY_FLOOR = 1.0 - 1e-12

# the 2^3 run-flag combinations (noise, sample, weights+theta), split into
# two half fractions that alternate between rounds, so two consecutive
# rounds cover all eight and every flag is on in half of the run requests
_RUN_FLAG_HALVES = (
    ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)),
    ((1, 1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
)


def _weights(rng: random.Random) -> tuple[float, float, float]:
    """Case weights rounded to 6 decimals, each at least 0.05, summing to 1."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(3)]
    scale = sum(raw)
    first = round(raw[0] / scale, 6)
    second = round(raw[1] / scale, 6)
    return first, second, round(1.0 - first - second, 6)


def _weights_flag(rng: random.Random) -> str:
    return ",".join(repr(w) for w in _weights(rng))


def _theta(rng: random.Random) -> float:
    return rng.uniform(0.002, 0.05)


def _noise(rng: random.Random) -> str:
    photons = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
    return ",".join(f"{rng.choice('XYZ')}@{k}" for k in photons)


def _cli_oneshot_round(rng: random.Random, index: int) -> list:
    requests = []
    for noise, sample, tuned in _RUN_FLAG_HALVES[index % 2]:
        args = ["run"]
        if noise:
            args += ["--noise", _noise(rng)]
        if sample:
            args += ["--sample", "--seed", str(rng.randrange(2**31))]
        if tuned:
            args += ["--weights", _weights_flag(rng), "--theta", repr(_theta(rng))]
        requests.append(tuple(args))
    requests += [
        ("dump", "--builtin", "fig1", "--weights", _weights_flag(rng), "--theta", repr(_theta(rng))),
        ("verify-table1", "--json"),
        ("verify-states", "--json"),
        ("analyze-entanglement", "--json", "--weights", _weights_flag(rng)),
        ("parse", "--builtin", "fig3", "--json"),
    ]
    # the repeat must print byte-identical stdout; repeating the first run
    # request keeps the mix of kinds the same in every round
    repeat = requests[0]
    rng.shuffle(requests)
    return requests + [repeat]


def _sweep_round(rng: random.Random, index: int) -> list:
    requests = [
        (
            "sweep-noise", "--json",
            "--noise", f"p={rng.uniform(0.01, 0.99):.6f}",
            "--weights", _weights_flag(rng),
            "--theta", repr(_theta(rng)),
        )
        for _ in range(2)
    ]
    return requests + [requests[0]]


def _library_round(rng: random.Random, index: int) -> list:
    requests = [
        ("default", {"noise": _noise(rng), "weights": _weights(rng), "theta": _theta(rng)}),
        ("fig3", {"noise": _noise(rng), "weights": _weights(rng), "theta": _theta(rng)})
        if index % 2 == 0
        else ("fig3", {"seed": rng.randrange(2**31), "weights": _weights(rng), "theta": _theta(rng)}),
        ("fig1", {"weights": _weights(rng), "theta": _theta(rng)}),
        ("entanglement", {"weights": _weights(rng), "theta": _theta(rng)}),
    ]
    rng.shuffle(requests)
    return requests


ROUND_MAKERS = {
    "cli-oneshot": _cli_oneshot_round,
    "sweep": _sweep_round,
    "library-varied": _library_round,
}


def rounds(workload: str, seed: int):
    """Endless deterministic stream of request rounds for ``workload``."""
    make = ROUND_MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for index in itertools.count():
        yield make(rng, index)


# --- output checks: each returns None or a one-line reason ----------------


def _ranks_ok(ranks: dict) -> bool:
    return ranks == {"A": 1, "B": 2}


def check_cli(args: tuple, returncode: int, stdout: bytes, stderr: bytes) -> str | None:
    if returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {returncode}: {' '.join(tail)}"
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    command = args[0]
    if data.get("passed") is False:
        return '"passed": false'
    if command == "run":
        if not data["entries"]:
            return "no entries"
        for entry in data["entries"]:
            if entry["branch"] == "B" and entry["fidelity"] < FIDELITY_FLOOR:
                return f"branch B fidelity {entry['fidelity']!r}"
    elif command == "sweep-noise":
        if len(data["terms"]) != 64:
            return f"{len(data['terms'])} terms, expected 64"
        for term in data["terms"]:
            if term["corrected_fidelity"] < FIDELITY_FLOOR:
                return f"corrected fidelity {term['corrected_fidelity']!r} for {term['errors']}"
    elif command == "analyze-entanglement":
        if not _ranks_ok({b["branch"]: b["schmidt_rank"] for b in data["branches"]}):
            return "fig1 Schmidt ranks are not A=1, B=2"
    elif command == "dump":
        if sorted(b["branch"] for b in data["branches"]) != ["A", "B"]:
            return "dump lacks branch A or B"
    elif command == "parse":
        if data["name"] != "fig3" or sorted(data["detectors"]) != ["P1", "P2", "P3", "T"]:
            return "parse summary does not describe fig3"
    return None


def check_library(kind: str, result) -> str | None:
    if kind == "entanglement":
        ranks = {branch: summary["schmidt_rank"] for branch, _, summary in result}
        return None if _ranks_ok(ranks) else "fig1 Schmidt ranks are not A=1, B=2"
    if kind == "fig1":
        ranks = {e.branch: e.entanglement["schmidt_rank"] for e in result.entries}
        return None if _ranks_ok(ranks) else "fig1 Schmidt ranks are not A=1, B=2"
    if not result.entries:
        return "no entries"
    for entry in result.entries:
        if entry.branch == "B" and entry.fidelity < FIDELITY_FLOOR:
            return f"branch B fidelity {entry.fidelity!r}"
    return None


def canonical_library_output(result) -> bytes:
    """Exact, byte-comparable serialization of a library call's result."""
    if isinstance(result, list):
        payload = [list(row) for row in result]
    else:
        payload = {
            "network": result.network,
            "style": result.style,
            "weights": result.weights,
            "sampled": result.sampled,
            "entries": [
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
                for e in result.entries
            ],
        }
    return json.dumps(payload, sort_keys=True, default=lambda o: o.tolist()).encode()


def call_library(ghzgen, networks: dict, kind: str, params: dict):
    """Execute one library request against the ``ghzgen`` package."""
    weights = ghzgen.CaseWeights(*params["weights"])
    theta = params["theta"]
    if kind == "default":
        return ghzgen.run_full(params["noise"], weights=weights, theta=theta)
    if kind == "fig3":
        return ghzgen.run_full(
            params.get("noise"),
            network=networks["fig3"],
            weights=weights,
            theta=theta,
            sample="seed" in params,
            seed=params.get("seed", 0),
        )
    if kind == "fig1":
        return ghzgen.run_full(network=networks["fig1"], weights=weights, theta=theta)
    return ghzgen.entanglement_report(networks["fig1"].with_settings(theta=theta), weights=weights)
