#!/usr/bin/env python3
"""Stage-by-stage walk through the three-photon generation protocol.

Prints the emission superposition, the nondemolition branch split, both
fourfold-coincidence branch states, and the corrected outputs of the full
runner, so the whole chain can be eyeballed in one terminal screen.
"""

import argparse
import sys

from ghzgen import (
    DEFAULT_ALPHA,
    DEFAULT_THETA,
    branch_states,
    build_ghzps,
    dual_pass_emission,
    feed_forward,
    homodyne_discriminate,
    parse_noise_spec,
    probe_distinguishability,
    run_full,
    tag_phases,
)


def show_state(state, indent="  ", limit=None):
    terms = state.sorted_terms()
    shown = terms if limit is None else terms[:limit]
    for k, amp in shown:
        rails = " ".join(f"{r.mode}:{r.pol}" + (f"^{n}" if n > 1 else "") for r, n in k)
        print(f"{indent}{amp:+.6f}  |{rails}>")
    if limit is not None and len(terms) > limit:
        print(f"{indent}... {len(terms) - limit} more terms")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float,
                        help=f"cross-phase per tagged photon (rad), default {DEFAULT_THETA}")
    parser.add_argument("--alpha", type=float,
                        help=f"probe coherent amplitude, default {DEFAULT_ALPHA}")
    parser.add_argument("--noise", default=None,
                        help="channel error spec, e.g. X@1,Z@3")
    args = parser.parse_args()
    # checked once, and every stage below runs with the same values
    try:
        fan_out = build_ghzps().with_overrides(theta=args.theta, alpha=args.alpha)
        errors = parse_noise_spec(args.noise or "")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    theta, alpha = fan_out.settings.theta, fan_out.settings.alpha

    print("== two-pair emission ==")
    emission = dual_pass_emission(fan_out.source.weights)
    show_state(emission)

    print("\n== probe discrimination ==")
    overlap = probe_distinguishability(alpha, theta)
    print(f"  residual probe overlap exp(-a^2(1-cos t)) = {overlap:.3e}")
    tags = tag_phases(emission, fan_out.couplings)
    for outcome in homodyne_discriminate(emission, tags, theta=theta, alpha=alpha):
        print(f"  branch {outcome.branch}: p = {outcome.probability:.4f}, "
              f"x = {outcome.x:.4f}, phi = {outcome.phi:.4f}")
        show_state(feed_forward(outcome), indent="    ")

    print("\n== fourfold coincidence branches ==")
    for bs in branch_states(fan_out):
        print(f"  branch {bs.branch}: joint probability {bs.joint_probability:.6f}")
        show_state(bs.conditional, indent="    ")

    print("\n== corrected channel output ==")
    report = run_full(errors, theta=theta, alpha=alpha)
    for entry in report.entries:
        label = entry.pattern.label
        family = getattr(entry.family, "label", entry.family)
        print(f"  {entry.branch}/{label}: family {family}, "
              f"corrections {'.'.join(entry.corrections)}, "
              f"fidelity {entry.fidelity:.12f}, joint {entry.joint_probability:.6f}")
    total = sum(e.joint_probability for e in report.entries)
    print(f"  total coincidence probability {total:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
