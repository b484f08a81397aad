#!/usr/bin/env python3
"""Corrected vs uncorrected fidelity under single-photon depolarization.

For each depolarization probability p the channel mixture is expanded into
its Pauli terms, every term is pushed through the full runner, and the
weighted mean fidelity is reported with and without the feed-forward
corrections applied.
"""

import argparse

from ghzgen import sweep_noise


def mean_fidelities(p):
    rows = sweep_noise(p)
    corrected = sum(r["weight"] * r["corrected_fidelity"] for r in rows)
    uncorrected = sum(r["weight"] * r["uncorrected_fidelity"] for r in rows)
    return corrected, uncorrected


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=float, default=0.5,
                        help="largest depolarization probability")
    parser.add_argument("--points", type=int, default=11,
                        help="number of sweep points including endpoints")
    args = parser.parse_args()

    print(f"{'p':>6}  {'corrected':>12}  {'uncorrected':>12}")
    for i in range(args.points):
        p = args.pmax * i / (args.points - 1) if args.points > 1 else args.pmax
        corrected, uncorrected = mean_fidelities(p)
        print(f"{p:6.3f}  {corrected:12.9f}  {uncorrected:12.9f}")


if __name__ == "__main__":
    main()
