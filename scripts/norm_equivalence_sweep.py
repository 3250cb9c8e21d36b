#!/usr/bin/env python3
"""Measure how much of the factor-2 norm equivalence each pair uses.

For random functions on a cyclic group, prints the observed range of
||f||_Phi / N_Phi(f) per catalog pair, and the widest duality gap
between the Orlicz value and the certified lower end of its bracket.
The quadratic pair sits at 2 exactly; the others wander strictly
inside (1, 2].

Usage: python scripts/norm_equivalence_sweep.py [--order N] [--samples K]
"""

import argparse
from random import Random

from orliczalg.groups import cyclic, random_function
from orliczalg.nfunctions import CATALOG_PAIR_NAMES
from orliczalg.norms import luxemburg, orlicz_norm
from orliczalg.specio import pair_from_name


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--order", type=int, default=12)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    space = cyclic(args.order)
    rng = Random(args.seed)
    print(f"group Z{args.order}, {args.samples} random functions per pair")
    print(f"{'pair':<10} {'min ratio':>12} {'max ratio':>12} {'worst duality gap':>18}")
    for name in CATALOG_PAIR_NAMES:
        pair = pair_from_name(name)
        ratios, gaps = [], []
        for _ in range(args.samples):
            f = random_function(space, rng, amplitude=3.0)
            n = luxemburg(pair.phi, f).value
            rep = orlicz_norm(pair, f)
            ratios.append(rep.value / n)
            gaps.append(abs(rep.value - rep.oracle_value))
        print(f"{name:<10} {min(ratios):>12.8f} {max(ratios):>12.8f} "
              f"{max(gaps):>18.2e}")


if __name__ == "__main__":
    main()
