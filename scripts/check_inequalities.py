#!/usr/bin/env python3
"""Evaluate every certified inequality on freshly generated sample sets.

Generates poised sets across kinds and dimensions, runs the inequality
suite on each, and prints one line per check with measured left/right
sides.  A nonzero exit means some inequality failed.
"""

import argparse
import sys

from dfobounds import PoisednessKind, check_theory, generate_poised_set, space_dim


PLANS = [
    (PoisednessKind.LINEAR, 2, 2),
    (PoisednessKind.LINEAR, 4, 4),
    (PoisednessKind.QUADRATIC, 2, 5),
    (PoisednessKind.QUADRATIC, 3, 9),
    (PoisednessKind.MFN, 2, 4),
    (PoisednessKind.MFN, 3, 6),
    (PoisednessKind.MFN, 4, 10),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--floor-samples", type=int, default=200)
    args = parser.parse_args(argv)

    failures = 0
    for kind, n, p in PLANS:
        assert p <= space_dim(2, n) - 1
        ss = generate_poised_set(n, p, args.delta, 50.0, seed=args.seed)
        # The certificate names the kind by its poisedness name (LINEAR, ...).
        label = ss.certificate.to_dict()["kind"]
        print(f"\n{label} set, n={n}, p={p}, delta={args.delta}:")
        for check in check_theory(ss, kind, floor_samples=args.floor_samples,
                                  seed=args.seed):
            status = "ok" if check.passed else "FAIL"
            print(
                f"  {check.name:28s} {check.lhs:12.5g} {check.relation:2s} "
                f"{check.rhs:12.5g}  {status}"
            )
            failures += not check.passed
    print(f"\n{failures} failed checks")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
