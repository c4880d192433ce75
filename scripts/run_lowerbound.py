#!/usr/bin/env python3
"""Descending-auction lower-bound demonstration.

For each family size L, runs the adversarial price schedule against both
demand oracles and prints welfare next to the optimum L - 1: the exact
oracle collapses to welfare <= 2 while the cost-scaled oracle stays within
a factor two of optimal.
"""

import argparse

from procure.verification import lowerbound_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, nargs="+", default=[10, 50, 100])
    args = parser.parse_args()
    print(f"{'L':>5} {'epsilon':>9} {'OPT':>8} {'exact oracle':>13} {'cost-scaled':>12}")
    for L in args.levels:
        res = lowerbound_report(L)
        print(
            f"{L:>5} {res['epsilon']:>9.4g} {res['opt_welfare']:>8.4g} "
            f"{res['exact_oracle_welfare']:>13.4g} {res['cost_scaled_welfare']:>12.4g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
