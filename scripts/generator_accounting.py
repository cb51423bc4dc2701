#!/usr/bin/env python3
"""Seed-length accounting for the determinant-coefficient generator, the
homogeneous det-projection family on n^2 variables.

Shows how the seed length s = n^4 stays polynomial while the ambient
coefficient dimension N = C(n^2 + n - 1, n) explodes, and optionally checks
a generic expansion for small n.
"""

import argparse
import json
from fractions import Fraction
from math import factorial

from npl import FamilyDescriptor, PolySpace, PrimeField


def det_generator(n, field):
    return FamilyDescriptor("det-projection", PolySpace(n * n, n, True), field, n=n)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--field", type=int, default=101)
    ap.add_argument("--expand-max", type=int, default=0,
                    help="verify a generic determinant expansion up to this n")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    field = PrimeField(args.field)
    rows = []
    prev = None
    for n in range(2, args.max_n + 1):
        g = det_generator(n, field)
        s, N = len(g.param_ranges()), g.space.dimension
        growth = None
        if prev is not None:
            growth = {
                "s_ratio": str(Fraction(s, prev[0])),
                "N_ratio": str(Fraction(N, prev[1])),
            }
        rows.append({"n": n, "s": s, "N": N, "growth": growth})
        prev = (s, N)

    checks = []
    for n in range(2, args.expand_max + 1):
        g = det_generator(n, field)
        seed = [0] * len(g.param_ranges())
        for i in range(n):
            for j in range(n):
                seed[(i * n + j) * (n * n) + i * n + j] = 1
        member = g.member_from_params(seed)
        terms = len(member) - member.count(0)
        checks.append({
            "n": n,
            "generic_terms": terms,
            "expected": factorial(n),
            "ok": terms == factorial(n),
        })

    if args.json:
        print(json.dumps({"table": rows, "expansion_checks": checks}, indent=2))
        return
    print(f"{'n':>3} {'s = n^4':>10} {'N':>14} {'s/N':>12}")
    for r in rows:
        print(f"{r['n']:>3} {r['s']:>10} {r['N']:>14} "
              f"{r['s'] / r['N']:>12.6f}")
    for c in checks:
        mark = "ok" if c["ok"] else "MISMATCH"
        print(f"generic det_{c['n']} expands to {c['generic_terms']} terms "
              f"(expected {c['expected']}): {mark}")


if __name__ == "__main__":
    main()
