#!/usr/bin/env python3
"""Profile partials-matrix ranks: products of linear forms vs dense samples.

For each order k the product of d linear forms stays within the C(d, k)
bound; dense polynomials generically fill the whole matrix rank.  This
script samples both populations and prints the observed profiles.
"""

import argparse
import json
import random
from math import comb

from npl import PrimeField, SparsePoly, matrix_rank, partials_matrix


def product_of_linear_forms(rng, field, v, d):
    f = SparsePoly.constant(field, v, 1)
    for _ in range(d):
        coeffs = [rng.randrange(field.p) for _ in range(v)]
        if not any(coeffs):
            coeffs[rng.randrange(v)] = 1 + rng.randrange(field.p - 1)
        f = f.mul(SparsePoly(field, v, {
            tuple(int(j == i) for j in range(v)): c for i, c in enumerate(coeffs)}))
    return f


def dense_poly(rng, field, v, d):
    from itertools import combinations_with_replacement

    terms = {}
    for combo in combinations_with_replacement(range(v), d):
        e = [0] * v
        for i in combo:
            e[i] += 1
        terms[tuple(e)] = rng.randrange(field.p)
    return SparsePoly(field, v, terms)


def rank_profile(f, d, p):
    return [matrix_rank(partials_matrix(f, k).entries, p) for k in range(d + 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vars", type=int, default=3)
    ap.add_argument("--degree", type=int, default=2)
    ap.add_argument("--field", type=int, default=101)
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true", help="machine output")
    args = ap.parse_args()

    field = PrimeField(args.field)
    rng = random.Random(args.seed)
    v, d = args.vars, args.degree
    bound = [comb(d, k) for k in range(d + 1)]

    rows = []
    for kind, sampler in (("product", product_of_linear_forms),
                          ("dense", dense_poly)):
        within = 0
        profiles = []
        for _ in range(args.samples):
            f = sampler(rng, field, v, d)
            if f.is_zero:
                continue
            prof = rank_profile(f, d, field.p)
            profiles.append(prof)
            if all(r <= b for r, b in zip(prof, bound)):
                within += 1
        rows.append({
            "kind": kind,
            "samples": len(profiles),
            "within_bound": within,
            "max_profile": [max(p[k] for p in profiles)
                            for k in range(d + 1)],
        })

    out = {"v": v, "d": d, "p": field.p, "bound": bound, "populations": rows}
    if args.json:
        print(json.dumps(out, indent=2))
        return
    print(f"partials ranks for v={v}, d={d} over F_{field.p}")
    print(f"  C(d,k) bound   : {bound}")
    for r in rows:
        print(
            f"  {r['kind']:<8} max  : {r['max_profile']}"
            f"   within bound {r['within_bound']}/{r['samples']}"
        )


if __name__ == "__main__":
    main()
