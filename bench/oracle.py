"""Independent arithmetic the benchmark checks npl's reports against.

Nothing here imports npl.  Polynomials are plain dicts from exponent tuples
to canonical coefficients mod p, circuits are evaluated gate by gate on
Python ints (which never wrap), and determinants and ranks come from
textbook elimination over F_p.  The code is written from the definitions,
not from npl's implementation, so a shared bug would have to be made twice.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

Exps = Tuple[int, ...]
Poly = Dict[Exps, int]


# -- polynomials ---------------------------------------------------------


def poly_add(a: Mapping[Exps, int], b: Mapping[Exps, int], p: int) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a: Mapping[Exps, int], b: Mapping[Exps, int], p: int) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def linear_form(coeffs: Sequence[int], p: int) -> Poly:
    v = len(coeffs)
    out: Poly = {}
    for i, c in enumerate(coeffs):
        if c % p:
            out[tuple(int(j == i) for j in range(v))] = c % p
    return out


def poly_from_json(data: Mapping) -> Tuple[int, int, Poly]:
    """(p, v, terms) of a polynomial file; repeated exponents add up."""
    p, v = int(data["p"]), int(data["v"])
    out: Poly = {}
    for t in data["terms"]:
        e = tuple(int(x) for x in t["e"])
        out[e] = (out.get(e, 0) + int(t["c"])) % p
    return p, v, {e: c for e, c in out.items() if c}


def monomials(v: int, d: int) -> List[Exps]:
    """Degree-d exponent tuples in v variables, descending lexicographic."""
    if v == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in monomials(v - 1, d - a)]


def coeff_vector(f: Mapping[Exps, int], v: int, d: int) -> List[int]:
    return [f.get(e, 0) for e in monomials(v, d)]


def derivative(f: Mapping[Exps, int], alpha: Exps, p: int) -> Poly:
    """d^alpha f: each term x^e becomes e!/(e-alpha)! x^(e-alpha)."""
    out: Poly = {}
    for e, c in f.items():
        if any(x < a for x, a in zip(e, alpha)):
            continue
        factor = c
        for x, a in zip(e, alpha):
            for t in range(x - a + 1, x + 1):
                factor = factor * t % p
        if factor:
            out[tuple(x - a for x, a in zip(e, alpha))] = factor
    return out


def partials_matrix(
    f: Mapping[Exps, int], v: int, d: int, k: int, shift: int, p: int
) -> List[List[int]]:
    """Rows x^beta * d^alpha f (beta outer, both descending lex), columns the
    degree d-k+shift monomials in descending lex order."""
    cols = monomials(v, d - k + shift)
    derivs = [derivative(f, alpha, p) for alpha in monomials(v, k)]
    rows = []
    for beta in monomials(v, shift):
        for g in derivs:
            shifted = {tuple(x + b for x, b in zip(e, beta)): c for e, c in g.items()}
            rows.append([shifted.get(m, 0) for m in cols])
    return rows


def leading_minor(
    f: Mapping[Exps, int], v: int, d: int, k: int, size: int, p: int
) -> int:
    rows = partials_matrix(f, v, d, k, 0, p)
    return det_mod_p([r[:size] for r in rows[:size]], p)


# -- determinants and ranks ------------------------------------------------


def det_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Gaussian elimination over F_p with row swaps."""
    m = [[x % p for x in r] for r in rows]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = p - det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p; vectorized with int64 when products cannot wrap."""
    if not rows or not rows[0]:
        return 0
    if p >= 1 << 31:
        return _rank_python(rows, p)
    m = np.array(rows, dtype=np.int64) % p
    rank = 0
    n_rows = m.shape[0]
    for c in range(m.shape[1]):
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), p - 2, p) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != rank]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[rank]) % p) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _rank_python(rows: Sequence[Sequence[int]], p: int) -> int:
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def poly_det(entries: Sequence[Sequence[Poly]], v: int, p: int) -> Poly:
    """Determinant of a matrix of polynomials in v variables by Laplace
    expansion along the rows, memoized on the set of columns still free."""
    n = len(entries)
    one: Poly = {(0,) * v: 1}
    memo: Dict[Tuple[int, ...], Poly] = {}

    def minor(row: int, cols: Tuple[int, ...]) -> Poly:
        if row == n:
            return one
        if cols not in memo:
            acc: Poly = {}
            for j, c in enumerate(cols):
                term = poly_mul(entries[row][c], minor(row + 1, cols[:j] + cols[j + 1 :]), p)
                if j % 2:
                    term = {e: p - x for e, x in term.items()}
                acc = poly_add(acc, term, p)
            memo[cols] = acc
        return memo[cols]

    return minor(0, tuple(range(n)))


# -- circuits ----------------------------------------------------------------


def eval_circuit(circ: Mapping, point: Sequence[int]) -> int:
    """Value of a circuit file at a point, with exact Python ints mod p."""
    p = int(circ["p"])
    vals: List[int] = []
    for g in circ["gates"]:
        op = g["op"]
        if op == "in":
            vals.append(point[g["i"]] % p)
        elif op == "const":
            vals.append(int(g["c"]) % p)
        elif op == "add":
            vals.append((vals[g["a"]] + vals[g["b"]]) % p)
        elif op == "mul":
            vals.append(vals[g["a"]] * vals[g["b"]] % p)
        else:
            raise ValueError(f"unknown gate {op!r}")
    return vals[circ["out"]]


def clause_value(clause: Sequence[int], point: Sequence[int], p: int) -> int:
    """The clause polynomial: prod (1 - x_i) over positive literals times
    prod x_i over negated ones; zero exactly where the clause is satisfied."""
    acc = 1
    for lit in clause:
        x = point[abs(lit) - 1] % p
        acc = acc * ((1 - x) if lit > 0 else x) % p
    return acc


def cnf_members_at(
    clauses: Sequence[Sequence[int]], n: int, point: Sequence[int], p: int
) -> List[int]:
    """Values of the CNF-derived system at a point: clauses, then the
    Boolean axioms x_i^2 - x_i."""
    vals = [clause_value(c, point, p) for c in clauses]
    vals += [(point[i] * point[i] - point[i]) % p for i in range(n)]
    return vals


def det_generator_nonzero(n: int, p: int, seed_values: Sequence[int]) -> int:
    """Nonzero coefficients of det(L(x)) for the homogeneous n x n matrix of
    linear forms in n^2 variables whose entry (i, j) has the coefficients
    seed_values[(i*n + j)*n^2 : (i*n + j + 1)*n^2]."""
    v = n * n
    entries = [
        [
            linear_form(seed_values[(i * n + j) * v : (i * n + j + 1) * v], p)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return len(poly_det(entries, v, p))


def generator_dimension(n: int) -> int:
    return comb(n * n + n - 1, n)
