"""Shared oracles and builders for the test suite.

Everything here is deliberately naive: cofactor determinants, textbook row
reduction, explicit derivatives.  The point is an independent code path from
the library, so agreement means something.
"""

from __future__ import annotations

import itertools
import random
from math import comb, prod
from typing import Iterator, List, Sequence, Tuple

from npl.algebra import PolySpace, PrimeField, SparsePoly
from npl.circuits import Circuit, CircuitBuilder, FamilyDescriptor
from npl.errors import ArityMismatch
from npl.meta import CircuitMeta, CoeffMatrix

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 101)


def det_generator(n: int, field: PrimeField) -> FamilyDescriptor:
    """The determinant generator: the homogeneous det-projection family on
    n^2 variables, whose n^4 parameters are the coefficient matrix of L."""
    return FamilyDescriptor("det-projection", PolySpace(n * n, n, True), field, n=n)


def cofactor_det(entries: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """Laplace expansion along the first row.  Exponential; n <= 4 only."""
    n = len(entries)
    first = entries[0][0]
    if n == 1:
        return first
    acc = SparsePoly.zero(first.field, first.v)
    for j in range(n):
        minor = [list(row[:j]) + list(row[j + 1 :]) for row in entries[1:]]
        term = entries[0][j] * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def int_cofactor_det(rows: Sequence[Sequence[int]], p: int) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        minor = [list(r[:j]) + list(r[j + 1 :]) for r in rows[1:]]
        term = rows[0][j] * int_cofactor_det(minor, p)
        total += term if j % 2 == 0 else -term
    return total % p


def row_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Textbook Gaussian elimination over F_p, written from scratch."""
    m = [[x % p for x in r] for r in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def poly_derivative(f: SparsePoly, i: int) -> SparsePoly:
    terms = {}
    for e, c in f.terms.items():
        if e[i] == 0:
            continue
        ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
        terms[ne] = terms.get(ne, 0) + c * e[i]
    return SparsePoly(f.field, f.v, terms)


def poly_derivative_order(f: SparsePoly, alpha: Sequence[int]) -> SparsePoly:
    g = f
    for i, a in enumerate(alpha):
        for _ in range(a):
            g = poly_derivative(g, i)
    return g


def exponents_of_degree(v: int, d: int) -> List[Tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(v), d):
        e = [0] * v
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(reverse=True)
    return out


def random_dense_poly(
    rng: random.Random, field: PrimeField, v: int, d: int
) -> SparsePoly:
    """Uniform coefficients on every degree-d monomial, resampled if zero."""
    exps = exponents_of_degree(v, d)
    while True:
        terms = {e: rng.randrange(field.p) for e in exps}
        f = SparsePoly(field, v, terms)
        if not f.is_zero:
            return f


def random_linear_form(rng: random.Random, field: PrimeField, v: int) -> SparsePoly:
    while True:
        terms = {}
        for i in range(v):
            c = rng.randrange(field.p)
            if c:
                e = tuple(1 if j == i else 0 for j in range(v))
                terms[e] = c
        if terms:
            return SparsePoly(field, v, terms)


def random_product_of_linear_forms(
    rng: random.Random, field: PrimeField, v: int, d: int
) -> SparsePoly:
    f = SparsePoly.constant(field, v, 1)
    for _ in range(d):
        f = f * random_linear_form(rng, field, v)
    return f


def random_circuit(
    rng: random.Random,
    field: PrimeField,
    v: int,
    max_extra_gates: int,
    degree_cap: int,
) -> Circuit:
    """Random DAG respecting a formal-degree cap on every gate."""
    b = CircuitBuilder(field, v)
    degrees: List[int] = []
    for i in range(v):
        b.inp(i)
        degrees.append(1)
    for _ in range(rng.randrange(max_extra_gates + 1)):
        op = rng.choice(("const", "add", "mul", "mul"))
        if op == "const":
            b.const(rng.randrange(field.p))
            degrees.append(0)
            continue
        a = rng.randrange(len(degrees))
        c = rng.randrange(len(degrees))
        if op == "mul":
            if degrees[a] + degrees[c] > degree_cap:
                b.add(a, c)
                degrees.append(max(degrees[a], degrees[c]))
            else:
                b.mul(a, c)
                degrees.append(degrees[a] + degrees[c])
        else:
            b.add(a, c)
            degrees.append(max(degrees[a], degrees[c]))
    return b.build(rng.randrange(len(degrees)))


def splice(b: CircuitBuilder, c: Circuit) -> int:
    """Copy circuit c's gates onto builder b; returns the index of its output."""
    base = len(b.gates)
    for g in c.gates:
        b.gates.append(g if len(g) == 2 else (g[0], g[1] + base, g[2] + base))
    return base + c.out


def wide_identity(field: PrimeField, v: int) -> Circuit:
    """sum x_i - sum x_i over v inputs, the two sums built apart: zero, of
    degree 1 in every input and total degree 1."""
    b = CircuitBuilder(field, v)
    sums = []
    for _ in range(2):
        acc = b.inp(0)
        for i in range(1, v):
            acc = b.add(acc, b.inp(i))
        sums.append(acc)
    return b.build(b.sub(*sums))


def dead_cone_circuit(
    rng: random.Random, field: PrimeField, v: int, max_extra_gates: int, degree_cap: int
) -> Tuple[Circuit, Circuit]:
    """(c, live): the gates of a random circuit the output never reads, then
    those of a random circuit ``live``, whose output is c's.  c computes the
    polynomial of live behind a dead cone of gates."""
    dead = random_circuit(rng, field, v, max_extra_gates, degree_cap)
    live = random_circuit(rng, field, v, max_extra_gates, degree_cap)
    b = CircuitBuilder(field, v)
    splice(b, dead)
    return b.build(splice(b, live)), live


def compose_affine(
    c: Circuit, A: Sequence[Sequence[int]], shift: Sequence[int]
) -> Circuit:
    """c o (x -> A x + shift) from gates: each input gate i of c becomes the
    affine form shift[i] + sum_j A[i][j] x_j over the columns of A."""
    b = CircuitBuilder(c.field, len(A[0]))
    xs = [b.inp(j) for j in range(len(A[0]))]
    forms = []
    for row, s in zip(A, shift):
        acc = b.const(s)
        for a, x in zip(row, xs):
            acc = b.add(acc, b.mul(b.const(a), x))
        forms.append(acc)
    idx: List[int] = []
    for g in c.gates:
        if g[0] == "in":
            idx.append(forms[g[1]])
        elif g[0] == "const":
            idx.append(b.const(g[1]))
        elif g[0] == "add":
            idx.append(b.add(idx[g[1]], idx[g[2]]))
        else:
            idx.append(b.mul(idx[g[1]], idx[g[2]]))
    return b.build(idx[c.out])


def reference_value(circuit: Circuit, point: Sequence[int]) -> int:
    """The output at the point by a walk of every gate, dead ones included:
    the evaluation order of ``gates`` itself, not the library's program."""
    p = circuit.field.p
    vals: List[int] = []
    for g in circuit.gates:
        if g[0] == "in":
            vals.append(point[g[1]] % p)
        elif g[0] == "const":
            vals.append(g[1])
        elif g[0] == "add":
            vals.append((vals[g[1]] + vals[g[2]]) % p)
        else:
            vals.append(vals[g[1]] * vals[g[2]] % p)
    return vals[circuit.out]


def distributivity_circuit(
    rng: random.Random, field: PrimeField, v: int, identity: bool
) -> Circuit:
    """(A + B) C - A C - B C + s D for random products of two linear forms
    A, B, C, D: identically zero with s = 0.  The shape of the exhaustive
    benchmark's pit circuits, built here from the circuit builder."""
    b = CircuitBuilder(field, v)

    def form() -> int:
        acc = b.mul(b.const(rng.randrange(1, field.p)), b.inp(0))
        for i in range(1, v):
            acc = b.add(acc, b.mul(b.const(rng.randrange(1, field.p)), b.inp(i)))
        return acc

    a, bb, c, d = (b.mul(form(), form()) for _ in range(4))
    out = b.sub(b.sub(b.mul(b.add(a, bb), c), b.mul(a, c)), b.mul(bb, c))
    return b.build(b.add(out, b.mul(b.const(0 if identity else 1), d)))


def truth_assignments(n: int) -> Iterator[Tuple[int, ...]]:
    return itertools.product((0, 1), repeat=n)


def clause_satisfied(clause: Sequence[int], assignment: Sequence[int]) -> bool:
    for lit in clause:
        val = assignment[abs(lit) - 1]
        if (lit > 0 and val == 1) or (lit < 0 and val == 0):
            return True
    return False


def cnf_satisfied(clauses: Sequence[Sequence[int]], assignment: Sequence[int]) -> bool:
    return all(clause_satisfied(c, assignment) for c in clauses)


def binom(n: int, k: int) -> int:
    return comb(n, k)



def affine_poly(field: PrimeField, coeffs: Sequence[int], const: int = 0) -> SparsePoly:
    """c_0*x_0 + ... + const through the validating constructor."""
    v = len(coeffs)
    terms = {tuple(int(j == i) for j in range(v)): c for i, c in enumerate(coeffs)}
    terms[(0,) * v] = const
    return SparsePoly(field, v, terms)


def unit_form(field: PrimeField, v: int, i: int) -> SparsePoly:
    """The variable x_i of v, as the linear form on the i-th unit vector."""
    return affine_poly(field, [int(j == i) for j in range(v)])


def compose_linear(f: SparsePoly, A: Sequence[Sequence[int]]) -> SparsePoly:
    """f o A, the polynomial f(A x): x_i becomes the linear form on row i of
    A, and each term is multiplied out with ``mul`` and ``pow``."""
    v = len(A[0])
    forms = [affine_poly(f.field, row) for row in A]
    out = SparsePoly.zero(f.field, v)
    for e, c in f.terms.items():
        term = SparsePoly.constant(f.field, v, c)
        for form, k in zip(forms, e):
            term = term.mul(form.pow(k))
        out = out + term
    return out


def poly_value(f: SparsePoly, point: Sequence[int]) -> int:
    """f at a point of F_p^v, term by term from the exponent tuples."""
    p = f.field.p
    return sum(c * prod(pow(x, k, p) for x, k in zip(point, e))
               for e, c in f.terms.items()) % p


def linear_meta(
    space: PolySpace, field: PrimeField, coeffs: Sequence[int]
) -> CircuitMeta:
    """The meta-polynomial sum_i coeffs[i] * c_i on the space's coefficient
    vectors, as a circuit over the N meta-variables."""
    N = space.dimension
    if len(coeffs) != N:
        raise ArityMismatch(f"expected {N} coefficients, got {len(coeffs)}")
    b = CircuitBuilder(field, N)
    acc = None
    for i, c in enumerate(coeffs):
        c %= field.p
        if not c:
            continue
        g = b.inp(i)
        if c != 1:
            g = b.mul(b.const(c), g)
        acc = g if acc is None else b.add(acc, g)
    if acc is None:
        acc = b.const(0)
    tag = ",".join(str(c % field.p) for c in coeffs)
    if len(tag) > 48:
        tag = tag[:45] + "..."
    return CircuitMeta(space, b.build(acc), meta_id=f"linear:[{tag}]")


def symbolic_value_at(m: CoeffMatrix, cv: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The symbolic form of m instantiated at the coefficient vector cv:
    each entry None (zero) or (meta_variable_rank, scalar), scaling cv mod p."""
    if m.symbolic is None:
        raise ValueError("matrix carries no symbolic form")
    p = m.field.p
    return tuple(
        tuple(0 if cell is None else cell[1] * cv[cell[0]] % p for cell in row)
        for row in m.symbolic
    )


def count_member_builds(monkeypatch) -> List[Tuple[int, ...]]:
    """Record the params of every family member built from here on; the
    returned list fills as ``FamilyDescriptor.member_from_params`` is called."""
    builds: List[Tuple[int, ...]] = []
    real = FamilyDescriptor.member_from_params

    def counting(desc, params):
        builds.append(tuple(params))
        return real(desc, params)

    monkeypatch.setattr(FamilyDescriptor, "member_from_params", counting)
    return builds


def sympy_terms(expr, gens, p):
    """{exponents: coefficient in [0, p)} of a sympy expression over GF(p);
    sympy reports symmetric residues."""
    import sympy

    poly = sympy.Poly(expr, *gens, modulus=p)
    return {e: c % p for e, c in poly.terms() if c % p}


def sympy_value(circuit: Circuit, xs):
    """The circuit's output as a sympy expression in the symbols xs."""
    import sympy

    vals = []
    for g in circuit.gates:
        if g[0] == "in":
            vals.append(xs[g[1]])
        elif g[0] == "const":
            vals.append(sympy.Integer(g[1]))
        elif g[0] == "add":
            vals.append(vals[g[1]] + vals[g[2]])
        else:
            vals.append(vals[g[1]] * vals[g[2]])
    return vals[circuit.out]


def sympy_poly(circuit: Circuit) -> SparsePoly:
    """The polynomial the circuit computes, expanded by sympy."""
    import sympy

    xs = sympy.symbols(f"x0:{circuit.v}")
    p = circuit.field.p
    return SparsePoly(circuit.field, circuit.v, sympy_terms(sympy_value(circuit, xs), xs, p))
