import json
import random
from fractions import Fraction

import pytest

from npl.algebra import PrimeField, SparsePoly
from npl.circuits import Circuit, CircuitBuilder
from npl.ips import (
    Cnf,
    PolynomialSystem,
    VerificationReport,
    cnf_to_system,
    compose_system,
    parse_dimacs,
    verify_certificate,
)
from npl.pit import PitVerdict
from npl.errors import (
    ArityMismatch,
    ClauseTooWide,
    EnumerationBudgetExceeded,
    FieldMismatch,
)

from helpers import cnf_satisfied, random_circuit, sympy_poly, truth_assignments, unit_form

F7 = PrimeField(7)
F13 = PrimeField(13)


def single_var_circuit(field, expr):
    """expr: 'x' or 'x-1' or '1-x'."""
    b = CircuitBuilder(field, 1)
    if expr == "x":
        return b.build(b.inp(0))
    if expr == "x-1":
        return b.build(b.sub(b.inp(0), b.const(1)))
    return b.build(b.sub(b.const(1), b.inp(0)))


class TestDimacs:
    def test_worked_parse(self):
        cnf = parse_dimacs("c hi\np cnf 3 2\n1 -2 0\n-1 3 0\n")
        assert cnf.num_vars == 3
        assert cnf.clauses == ((1, -2), (-1, 3))

    def test_multiline_clause_and_percent(self):
        cnf = parse_dimacs("p cnf 2 1\n1\n-2 0\n%\n")
        assert cnf.clauses == ((1, -2),)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p dnf 2 1\n1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\n5 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\n1 2\n")


class TestTranslation:
    def test_unsat_pair(self):
        sys7 = cnf_to_system(Cnf(1, ((1,), (-1,))), F7)
        assert sys7.labels == ("clause:0", "clause:1", "axiom:x1")
        assert sys7.provenance == "cnf-derived"
        want = [
            SparsePoly(F7, 1, {(0,): 1, (1,): 6}),
            SparsePoly(F7, 1, {(1,): 1}),
            SparsePoly(F7, 1, {(2,): 1, (1,): 6}),
        ]
        assert [sympy_poly(m) for m in sys7.members] == want

    def test_three_literal_clause(self):
        sys7 = cnf_to_system(Cnf(3, ((1, 2, -3),)), F7)
        clause_poly = sympy_poly(sys7.members[0])
        x1, x2, x3 = (unit_form(F7, 3, i) for i in range(3))
        one = SparsePoly.constant(F7, 3, 1)
        assert clause_poly == (one - x1) * (one - x2) * x3

    def test_empty_cnf(self):
        sys7 = cnf_to_system(Cnf(2, ()), F7)
        assert sys7.labels == ("axiom:x1", "axiom:x2")
        assert [sympy_poly(m) for m in sys7.members] == [
            SparsePoly(F7, 2, {(2, 0): 1, (1, 0): 6}),
            SparsePoly(F7, 2, {(0, 2): 1, (0, 1): 6}),
        ]

    def test_empty_clause_is_the_constant_one(self):
        # the empty clause has no satisfying assignment: its member is 1, and
        # 1 - y_0 is an exact certificate
        cnf = parse_dimacs("p cnf 1 1\n0\n")
        assert cnf == Cnf(1, ((),))
        sys7 = cnf_to_system(cnf, F7)
        assert sys7.labels == ("clause:0", "axiom:x1")
        assert sympy_poly(sys7.members[0]) == SparsePoly.constant(F7, 1, 1)
        b = CircuitBuilder(F7, 2)
        cert = b.build(b.sub(b.const(1), b.inp(0)))
        rep = verify_certificate(sys7, cert, exhaustive=True)
        assert rep.accepted and rep.grade == "exact"

    def test_clause_polys_vanish_exactly_on_satisfying(self):
        cnf = Cnf(3, ((1, 2, -3), (-1, 2), (3,)))
        sys7 = cnf_to_system(cnf, F7)
        for i, clause in enumerate(cnf.clauses):
            poly = sys7.members[i]
            for pt in truth_assignments(3):
                vanishes = poly.evaluate(pt) == 0
                assert vanishes == cnf_satisfied([clause], pt)

    def test_truth_table_equivalence_random(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randrange(1, 5)
            clauses = []
            for _ in range(rng.randrange(0, 5)):
                width = rng.randrange(1, min(3, n) + 1)
                vs = rng.sample(range(1, n + 1), width)
                clauses.append(
                    tuple(v if rng.random() < 0.5 else -v for v in vs)
                )
            cnf = Cnf(n, tuple(clauses))
            system = cnf_to_system(cnf, F13)
            for pt in truth_assignments(n):
                common_zero = all(m.evaluate(pt) == 0 for m in system.members)
                assert common_zero == cnf_satisfied(cnf.clauses, pt)

    def test_clause_too_wide(self):
        with pytest.raises(ClauseTooWide):
            cnf_to_system(Cnf(4, ((1, 2, 3, 4),)), F7)

    def test_system_validation(self):
        c7 = single_var_circuit(F7, "x")
        c13 = single_var_circuit(F13, "x")
        with pytest.raises(FieldMismatch):
            PolynomialSystem(F7, 1, (c7, c13))
        b = CircuitBuilder(F7, 2)
        c2 = b.build(b.inp(1))
        with pytest.raises(ArityMismatch):
            PolynomialSystem(F7, 1, (c7, c2))
        for labels in ((), ("a",), ("a", "b", "c")):
            with pytest.raises(ValueError, match="one label per member required"):
                PolynomialSystem(F7, 1, (c7, c7), labels=labels)

    def test_system_json_round_trip(self):
        sys7 = cnf_to_system(Cnf(2, ((1, -2),)), F7)
        rt = PolynomialSystem.from_json(json.loads(json.dumps(sys7.to_json())))
        assert rt.members == sys7.members
        assert rt.labels == sys7.labels
        assert rt.provenance == sys7.provenance
        # whatever the constructor accepts is stored as an int and a tuple, and
        # its JSON rebuilds it; the rest raises
        sympy = pytest.importorskip("sympy")
        c = single_var_circuit(F7, "x")
        for n, members, labels in ((1, (c,), ["a"]), (sympy.Integer(1), (c, c), None),
                                   (0, (), ()), (3, (), None)):
            s = PolynomialSystem(F7, n, members, "cnf-derived", labels)
            assert type(s.n) is int and (labels is None or type(s.labels) is tuple)
            assert PolynomialSystem.from_json(json.loads(json.dumps(s.to_json()))) == s
        for n, members, kwargs, error in (
            (True, (c,), {}, TypeError),
            (1.0, (c,), {}, TypeError),
            (None, (), {}, TypeError),
            (-1, (), {}, ValueError),
            (1, (c,), {"labels": (3,)}, TypeError),
            (1, (c,), {"labels": "a"}, TypeError),
            (1, (c,), {"provenance": 5}, TypeError),
        ):
            with pytest.raises(error, match="expected an integer|negative variable count|"
                                            "must be a"):
                PolynomialSystem(F7, n, members, **kwargs)


class TestCompose:
    def test_identity_composition(self):
        f = single_var_circuit(F7, "x-1")
        b = CircuitBuilder(F7, 1)
        cert = b.build(b.inp(0))
        comp = compose_system(PolynomialSystem(F7, 1, (f,)), cert)
        assert sympy_poly(comp) == sympy_poly(f)

    def test_constant_certificate(self):
        f = single_var_circuit(F7, "x")
        b = CircuitBuilder(F7, 1)
        cert = b.build(b.const(1))
        comp = compose_system(PolynomialSystem(F7, 1, (f,)), cert)
        assert sympy_poly(comp) == SparsePoly.constant(F7, 1, 1)

    def test_doubling(self):
        f = single_var_circuit(F7, "x")
        b = CircuitBuilder(F7, 2)
        cert = b.build(b.add(b.inp(0), b.inp(1)))
        comp = compose_system(PolynomialSystem(F7, 1, (f, f)), cert)
        assert sympy_poly(comp) == SparsePoly(F7, 1, {(1,): 2})

    def test_size_bound(self):
        sys7 = cnf_to_system(Cnf(2, ((1, -2), (2,))), F7)
        b = CircuitBuilder(F7, len(sys7.members))
        acc = b.const(1)
        for i in range(len(sys7.members)):
            acc = b.add(acc, b.inp(i))
        cert = b.build(acc)
        comp = compose_system(sys7, cert)
        assert comp.size <= cert.size + sum(m.size for m in sys7.members)

    def test_splices_only_the_members_read(self):
        # C = y0 * y2 + y0 behind a dead gate reading y1 and y3: members 0
        # and 2 are spliced once each, and 1 and 3 not at all
        sys7 = cnf_to_system(Cnf(2, ((1, -2), (2,))), F7)
        b = CircuitBuilder(F7, len(sys7.members))
        b.mul(b.inp(1), b.inp(3))
        y0 = b.inp(0)
        cert = b.build(b.add(b.mul(y0, b.inp(2)), b.inp(0)))
        comp = compose_system(sys7, cert)
        f0, f2 = (sys7.members[j] for j in (0, 2))
        assert comp.size == f0.size + f2.size + 2
        assert sympy_poly(comp) == sympy_poly(f0) * sympy_poly(f2) + sympy_poly(f0)

    def test_arity_mismatch(self):
        f = single_var_circuit(F7, "x")
        b = CircuitBuilder(F7, 3)
        cert = b.build(b.inp(2))
        with pytest.raises(ArityMismatch):
            compose_system(PolynomialSystem(F7, 1, (f, f)), cert)


class TestVerification:
    def hand_system(self, field=F7):
        return PolynomialSystem(
            field, 1,
            (single_var_circuit(field, "x"), single_var_circuit(field, "x-1")),
        )

    def hand_cert(self, field=F7):
        b = CircuitBuilder(field, 2)
        out = b.sub(b.add(b.const(1), b.inp(1)), b.inp(0))
        return b.build(out)

    def test_hand_certificate_one(self):
        rep = verify_certificate(self.hand_system(), self.hand_cert(),
                                 exhaustive=True)
        assert rep.accepted and rep.grade == "exact"
        assert rep.value_at_zero == 1
        assert rep.failed_condition is None

    def test_hand_certificate_two(self):
        sys7 = cnf_to_system(Cnf(1, ((1,), (-1,))), F7)
        b = CircuitBuilder(F7, 3)
        cert = b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)))
        rep = verify_certificate(sys7, cert, exhaustive=True)
        assert rep.accepted and rep.grade == "exact"

    def test_randomized_inputs_past_budget_refused(self):
        sys7 = cnf_to_system(Cnf(1, ((1,), (-1,))), F7)
        b = CircuitBuilder(F7, 3)
        cert = b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)))
        # the composed relation has one input
        with pytest.raises(EnumerationBudgetExceeded):
            verify_certificate(sys7, cert, enum_budget=0)
        rep = verify_certificate(sys7, cert, enum_budget=1)
        assert rep.accepted

    def test_certificate_in_another_field_refused(self):
        # a constant-3 certificate over F_7 would give C(0) = 3 against any
        # system; over F_13 it is refused instead of evaluated mod 7
        sys13 = cnf_to_system(Cnf(1, ((1,), (-1,))), F13)
        b = CircuitBuilder(F7, len(sys13.members))
        three = b.build(b.const(3))
        with pytest.raises(FieldMismatch):
            verify_certificate(sys13, three, exhaustive=True)
        with pytest.raises(FieldMismatch):
            verify_certificate(sys13, three, trials=3)
        # over F_13 the same circuit is an ordinary condition-1 rejection
        b = CircuitBuilder(F13, len(sys13.members))
        rep = verify_certificate(sys13, b.build(b.const(3)), exhaustive=True)
        assert rep.failed_condition == 1 and rep.value_at_zero == 3

    @pytest.mark.parametrize("mode", [{"exhaustive": True}, {"trials": 5, "seed": 3}])
    def test_relabelling_keeps_the_verdict(self, mode):
        # member j of the permuted system is member perm[j] of the original,
        # so the certificate reads y_perm[j] where it read y_j: the same
        # composition, the same C(0) and the same verdict.  The clauses are
        # (1 - x1)(1 - x2), x1 and x2, so 1 - y0 - y1 - y2 + y1 y2 is a
        # certificate; without y1 y2 it leaves -x1 x2, and 3 is not 1 at 0
        sys13 = cnf_to_system(Cnf(2, ((1, 2), (-1,), (-2,))), F13)
        m = len(sys13.members)
        certs = []
        for product in (True, False):
            b = CircuitBuilder(F13, m)
            acc = b.sub(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1)), b.inp(2))
            if product:
                acc = b.add(acc, b.mul(b.inp(1), b.inp(2)))
            certs.append(b.build(acc))
        b = CircuitBuilder(F13, m)
        certs.append(b.build(b.const(3)))
        rng = random.Random(24)
        for cert in certs:
            want = verify_certificate(sys13, cert, **mode)
            for _ in range(4):
                perm = rng.sample(range(m), m)
                where = {old: new for new, old in enumerate(perm)}
                permuted = PolynomialSystem(F13, sys13.n,
                                            tuple(sys13.members[j] for j in perm))
                relabelled = Circuit(F13, m, tuple(("in", where[g[1]]) if g[0] == "in"
                                                   else g for g in cert.gates), cert.out)
                got = verify_certificate(permuted, relabelled, **mode)
                assert got.value_at_zero == want.value_at_zero
                assert got.to_json() == want.to_json(), perm
        assert [verify_certificate(sys13, c, **mode).failed_condition
                for c in certs] == [None, 2, 1]

    def test_condition_one_reject(self):
        b = CircuitBuilder(F7, 2)
        zero_cert = b.build(b.const(0))
        rep = verify_certificate(self.hand_system(), zero_cert,
                                 exhaustive=True)
        assert not rep.accepted and rep.failed_condition == 1
        assert rep.value_at_zero == 0

    def test_condition_two_reject_names_witness(self):
        sys7 = PolynomialSystem(F7, 1, (single_var_circuit(F7, "x-1"),))
        cert = single_var_circuit(F7, "1-x")
        rep = verify_certificate(sys7, cert, exhaustive=True)
        assert not rep.accepted and rep.failed_condition == 2
        assert rep.relation_verdict.outcome == "proven-nonzero"
        assert rep.relation_verdict.witness == (0,)
        assert rep.relation_verdict.value == 2

    def test_relation_past_int64_rejected(self):
        # y1^2 + 1 - y2 at the members (2^32, 1) is 2^64 = 8 mod 2^61 - 1
        F = PrimeField(2**61 - 1)
        members = []
        for c in (2**32, 1):
            b = CircuitBuilder(F, 0)
            members.append(b.build(b.const(c)))
        b = CircuitBuilder(F, 2)
        y1 = b.inp(0)
        cert = b.build(b.sub(b.add(b.mul(y1, y1), b.const(1)), b.inp(1)))
        rep = verify_certificate(
            PolynomialSystem(F, 0, tuple(members)), cert, exhaustive=True
        )
        assert not rep.accepted and rep.failed_condition == 2
        assert rep.relation_verdict.value == 8

    def test_randomized_grade_and_error_bound(self):
        rep = verify_certificate(
            self.hand_system(), self.hand_cert(),
            trials=10, seed=5,
        )
        assert rep.accepted and rep.grade == "randomized"
        assert Fraction(rep.error_bound) == Fraction(1, 7) ** 10

    def test_error_bound_in_lowest_terms(self):
        # (d/p)^trials, d = min(degree bound, p), against Fraction
        for d, p, trials in ((1, 7, 10), (0, 13, 3), (13, 13, 2), (20, 13, 4),
                             (6, 2**61 - 1, 25), (2**61, 2**61 - 1, 1), (9, 3, 5)):
            verdict = PitVerdict("probably-zero", d, p, trials=trials)
            rep = VerificationReport(1, verdict)
            assert rep.grade == "randomized"
            want = Fraction(min(d, p), p) ** trials
            assert rep.error_bound == f"{want.numerator}/{want.denominator}", (d, p, trials)

    def test_accept_stability_random_to_exhaustive(self):
        cases = [
            (self.hand_system(), self.hand_cert()),
        ]
        sys2 = cnf_to_system(Cnf(1, ((1,), (-1,))), F7)
        b = CircuitBuilder(F7, 3)
        cases.append(
            (sys2, b.build(b.sub(b.sub(b.const(1), b.inp(0)), b.inp(1))))
        )
        for system, cert in cases:
            rnd = verify_certificate(
                system, cert, trials=6, seed=2
            )
            if rnd.accepted:
                exact = verify_certificate(system, cert, exhaustive=True)
                assert exact.accepted

    def test_padding_preserves_acceptance(self):
        system = self.hand_system()
        padded_members = system.members + (system.members[0],)
        padded_system = PolynomialSystem(F7, 1, padded_members)
        base = self.hand_cert()
        padded_cert = Circuit(F7, 3, base.gates, base.out)
        rep = verify_certificate(padded_system, padded_cert,
                                 exhaustive=True)
        assert rep.accepted

    def test_soundness_on_satisfiable_corpus(self):
        rng = random.Random(29)
        sat_cnfs = [
            Cnf(1, ((1,),)),
            Cnf(2, ((1, 2),)),
            Cnf(2, ((1,), (2,))),
            Cnf(3, ((1, -2, 3),)),
            Cnf(2, ((-1,), (2,))),
        ]
        for cnf in sat_cnfs:
            system = cnf_to_system(cnf, F7)
            m = len(system.members)
            alpha = next(
                pt for pt in truth_assignments(cnf.num_vars)
                if cnf_satisfied(cnf.clauses, pt)
            )
            for trial in range(20):
                cert = random_circuit(rng, F7, m, 6, 2)
                rep = verify_certificate(system, cert, exhaustive=True)
                assert not rep.accepted
                assert rep.failed_condition in (1, 2)
                if rep.failed_condition == 2:
                    comp = compose_system(system, cert)
                    assert comp.evaluate(alpha) == rep.value_at_zero != 0

    def test_report_json(self):
        rep = verify_certificate(self.hand_system(), self.hand_cert(),
                                 exhaustive=True)
        doc = rep.to_json()
        assert doc["accepted"] is True
        assert doc["conditions"]["identity_at_zero"]["holds"] is True
        assert doc["conditions"]["polynomial_relation"]["holds"] is True

    def test_certificate_json_round_trip(self):
        cert = self.hand_cert()
        rt = Circuit.from_json(json.loads(json.dumps(cert.to_json())))
        assert rt == cert
        assert rt.v == 2
