"""Command-line front end and the fixed verification script.

The `verify` subcommand runs an ordered checklist covering every claim
about the braid-generated SU(3) subgroup of order 162: the recoupling
constants behind the generators, the generator matrices themselves, the
normal abelian subgroup and symmetric-group complement, the semidirect
factorization, the closing presentation, and the isomorphism with the
three-generator family presentation D(9,1,1;2,1,1).  Failures become
report entries, never exceptions, so a corrupted input produces a clean
red report.  Exit status is 0 exactly when every check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import matgroup as mg
from .braidrep import fusion_basis, paper_generators, sigma_mid, sigma_odd, su3_normalize
from .cyclo import Cyclo, root_of_unity, sqrt2, sqrt3
from .matrix import UnitaryMatrix
from .recoupling import delta_n, quantum_int, r_value, sixj, tet, theory, theta
from .su3families import CParams, DParams, c_generators, d_generators

CHECK_IDS = (
    "TL-DELTAS", "TL-RVALUES", "TL-TET-TABLE", "TL-THETA-ID",
    "REP-G1", "REP-G2", "REP-BRAID", "REP-SQUARES-COMMUTE",
    "REP-ORDER18", "REP-CHARPOLY",
    "GRP-ORDER-162", "GRP-F-MATRIX", "GRP-A-DEF",
    "GRP-AB-ORDERS", "GRP-AB-COMMUTE", "GRP-CYCLIC-INTERSECT",
    "GRP-N-NORMAL", "GRP-N-INVARIANTS",
    "GRP-G1AG1-G2SQ", "GRP-G2SQ-A7B2", "GRP-G2AG2-AB",
    "GRP-T1T2T3", "GRP-H-S3", "GRP-H-MATRICES", "GRP-HN-TRIVIAL",
    "GRP-ORDER3-NOT-IN-LIST", "GRP-G2SQG1-FACTOR", "GRP-G1SQG2-FACTOR",
    "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT", "GRP-PRESENTATION",
    "GRP-D-FAMILY-ORDER", "GRP-ISO-D91211",
)


@dataclass
class Check:
    id: str
    description: str
    passed: bool
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"id": self.id, "description": self.description, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def by_id(self, check_id: str) -> Check:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
            "info": self.info,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        data = json.loads(text)
        report = VerificationReport(
            checks=[
                Check(
                    id=c["id"],
                    description=c["description"],
                    passed=c["passed"],
                    witness=c.get("witness"),
                )
                for c in data["checks"]
            ],
            info=data.get("info", {}),
        )
        return report


class _Runner:
    def __init__(self):
        self.report = VerificationReport()

    def run(self, check_id: str, description: str, body: Callable[[], dict | None]):
        try:
            witness = body()
            self.report.checks.append(Check(check_id, description, True, witness))
        except Exception as exc:  # noqa: BLE001 - failures are report entries
            self.report.checks.append(
                Check(check_id, description, False, {"error": f"{type(exc).__name__}: {exc}"})
            )


def _require(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def _approx(value: Cyclo) -> list[float]:
    z = value.to_complex()
    return [round(z.real, 12), round(z.imag, 12)]


def run_theorem1_verification(
    generators: Optional[tuple[UnitaryMatrix, UnitaryMatrix]] = None,
    cap: int = 2000,
) -> VerificationReport:
    """Execute the fixed ordered checklist and return the report.

    `generators` overrides the constructed pair (used by tests to confirm
    that corrupted inputs are caught); `cap` bounds the group closure.
    """
    runner = _Runner()
    t = theory(6)
    rt3 = sqrt3(t.order)
    rt2 = sqrt2(t.order)
    identity3 = UnitaryMatrix.identity(3)

    def check_deltas():
        expected = {0: Cyclo.one(), 1: rt3, 2: Cyclo.rational(2), 4: Cyclo.one(), 5: Cyclo.zero()}
        for n, want in expected.items():
            _require(delta_n(t, n) == want, f"delta_{n} mismatch")
        return {f"delta_{n}": _approx(delta_n(t, n)) for n in sorted(expected)}

    runner.run("TL-DELTAS", "loop values: delta_0 = delta_4 = 1, delta_2 = 2, delta_1 = sqrt(3), delta_5 = 0", check_deltas)

    def check_rvalues():
        anchors = {
            0: root_of_unity(72, 24),       # e^(2 i pi / 3)
            2: -root_of_unity(72, 12),      # -e^(i pi / 3)
            4: root_of_unity(72, 60),       # e^(-i pi / 3)
        }
        for a, want in anchors.items():
            got = r_value(t, a, 2, 2).conj()
            _require(got == want, f"conjugated R-value at label {a} mismatch")
        return {f"conj_R_{a}^22": _approx(r_value(t, a, 2, 2).conj()) for a in anchors}

    runner.run("TL-RVALUES", "conjugated twist eigenvalues on a fused charge-2 pair", check_rvalues)

    def check_tet_table():
        table = {
            (0, 0): Cyclo.rational(2),
            (2, 0): 2 / rt3,
            (2, 2): Cyclo.zero(),
            (4, 0): Cyclo.one(),
            (4, 2): -1 / rt3,
            (4, 4): Cyclo.rational(Fraction(1, 2)),
        }
        for (i, j), want in table.items():
            _require(tet(t, 2, 2, j, 2, 2, i) == want, f"tet (i,j)=({i},{j}) mismatch")
            _require(tet(t, 2, 2, i, 2, 2, j) == want, f"tet symmetry at ({i},{j})")
        return {f"tet_{i}{j}": _approx(tet(t, 2, 2, j, 2, 2, i)) for i, j in table}

    runner.run("TL-TET-TABLE", "all six tetrahedral net values, including signs", check_tet_table)

    def check_theta_id():
        for i in (0, 2, 4):
            _require(theta(t, 2, 2, i) == tet(t, 2, 2, i, 2, 2, 0), f"theta identity at {i}")
        return {f"theta_22{i}": _approx(theta(t, 2, 2, i)) for i in (0, 2, 4)}

    runner.run("TL-THETA-ID", "theta(2,2,i) equals the tet with one edge labeled 0", check_theta_id)

    # generator matrices (constructed, then compared against the explicit
    # displays built from the constant t = (sqrt(2)/2) e^(2 i pi/3))
    if generators is None:
        g1m, g2m = paper_generators()
    else:
        g1m, g2m = generators
    phase = root_of_unity(72, 4)  # e^(i pi / 9)
    t_const = rt2 / 2 * root_of_unity(72, 24)
    t_sq = t_const * t_const
    tbar_sq = t_sq.conj()
    g1_display = UnitaryMatrix.diagonal([2 * tbar_sq, 2 * t_sq, -2 * tbar_sq]).scale(phase)
    g2_display = UnitaryMatrix.from_rows(
        [[t_sq, t_const, -t_sq], [t_const, 0, t_const], [-t_sq, t_const, t_sq]]
    ).scale(phase)

    runner.run(
        "REP-G1",
        "phase-normalized odd braid generator equals its explicit display",
        lambda: (_require(g1m == g1_display, "G1 display mismatch"), {"det": _approx(g1m.det())})[1],
    )
    runner.run(
        "REP-G2",
        "phase-normalized middle braid generator equals its explicit display",
        lambda: (_require(g2m == g2_display, "G2 display mismatch"), {"det": _approx(g2m.det())})[1],
    )
    runner.run(
        "REP-BRAID",
        "braid relation G1 G2 G1 = G2 G1 G2",
        lambda: (_require(g1m * g2m * g1m == g2m * g1m * g2m, "braid relation fails"), None)[1],
    )
    runner.run(
        "REP-SQUARES-COMMUTE",
        "the generator squares commute",
        lambda: (
            _require(g1m ** 2 * g2m ** 2 == g2m ** 2 * g1m ** 2, "squares do not commute"),
            None,
        )[1],
    )

    def check_order18():
        o1 = mg.element_order(mg.GpElement(g1m, g1m.key_bytes()), cap=200)
        o2 = mg.element_order(mg.GpElement(g2m, g2m.key_bytes()), cap=200)
        _require(o1 == 18 and o2 == 18, f"orders are ({o1}, {o2}), expected (18, 18)")
        return {"order_G1": o1, "order_G2": o2}

    runner.run("REP-ORDER18", "both generators have exact order 18", check_order18)

    def check_charpoly():
        _require(g1m.charpoly() == g2m.charpoly(), "characteristic polynomials differ")
        spectrum = (
            root_of_unity(18, 7),        # e^(7 i pi / 9)
            -root_of_unity(18, 4),       # -e^(4 i pi / 9)
            root_of_unity(18, 16),       # e^(-2 i pi / 9)
        )
        diag = tuple(g1m.rows[i][i] for i in range(3))
        _require(
            all(d == s for d, s in zip(diag, spectrum)),
            "diagonal of G1 is not the expected spectrum",
        )
        return {"spectrum": [_approx(s) for s in spectrum]}

    runner.run("REP-CHARPOLY", "equal characteristic polynomials; spectrum as displayed", check_charpoly)

    # group closure and named words
    group: Optional[mg.FiniteMatrixGroup] = None

    def check_order162():
        nonlocal group
        group = mg.close([g1m, g2m], cap=cap)
        _require(group.order == 162, f"group order is {group.order}")
        return {"order": group.order}

    runner.run("GRP-ORDER-162", "the two generators span a group of order 162", check_order162)

    def need_group() -> mg.FiniteMatrixGroup:
        if group is None:
            raise RuntimeError("group closure unavailable (earlier check failed)")
        return group

    def words():
        g = need_group()
        g1, g2 = g.generators
        word = lambda *idx: mg.word_eval(idx, [g1, g2])
        return g, g1, g2, word

    # the named elements; computed lazily so word failures land in their checks
    state: dict = {}

    def named(name: str):
        if name in state:
            return state[name]
        g, g1, g2, word = words()
        defs = {
            "F": (1, 2, -1, -1),
            "A": (1, 2, 2, -1),
            "B": (1, -2, -2, 1),
            "T1": (1, 2, 1),
            "T2": (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, -2),
        }
        if name in defs:
            value = word(*defs[name])
        elif name == "T3":
            t2 = named("T2")
            value = mg.word_eval(t2.word + (2, 1, 1) + t2.word, [g1, g2])
        elif name == "N":
            value = mg.subgroup(g, [named("A"), named("B")])
        elif name == "H":
            value = mg.subgroup(g, [named("T1"), named("T3")])
        else:
            raise KeyError(name)
        state[name] = value
        return value

    def check_f_matrix():
        f = named("F")
        imag = root_of_unity(4)
        a = (Cyclo.rational(-1) + imag * rt3) / 4
        b = rt2 * a
        display = UnitaryMatrix.from_rows([[a, b, -a], [b, 0, b], [a, -b, -a]])
        _require(f.matrix == display, "F word does not match the explicit matrix")
        return {"entry_00": _approx(f.matrix.rows[0][0])}

    runner.run("GRP-F-MATRIX", "the word g1 g2 g1^-2 equals the explicit matrix F", check_f_matrix)

    def check_a_def():
        f = named("F")
        a = named("A")
        _require((g2m * f.matrix) ** 2 == a.matrix, "(G2 F)^2 != G1 G2^2 G1^-1")
        return None

    runner.run("GRP-A-DEF", "(G2 F)^2 equals A = g1 g2^2 g1^-1", check_a_def)

    def check_ab_orders():
        oa = mg.element_order(named("A"), cap=50)
        ob = mg.element_order(named("B"), cap=50)
        _require(oa == 9 and ob == 3, f"|A| = {oa}, |B| = {ob}")
        return {"order_A": oa, "order_B": ob}

    runner.run("GRP-AB-ORDERS", "A has order 9 and B has order 3", check_ab_orders)

    runner.run(
        "GRP-AB-COMMUTE",
        "A and B commute",
        lambda: (
            _require(
                named("A").matrix * named("B").matrix == named("B").matrix * named("A").matrix,
                "A and B do not commute",
            ),
            None,
        )[1],
    )

    def check_cyclic_intersect():
        g = need_group()
        cyc_a = mg.subgroup(g, [named("A")])
        cyc_b = mg.subgroup(g, [named("B")])
        meet = mg.intersect(cyc_a, cyc_b)
        _require(meet.order == 1, f"<A> meet <B> has order {meet.order}")
        return {"intersection_order": meet.order}

    runner.run("GRP-CYCLIC-INTERSECT", "<A> and <B> intersect trivially", check_cyclic_intersect)

    runner.run(
        "GRP-N-NORMAL",
        "the subgroup <A, B> is normal in the whole group",
        lambda: (
            _require(mg.is_normal(need_group(), named("N")), "N is not normal"),
            {"order_N": named("N").order},
        )[1],
    )

    def check_n_invariants():
        n = named("N")
        invariants = mg.abelian_invariants(n)
        _require(n.order == 27, f"|N| = {n.order}")
        _require(invariants == (9, 3), f"invariants {invariants}")
        return {"order": n.order, "invariants": list(invariants)}

    runner.run("GRP-N-INVARIANTS", "<A, B> is abelian of order 27 with invariants (9, 3)", check_n_invariants)

    runner.run(
        "GRP-G1AG1-G2SQ",
        "G1 A G1^-1 equals G2^2",
        lambda: (
            _require(
                g1m * named("A").matrix * g1m.conj_transpose() == g2m * g2m,
                "G1 A G1^-1 != G2^2",
            ),
            None,
        )[1],
    )

    runner.run(
        "GRP-G2SQ-A7B2",
        "G2^2 equals A^7 B^2",
        lambda: (
            _require(
                g2m * g2m == named("A").matrix ** 7 * named("B").matrix ** 2,
                "G2^2 != A^7 B^2",
            ),
            None,
        )[1],
    )

    def check_g2ag2():
        a = named("A").matrix
        b = named("B").matrix
        lhs = g2m * a * g2m.conj_transpose()
        _require(lhs == g1m * g1m, "G2 A G2^-1 != G1^2")
        _require(g1m * g1m == a * b, "G1^2 != A B")
        return None

    runner.run("GRP-G2AG2-AB", "G2 A G2^-1 equals G1^2 equals A B", check_g2ag2)

    def check_t1t2t3():
        o_t1 = mg.element_order(named("T1"), cap=50)
        o_t2 = mg.element_order(named("T2"), cap=50)
        g2g1sq = g2m * g1m * g1m
        o_gg = mg.element_order(mg.GpElement(g2g1sq, g2g1sq.key_bytes()), cap=50)
        _require(o_t1 == 2 and o_t2 == 2 and o_gg == 2, f"orders ({o_t1},{o_t2},{o_gg})")
        _require(
            named("T3").matrix == UnitaryMatrix.diagonal([-1, -1, 1]),
            "T3 is not diag(-1,-1,1)",
        )
        return {"orders": [o_t1, o_t2, o_gg]}

    runner.run("GRP-T1T2T3", "T1, T2, G2 G1^2 have order 2 and T3 = diag(-1,-1,1)", check_t1t2t3)

    def check_h_s3():
        h = named("H")
        _require(h.order == 6, f"|H| = {h.order}")
        t1 = named("T1").matrix
        t3 = named("T3").matrix
        _require(t1 * t3 != t3 * t1, "H is abelian")
        order3 = {e.key for e in h.element_list if mg.element_order(e, cap=10) == 3}
        want = {(t1 * t3).key_bytes(), (t3 * t1).key_bytes()}
        _require(order3 == want, "order-3 elements are not T1 T3 and T3 T1")
        return {"order": h.order}

    runner.run("GRP-H-S3", "<T1, T3> is a non-abelian order-6 group with order-3 elements T1 T3, T3 T1", check_h_s3)

    def check_h_matrices():
        h = named("H")
        t1 = named("T1").matrix
        t3 = named("T3").matrix
        half = Fraction(1, 2)
        s = rt2 / 2
        m_t1 = UnitaryMatrix.from_rows([[-half, -s, -half], [-s, 0, s], [-half, s, -half]])
        m_t3t1t3 = UnitaryMatrix.from_rows([[-half, -s, half], [-s, 0, -s], [half, -s, -half]])
        m_t1t3 = UnitaryMatrix.from_rows([[half, s, -half], [s, 0, s], [half, -s, -half]])
        m_t3t1 = UnitaryMatrix.from_rows([[half, s, half], [s, 0, -s], [-half, s, -half]])
        _require(t1 == m_t1, "T1 display mismatch")
        _require(t3 * t1 * t3 == m_t3t1t3, "T3 T1 T3 display mismatch")
        _require(t1 * t3 == m_t1t3, "T1 T3 display mismatch")
        _require(t3 * t1 == m_t3t1, "T3 T1 display mismatch")
        expected = {
            identity3.key_bytes(), t3.key_bytes(), m_t1.key_bytes(),
            m_t3t1t3.key_bytes(), m_t1t3.key_bytes(), m_t3t1.key_bytes(),
        }
        _require(set(h.elements) == expected, "H element set mismatch")
        return None

    runner.run("GRP-H-MATRICES", "the six elements of H match their explicit matrices", check_h_matrices)

    runner.run(
        "GRP-HN-TRIVIAL",
        "H and N intersect trivially",
        lambda: (
            _require(mg.intersect(named("H"), named("N")).order == 1, "H meet N nontrivial"),
            None,
        )[1],
    )

    def check_order3_not_listed():
        a = named("A").matrix
        b = named("B").matrix
        t1 = named("T1").matrix
        t3 = named("T3").matrix
        listed = [
            a ** 3, a ** 6, a ** 3 * b, a ** 6 * b,
            a ** 3 * b * b, a ** 6 * b * b, b, b * b,
        ]
        for candidate in (t1 * t3, t3 * t1):
            _require(all(candidate != m for m in listed), "order-3 element found in the list")
        return None

    runner.run(
        "GRP-ORDER3-NOT-IN-LIST",
        "T1 T3 and T3 T1 differ from all eight listed elements of N",
        check_order3_not_listed,
    )

    def check_g2sqg1():
        a3b = named("A").matrix ** 3 * named("B").matrix
        t3 = named("T3").matrix
        g2sqg1 = g2m * g2m * g1m
        _require((g2m * g1m * g2m) ** 2 == identity3, "(G2 G1 G2)^2 != I")
        _require((g2m * g1m) ** 3 == identity3, "(G2 G1)^3 != I")
        _require((g1m * g2m) ** 3 == identity3, "(G1 G2)^3 != I")
        _require(g2sqg1 * g2sqg1 == identity3, "(G2^2 G1)^2 != I")
        _require(g2sqg1 == a3b * t3, "G2^2 G1 != A^3 B T3")
        residue = g2sqg1.conj_transpose() * t3
        _require(residue == a3b, "(G2^2 G1)^-1 T3 != A^3 B")
        o = mg.element_order(mg.GpElement(residue, residue.key_bytes()), cap=10)
        _require(o == 3, f"A^3 B has order {o}")
        return None

    runner.run(
        "GRP-G2SQG1-FACTOR",
        "G2^2 G1 is an involution factoring as A^3 B * T3",
        check_g2sqg1,
    )

    def check_g1sqg2():
        b2 = named("B").matrix ** 2
        t3t1t3 = named("T3").matrix * named("T1").matrix * named("T3").matrix
        g1sqg2 = g1m * g1m * g2m
        _require(g1sqg2 == b2 * t3t1t3, "G1^2 G2 != B^2 T3 T1 T3")
        _require(g1sqg2.conj_transpose() * t3t1t3 == b2, "(G1^2 G2)^-1 T3 T1 T3 != B^2")
        return None

    runner.run(
        "GRP-G1SQG2-FACTOR",
        "G1^2 G2 factors as B^2 * T3 T1 T3",
        check_g1sqg2,
    )

    def check_psi_g1():
        _, g1, _, _ = words()
        n, h = mg.decompose(g1, named("N"), named("H"))
        want_n = named("A").matrix ** 5 * named("B").matrix ** 2
        _require(n.matrix == want_n and h.matrix == named("T3").matrix, "G1 != A^5 B^2 * T3")
        return None

    runner.run("GRP-PSI-G1", "G1 decomposes as (A^5 B^2, T3)", check_psi_g1)

    def check_psi_g2():
        _, _, g2, _ = words()
        n, h = mg.decompose(g2, named("N"), named("H"))
        want_n = named("A").matrix.conj_transpose() * named("B").matrix
        want_h = named("T3").matrix * named("T1").matrix * named("T3").matrix
        _require(n.matrix == want_n and h.matrix == want_h, "G2 != A^-1 B * T3 T1 T3")
        return None

    runner.run("GRP-PSI-G2", "G2 decomposes as (A^-1 B, T3 T1 T3)", check_psi_g2)

    def check_semidirect():
        g = need_group()
        report = mg.semidirect_verify(g, named("N"), named("H"))
        _require(report.all_ok, f"semidirect flags: {report}")
        pairs = set()
        for e in g.element_list:
            n, h = mg.decompose(e, named("N"), named("H"))
            pairs.add((n.key, h.key))
        _require(len(pairs) == g.order, "factorizations are not distinct")
        return {
            "normal": report.normal,
            "trivial_intersection": report.trivial_intersection,
            "order_product": report.order_product,
            "product_bijective": report.product_bijective,
            "distinct_factorizations": len(pairs),
        }

    runner.run(
        "GRP-SEMIDIRECT",
        "all four semidirect-product certificates hold and the 162 factorizations are distinct",
        check_semidirect,
    )

    def check_presentation():
        gens = {
            "A": named("A"), "B": named("B"),
            "T1": named("T1"), "T3": named("T3"),
        }
        eye: tuple = ()
        relations = [
            ((("A", 9),), eye),
            ((("B", 3),), eye),
            ((("T1", 2),), eye),
            ((("T3", 2),), eye),
            ((("T1", 1), ("T3", 1)) * 3, eye),
            ((("T3", 1), ("T1", 1)) * 3, eye),
            ((("T1", 1), ("A", 1), ("T1", -1)), (("A", 1),)),
            ((("T3", 1), ("A", 1), ("T3", -1)), (("A", 7), ("B", 2))),
            ((("T1", 1), ("B", 1), ("T1", -1)), (("A", 6), ("B", 2))),
            ((("T3", 1), ("B", 1), ("T3", -1)), (("A", 3), ("B", 2))),
        ]
        results = mg.check_relations(gens, relations)
        _require(all(results), f"relation results: {results}")
        return {"relations_checked": len(results)}

    runner.run(
        "GRP-PRESENTATION",
        "all ten relations of the closing presentation hold exactly",
        check_presentation,
    )

    family_group: Optional[mg.FiniteMatrixGroup] = None

    def check_family_order():
        nonlocal family_group
        family_group = mg.close(
            d_generators(DParams(CParams(9, 1, 1), 2, 1, 1)), cap=cap
        )
        _require(family_group.order == 162, f"family group order {family_group.order}")
        return {"order": family_group.order}

    runner.run(
        "GRP-D-FAMILY-ORDER",
        "the three family generators of D(9,1,1;2,1,1) span a group of order 162",
        check_family_order,
    )

    def check_isomorphism():
        g = need_group()
        if family_group is None:
            raise RuntimeError("family group unavailable (earlier check failed)")
        images = mg.find_isomorphism(g, family_group)
        _require(images is not None, "no isomorphism found")
        # re-verify the returned generator images on the full tables
        image_idx = [family_group.index_of(e) for e in images]
        _require(
            mg.extend_to_isomorphism(g, family_group, image_idx) is not None,
            "generator images do not extend to an isomorphism",
        )
        runner.report.info["braid_image_equals_family_matrix_set"] = mg.same_matrix_set(
            g, family_group
        )
        return {"generator_images": [e.key.decode("ascii")[:40] + "..." for e in images]}

    runner.run(
        "GRP-ISO-D91211",
        "an isomorphism onto D(9,1,1;2,1,1) exists and verifies on the full Cayley table",
        check_isomorphism,
    )

    return runner.report


# ---------------------------------------------------------------------------
# data export


# the Cayley export holds order^2 Python ints; an order-2592 export peaks
# near 140 MB resident, and the cost grows as order^2
MAX_CAYLEY_EXPORT_ORDER = 4096


def export_group(target: mg.FiniteMatrixGroup, what: str, path: str,
                 names: Optional[Sequence[str]] = None) -> None:
    """Write deterministic group data: `elements` as JSON records or
    `cayley` as a CSV index grid."""
    if what == "elements":
        payload = json.dumps(mg.element_records(target, names), indent=2)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
    elif what == "cayley":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(mg.cayley_csv(target))
    else:
        raise ValueError(f"unknown export kind {what!r}")


# ---------------------------------------------------------------------------
# scalar queries


def query(kind: str, args: Sequence[int], r: int = 6) -> Cyclo:
    t = theory(r)
    arity = {"theta": 3, "tet": 6, "sixj": 6, "rvalue": 3, "qint": 1, "delta": 1}
    if kind not in arity:
        raise ValueError(f"unknown query kind {kind!r}")
    if len(args) != arity[kind]:
        raise ValueError(f"{kind} takes {arity[kind]} labels, got {len(args)}")
    if kind == "theta":
        return theta(t, *args)
    if kind == "tet":
        return tet(t, *args)
    if kind == "sixj":
        return sixj(t, *args)
    if kind == "rvalue":
        return r_value(t, *args)
    if kind == "qint":
        return quantum_int(t, args[0])
    return delta_n(t, args[0])


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3braid",
        description="exact braid-group image verification for the order-162 SU(3) subgroup",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification checklist")
    p_verify.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p_verify.add_argument("--cap", type=int, default=2000, help="group closure cap")

    p_rep = sub.add_parser("rep", help="build braid generator matrices")
    p_rep.add_argument("--r", type=int, default=6)
    p_rep.add_argument("--charge", type=int, default=2)
    p_rep.add_argument(
        "--phase",
        metavar="NUM/DEN",
        help="phase e^(i*pi*NUM/DEN) applied to land in SU(dim)",
    )

    p_query = sub.add_parser("query", help="print one recoupling quantity")
    p_query.add_argument("kind", choices=["theta", "tet", "sixj", "rvalue", "qint", "delta"])
    p_query.add_argument("args", type=int, nargs="+")
    p_query.add_argument("--r", type=int, default=6)

    p_group = sub.add_parser("group", help="close a group and export its data")
    p_group.add_argument(
        "--from",
        dest="source",
        nargs="+",
        required=True,
        metavar="SPEC",
        help="paper | familyC n a b | familyD n a b d r s",
    )
    p_group.add_argument("--emit-elements", metavar="PATH")
    p_group.add_argument("--emit-cayley", metavar="PATH")
    p_group.add_argument("--cap", type=int, default=100_000)

    p_family = sub.add_parser("family", help="print family generator matrices")
    p_family.add_argument("series", choices=["C", "D"])
    p_family.add_argument("params", type=int, nargs="+")

    return parser


def _parse_phase(text: str) -> Cyclo:
    num, _, den = text.partition("/")
    p, q = int(num), int(den or "1")
    # e^(i*pi*p/q) = zeta_{2q}^p
    return root_of_unity(2 * q, p % (2 * q))


def _group_from_spec(spec: Sequence[str], cap: int) -> tuple[mg.FiniteMatrixGroup, list[str]]:
    kind = spec[0]
    if kind == "paper":
        if len(spec) != 1:
            raise ValueError("--from paper takes no parameters")
        g1, g2 = paper_generators()
        return mg.close([g1, g2], cap=cap), ["g1", "g2"]
    params = [int(v) for v in spec[1:]]
    if kind == "familyC":
        if len(params) != 3:
            raise ValueError("familyC needs n a b")
        return mg.close(c_generators(CParams(*params)), cap=cap), ["E", "F"]
    if kind == "familyD":
        if len(params) != 6:
            raise ValueError("familyD needs n a b d r s")
        n, a, b, d, r, s = params
        gens = d_generators(DParams(CParams(n, a, b), d, r, s))
        return mg.close(gens, cap=cap), ["E", "F", "D"]
    raise ValueError(f"unknown group source {kind!r}")


def _run_rep(args: argparse.Namespace) -> int:
    t = theory(args.r)
    basis = fusion_basis(t, args.charge)
    odd = sigma_odd(t, basis)
    mid = sigma_mid(t, basis)
    if args.phase:
        phase = _parse_phase(args.phase)
        odd = su3_normalize(odd, phase)
        mid = su3_normalize(mid, phase)
    print(json.dumps({
        "labels": list(basis.labels),
        "sigma_odd": odd.to_dict(),
        "sigma_mid": mid.to_dict(),
    }, indent=2))
    return 0


def _run_query(args: argparse.Namespace) -> int:
    value = query(args.kind, args.args, r=args.r)
    print(json.dumps(value.to_dict(), indent=2))
    return 0


def _run_group(args: argparse.Namespace) -> int:
    cap = args.cap
    if args.emit_cayley:
        # refuse before closing past the limit, not after building the table
        cap = min(cap, MAX_CAYLEY_EXPORT_ORDER)
    try:
        group, names = _group_from_spec(args.source, cap)
    except mg.GroupTooLargeError:
        if cap < args.cap:
            raise ValueError(
                f"--emit-cayley supports groups of order at most {MAX_CAYLEY_EXPORT_ORDER}"
            ) from None
        raise
    print(f"order: {group.order}")
    if args.emit_elements:
        export_group(group, "elements", args.emit_elements, names)
        print(f"elements written to {args.emit_elements}")
    if args.emit_cayley:
        export_group(group, "cayley", args.emit_cayley)
        print(f"cayley table written to {args.emit_cayley}")
    return 0


def _run_family(args: argparse.Namespace) -> int:
    if args.series == "C":
        if len(args.params) != 3:
            raise ValueError("family C needs n a b")
        gens = c_generators(CParams(*args.params))
        names = ["E", "F"]
    else:
        if len(args.params) != 6:
            raise ValueError("family D needs n a b d r s")
        n, a, b, d, r, s = args.params
        gens = d_generators(DParams(CParams(n, a, b), d, r, s))
        names = ["E", "F", "D"]
    print(json.dumps(
        {name: m.to_dict() for name, m in zip(names, gens)}, indent=2
    ))
    return 0


_COMMANDS = {"rep": _run_rep, "query": _run_query, "group": _run_group, "family": _run_family}
# what bad parameters raise: invalid or unsupported values, a closure past
# its cap, an unwritable export path
_BAD_INPUT = (ValueError, ArithmeticError, OSError, mg.GroupTooLargeError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Exit status: 0 success, 1 verify FAIL, 2 bad input (clean message
    on stderr, never a traceback)."""
    args = _build_parser().parse_args(argv)

    if args.command == "verify":
        report = run_theorem1_verification(cap=args.cap)
        for check in report.checks:
            mark = "ok" if check.passed else "FAIL"
            print(f"[{mark:>4}] {check.id}: {check.description}")
        for key, value in report.info.items():
            print(f"[info] {key} = {value}")
        print(f"overall: {'PASS' if report.overall else 'FAIL'}")
        if args.json:
            with open(args.json, "w", encoding="ascii") as fh:
                fh.write(report.to_json() + "\n")
        return 0 if report.overall else 1

    try:
        return _COMMANDS[args.command](args)
    except _BAD_INPUT as exc:  # surfaced as a clean message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
