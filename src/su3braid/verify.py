"""The fixed verification checklist behind `su3braid verify`.

`CHECKS` is an ordered table of `(id, description, fn)` entries covering
every claim about the braid-generated SU(3) subgroup of order 162: the
recoupling constants behind the generators, the generator matrices
themselves, the normal abelian subgroup and symmetric-group complement,
the semidirect factorization, the closing presentation, and the
isomorphism with the three-generator family presentation D(9,1,1;2,1,1).
Each `fn` takes the shared `_Context` and returns a witness dict (or
None) or raises.  Failures become report entries, never exceptions, so a
corrupted input produces a clean red report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import matgroup as mg
from .braidrep import paper_generators
from .cyclo import Cyclo, root_of_unity, sqrt2, sqrt3
from .matrix import UnitaryMatrix
from .recoupling import delta_n, r_value, tet, theory, theta
from .su3families import CParams, DParams, d_generators


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


def _require(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def _approx(value: Cyclo) -> list[float]:
    z = value.to_complex()
    return [round(z.real, 12), round(z.imag, 12)]


# the named words in the generators g1 (1) and g2 (2) of the closed group
_WORDS = {
    "F": (1, 2, -1, -1),
    "A": (1, 2, 2, -1),
    "B": (1, -2, -2, 1),
    "T1": (1, 2, 1),
    "T2": (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, -2),
}


class _Context:
    """State the checks share.  `group` and `family_group` are closed once,
    by GRP-ORDER-162 and GRP-D-FAMILY-ORDER, and kept even when their order
    is wrong; they stay None when the closure raised.  The named elements
    are built lazily, so that a word failure lands in the check that asked
    for it.  `info` collects the report's informational entries."""

    def __init__(self, generators: tuple[UnitaryMatrix, UnitaryMatrix], cap: int):
        self.g1m, self.g2m = generators
        self.cap = cap
        self.t = theory(6)
        self.rt3 = sqrt3(self.t.order)
        self.rt2 = sqrt2(self.t.order)
        self.group: Optional[mg.FiniteMatrixGroup] = None
        self.family_group: Optional[mg.FiniteMatrixGroup] = None
        self.info: dict = {}
        self._named: dict = {}

    def need_group(self) -> mg.FiniteMatrixGroup:
        if self.group is None:
            raise RuntimeError("group closure unavailable (earlier check failed)")
        return self.group

    def named(self, name: str):
        """F, A, B, T1, T2, T3 as group elements; N = <A, B>, H = <T1, T3>."""
        if name not in self._named:
            g = self.need_group()
            g1, g2 = g.generators
            if name == "T3":
                t2 = self.named("T2")
                value = mg.word_eval(t2.word + (2, 1, 1) + t2.word, [g1, g2])
            elif name == "N":
                value = mg.subgroup(g, [self.named("A"), self.named("B")])
            elif name == "H":
                value = mg.subgroup(g, [self.named("T1"), self.named("T3")])
            else:
                value = mg.word_eval(_WORDS[name], [g1, g2])
            self._named[name] = value
        return self._named[name]

    def matrix(self, name: str) -> UnitaryMatrix:
        return self.named(name).matrix


# ---------------------------------------------------------------------------
# recoupling constants


def check_deltas(ctx: _Context):
    t = ctx.t
    expected = {0: Cyclo.one(), 1: ctx.rt3, 2: Cyclo.rational(2), 4: Cyclo.one(), 5: Cyclo.zero()}
    for n, want in expected.items():
        _require(delta_n(t, n) == want, f"delta_{n} mismatch")
    return {f"delta_{n}": _approx(delta_n(t, n)) for n in sorted(expected)}


def check_rvalues(ctx: _Context):
    t = ctx.t
    anchors = {
        0: root_of_unity(72, 24),       # e^(2 i pi / 3)
        2: -root_of_unity(72, 12),      # -e^(i pi / 3)
        4: root_of_unity(72, 60),       # e^(-i pi / 3)
    }
    for a, want in anchors.items():
        got = r_value(t, a, 2, 2).conj()
        _require(got == want, f"conjugated R-value at label {a} mismatch")
    return {f"conj_R_{a}^22": _approx(r_value(t, a, 2, 2).conj()) for a in anchors}


def check_tet_table(ctx: _Context):
    t, rt3 = ctx.t, ctx.rt3
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


def check_theta_id(ctx: _Context):
    t = ctx.t
    for i in (0, 2, 4):
        _require(theta(t, 2, 2, i) == tet(t, 2, 2, i, 2, 2, 0), f"theta identity at {i}")
    return {f"theta_22{i}": _approx(theta(t, 2, 2, i)) for i in (0, 2, 4)}


# ---------------------------------------------------------------------------
# generator matrices, compared against the explicit displays built from the
# constant t = (sqrt(2)/2) e^(2 i pi/3) and the phase e^(i pi / 9)


def _t_powers(ctx: _Context) -> tuple[Cyclo, Cyclo, Cyclo]:
    """t, t^2 and conj(t)^2."""
    t_const = ctx.rt2 / 2 * root_of_unity(72, 24)
    t_sq = t_const * t_const
    return t_const, t_sq, t_sq.conj()


def check_g1_display(ctx: _Context):
    _, t_sq, tbar_sq = _t_powers(ctx)
    display = UnitaryMatrix.diagonal([2 * tbar_sq, 2 * t_sq, -2 * tbar_sq])
    _require(ctx.g1m == display.scale(root_of_unity(72, 4)), "G1 display mismatch")
    return {"det": _approx(ctx.g1m.det())}


def check_g2_display(ctx: _Context):
    t_const, t_sq, _ = _t_powers(ctx)
    display = UnitaryMatrix.from_rows(
        [[t_sq, t_const, -t_sq], [t_const, 0, t_const], [-t_sq, t_const, t_sq]]
    )
    _require(ctx.g2m == display.scale(root_of_unity(72, 4)), "G2 display mismatch")
    return {"det": _approx(ctx.g2m.det())}


def check_braid(ctx: _Context):
    g1m, g2m = ctx.g1m, ctx.g2m
    _require(g1m * g2m * g1m == g2m * g1m * g2m, "braid relation fails")


def check_squares_commute(ctx: _Context):
    g1m, g2m = ctx.g1m, ctx.g2m
    _require(g1m ** 2 * g2m ** 2 == g2m ** 2 * g1m ** 2, "squares do not commute")


def check_order18(ctx: _Context):
    g1m, g2m = ctx.g1m, ctx.g2m
    o1 = mg.element_order(mg.GpElement(g1m, g1m.key_bytes()), cap=200)
    o2 = mg.element_order(mg.GpElement(g2m, g2m.key_bytes()), cap=200)
    _require(o1 == 18 and o2 == 18, f"orders are ({o1}, {o2}), expected (18, 18)")
    return {"order_G1": o1, "order_G2": o2}


def check_charpoly(ctx: _Context):
    g1m = ctx.g1m
    _require(g1m.charpoly() == ctx.g2m.charpoly(), "characteristic polynomials differ")
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


# ---------------------------------------------------------------------------
# the group closure, N = <A, B> and its conjugation identities


def check_order162(ctx: _Context):
    ctx.group = mg.close([ctx.g1m, ctx.g2m], cap=ctx.cap)
    _require(ctx.group.order == 162, f"group order is {ctx.group.order}")
    return {"order": ctx.group.order}


def check_f_matrix(ctx: _Context):
    f = ctx.named("F")
    a = (Cyclo.rational(-1) + root_of_unity(4) * ctx.rt3) / 4
    b = ctx.rt2 * a
    display = UnitaryMatrix.from_rows([[a, b, -a], [b, 0, b], [a, -b, -a]])
    _require(f.matrix == display, "F word does not match the explicit matrix")
    return {"entry_00": _approx(f.matrix.rows[0][0])}


def check_a_def(ctx: _Context):
    f = ctx.named("F")
    a = ctx.named("A")
    _require((ctx.g2m * f.matrix) ** 2 == a.matrix, "(G2 F)^2 != G1 G2^2 G1^-1")


def check_ab_orders(ctx: _Context):
    oa = mg.element_order(ctx.named("A"), cap=50)
    ob = mg.element_order(ctx.named("B"), cap=50)
    _require(oa == 9 and ob == 3, f"|A| = {oa}, |B| = {ob}")
    return {"order_A": oa, "order_B": ob}


def check_ab_commute(ctx: _Context):
    a, b = ctx.matrix("A"), ctx.matrix("B")
    _require(a * b == b * a, "A and B do not commute")


def check_cyclic_intersect(ctx: _Context):
    g = ctx.need_group()
    cyc_a = mg.subgroup(g, [ctx.named("A")])
    cyc_b = mg.subgroup(g, [ctx.named("B")])
    meet = mg.intersect(cyc_a, cyc_b)
    _require(meet.order == 1, f"<A> meet <B> has order {meet.order}")
    return {"intersection_order": meet.order}


def check_n_normal(ctx: _Context):
    _require(mg.is_normal(ctx.need_group(), ctx.named("N")), "N is not normal")
    return {"order_N": ctx.named("N").order}


def check_n_invariants(ctx: _Context):
    n = ctx.named("N")
    invariants = mg.abelian_invariants(n)
    _require(n.order == 27, f"|N| = {n.order}")
    _require(invariants == (9, 3), f"invariants {invariants}")
    return {"order": n.order, "invariants": list(invariants)}


def check_g1ag1(ctx: _Context):
    g1m, g2m = ctx.g1m, ctx.g2m
    _require(g1m * ctx.matrix("A") * g1m.conj_transpose() == g2m * g2m, "G1 A G1^-1 != G2^2")


def check_g2sq_a7b2(ctx: _Context):
    g2m = ctx.g2m
    _require(g2m * g2m == ctx.matrix("A") ** 7 * ctx.matrix("B") ** 2, "G2^2 != A^7 B^2")


def check_g2ag2(ctx: _Context):
    g1m, g2m = ctx.g1m, ctx.g2m
    a = ctx.matrix("A")
    b = ctx.matrix("B")
    lhs = g2m * a * g2m.conj_transpose()
    _require(lhs == g1m * g1m, "G2 A G2^-1 != G1^2")
    _require(g1m * g1m == a * b, "G1^2 != A B")


# ---------------------------------------------------------------------------
# the complement H = <T1, T3> and the factorizations through N and H


def check_t1t2t3(ctx: _Context):
    o_t1 = mg.element_order(ctx.named("T1"), cap=50)
    o_t2 = mg.element_order(ctx.named("T2"), cap=50)
    g2g1sq = ctx.g2m * ctx.g1m * ctx.g1m
    o_gg = mg.element_order(mg.GpElement(g2g1sq, g2g1sq.key_bytes()), cap=50)
    _require(o_t1 == 2 and o_t2 == 2 and o_gg == 2, f"orders ({o_t1},{o_t2},{o_gg})")
    _require(
        ctx.matrix("T3") == UnitaryMatrix.diagonal([-1, -1, 1]),
        "T3 is not diag(-1,-1,1)",
    )
    return {"orders": [o_t1, o_t2, o_gg]}


def check_h_s3(ctx: _Context):
    h = ctx.named("H")
    _require(h.order == 6, f"|H| = {h.order}")
    t1 = ctx.matrix("T1")
    t3 = ctx.matrix("T3")
    _require(t1 * t3 != t3 * t1, "H is abelian")
    order3 = {e.key for e in h.element_list if mg.element_order(e, cap=10) == 3}
    want = {(t1 * t3).key_bytes(), (t3 * t1).key_bytes()}
    _require(order3 == want, "order-3 elements are not T1 T3 and T3 T1")
    return {"order": h.order}


def check_h_matrices(ctx: _Context):
    h = ctx.named("H")
    t1 = ctx.matrix("T1")
    t3 = ctx.matrix("T3")
    half = Fraction(1, 2)
    s = ctx.rt2 / 2
    m_t1 = UnitaryMatrix.from_rows([[-half, -s, -half], [-s, 0, s], [-half, s, -half]])
    m_t3t1t3 = UnitaryMatrix.from_rows([[-half, -s, half], [-s, 0, -s], [half, -s, -half]])
    m_t1t3 = UnitaryMatrix.from_rows([[half, s, -half], [s, 0, s], [half, -s, -half]])
    m_t3t1 = UnitaryMatrix.from_rows([[half, s, half], [s, 0, -s], [-half, s, -half]])
    _require(t1 == m_t1, "T1 display mismatch")
    _require(t3 * t1 * t3 == m_t3t1t3, "T3 T1 T3 display mismatch")
    _require(t1 * t3 == m_t1t3, "T1 T3 display mismatch")
    _require(t3 * t1 == m_t3t1, "T3 T1 display mismatch")
    expected = {
        UnitaryMatrix.identity(3).key_bytes(), t3.key_bytes(), m_t1.key_bytes(),
        m_t3t1t3.key_bytes(), m_t1t3.key_bytes(), m_t3t1.key_bytes(),
    }
    _require(set(h.elements) == expected, "H element set mismatch")


def check_hn_trivial(ctx: _Context):
    _require(mg.intersect(ctx.named("H"), ctx.named("N")).order == 1, "H meet N nontrivial")


def check_order3_not_listed(ctx: _Context):
    a = ctx.matrix("A")
    b = ctx.matrix("B")
    t1 = ctx.matrix("T1")
    t3 = ctx.matrix("T3")
    listed = [
        a ** 3, a ** 6, a ** 3 * b, a ** 6 * b,
        a ** 3 * b * b, a ** 6 * b * b, b, b * b,
    ]
    for candidate in (t1 * t3, t3 * t1):
        _require(all(candidate != m for m in listed), "order-3 element found in the list")


def check_g2sqg1(ctx: _Context):
    g1m, g2m = ctx.g1m, ctx.g2m
    identity3 = UnitaryMatrix.identity(3)
    a3b = ctx.matrix("A") ** 3 * ctx.matrix("B")
    t3 = ctx.matrix("T3")
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


def check_g1sqg2(ctx: _Context):
    b2 = ctx.matrix("B") ** 2
    t3t1t3 = ctx.matrix("T3") * ctx.matrix("T1") * ctx.matrix("T3")
    g1sqg2 = ctx.g1m * ctx.g1m * ctx.g2m
    _require(g1sqg2 == b2 * t3t1t3, "G1^2 G2 != B^2 T3 T1 T3")
    _require(g1sqg2.conj_transpose() * t3t1t3 == b2, "(G1^2 G2)^-1 T3 T1 T3 != B^2")


def check_psi_g1(ctx: _Context):
    g = ctx.need_group()
    n, h = mg.decompose(g, g.generators[0], ctx.named("N"), ctx.named("H"))
    want_n = ctx.matrix("A") ** 5 * ctx.matrix("B") ** 2
    _require(n.matrix == want_n and h.matrix == ctx.matrix("T3"), "G1 != A^5 B^2 * T3")


def check_psi_g2(ctx: _Context):
    g = ctx.need_group()
    n, h = mg.decompose(g, g.generators[1], ctx.named("N"), ctx.named("H"))
    want_n = ctx.matrix("A").conj_transpose() * ctx.matrix("B")
    want_h = ctx.matrix("T3") * ctx.matrix("T1") * ctx.matrix("T3")
    _require(n.matrix == want_n and h.matrix == want_h, "G2 != A^-1 B * T3 T1 T3")


# ---------------------------------------------------------------------------
# the semidirect structure, the presentation and the family isomorphism


def check_semidirect(ctx: _Context):
    g = ctx.need_group()
    report = mg.semidirect_verify(g, ctx.named("N"), ctx.named("H"))
    _require(report.all_ok, f"semidirect flags: {report}")
    pairs = set()
    for e in g.element_list:
        n, h = mg.decompose(g, e, ctx.named("N"), ctx.named("H"))
        pairs.add((n.key, h.key))
    _require(len(pairs) == g.order, "factorizations are not distinct")
    return {
        "normal": report.normal,
        "trivial_intersection": report.trivial_intersection,
        "order_product": report.order_product,
        "product_bijective": report.product_bijective,
        "distinct_factorizations": len(pairs),
    }


def check_presentation(ctx: _Context):
    gens = {name: ctx.named(name) for name in ("A", "B", "T1", "T3")}
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


def check_family_order(ctx: _Context):
    ctx.family_group = mg.close(d_generators(DParams(CParams(9, 1, 1), 2, 1, 1)), cap=ctx.cap)
    _require(ctx.family_group.order == 162, f"family group order {ctx.family_group.order}")
    return {"order": ctx.family_group.order}


def check_isomorphism(ctx: _Context):
    g = ctx.need_group()
    family = ctx.family_group
    if family is None:
        raise RuntimeError("family group unavailable (earlier check failed)")
    images = mg.find_isomorphism(g, family)
    _require(images is not None, "no isomorphism found")
    # re-verify the returned generator images on the full tables
    image_idx = [family.index_of(e) for e in images]
    _require(
        mg.extend_to_isomorphism(g, family, image_idx) is not None,
        "generator images do not extend to an isomorphism",
    )
    ctx.info["braid_image_equals_family_matrix_set"] = mg.same_matrix_set(g, family)
    return {"generator_images": [e.key.decode("ascii")[:40] + "..." for e in images]}


CHECKS = (
    ("TL-DELTAS", "loop values: delta_0 = delta_4 = 1, delta_2 = 2, delta_1 = sqrt(3), delta_5 = 0", check_deltas),
    ("TL-RVALUES", "conjugated twist eigenvalues on a fused charge-2 pair", check_rvalues),
    ("TL-TET-TABLE", "all six tetrahedral net values, including signs", check_tet_table),
    ("TL-THETA-ID", "theta(2,2,i) equals the tet with one edge labeled 0", check_theta_id),
    ("REP-G1", "phase-normalized odd braid generator equals its explicit display", check_g1_display),
    ("REP-G2", "phase-normalized middle braid generator equals its explicit display", check_g2_display),
    ("REP-BRAID", "braid relation G1 G2 G1 = G2 G1 G2", check_braid),
    ("REP-SQUARES-COMMUTE", "the generator squares commute", check_squares_commute),
    ("REP-ORDER18", "both generators have exact order 18", check_order18),
    ("REP-CHARPOLY", "equal characteristic polynomials; spectrum as displayed", check_charpoly),
    ("GRP-ORDER-162", "the two generators span a group of order 162", check_order162),
    ("GRP-F-MATRIX", "the word g1 g2 g1^-2 equals the explicit matrix F", check_f_matrix),
    ("GRP-A-DEF", "(G2 F)^2 equals A = g1 g2^2 g1^-1", check_a_def),
    ("GRP-AB-ORDERS", "A has order 9 and B has order 3", check_ab_orders),
    ("GRP-AB-COMMUTE", "A and B commute", check_ab_commute),
    ("GRP-CYCLIC-INTERSECT", "<A> and <B> intersect trivially", check_cyclic_intersect),
    ("GRP-N-NORMAL", "the subgroup <A, B> is normal in the whole group", check_n_normal),
    ("GRP-N-INVARIANTS", "<A, B> is abelian of order 27 with invariants (9, 3)", check_n_invariants),
    ("GRP-G1AG1-G2SQ", "G1 A G1^-1 equals G2^2", check_g1ag1),
    ("GRP-G2SQ-A7B2", "G2^2 equals A^7 B^2", check_g2sq_a7b2),
    ("GRP-G2AG2-AB", "G2 A G2^-1 equals G1^2 equals A B", check_g2ag2),
    ("GRP-T1T2T3", "T1, T2, G2 G1^2 have order 2 and T3 = diag(-1,-1,1)", check_t1t2t3),
    ("GRP-H-S3", "<T1, T3> is a non-abelian order-6 group with order-3 elements T1 T3, T3 T1", check_h_s3),
    ("GRP-H-MATRICES", "the six elements of H match their explicit matrices", check_h_matrices),
    ("GRP-HN-TRIVIAL", "H and N intersect trivially", check_hn_trivial),
    ("GRP-ORDER3-NOT-IN-LIST", "T1 T3 and T3 T1 differ from all eight listed elements of N", check_order3_not_listed),
    ("GRP-G2SQG1-FACTOR", "G2^2 G1 is an involution factoring as A^3 B * T3", check_g2sqg1),
    ("GRP-G1SQG2-FACTOR", "G1^2 G2 factors as B^2 * T3 T1 T3", check_g1sqg2),
    ("GRP-PSI-G1", "G1 decomposes as (A^5 B^2, T3)", check_psi_g1),
    ("GRP-PSI-G2", "G2 decomposes as (A^-1 B, T3 T1 T3)", check_psi_g2),
    ("GRP-SEMIDIRECT", "all four semidirect-product certificates hold and the 162 factorizations are distinct", check_semidirect),
    ("GRP-PRESENTATION", "all ten relations of the closing presentation hold exactly", check_presentation),
    ("GRP-D-FAMILY-ORDER", "the three family generators of D(9,1,1;2,1,1) span a group of order 162", check_family_order),
    ("GRP-ISO-D91211", "an isomorphism onto D(9,1,1;2,1,1) exists and verifies on the full Cayley table", check_isomorphism),
)
CHECK_IDS = tuple(check_id for check_id, _, _ in CHECKS)


def run_theorem1_verification(
    generators: Optional[tuple[UnitaryMatrix, UnitaryMatrix]] = None,
    cap: int = 2000,
) -> VerificationReport:
    """Execute the fixed ordered checklist and return the report.

    `generators` overrides the constructed pair (used by tests to confirm
    that corrupted inputs are caught); `cap` bounds the group closure.
    """
    ctx = _Context(paper_generators() if generators is None else generators, cap)
    report = VerificationReport(info=ctx.info)
    for check_id, description, fn in CHECKS:
        try:
            report.checks.append(Check(check_id, description, True, fn(ctx)))
        except Exception as exc:  # noqa: BLE001 - failures are report entries
            error = {"error": f"{type(exc).__name__}: {exc}"}
            report.checks.append(Check(check_id, description, False, error))
    return report
