"""The fixed verification checklist behind `su3braid verify`.

`CHECKS` is an ordered table of `(id, description, fn)` entries covering
every claim about the braid-generated SU(3) subgroup of order 162: the
recoupling constants behind the generators, the generator matrices
themselves, the normal abelian subgroup and symmetric-group complement,
the semidirect factorization, the closing presentation, and its
conjugacy in SU(3), by one exact unitary matrix, to the family group
D(9,1,1;2,1,1).  One runner serves every check: it evaluates the check's
rows in `IDENTITIES` (possibly none), then calls its `fn` with the shared
`_Context`, and what `fn` returns (a dict or None) is the witness.  A
failing row or `fn` raises; failures become report entries, never
exceptions, so a corrupted input produces a clean red report.

Every claim a word can state is a row of `IDENTITIES`: the braid
relation, the conjugation identities, the N*H factorizations, the ten
relations, the element orders (x has order exactly n when x^n = I and
x^(n/p) != I for each prime p dividing n), the comparisons with the
paper's explicit displays, which are the named matrices `D_G1` ...
`D_T3T1` (`_displays`), and the conjugation by the matrix `D_V` between
G1, G2 and the family generators d1, d2, d3.  The named elements
(`ELEMENTS`) and subgroups (`SUBGROUPS`) are data too.  Words are short
text such as "G2^2 G1^-1", and one `matgroup.WordEvaluator` evaluates
every word of a run, so a prefix or factor that rows share is multiplied
once.

A run closes one group, the braid image (GRP-ORDER-162, bounded by `cap`),
and reads its elements only by index; GRP-D-FAMILY-ORDER reads the order of
D(9,1,1;2,1,1) from the conjugacy rows instead of closing it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional

from . import matgroup as mg
from .braidrep import paper_generators
from .cyclo import Cyclo, root_of_unity, sqrt2, sqrt3
from .matrix import UnitaryMatrix
from .recoupling import delta_n, r_value, tet, theory, theta
from .su3families import CParams, DParams, d_generators


class Check(NamedTuple):
    id: str
    description: str
    passed: bool
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"id": self.id, "description": self.description, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerificationReport(NamedTuple):
    checks: list[Check]
    info: dict

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


def _word(text: str) -> mg.NamedWord:
    """A word written as text, "G2^2 G1^-1" (or "" for I), as the (name,
    power) pairs that `matgroup.WordEvaluator` evaluates."""
    return [(name, int(power or 1)) for name, _, power in (f.partition("^") for f in text.split())]


# the named elements, as words in G1, G2 and the names before them, and the
# two subgroups generated by named elements
ELEMENTS = {
    "F": "G1 G2 G1^-2",
    "A": "G1 G2^2 G1^-1",
    "B": "G1 G2^-2 G1",
    "T1": "G1 G2 G1",
    "T2": "G2 G1^9 G2^-1",
    "T3": "T2 G2 G1^2 T2",
}
SUBGROUPS = {"N": ("A", "B"), "H": ("T1", "T3")}
# the names of the family generators of D(9,1,1;2,1,1) in words
FAMILY_NAMES = ("d1", "d2", "d3")


class _Context:
    """State the checks share.  `group`, the run's one closure, is closed
    by GRP-ORDER-162 under the bound `cap` and kept even when its order is
    wrong; it stays None when the closure raised.  The named elements and
    subgroups are built lazily, so that a failure lands in the check that
    asked for them.  `ctx[name]` is the name -> matrix lookup that words
    are evaluated with: G1 and G2 are the generators as passed, d1, d2 and
    d3 the family generators, from one `d_generators` call and never
    closed, and the displays `D_*` are built on first use, without the
    closure.  `words` evaluates every word of the run, keeping each prefix
    it multiplies.  `info` collects the report's informational entries."""

    def __init__(self, generators: tuple[UnitaryMatrix, UnitaryMatrix], cap: int):
        self.g1m, self.g2m = generators
        self.cap = cap
        self.t = theory(6)
        self.rt3 = sqrt3(self.t.order)
        self.group: Optional[mg.FiniteMatrixGroup] = None
        self.info: dict = {}
        self._named: dict = {}
        self._displays: dict = {}
        self._family: dict = {}
        self.words = mg.WordEvaluator(self)

    def need_group(self) -> mg.FiniteMatrixGroup:
        if self.group is None:
            raise RuntimeError("group closure unavailable (earlier check failed)")
        return self.group

    def named(self, name: str):
        """An element of ELEMENTS as a matrix, or a subgroup of SUBGROUPS."""
        if name not in self._named:
            g = self.need_group()
            if name in SUBGROUPS:
                value = mg.subgroup(g, [g.index_of(self.named(n)) for n in SUBGROUPS[name]])
            else:
                value = self.words(_word(ELEMENTS[name]))
            self._named[name] = value
        return self._named[name]

    def __getitem__(self, name: str) -> UnitaryMatrix:
        if name.startswith("D_"):
            self._displays = self._displays or _displays()
            return self._displays[name]
        if name in FAMILY_NAMES:  # the generators of D(9,1,1;2,1,1)
            if not self._family:
                self._family = dict(zip(FAMILY_NAMES, d_generators(DParams(CParams(9, 1, 1), 2, 1, 1))))
            return self._family[name]
        return {"G1": self.g1m, "G2": self.g2m}.get(name) or self.named(name)


def _displays() -> dict[str, UnitaryMatrix]:
    """The paper's explicit matrices, at order 72.  G1 and G2 are displayed
    through t = (sqrt(2)/2) e^(2 i pi/3) and carry the phase e^(i pi / 9);
    F through a = (-1 + i sqrt(3))/4; T1 and the other elements of H
    through 1/2 and sqrt(2)/2.  V, which conjugates the braid image onto
    D(9,1,1;2,1,1), is not a display of the paper: it is built here from
    sqrt(2)/2 and e^(4 i pi/3), and `from_rows` checks that it is unitary."""
    rt2, rt3, phase = sqrt2(72), sqrt3(72), root_of_unity(72, 4)
    t = rt2 / 2 * root_of_unity(72, 24)
    t_sq = t * t
    tbar_sq = t_sq.conj()
    a = (Cyclo.rational(-1) + root_of_unity(4) * rt3) / 4
    b = rt2 * a
    half, s = Fraction(1, 2), rt2 / 2
    rows = UnitaryMatrix.from_rows
    return {
        "D_G1": UnitaryMatrix.diagonal([2 * tbar_sq, 2 * t_sq, -2 * tbar_sq]).scale(phase),
        "D_G2": rows([[t_sq, t, -t_sq], [t, 0, t], [-t_sq, t, t_sq]]).scale(phase),
        "D_F": rows([[a, b, -a], [b, 0, b], [a, -b, -a]]),
        "D_T3": UnitaryMatrix.diagonal([-1, -1, 1]),
        "D_T1": rows([[-half, -s, -half], [-s, 0, s], [-half, s, -half]]),
        "D_T3T1T3": rows([[-half, -s, half], [-s, 0, -s], [half, -s, -half]]),
        "D_T1T3": rows([[half, s, -half], [s, 0, s], [half, -s, -half]]),
        "D_T3T1": rows([[half, s, half], [s, 0, -s], [-half, s, -half]]),
        "D_V": rows([[s, 0, -s], [0, root_of_unity(3, 2), 0], [s, 0, s]]),
    }


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
# the generators' spectrum, the group closure and N = <A, B>


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


def check_order162(ctx: _Context):
    ctx.group = mg.close([ctx.g1m, ctx.g2m], cap=ctx.cap)
    _require(ctx.group.order == 162, f"group order is {ctx.group.order}")
    return {"order": ctx.group.order}


def check_cyclic_intersect(ctx: _Context):
    g = ctx.need_group()
    cyc_a = mg.subgroup(g, [g.index_of(ctx["A"])])
    cyc_b = mg.subgroup(g, [g.index_of(ctx["B"])])
    meet = mg.intersect(cyc_a, cyc_b)
    _require(meet.order == 1, f"<A> meet <B> has order {meet.order}")
    return {"intersection_order": meet.order}


# REP-BRAID, GRP-G1AG1-G2SQ, GRP-G2SQ-A7B2 and GRP-G2AG2-AB already imply that
# N is normal (for example G2 G1^2 G2^-1 = G1^-1 G2^2 G1 = A), so no corruption
# of the generators fails this check alone; its falsifier alters N instead
def check_n_normal(ctx: _Context):
    _require(mg.is_normal(ctx.need_group(), ctx.named("N")), "N is not normal")
    return {"order_N": ctx.named("N").order}


def check_n_invariants(ctx: _Context):
    n = ctx.named("N")
    invariants = mg.abelian_invariants(n)
    _require(n.order == 27, f"|N| = {n.order}")
    _require(invariants == (9, 3), f"invariants {invariants}")
    return {"order": n.order, "invariants": list(invariants)}


# ---------------------------------------------------------------------------
# the complement H = <T1, T3> and the factorizations through N and H


def check_h_s3(ctx: _Context):
    g, h = ctx.need_group(), ctx.named("H")
    _require(h.order == 6, f"|H| = {h.order}")
    t1t3, t3t1 = (g.index_of(ctx.words(_word(w))) for w in ("T1 T3", "T3 T1"))
    _require(t1t3 != t3t1, "H is abelian")
    order3 = {x for x in h.members if mg.subgroup(g, [x]).order == 3}
    _require(order3 == {t1t3, t3t1}, "order-3 elements are not T1 T3 and T3 T1")
    return {"order": h.order}


def check_h_members(ctx: _Context):
    h = ctx.named("H")
    names = ("T3", "D_T1", "D_T3T1T3", "D_T1T3", "D_T3T1")
    want = {0, *(h.group.index_of(ctx[n]) for n in names)}  # 0 is the identity
    _require(set(h.members) == want, "H element set mismatch")


def check_hn_trivial(ctx: _Context):
    _require(mg.intersect(ctx.named("H"), ctx.named("N")).order == 1, "H meet N nontrivial")


def _factorization(x: str, n: str, h: str):
    """The check that `decompose` splits the element `x` over N and H into
    the words `n` and `h`."""

    def check(ctx: _Context):
        g = ctx.need_group()
        parts = mg.decompose(g, g.index_of(ctx[x]), ctx.named("N"), ctx.named("H"))
        want = tuple(g.index_of(ctx.words(_word(w))) for w in (n, h))
        _require(parts == want, f"{x} != {n} * {h}")

    return check


# ---------------------------------------------------------------------------
# the semidirect structure and the conjugacy to the family group


def check_semidirect(ctx: _Context):
    g = ctx.need_group()
    report = mg.semidirect_verify(g, ctx.named("N"), ctx.named("H"))
    _require(report.all_ok, f"semidirect flags: {report}")
    pairs = {mg.decompose(g, x, ctx.named("N"), ctx.named("H")) for x in range(g.order)}
    _require(len(pairs) == g.order, "factorizations are not distinct")
    return {**report._asdict(), "distinct_factorizations": len(pairs)}


def check_family_order(ctx: _Context):
    """GRP-ISO-D91211's rows give V G V^-1 = D as matrix sets, so D has the
    braid image's order, read from its one closure."""
    _rows_hold(ctx, "GRP-ISO-D91211")
    n = ctx.need_group().order
    _require(n == 162, f"family group order {n}")
    return {"order": n}


def check_conjugacy(ctx: _Context):
    """GRP-ISO-D91211's rows put V G V^-1 inside D and V^-1 D V inside G,
    so V G V^-1 = D as matrix sets; with det(zeta_9 V) = 1 the conjugator
    zeta_9 V lies in SU(3)."""
    v = ctx["D_V"]
    _require(v.scale(root_of_unity(9)).det() == 1, "det(zeta_9 V) != 1")
    ctx.info["braid_image_conjugate_to_family_in_SU3"] = True
    return {
        "V": [[x.to_dict() for x in row] for row in v.rows],
        "words": [f"{lhs} = {rhs}" for lhs, _, rhs, _ in IDENTITIES["GRP-ISO-D91211"]],
    }


# ---------------------------------------------------------------------------
# the word identities, by check id: rows (lhs, holds, rhs, failure message),
# each passing when lhs = rhs is `holds`; "" is the identity, D_* names
# the displays and d1, d2, d3 the family generators.  An element x has
# order exactly n when x^n = I and x^(n/p) != I for each prime p dividing
# n.  Rows run in order and a check fails with its first failing row's
# message.
IDENTITIES = {
    "REP-G1": [("G1", True, "D_G1", "G1 display mismatch")],
    "REP-G2": [("G2", True, "D_G2", "G2 display mismatch")],
    "REP-BRAID": [("G1 G2 G1", True, "G2 G1 G2", "braid relation fails")],
    "REP-SQUARES-COMMUTE": [("G1^2 G2^2", True, "G2^2 G1^2", "squares do not commute")],
    "REP-ORDER18": [
        ("G1^18", True, "", "G1^18 != I"), ("G1^9", False, "", "G1^9 = I"), ("G1^6", False, "", "G1^6 = I"),
        ("G2^18", True, "", "G2^18 != I"), ("G2^9", False, "", "G2^9 = I"), ("G2^6", False, "", "G2^6 = I"),
    ],
    "GRP-F-MATRIX": [("F", True, "D_F", "F word does not match the explicit matrix")],
    "GRP-A-DEF": [("G2 F G2 F", True, "A", "(G2 F)^2 != G1 G2^2 G1^-1")],
    "GRP-AB-ORDERS": [
        ("A^9", True, "", "A^9 != I"), ("A^3", False, "", "A^3 = I"),
        ("B^3", True, "", "B^3 != I"), ("B", False, "", "B = I"),
    ],
    "GRP-AB-COMMUTE": [("A B", True, "B A", "A and B do not commute")],
    "GRP-G1AG1-G2SQ": [("G1 A G1^-1", True, "G2^2", "G1 A G1^-1 != G2^2")],
    "GRP-G2SQ-A7B2": [("G2^2", True, "A^7 B^2", "G2^2 != A^7 B^2")],
    "GRP-G2AG2-AB": [
        ("G2 A G2^-1", True, "G1^2", "G2 A G2^-1 != G1^2"),
        ("G1^2", True, "A B", "G1^2 != A B"),
    ],
    # T1 first: without the closure the check fails on the name T1
    "GRP-T1T2T3": [
        ("T1^2", True, "", "T1^2 != I"), ("T1", False, "", "T1 = I"),
        ("T2^2", True, "", "T2^2 != I"), ("T2", False, "", "T2 = I"),
        ("G2 G1^2 G2 G1^2", True, "", "(G2 G1^2)^2 != I"), ("G2 G1^2", False, "", "G2 G1^2 = I"),
        ("T3", True, "D_T3", "T3 is not diag(-1,-1,1)"),
    ],
    "GRP-H-MATRICES": [
        ("T1", True, "D_T1", "T1 display mismatch"),
        ("T3 T1 T3", True, "D_T3T1T3", "T3 T1 T3 display mismatch"),
        ("T1 T3", True, "D_T1T3", "T1 T3 display mismatch"),
        ("T3 T1", True, "D_T3T1", "T3 T1 display mismatch"),
    ],
    "GRP-ORDER3-NOT-IN-LIST": [
        (t, False, n, "order-3 element found in the list")
        for t in ("T1 T3", "T3 T1")
        for n in ("A^3", "A^6", "A^3 B", "A^6 B", "A^3 B^2", "A^6 B^2", "B", "B^2")
    ],
    "GRP-G2SQG1-FACTOR": [
        ("G2 G1 G2 G2 G1 G2", True, "", "(G2 G1 G2)^2 != I"),
        ("G2 G1 G2 G1 G2 G1", True, "", "(G2 G1)^3 != I"),
        ("G1 G2 G1 G2 G1 G2", True, "", "(G1 G2)^3 != I"),
        ("G2^2 G1 G2^2 G1", True, "", "(G2^2 G1)^2 != I"),
        ("G2^2 G1", True, "A^3 B T3", "G2^2 G1 != A^3 B T3"),
        ("G1^-1 G2^-2 T3", True, "A^3 B", "(G2^2 G1)^-1 T3 != A^3 B"),
        # these two give A^3 B order exactly 3, since 3 is prime
        ("A^3 B A^3 B A^3 B", True, "", "(A^3 B)^3 != I"),
        ("A^3 B", False, "", "A^3 B = I"),
    ],
    "GRP-G1SQG2-FACTOR": [
        ("G1^2 G2", True, "B^2 T3 T1 T3", "G1^2 G2 != B^2 T3 T1 T3"),
        ("G2^-1 G1^-2 T3 T1 T3", True, "B^2", "(G1^2 G2)^-1 T3 T1 T3 != B^2"),
    ],
    "GRP-PRESENTATION": [
        ("A^9", True, "", "A^9 != I"),
        ("B^3", True, "", "B^3 != I"),
        ("T1^2", True, "", "T1^2 != I"),
        ("T3^2", True, "", "T3^2 != I"),
        ("T1 T3 T1 T3 T1 T3", True, "", "(T1 T3)^3 != I"),
        ("T3 T1 T3 T1 T3 T1", True, "", "(T3 T1)^3 != I"),
        ("T1 A T1^-1", True, "A", "T1 A T1^-1 != A"),
        ("T3 A T3^-1", True, "A^7 B^2", "T3 A T3^-1 != A^7 B^2"),
        ("T1 B T1^-1", True, "A^6 B^2", "T1 B T1^-1 != A^6 B^2"),
        ("T3 B T3^-1", True, "A^3 B^2", "T3 B T3^-1 != A^3 B^2"),
    ],
    # V G V^-1 inside D, then V^-1 D V inside G
    "GRP-ISO-D91211": [
        ("D_V G1 D_V^-1", True, "d1 d2^-1 d3", "D_V G1 D_V^-1 != d1 d2^-1 d3"),
        ("D_V G2 D_V^-1", True, "d3 d2^2", "D_V G2 D_V^-1 != d3 d2^2"),
        ("D_V^-1 d1 D_V", True, "G1^-1 G2^-5", "D_V^-1 d1 D_V != G1^-1 G2^-5"),
        ("D_V^-1 d2 D_V", True, "G2^-2 G1^4", "D_V^-1 d2 D_V != G2^-2 G1^4"),
        ("D_V^-1 d3 D_V", True, "G2^-1 G1^-2", "D_V^-1 d3 D_V != G2^-1 G1^-2"),
    ],
}


def _rows_hold(ctx: _Context, check_id: str) -> None:
    """The rows of `check_id` in IDENTITIES, in order; a false one raises."""
    for lhs, holds, rhs, message in IDENTITIES.get(check_id, ()):
        _require(ctx.words.equal(_word(lhs), _word(rhs)) == holds, message)


def _run_check(ctx: _Context, check_id: str, fn) -> Optional[dict]:
    """One check: its rows, then `fn`, whose value is the witness."""
    _rows_hold(ctx, check_id)
    return fn(ctx)


def _rows_only(ctx: _Context):
    """The `fn` of a check that its rows state in full: no witness."""
    return None


# a constant witness states only what the check's rows have just proved
CHECKS = (
    ("TL-DELTAS", "loop values: delta_0 = delta_4 = 1, delta_2 = 2, delta_1 = sqrt(3), delta_5 = 0", check_deltas),
    ("TL-RVALUES", "conjugated twist eigenvalues on a fused charge-2 pair", check_rvalues),
    ("TL-TET-TABLE", "all six tetrahedral net values, including signs", check_tet_table),
    ("TL-THETA-ID", "theta(2,2,i) equals the tet with one edge labeled 0", check_theta_id),
    ("REP-G1", "phase-normalized odd braid generator equals its explicit display", lambda ctx: {"det": _approx(ctx["G1"].det())}),
    ("REP-G2", "phase-normalized middle braid generator equals its explicit display", lambda ctx: {"det": _approx(ctx["G2"].det())}),
    ("REP-BRAID", "braid relation G1 G2 G1 = G2 G1 G2", _rows_only),
    ("REP-SQUARES-COMMUTE", "the generator squares commute", _rows_only),
    ("REP-ORDER18", "both generators have exact order 18", lambda ctx: {"order_G1": 18, "order_G2": 18}),
    ("REP-CHARPOLY", "equal characteristic polynomials; spectrum as displayed", check_charpoly),
    ("GRP-ORDER-162", "the two generators span a group of order 162", check_order162),
    ("GRP-F-MATRIX", "the word g1 g2 g1^-2 equals the explicit matrix F", lambda ctx: {"entry_00": _approx(ctx["F"].rows[0][0])}),
    ("GRP-A-DEF", "(G2 F)^2 equals A = g1 g2^2 g1^-1", _rows_only),
    ("GRP-AB-ORDERS", "A has order 9 and B has order 3", lambda ctx: {"order_A": 9, "order_B": 3}),
    ("GRP-AB-COMMUTE", "A and B commute", _rows_only),
    ("GRP-CYCLIC-INTERSECT", "<A> and <B> intersect trivially", check_cyclic_intersect),
    ("GRP-N-NORMAL", "the subgroup <A, B> is normal in the whole group", check_n_normal),
    ("GRP-N-INVARIANTS", "<A, B> is abelian of order 27 with invariants (9, 3)", check_n_invariants),
    ("GRP-G1AG1-G2SQ", "G1 A G1^-1 equals G2^2", _rows_only),
    ("GRP-G2SQ-A7B2", "G2^2 equals A^7 B^2", _rows_only),
    ("GRP-G2AG2-AB", "G2 A G2^-1 equals G1^2 equals A B", _rows_only),
    ("GRP-T1T2T3", "T1, T2, G2 G1^2 have order 2 and T3 = diag(-1,-1,1)", lambda ctx: {"orders": [2, 2, 2]}),
    ("GRP-H-S3", "<T1, T3> is a non-abelian order-6 group with order-3 elements T1 T3, T3 T1", check_h_s3),
    ("GRP-H-MATRICES", "the six elements of H match their explicit matrices", check_h_members),
    ("GRP-HN-TRIVIAL", "H and N intersect trivially", check_hn_trivial),
    ("GRP-ORDER3-NOT-IN-LIST", "T1 T3 and T3 T1 differ from all eight listed elements of N", _rows_only),
    ("GRP-G2SQG1-FACTOR", "G2^2 G1 is an involution factoring as A^3 B * T3", _rows_only),
    ("GRP-G1SQG2-FACTOR", "G1^2 G2 factors as B^2 * T3 T1 T3", _rows_only),
    ("GRP-PSI-G1", "G1 decomposes as (A^5 B^2, T3)", _factorization("G1", "A^5 B^2", "T3")),
    ("GRP-PSI-G2", "G2 decomposes as (A^-1 B, T3 T1 T3)", _factorization("G2", "A^-1 B", "T3 T1 T3")),
    ("GRP-SEMIDIRECT", "all four semidirect-product certificates hold and the 162 factorizations are distinct", check_semidirect),
    ("GRP-PRESENTATION", "all ten relations of the closing presentation hold exactly", lambda ctx: {"relations_checked": len(IDENTITIES["GRP-PRESENTATION"])}),
    ("GRP-D-FAMILY-ORDER", "the three family generators of D(9,1,1;2,1,1) span a group of order 162", check_family_order),
    ("GRP-ISO-D91211", "the braid image is conjugate in SU(3) to D(9,1,1;2,1,1) by an exact unitary matrix", check_conjugacy),
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
    report = VerificationReport([], ctx.info)
    for check_id, description, fn in CHECKS:
        try:
            witness = _run_check(ctx, check_id, fn)
            report.checks.append(Check(check_id, description, True, witness))
        except Exception as exc:  # noqa: BLE001 - failures are report entries
            error = {"error": f"{type(exc).__name__}: {exc}"}
            report.checks.append(Check(check_id, description, False, error))
    return report
