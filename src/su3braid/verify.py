"""The fixed verification checklist behind `su3braid verify`.

`CHECKS` is an ordered table of `(id, description, witness)` entries
covering every claim about the braid-generated SU(3) subgroup of order
162: the recoupling constants behind the generators, the generator
matrices themselves, the normal abelian subgroup and symmetric-group
complement, the semidirect factorization, the closing presentation, and
its conjugacy in SU(3), by one exact unitary matrix, to the family group
D(9,1,1;2,1,1).  One runner serves every check: it evaluates the check's
rows in `IDENTITIES` (possibly none), then reads its witness, a dict or
None, calling it with the shared `_Context` when it is a function.  A
failing row or function raises; failures become report entries, never
exceptions, so a corrupted input produces a clean red report.

Every claim a word can state is a row `(lhs, holds, rhs)` of
`IDENTITIES`, which fails with its own text, "lhs != rhs" or "lhs = rhs":
the braid relation, the conjugation identities, the N*H factorizations,
the ten relations, the element orders (`_order`), the comparisons with
the paper's explicit displays, which are the named matrices `D_G1` ...
`D_T3T1` (`_displays`), and the conjugation by the matrix `D_V` between
G1, G2 and the family generators d1, d2, d3.  The named elements
(`ELEMENTS`) are data too.  Words are short text such as "G2^2 G1^-1",
and one `matgroup.WordEvaluator` evaluates every word of a run, so a
prefix or factor that rows share is multiplied once.

A check whose conclusion rests on other checks' rows names them in
`PREMISES`, and the runner checks those rows as well.  So the generators'
equal characteristic polynomials follow from the braid relation, which
makes them similar, and their spectrum from G1's diagonal display; and
the structure of the group (N = <A, B> normal of order 27, H = <T1, T3>
a copy of S3 meeting it trivially, G = NH) is proved from rows too.  A
run closes one group, the braid image, on first use and under `cap`, and
reads only its order: GRP-ORDER-162 compares it with 162, GRP-SEMIDIRECT
with |N| |H|, and GRP-D-FAMILY-ORDER reads the order of D(9,1,1;2,1,1)
through the conjugacy rows instead of closing that group.  No other check
needs the closure.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from functools import cached_property
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


# the named elements, as words in G1, G2 and the names before them
ELEMENTS = {
    "F": "G1 G2 G1^-2",
    "A": "G1 G2^2 G1^-1",
    "B": "G1 G2^-2 G1",
    "T1": "G1 G2 G1",
    "T2": "G2 G1^9 G2^-1",
    "T3": "T2 G2 G1^2 T2",
}
# the names of the family generators of D(9,1,1;2,1,1) in words
FAMILY_NAMES = ("d1", "d2", "d3")


class _Context:
    """State the checks share.  `ctx[name]` is the name -> matrix lookup
    that words are evaluated with: G1 and G2 are the generators as passed,
    the named elements their `ELEMENTS` words, d1, d2 and d3 the family
    generators, from one `d_generators` call and never closed, and the
    displays `D_*`.  `group` is the run's one closure, the braid image
    under the bound `cap`.  All but G1 and G2 are built on first use and
    kept, so that a failure lands in the check that asked for them; a
    closure that raised is not kept, so each check that reads `group`
    closes it again and fails with the closure's own error.  `words`
    evaluates every word of the run, keeping each prefix it multiplies.
    `info` collects the report's informational entries."""

    def __init__(self, generators: tuple[UnitaryMatrix, UnitaryMatrix], cap: int):
        self.g1m, self.g2m = generators
        self.cap = cap
        self.t = theory(6)
        self.rt3 = sqrt3(self.t.order)
        self.info: dict = {}
        self.words = mg.WordEvaluator(self)

    @cached_property
    def group(self) -> mg.FiniteMatrixGroup:
        return mg.close([self.g1m, self.g2m], cap=self.cap)

    @cached_property
    def displays(self) -> dict[str, UnitaryMatrix]:
        return _displays()

    @cached_property
    def family(self) -> dict[str, UnitaryMatrix]:
        """The generators of D(9,1,1;2,1,1)."""
        return dict(zip(FAMILY_NAMES, d_generators(DParams(CParams(9, 1, 1), 2, 1, 1))))

    def __getitem__(self, name: str) -> UnitaryMatrix:
        if name.startswith("D_"):
            return self.displays[name]
        if name in FAMILY_NAMES:
            return self.family[name]
        if name in ELEMENTS:  # the evaluator keeps the word's product
            return self.words(_word(ELEMENTS[name]))
        return {"G1": self.g1m, "G2": self.g2m}[name]


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
    witness = {}
    for n, want in expected.items():
        value = delta_n(t, n)
        _require(value == want, f"delta_{n} mismatch")
        witness[f"delta_{n}"] = _approx(value)
    return witness


def check_rvalues(ctx: _Context):
    t = ctx.t
    anchors = {
        0: root_of_unity(72, 24),       # e^(2 i pi / 3)
        2: -root_of_unity(72, 12),      # -e^(i pi / 3)
        4: root_of_unity(72, 60),       # e^(-i pi / 3)
    }
    witness = {}
    for a, want in anchors.items():
        value = r_value(t, a, 2, 2).conj()
        _require(value == want, f"conjugated R-value at label {a} mismatch")
        witness[f"conj_R_{a}^22"] = _approx(value)
    return witness


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
    witness = {}
    for (i, j), want in table.items():
        value = tet(t, 2, 2, j, 2, 2, i)
        _require(value == want, f"tet (i,j)=({i},{j}) mismatch")
        if i != j:  # on the diagonal the mirrored tet is `value` itself
            _require(tet(t, 2, 2, i, 2, 2, j) == want, f"tet symmetry at ({i},{j})")
        witness[f"tet_{i}{j}"] = _approx(value)
    return witness


def check_theta_id(ctx: _Context):
    t = ctx.t
    witness = {}
    for i in (0, 2, 4):
        value = theta(t, 2, 2, i)
        _require(value == tet(t, 2, 2, i, 2, 2, 0), f"theta identity at {i}")
        witness[f"theta_22{i}"] = _approx(value)
    return witness


# ---------------------------------------------------------------------------
# the generators' spectrum and the group closure


def check_spectrum(ctx: _Context):
    """G1's diagonal against the paper's spectrum; `PREMISES` says why that
    diagonal is the spectrum of both generators."""
    spectrum = (
        root_of_unity(18, 7),        # e^(7 i pi / 9)
        -root_of_unity(18, 4),       # -e^(4 i pi / 9)
        root_of_unity(18, 16),       # e^(-2 i pi / 9)
    )
    diag = tuple(ctx.g1m.rows[i][i] for i in range(3))
    _require(
        all(d == s for d, s in zip(diag, spectrum)),
        "diagonal of G1 is not the expected spectrum",
    )
    return {"spectrum": [_approx(s) for s in spectrum]}


def check_order162(ctx: _Context):
    n = ctx.group.order
    _require(n == 162, f"group order is {n}")
    return {"order": n}


# ---------------------------------------------------------------------------
# the semidirect structure and the conjugacy to the family group


def check_semidirect(ctx: _Context):
    """The premises make N normal, N meet H trivial and G = NH, so each
    element factors uniquely as n h and |G| = |N| |H| = 27 * 6; that count
    is compared with the closure's."""
    n = ctx.group.order
    _require(n == 27 * 6, f"|N| |H| = 162 but the closure has order {n}")
    return {
        "normal": True, "trivial_intersection": True, "order_product": True,
        "product_bijective": True, "distinct_factorizations": n,
    }


def check_family_order(ctx: _Context):
    """GRP-ISO-D91211's rows, its premise, give V G V^-1 = D as matrix sets,
    so D has the braid image's order, read from its one closure."""
    n = ctx.group.order
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
        "words": [f"{lhs} = {rhs}" for lhs, _, rhs in IDENTITIES["GRP-ISO-D91211"]],
    }


# ---------------------------------------------------------------------------
def _order(x: str, n: int) -> list[tuple[str, bool, str]]:
    """The rows that give x order exactly n: x^n = I, then x^(n/p) != I for
    each prime p dividing n, in increasing p.  A power of a name is written
    "x^k", and a power of a product is k copies of it."""
    def power(k: int) -> str:
        if " " in x:
            return " ".join([x] * k)
        return x if k == 1 else f"{x}^{k}"

    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    return [(power(n), True, ""), *((power(n // p), False, "") for p in primes)]


# the word identities, by check id: rows (lhs, holds, rhs), each passing
# when lhs = rhs is `holds`; "" is the identity, D_* names the displays and
# d1, d2, d3 the family generators.  Rows run in order, and a check fails
# with its first false row, written "lhs != rhs" or "lhs = rhs".
IDENTITIES = {
    "REP-G1": [("G1", True, "D_G1")],
    "REP-G2": [("G2", True, "D_G2")],
    "REP-BRAID": [("G1 G2 G1", True, "G2 G1 G2")],
    "REP-SQUARES-COMMUTE": [("G1^2 G2^2", True, "G2^2 G1^2")],
    "REP-ORDER18": [*_order("G1", 18), *_order("G2", 18)],
    "GRP-F-MATRIX": [("F", True, "D_F")],
    "GRP-A-DEF": [("G2 F G2 F", True, "A")],
    "GRP-AB-ORDERS": [*_order("A", 9), *_order("B", 3)],
    "GRP-AB-COMMUTE": [("A B", True, "B A")],
    # <A>'s one subgroup of order 3 is {I, A^3, A^6}
    "GRP-CYCLIC-INTERSECT": [("B", False, "A^3"), ("B", False, "A^6")],
    "GRP-N-NORMAL": [("G1 B G1^-1", True, "A^3 B^2"), ("G2 B G2^-1", True, "B^2")],
    "GRP-G1AG1-G2SQ": [("G1 A G1^-1", True, "G2^2")],
    "GRP-G2SQ-A7B2": [("G2^2", True, "A^7 B^2")],
    "GRP-G2AG2-AB": [("G2 A G2^-1", True, "G1^2"), ("G1^2", True, "A B")],
    "GRP-T1T2T3": [*_order("T1", 2), *_order("T2", 2), *_order("G2 G1^2", 2), ("T3", True, "D_T3")],
    "GRP-H-S3": [("T1 T3", False, "T3 T1")],
    "GRP-H-MATRICES": [
        ("T1", True, "D_T1"),
        ("T3 T1 T3", True, "D_T3T1T3"),
        ("T1 T3", True, "D_T1T3"),
        ("T3 T1", True, "D_T3T1"),
    ],
    "GRP-ORDER3-NOT-IN-LIST": [
        (t, False, n)
        for t in ("T1 T3", "T3 T1")
        for n in ("A^3", "A^6", "A^3 B", "A^6 B", "A^3 B^2", "A^6 B^2", "B", "B^2")
    ],
    "GRP-G2SQG1-FACTOR": [
        ("G2 G1 G2 G2 G1 G2", True, ""),
        ("G2 G1 G2 G1 G2 G1", True, ""),
        ("G1 G2 G1 G2 G1 G2", True, ""),
        ("G2^2 G1 G2^2 G1", True, ""),
        ("G2^2 G1", True, "A^3 B T3"),
        ("G1^-1 G2^-2 T3", True, "A^3 B"),
        *_order("A^3 B", 3),
    ],
    "GRP-G1SQG2-FACTOR": [
        ("G1^2 G2", True, "B^2 T3 T1 T3"),
        ("G2^-1 G1^-2 T3 T1 T3", True, "B^2"),
    ],
    "GRP-PSI-G1": [("G1", True, "A^5 B^2 T3")],
    "GRP-PSI-G2": [("G2", True, "A^-1 B T3 T1 T3")],
    "GRP-PRESENTATION": [
        ("A^9", True, ""),
        ("B^3", True, ""),
        ("T1^2", True, ""),
        ("T3^2", True, ""),
        ("T1 T3 T1 T3 T1 T3", True, ""),
        ("T3 T1 T3 T1 T3 T1", True, ""),
        ("T1 A T1^-1", True, "A"),
        ("T3 A T3^-1", True, "A^7 B^2"),
        ("T1 B T1^-1", True, "A^6 B^2"),
        ("T3 B T3^-1", True, "A^3 B^2"),
    ],
    # V G V^-1 inside D, then V^-1 D V inside G
    "GRP-ISO-D91211": [
        ("D_V G1 D_V^-1", True, "d1 d2^-1 d3"),
        ("D_V G2 D_V^-1", True, "d3 d2^2"),
        ("D_V^-1 d1 D_V", True, "G1^-1 G2^-5"),
        ("D_V^-1 d2 D_V", True, "G2^-2 G1^4"),
        ("D_V^-1 d3 D_V", True, "G2^-1 G1^-2"),
    ],
}


# The checks whose conclusion rests on other checks' rows, by check id: the
# ids whose rows prove it besides its own (Rotman, *An Introduction to the
# Theory of Groups*, Ch. 2 and 7).  REP-CHARPOLY reads the generators'
# spectrum from the braid relation and G1's display.  With N = <A, B>,
# H = <T1, T3> and G = <G1, G2>, the structure chain runs:
#  - |N| = 27, N = <A> x <B> ~ Z9 x Z3: A has order 9, B order 3 and AB = BA;
#    <B> has prime order, so it meets <A> trivially unless it is <A>'s one
#    subgroup of order 3, that is unless B is A^3 or A^6.
#  - N is normal: G1 and G2 conjugate A and B into N, and conjugation is an
#    automorphism, so g N g^-1 = N for both generators, hence for all of G.
#  - H ~ S3, |H| = 6: T1^2 = T3^2 = (T1 T3)^3 = I make H a quotient of S3,
#    and T1 T3 != T3 T1 rules out its abelian quotients.  So H is
#    {I, T1, T3, T3 T1 T3, T1 T3, T3 T1}, its elements of order 3 are T1 T3
#    and T3 T1, and the display rows and T3 = D_T3 pin all six.
#  - N meet H = 1: |N| is odd, so N holds no involution, and N's eight
#    elements of order 3, the A^3i B^j other than I, are the list that
#    neither T1 T3 nor T3 T1 is in.
#  - G = NH, |G| = 162: G1 = A^5 B^2 T3 and G2 = A^-1 B T3 T1 T3 put both
#    generators in NH, a subgroup since N is normal, so G = NH; as N meet
#    H = 1 each element factors uniquely as n h, and |G| = 27 * 6 = 162,
#    which GRP-SEMIDIRECT compares with the closure's count.
# A check fails with the first failing row among its own and its premises'.
PREMISES = {
    # braid relation: G2 = (G1 G2) G1 (G1 G2)^-1, so G1 and G2 share a characteristic polynomial
    # REP-G1: G1 is its diagonal display, so its spectrum is its diagonal
    "REP-CHARPOLY": ("REP-BRAID", "REP-G1"),
    "GRP-CYCLIC-INTERSECT": ("GRP-AB-ORDERS",),
    "GRP-N-INVARIANTS": ("GRP-AB-ORDERS", "GRP-AB-COMMUTE", "GRP-CYCLIC-INTERSECT"),
    "GRP-N-NORMAL": ("GRP-G1AG1-G2SQ", "GRP-G2SQ-A7B2", "GRP-G2AG2-AB", "GRP-N-INVARIANTS"),
    "GRP-H-S3": ("GRP-PRESENTATION",),
    "GRP-H-MATRICES": ("GRP-H-S3", "GRP-T1T2T3"),
    "GRP-HN-TRIVIAL": ("GRP-ORDER3-NOT-IN-LIST", "GRP-N-INVARIANTS", "GRP-H-S3"),
    "GRP-PSI-G1": ("GRP-HN-TRIVIAL",),
    "GRP-PSI-G2": ("GRP-HN-TRIVIAL",),
    "GRP-SEMIDIRECT": ("GRP-N-NORMAL", "GRP-HN-TRIVIAL", "GRP-PSI-G1", "GRP-PSI-G2"),
    # V G V^-1 = D as matrix sets, so |D| = |G|
    "GRP-D-FAMILY-ORDER": ("GRP-ISO-D91211",),
}


def _rows_hold(ctx: _Context, check_id: str, seen: Optional[set] = None) -> None:
    """The rows of `check_id` in IDENTITIES, in order, then those of its
    PREMISES, depth first, each check's rows once; a false row raises with
    its own text.  Rows already evaluated cost no product: the evaluator
    keeps them."""
    seen = set() if seen is None else seen
    seen.add(check_id)
    for lhs, holds, rhs in IDENTITIES.get(check_id, ()):
        if ctx.words.equal(_word(lhs), _word(rhs)) != holds:
            raise AssertionError(f"{lhs} {'!=' if holds else '='} {rhs or 'I'}")
    for premise in PREMISES.get(check_id, ()):
        if premise not in seen:
            _rows_hold(ctx, premise, seen)


def _run_check(ctx: _Context, check_id: str, witness) -> Optional[dict]:
    """One check: its rows and its premises' rows, then its witness, called
    with `ctx` when it is a function."""
    _rows_hold(ctx, check_id)
    return witness(ctx) if callable(witness) else copy.deepcopy(witness)


# a witness that is a value, not a function, states only what the rows of
# the check and of its premises have just proved; None when they say it all
CHECKS = (
    ("TL-DELTAS", "loop values: delta_0 = delta_4 = 1, delta_2 = 2, delta_1 = sqrt(3), delta_5 = 0", check_deltas),
    ("TL-RVALUES", "conjugated twist eigenvalues on a fused charge-2 pair", check_rvalues),
    ("TL-TET-TABLE", "all six tetrahedral net values, including signs", check_tet_table),
    ("TL-THETA-ID", "theta(2,2,i) equals the tet with one edge labeled 0", check_theta_id),
    ("REP-G1", "phase-normalized odd braid generator equals its explicit display", lambda ctx: {"det": _approx(ctx["G1"].det())}),
    ("REP-G2", "phase-normalized middle braid generator equals its explicit display", lambda ctx: {"det": _approx(ctx["G2"].det())}),
    ("REP-BRAID", "braid relation G1 G2 G1 = G2 G1 G2", None),
    ("REP-SQUARES-COMMUTE", "the generator squares commute", None),
    ("REP-ORDER18", "both generators have exact order 18", {"order_G1": 18, "order_G2": 18}),
    ("REP-CHARPOLY", "equal characteristic polynomials; spectrum as displayed", check_spectrum),
    ("GRP-ORDER-162", "the two generators span a group of order 162", check_order162),
    ("GRP-F-MATRIX", "the word g1 g2 g1^-2 equals the explicit matrix F", lambda ctx: {"entry_00": _approx(ctx["F"].rows[0][0])}),
    ("GRP-A-DEF", "(G2 F)^2 equals A = g1 g2^2 g1^-1", None),
    ("GRP-AB-ORDERS", "A has order 9 and B has order 3", {"order_A": 9, "order_B": 3}),
    ("GRP-AB-COMMUTE", "A and B commute", None),
    ("GRP-CYCLIC-INTERSECT", "<A> and <B> intersect trivially", {"intersection_order": 1}),
    ("GRP-N-NORMAL", "the subgroup <A, B> is normal in the whole group", {"order_N": 27}),
    ("GRP-N-INVARIANTS", "<A, B> is abelian of order 27 with invariants (9, 3)", {"order": 27, "invariants": [9, 3]}),
    ("GRP-G1AG1-G2SQ", "G1 A G1^-1 equals G2^2", None),
    ("GRP-G2SQ-A7B2", "G2^2 equals A^7 B^2", None),
    ("GRP-G2AG2-AB", "G2 A G2^-1 equals G1^2 equals A B", None),
    ("GRP-T1T2T3", "T1, T2, G2 G1^2 have order 2 and T3 = diag(-1,-1,1)", {"orders": [2, 2, 2]}),
    ("GRP-H-S3", "<T1, T3> is a non-abelian order-6 group with order-3 elements T1 T3, T3 T1", {"order": 6}),
    ("GRP-H-MATRICES", "the six elements of H match their explicit matrices", None),
    ("GRP-HN-TRIVIAL", "H and N intersect trivially", None),
    ("GRP-ORDER3-NOT-IN-LIST", "T1 T3 and T3 T1 differ from all eight listed elements of N", None),
    ("GRP-G2SQG1-FACTOR", "G2^2 G1 is an involution factoring as A^3 B * T3", None),
    ("GRP-G1SQG2-FACTOR", "G1^2 G2 factors as B^2 * T3 T1 T3", None),
    ("GRP-PSI-G1", "G1 decomposes as (A^5 B^2, T3)", None),
    ("GRP-PSI-G2", "G2 decomposes as (A^-1 B, T3 T1 T3)", None),
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
    for check_id, description, witness in CHECKS:
        try:
            check = Check(check_id, description, True, _run_check(ctx, check_id, witness))
        except Exception as exc:  # noqa: BLE001 - failures are report entries
            check = Check(check_id, description, False, {"error": f"{type(exc).__name__}: {exc}"})
        report.checks.append(check)
    return report
