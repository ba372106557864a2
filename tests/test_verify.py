"""The verify checklist's data: every check id can fail, every false row
fails exactly the checks that rest on it, the report's bytes are pinned,
the structure the rows prove is read off the closed group by the table
oracles, the order 162 is confirmed by two oracles that share no code
with `close`, `Cyclo` arithmetic or `key_bytes`, and the conjugacy rows
of GRP-ISO-D91211 are re-checked in sympy polynomials."""

import hashlib
import json
from collections import Counter

import pytest
import sympy
from group_oracles import (
    abelian_invariants, cayley_table, decompose, index_of, intersect, is_normal,
    semidirect_verify, subgroup,
)
from matrix_oracles import charpoly
from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
from sympy.combinatorics.free_groups import free_group

from su3braid import cli, verify
from su3braid import matgroup as mg
from su3braid.braidrep import paper_generators
from su3braid.cyclo import Cyclo, root_of_unity
from su3braid.matrix import UnitaryMatrix
from su3braid.su3families import CParams, DParams, d_generators

# sha256 of `su3braid verify` stdout: check lines and the info line only, no
# floats, so it holds on every platform
VERIFY_STDOUT_SHA256 = "b65c0b7305403194c922df5458c36fbf719cf1655ee3346c5e0e13bf607c7006"
# sha256 of the report with its witness floats rounded (the --json witnesses
# carry libm floats, whose last digits may differ between platforms)
REPORT_WITNESS_SHA256 = "90a205860188cdcb59bd569d6802917601cc291f1409faa20d706768c897de36"


@pytest.fixture(scope="module")
def closed_context(paper_matrices, paper_group):
    ctx = verify._Context(paper_matrices, cap=2000)
    ctx.group = paper_group
    return ctx


def _perturbed(rows, i):
    """Row i made false: an equality gains a right factor G1 (G1 != I), an
    inequality gets its left side on the right."""
    lhs, holds, rhs = rows[i]
    row = (lhs, holds, f"{rhs} G1".strip() if holds else lhs)
    return rows[:i] + [row] + rows[i + 1:]


def test_every_identity_row_can_fail(closed_context, monkeypatch):
    """Each row, made false, fails its check with that row's own text; no
    perturbed row has an empty side, so the text is "lhs != rhs" or
    "lhs = rhs" as written."""
    witnesses = {check_id: witness for check_id, _, witness in verify.CHECKS}
    for check_id, rows in verify.IDENTITIES.items():
        verify._run_check(closed_context, check_id, witnesses[check_id])
        for i in range(len(rows)):
            perturbed = _perturbed(rows, i)
            lhs, holds, rhs = perturbed[i]
            monkeypatch.setitem(verify.IDENTITIES, check_id, perturbed)
            with pytest.raises(AssertionError) as failure:
                verify._run_check(closed_context, check_id, witnesses[check_id])
            assert str(failure.value) == f"{lhs} {'!=' if holds else '='} {rhs}", (check_id, i)
        monkeypatch.setitem(verify.IDENTITIES, check_id, rows)
        verify._run_check(closed_context, check_id, witnesses[check_id])


@pytest.mark.parametrize("row, text", [
    (("G1^9", True, ""), "G1^9 != I"),
    (("G1^18", False, ""), "G1^18 = I"),
    (("G1", True, "D_G2"), "G1 != D_G2"),
    (("G1 G2 G1", False, "G2 G1 G2"), "G1 G2 G1 = G2 G1 G2"),
])
def test_a_false_row_fails_with_its_own_text(closed_context, monkeypatch, row, text):
    monkeypatch.setitem(verify.IDENTITIES, "REP-BRAID", [row])
    with pytest.raises(AssertionError) as failure:
        verify._rows_hold(closed_context, "REP-BRAID")
    assert str(failure.value) == text


# sha256 of `json.dumps(verify.IDENTITIES)`: every row's text, row for row,
# the exact orders included as `_order` writes them
IDENTITIES_SHA256 = "ded9a11398f495bae15b3d0b426dc1d388eabd957a6923fd83bcd0a1883671d9"


def test_identity_rows_digest():
    text = json.dumps(verify.IDENTITIES)
    assert hashlib.sha256(text.encode()).hexdigest() == IDENTITIES_SHA256
    assert sum(map(len, verify.IDENTITIES.values())) == 80


# The proof graph, written out apart from `PREMISES`: for each check with
# rows, the other checks that a false row of it fails, those whose
# conclusion rests on it (the chain in `verify.PREMISES`'s comment).
ALSO_FAILS = {
    "REP-G1": {"REP-CHARPOLY"},
    "REP-G2": set(),
    "REP-BRAID": {"REP-CHARPOLY"},
    "REP-SQUARES-COMMUTE": set(),
    "REP-ORDER18": set(),
    "GRP-F-MATRIX": set(),
    "GRP-A-DEF": set(),
    "GRP-AB-ORDERS": {"GRP-CYCLIC-INTERSECT", "GRP-N-INVARIANTS", "GRP-N-NORMAL", "GRP-HN-TRIVIAL",
                      "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"},
    "GRP-AB-COMMUTE": {"GRP-N-INVARIANTS", "GRP-N-NORMAL", "GRP-HN-TRIVIAL",
                       "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"},
    "GRP-CYCLIC-INTERSECT": {"GRP-N-INVARIANTS", "GRP-N-NORMAL", "GRP-HN-TRIVIAL",
                             "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"},
    "GRP-N-NORMAL": {"GRP-SEMIDIRECT"},
    "GRP-G1AG1-G2SQ": {"GRP-N-NORMAL", "GRP-SEMIDIRECT"},
    "GRP-G2SQ-A7B2": {"GRP-N-NORMAL", "GRP-SEMIDIRECT"},
    "GRP-G2AG2-AB": {"GRP-N-NORMAL", "GRP-SEMIDIRECT"},
    "GRP-T1T2T3": {"GRP-H-MATRICES"},
    "GRP-H-S3": {"GRP-H-MATRICES", "GRP-HN-TRIVIAL", "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"},
    "GRP-H-MATRICES": set(),
    "GRP-ORDER3-NOT-IN-LIST": {"GRP-HN-TRIVIAL", "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"},
    "GRP-G2SQG1-FACTOR": set(),
    "GRP-G1SQG2-FACTOR": set(),
    "GRP-PSI-G1": {"GRP-SEMIDIRECT"},
    "GRP-PSI-G2": {"GRP-SEMIDIRECT"},
    "GRP-PRESENTATION": {"GRP-H-S3", "GRP-H-MATRICES", "GRP-HN-TRIVIAL",
                         "GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"},
    "GRP-ISO-D91211": {"GRP-D-FAMILY-ORDER"},
}


def test_every_false_row_fails_exactly_its_dependents(closed_context, monkeypatch):
    """Each of the 80 rows made false in turn, and the whole checklist run
    on the closed context: the failing checks are the row's own and those
    `ALSO_FAILS` lists, so every `PREMISES` edge that no other path covers
    is pinned."""
    assert set(ALSO_FAILS) == set(verify.IDENTITIES)
    monkeypatch.setattr(verify, "_Context", lambda generators, cap: closed_context)
    generators = (closed_context.g1m, closed_context.g2m)
    assert verify.run_theorem1_verification(generators).overall
    for check_id, rows in verify.IDENTITIES.items():
        for i in range(len(rows)):
            monkeypatch.setitem(verify.IDENTITIES, check_id, _perturbed(rows, i))
            report = verify.run_theorem1_verification(generators)
            failed = {c.id for c in report.checks if not c.passed}
            assert failed == {check_id} | ALSO_FAILS[check_id], (check_id, i)
        monkeypatch.setitem(verify.IDENTITIES, check_id, rows)


def test_premises_are_checks_and_acyclic():
    assert set(verify.PREMISES) <= set(verify.CHECK_IDS)
    assert {p for premises in verify.PREMISES.values() for p in premises} <= set(verify.CHECK_IDS)
    done, active = set(), set()

    def visit(check_id):
        assert check_id not in active, f"a cycle through {check_id}"
        if check_id not in done:
            active.add(check_id)
            for premise in verify.PREMISES.get(check_id, ()):
                visit(premise)
            active.remove(check_id)
            done.add(check_id)

    for check_id in verify.CHECK_IDS:
        visit(check_id)


def _with_g2_conjugated_by_v():
    """G1, and G2 conjugated by D_V: the characteristic polynomials stay
    equal, as the oracle confirms, but the pair breaks the braid relation."""
    g1, g2 = paper_generators()
    v = verify._displays()["D_V"]
    g2 = v * g2 * v.conj_transpose()
    assert charpoly(g2) == charpoly(g1)
    return g1, g2


# the checks that no identity row of their own fails, and one falsifier for
# each check that proves a conclusion from rows (two for REP-CHARPOLY, one
# for each premise): each entry patches one name in `verify` for a whole
# run and expects that check's failure text.  The generators
# reach a run through `paper_generators`; the structural checks are failed
# through the named elements, each patch breaking a row of the check or of
# its premises
B_SQUARED = "G1 G2^-2 G1 G1 G2^-2 G1"  # B^2: N is unchanged, the word for B is not
FALSIFIERS = [
    ("TL-DELTAS", "delta_n", lambda t, n: Cyclo.one(), "delta_1 mismatch"),
    ("TL-RVALUES", "r_value", lambda t, a, b, c: Cyclo.one(),
     "conjugated R-value at label 0 mismatch"),
    ("TL-TET-TABLE", "tet", lambda t, *labels: Cyclo.zero(), "tet (i,j)=(0,0) mismatch"),
    ("TL-THETA-ID", "theta", lambda t, a, b, c: Cyclo.one(), "theta identity at 0"),
    # the generators exchanged: the braid relation still holds, but the
    # premise REP-G1 fails
    ("REP-CHARPOLY", "paper_generators", lambda: paper_generators()[::-1], "G1 != D_G1"),
    # G2 conjugated by D_V: equal characteristic polynomials and G1 intact,
    # but the premise REP-BRAID fails
    ("REP-CHARPOLY", "paper_generators", _with_g2_conjugated_by_v, "G1 G2 G1 != G2 G1 G2"),
    ("GRP-ORDER-162", "paper_generators", lambda: paper_generators()[:1] * 2, "group order is 18"),
    # d1 and d3 exchanged: they generate the same group, but V G1 V^-1 is
    # not the word d3 d2^-1 d1, and the family order is read through the
    # conjugacy rows, so both checks fail on that row
    ("GRP-D-FAMILY-ORDER", "d_generators", lambda p: d_generators(p)[::-1],
     "D_V G1 D_V^-1 != d1 d2^-1 d3"),
    ("GRP-ISO-D91211", "d_generators", lambda p: d_generators(p)[::-1],
     "D_V G1 D_V^-1 != d1 d2^-1 d3"),
    # B^2 for B: G1 conjugates B^2 to (A^3 B^2)^2 = A^6 B, not A^3 B^4 = A^3 B
    ("GRP-N-NORMAL", "ELEMENTS", {**verify.ELEMENTS, "B": B_SQUARED}, "G1 B G1^-1 != A^3 B^2"),
    # B inside <A>: <A> meet <B> = <B>, and N = <A> has order 9
    ("GRP-CYCLIC-INTERSECT", "ELEMENTS", {**verify.ELEMENTS, "B": "A^3"}, "B = A^3"),
    ("GRP-N-INVARIANTS", "ELEMENTS", {**verify.ELEMENTS, "B": "A^6"}, "B = A^6"),
    # T1 = G1^9 = T3: H = <T3> has order 2
    ("GRP-H-S3", "ELEMENTS", {**verify.ELEMENTS, "T1": "G1^9"}, "T1 T3 = T3 T1"),
    ("GRP-H-MATRICES", "ELEMENTS", {**verify.ELEMENTS, "T1": "G1^9"}, "T1 != D_T1"),
    # T1 = A^3 T3: H holds T1 T3 = A^3, an element of N of order 3
    ("GRP-HN-TRIVIAL", "ELEMENTS", {**verify.ELEMENTS, "T1": "A^3 T3"}, "T1 T3 = A^3"),
    ("GRP-PSI-G1", "ELEMENTS", {**verify.ELEMENTS, "B": B_SQUARED}, "G1 != A^5 B^2 T3"),
    ("GRP-PSI-G2", "ELEMENTS", {**verify.ELEMENTS, "B": B_SQUARED}, "G2 != A^-1 B T3 T1 T3"),
    ("GRP-SEMIDIRECT", "ELEMENTS", {**verify.ELEMENTS, "T1": "A^3 T3"}, "T1 T3 = A^3"),
]


def _falsifier_id(i):
    """Row i's check id, numbered from that check's second row on."""
    check_id = FALSIFIERS[i][0]
    earlier = sum(row[0] == check_id for row in FALSIFIERS[:i])
    return f"{check_id}-{earlier + 1}" if earlier else check_id


@pytest.mark.parametrize("check_id, name, patch, message", FALSIFIERS,
                         ids=map(_falsifier_id, range(len(FALSIFIERS))))
def test_check_fails_under_its_falsifier(
    verification_report, monkeypatch, check_id, name, patch, message
):
    assert verification_report.by_id(check_id).passed
    monkeypatch.setattr(verify, name, patch)
    check = verify.run_theorem1_verification().by_id(check_id)
    assert not check.passed
    assert check.witness == {"error": f"AssertionError: {message}"}


def test_every_check_id_can_fail():
    falsified = set(verify.IDENTITIES) | {row[0] for row in FALSIFIERS}
    assert falsified == set(verify.CHECK_IDS)


def test_row_conclusions_hold_on_the_closed_group(
    paper_group, closed_context, subgroup_n, subgroup_h, verification_report
):
    """Each structural conclusion that the checks prove from rows, and
    state in their constant witnesses, read off the closed braid image's
    Cayley table instead, with N and H as member sets of that group."""
    g = paper_group

    def index(text):
        return index_of(g, closed_context.words(verify._word(text)))

    def witness(check_id):
        return verification_report.by_id(check_id).witness

    cyc_a, cyc_b = subgroup(g, [index("A")]), subgroup(g, [index("B")])
    assert witness("GRP-CYCLIC-INTERSECT") == {"intersection_order": intersect(cyc_a, cyc_b).order}
    assert subgroup_n.members == subgroup(g, [index("A"), index("B")]).members
    assert witness("GRP-N-INVARIANTS") == {
        "order": subgroup_n.order, "invariants": list(abelian_invariants(subgroup_n)),
    } == {"order": 27, "invariants": [9, 3]}
    assert is_normal(g, subgroup_n)
    assert witness("GRP-N-NORMAL") == {"order_N": subgroup_n.order}
    # H's six members, and its elements of order 3
    h_words = ("T1", "T3", "T3 T1 T3", "T1 T3", "T3 T1")
    assert set(subgroup_h.members) == {0, *map(index, h_words)}
    assert witness("GRP-H-S3") == {"order": subgroup_h.order} == {"order": 6}
    order3 = {x for x in subgroup_h.members if subgroup(g, [x]).order == 3}
    assert order3 == {index("T1 T3"), index("T3 T1")}
    assert intersect(subgroup_h, subgroup_n).order == 1
    # the psi pairs
    for x, n, h in (("G1", "A^5 B^2", "T3"), ("G2", "A^-1 B", "T3 T1 T3")):
        assert decompose(g, index(x), subgroup_n, subgroup_h) == (index(n), index(h))
    table = cayley_table(g)
    products = {table[n][h] for n in subgroup_n.members for h in subgroup_h.members}
    assert len(products) == g.order == 162
    pairs = {decompose(g, x, subgroup_n, subgroup_h) for x in range(g.order)}
    report = semidirect_verify(g, subgroup_n, subgroup_h)
    assert witness("GRP-SEMIDIRECT") == {**report._asdict(), "distinct_factorizations": len(pairs)}
    assert report.all_ok


def test_verify_stdout_digest(capsys):
    assert cli.main(["verify"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_STDOUT_SHA256


def test_recoupling_checks_evaluate_each_quantity_once(monkeypatch, paper_matrices):
    """Each check compares a quantity and writes its witness from one
    evaluation; the mirrored tet of a diagonal table entry is not evaluated
    again."""
    calls = Counter()
    for name in ("delta_n", "r_value", "tet", "theta"):
        def counting(t, *labels, _evaluate=getattr(verify, name), _name=name):
            calls[_name, labels] += 1
            return _evaluate(t, *labels)

        monkeypatch.setattr(verify, name, counting)
    ctx = verify._Context(paper_matrices, cap=2000)
    for check in (verify.check_deltas, verify.check_rvalues,
                  verify.check_tet_table, verify.check_theta_id):
        calls.clear()
        check(ctx)
        assert calls and set(calls.values()) == {1}, (check.__name__, calls)


def test_report_witness_digest(verification_report):
    """Every witness, pinned: floats rounded to 9 places (and -0.0 made 0.0)
    so that the digest does not depend on the platform's libm."""

    def rounded(value):
        if isinstance(value, float):
            return round(value, 9) + 0.0
        if isinstance(value, dict):
            return {k: rounded(v) for k, v in value.items()}
        if isinstance(value, list):
            return [rounded(v) for v in value]
        return value

    text = json.dumps(rounded(verification_report.to_dict()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_WITNESS_SHA256


def test_exact_products_per_check(monkeypatch):
    """Exact 3x3 products of one run, by check id: identity rows share
    their prefixes, the one closure (the braid image) multiplies by the
    generators alone, and the structure of N and H is proved from rows, so
    no Cayley table is built or guarded; the conjugacy to D(9,1,1;2,1,1) is
    word products alone, and D's order is read through it, not closed.  A
    check's rows are counted where they first run, which for a premise may
    be a check before its own."""
    counts, current = Counter(), ["before the checks"]
    product, certify, run_check = UnitaryMatrix.__mul__, mg._certify, verify._run_check
    guarded, closed, close = [], [], mg.close

    def counting(a, b):
        counts[current[-1]] += 1
        return product(a, b)

    def guard(group):  # its sampled products are counted apart
        guarded.append(group.order)
        current.append("table guards")
        try:
            certify(group)
        finally:
            current.pop()

    def tagged(ctx, check_id, witness):
        current.append(check_id)
        return run_check(ctx, check_id, witness)

    def closing(generators, cap):
        closed.append(len(generators))
        return close(generators, cap=cap)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    monkeypatch.setattr(mg, "_certify", guard)
    monkeypatch.setattr(mg, "close", closing)
    monkeypatch.setattr(verify, "_run_check", tagged)
    assert verify.run_theorem1_verification().overall
    assert closed == [2]  # G1 and G2: D(9,1,1;2,1,1) is never closed
    assert counts["REP-ORDER18"] <= 24
    assert counts["GRP-T1T2T3"] <= 10
    assert counts["GRP-G2SQG1-FACTOR"] <= 23
    # A^6; the premises GRP-AB-ORDERS ran already
    assert counts["GRP-CYCLIC-INTERSECT"] <= 3
    # G1 B G1^-1 and G2 B G2^-1, and the premise rows of GRP-G1AG1-G2SQ,
    # GRP-G2SQ-A7B2 and GRP-G2AG2-AB, which run here first
    assert counts["GRP-N-NORMAL"] <= 15
    # T1 T3 and T3 T1, and the premise GRP-PRESENTATION's ten relations
    assert counts["GRP-H-S3"] <= 20
    # the premise GRP-ORDER3-NOT-IN-LIST's rows run here first
    assert counts["GRP-HN-TRIVIAL"] <= 30
    # the five conjugacy rows (21 products) and the three unitarity checks
    # of `d_generators`; GRP-ISO-D91211 then runs the same rows on the
    # evaluator's kept prefixes
    assert counts["GRP-D-FAMILY-ORDER"] <= 24
    # rows that ran already, as premises of earlier checks or as their own
    # (REP-CHARPOLY's premises REP-BRAID and REP-G1 included)
    for check_id in ("REP-CHARPOLY", "GRP-N-INVARIANTS", "GRP-H-MATRICES",
                     "GRP-ORDER3-NOT-IN-LIST", "GRP-SEMIDIRECT", "GRP-PRESENTATION",
                     "GRP-ISO-D91211"):
        assert counts[check_id] == 0, check_id
    # no table is built, so none is guarded
    assert guarded == []
    assert sum(counts.values()) == 497


# -- order oracle 1: the generators reduced mod 73 ------------------------------
# 73 = 1 mod 72, so F_73 holds the 72nd roots of unity; 73 is unramified in
# Q(zeta_72) and 2 is a unit mod 73, so the reduction is injective on a finite
# subgroup (Minkowski) and the image has the group's order.

P = 73
OMEGA = 5  # a primitive root mod 73: the image of zeta_72


def _reduce(matrix):
    """The matrix mod 73 as a 9-tuple, read only from each entry's order,
    coefficients and denominator."""
    out = []
    for row in matrix.rows:
        for v in row:
            zeta = pow(OMEGA, 72 // v.order, P)
            total = sum(n * pow(zeta, i, P) for i, n in enumerate(v.nums))
            out.append(total * pow(v.den, -1, P) % P)
    return tuple(out)


def _mul(a, b):
    return tuple(
        sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) % P
        for i in range(3) for j in range(3)
    )


def _order_mod_p(generators):
    gens = [_reduce(m) for m in generators]
    seen = {(1, 0, 0, 0, 1, 0, 0, 0, 1)}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {_mul(g, x) for g in gens for x in frontier} if y not in seen]
        seen.update(frontier)
        assert len(seen) <= 1000
    return len(seen)


def test_order_162_over_f73(paper_matrices):
    assert pow(OMEGA, 36, P) != 1 and pow(OMEGA, 24, P) != 1
    assert _order_mod_p(paper_matrices) == 162
    assert _order_mod_p(d_generators(DParams(CParams(9, 1, 1), 2, 1, 1))) == 162


# -- order oracle 2: coset enumeration of verify's relation rows ----------------


def test_presentation_rows_with_ab_commute_present_order_162():
    """The ten GRP-PRESENTATION rows alone present a group of order 486;
    with GRP-AB-COMMUTE's [A, B] = 1 the coset enumeration (HLT, sympy)
    over the trivial subgroup gives 162."""
    free, *letters = free_group("A B T1 T3")
    names = dict(zip(("A", "B", "T1", "T3"), letters))

    def word(text):
        w = free.identity
        for name, power in verify._word(text):
            w = w * names[name] ** power
        return w

    rows = verify.IDENTITIES["GRP-PRESENTATION"] + verify.IDENTITIES["GRP-AB-COMMUTE"]
    assert all(holds for _, holds, _ in rows)
    relators = [word(lhs) * word(rhs) ** -1 for lhs, _, rhs in rows]
    cosets = coset_enumeration_r(FpGroup(free, relators), [])
    cosets.compress()
    assert len(cosets.table) == 162


# -- conjugacy oracle: polynomials in x = zeta_72 mod Phi_72 (sympy) ------------
# No Cyclo or UnitaryMatrix arithmetic: G1 and G2 are read from their
# `to_dict` coefficients, d1, d2, d3 and V are written out, and complex
# conjugation is x -> x^71 = x^-1.

X = sympy.Symbol("x")
PHI_72 = sympy.Poly(sympy.cyclotomic_poly(72, X), X, domain="QQ")
ZERO, ONE = sympy.Poly(0, X, domain="QQ"), sympy.Poly(1, X, domain="QQ")


def _poly(terms):
    """sum c x^e over the (exponent, coefficient) pairs, reduced mod Phi_72."""
    return sympy.Poly(sum(c * X ** (e % 72) for e, c in terms), X, domain="QQ").rem(PHI_72)


def _entry(d):
    """A `Cyclo.to_dict` value: coefficient k multiplies zeta_order^k."""
    step = 72 // d["order"]
    return _poly((step * k, sympy.Rational(c)) for k, c in enumerate(d["coeffs"]))


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(3)), ZERO).rem(PHI_72) for j in range(3)]
            for i in range(3)]


def _dagger(m):
    return [[_poly((-e, c) for (e,), c in m[j][i].terms()) for j in range(3)] for i in range(3)]


def _power(m, k):
    base, out = (m if k > 0 else _dagger(m)), None
    for _ in range(abs(k)):
        out = base if out is None else _matmul(out, base)
    return out


def _det(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)).rem(PHI_72)


def _conjugator(zeta3_power):
    """V = [[s, 0, -s], [0, zeta_3^k, 0], [s, 0, s]], s = sqrt(2)/2 = (x^9 + x^63)/2."""
    s = _poly([(9, sympy.Rational(1, 2)), (63, sympy.Rational(1, 2))])
    w = _poly([(24 * zeta3_power, 1)])
    return [[s, ZERO, -s], [ZERO, w, ZERO], [s, ZERO, s]]


@pytest.fixture(scope="module")
def oracle_names(paper_matrices):
    """G1 and G2, and D(9,1,1;2,1,1)'s generators E, F = diag(z9, z9, z9^-2)
    and D as `d_generators` defines them for (n, a, b; d, r, s) = (9, 1, 1;
    2, 1, 1)."""
    gens = {
        name: [[_entry(v.to_dict()) for v in row] for row in m.rows]
        for name, m in zip(("G1", "G2"), paper_matrices)
    }
    z9, z9_inv2 = _poly([(8, 1)]), _poly([(-16, 1)])
    gens["d1"] = [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ONE, ZERO, ZERO]]
    gens["d2"] = [[z9, ZERO, ZERO], [ZERO, z9, ZERO], [ZERO, ZERO, z9_inv2]]
    gens["d3"] = [[-ONE, ZERO, ZERO], [ZERO, ZERO, -ONE], [ZERO, -ONE, ZERO]]
    return gens


def _oracle_rows(names, v):
    """Whether each GRP-ISO-D91211 row holds with D_V = v."""
    names = {**names, "D_V": v}

    def product(text):
        out = None
        for name, power in verify._word(text):
            factor = _power(names[name], power)
            out = factor if out is None else _matmul(out, factor)
        return out

    return [product(lhs) == product(rhs) for lhs, _, rhs in verify.IDENTITIES["GRP-ISO-D91211"]]


def test_conjugacy_rows_hold_in_sympy(oracle_names):
    v = _conjugator(2)
    identity = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert _matmul(v, _dagger(v)) == identity
    zeta9_v = [[(_poly([(8, 1)]) * x).rem(PHI_72) for x in row] for row in v]
    assert _det(zeta9_v) == ONE
    assert _oracle_rows(oracle_names, v) == [True] * 5
    # zeta_3 in place of zeta_3^2: still unitary, and the G1 row still holds
    # (G1 is diagonal), but the G2 row fails
    v = _conjugator(1)
    assert _matmul(v, _dagger(v)) == identity
    assert _oracle_rows(oracle_names, v)[:2] == [True, False]


def _zeta3_conjugator():
    s = verify._displays()["D_V"].rows[0][0]
    return UnitaryMatrix.from_rows([[s, 0, -s], [0, root_of_unity(3), 0], [s, 0, s]])


@pytest.mark.parametrize("conjugator, failing", [
    # zeta_3 in place of zeta_3^2: the G1 row holds, the G2 row fails, in
    # GRP-D-FAMILY-ORDER too, which reads D's order through the same rows
    (_zeta3_conjugator, {"GRP-D-FAMILY-ORDER": "D_V G2 D_V^-1 != d3 d2^2",
                         "GRP-ISO-D91211": "D_V G2 D_V^-1 != d3 d2^2"}),
    # -V conjugates as V does, so every row holds, but det(zeta_9 (-V)) = -1
    (lambda: verify._displays()["D_V"].scale(-1), {"GRP-ISO-D91211": "det(zeta_9 V) != 1"}),
], ids=["zeta3", "minus-V"])
def test_conjugator_falsifiers(verification_report, monkeypatch, conjugator, failing):
    assert verification_report.by_id("GRP-ISO-D91211").passed
    displays = verify._displays
    v = conjugator()
    monkeypatch.setattr(verify, "_displays", lambda: {**displays(), "D_V": v})
    report = verify.run_theorem1_verification()
    assert {c.id: c.witness for c in report.checks if not c.passed} == {
        check_id: {"error": f"AssertionError: {message}"} for check_id, message in failing.items()
    }
    assert report.info == {}
