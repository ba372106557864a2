"""Acceptance suite: one test per criterion, every equality exact in the
cyclotomic field, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
from fractions import Fraction

from group_oracles import (
    abelian_invariants, cayley_table, decompose, element_order, index_of, intersect,
    is_normal, semidirect_verify, subgroup,
)
from matrix_oracles import charpoly

from su3braid import matgroup as mg
from su3braid import recoupling as rc
from su3braid.cli import export_group
from su3braid.cyclo import Cyclo, cyclotomic_polynomial, root_of_unity, sqrt2, sqrt3
from su3braid.matrix import UnitaryMatrix


def _criterion(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_c01_tl_deltas(theory6, verification_report):
    rt3 = sqrt3(theory6.order)
    ok = (
        rc.delta_n(theory6, 0) == 1
        and rc.delta_n(theory6, 4) == 1
        and rc.delta_n(theory6, 2) == 2
        and rc.delta_n(theory6, 1) == rt3
        and rc.delta_n(theory6, 5) == 0
        and verification_report.by_id("TL-DELTAS").passed
    )
    _criterion("criterion 01 TL-DELTAS", ok)


def test_c02_tl_rvalues(theory6, verification_report):
    ok = (
        rc.r_value(theory6, 0, 2, 2).conj() == root_of_unity(72, 24)
        and rc.r_value(theory6, 2, 2, 2).conj() == -root_of_unity(72, 12)
        and rc.r_value(theory6, 4, 2, 2).conj() == root_of_unity(72, 60)
        and verification_report.by_id("TL-RVALUES").passed
    )
    _criterion("criterion 02 TL-RVALUES", ok)


def test_c03_tet_table_and_theta_identity(theory6, verification_report):
    rt3 = sqrt3(theory6.order)
    table = {
        (0, 0): Cyclo.rational(2),
        (2, 0): 2 / rt3,
        (2, 2): Cyclo.zero(),
        (4, 0): Cyclo.one(),
        (4, 2): -1 / rt3,
        (4, 4): Cyclo.rational(Fraction(1, 2)),
    }
    ok = all(rc.tet(theory6, 2, 2, j, 2, 2, i) == v for (i, j), v in table.items())
    ok = ok and all(
        rc.theta(theory6, 2, 2, i) == rc.tet(theory6, 2, 2, i, 2, 2, 0)
        for i in (0, 2, 4)
    )
    ok = ok and verification_report.by_id("TL-TET-TABLE").passed
    ok = ok and verification_report.by_id("TL-THETA-ID").passed
    _criterion("criterion 03 TL-TET-TABLE + TL-THETA-ID", ok)


def test_c04_rep_generator_displays(paper_matrices, verification_report):
    g1, g2 = paper_matrices
    phase = root_of_unity(72, 4)
    t_const = sqrt2(72) / 2 * root_of_unity(72, 24)
    t_sq = t_const * t_const
    tbar_sq = t_sq.conj()
    g1_display = UnitaryMatrix.diagonal([2 * tbar_sq, 2 * t_sq, -2 * tbar_sq]).scale(phase)
    g2_display = UnitaryMatrix.from_rows(
        [[t_sq, t_const, -t_sq], [t_const, 0, t_const], [-t_sq, t_const, t_sq]]
    ).scale(phase)
    ok = (
        g1 == g1_display
        and g2 == g2_display
        and verification_report.by_id("REP-G1").passed
        and verification_report.by_id("REP-G2").passed
    )
    _criterion("criterion 04 REP-G1 + REP-G2", ok)


def test_c05_rep_relations_orders_spectrum(paper_matrices, verification_report):
    g1, g2 = paper_matrices
    identity = UnitaryMatrix.identity(3)
    ok = g1 * g2 * g1 == g2 * g1 * g2
    ok = ok and g1 ** 2 * g2 ** 2 == g2 ** 2 * g1 ** 2
    ok = ok and element_order(g1, cap=50) == 18
    ok = ok and element_order(g2, cap=50) == 18
    ok = ok and g1 ** 18 == identity and g2 ** 18 == identity
    ok = ok and charpoly(g1) == charpoly(g2)
    spectrum = (root_of_unity(18, 7), -root_of_unity(18, 4), root_of_unity(18, 16))
    ok = ok and all(g1.rows[i][i] == s for i, s in enumerate(spectrum))
    for check_id in ("REP-BRAID", "REP-SQUARES-COMMUTE", "REP-ORDER18", "REP-CHARPOLY"):
        ok = ok and verification_report.by_id(check_id).passed
    _criterion("criterion 05 REP-BRAID/SQUARES/ORDER18/CHARPOLY", ok)


def test_c06_group_order_162(paper_group, verification_report):
    ok = paper_group.order == 162
    ok = ok and verification_report.by_id("GRP-ORDER-162").passed
    _criterion("criterion 06 GRP-ORDER-162", ok)


def test_c07_f_matrix_and_a_definition(paper_group, named_elements, verification_report):
    imag = root_of_unity(4)
    a = (Cyclo.rational(-1) + imag * sqrt3(72)) / 4
    b = sqrt2(72) * a
    f_display = UnitaryMatrix.from_rows([[a, b, -a], [b, 0, b], [a, -b, -a]])
    _, g2 = (paper_group.matrices[g] for g in paper_group.generators)
    f = named_elements["F"]
    ok = f == f_display
    ok = ok and (g2 * f) ** 2 == named_elements["A"]
    ok = ok and verification_report.by_id("GRP-F-MATRIX").passed
    ok = ok and verification_report.by_id("GRP-A-DEF").passed
    _criterion("criterion 07 GRP-F-MATRIX + GRP-A-DEF", ok)


def test_c08_abelian_subgroup(paper_group, named_elements, subgroup_n, verification_report):
    a, b = named_elements["A"], named_elements["B"]
    ok = element_order(a) == 9 and element_order(b) == 3
    ok = ok and a * b == b * a
    cyc_a = subgroup(paper_group, [index_of(paper_group, a)])
    cyc_b = subgroup(paper_group, [index_of(paper_group, b)])
    ok = ok and intersect(cyc_a, cyc_b).order == 1
    ok = ok and subgroup_n.order == 27
    ok = ok and abelian_invariants(subgroup_n) == (9, 3)
    for check_id in ("GRP-AB-ORDERS", "GRP-AB-COMMUTE", "GRP-CYCLIC-INTERSECT", "GRP-N-INVARIANTS"):
        ok = ok and verification_report.by_id(check_id).passed
    _criterion("criterion 08 GRP-AB-* + GRP-N-INVARIANTS", ok)


def test_c09_normality_identities(paper_group, named_elements, subgroup_n, verification_report):
    g1, g2 = (paper_group.matrices[g] for g in paper_group.generators)
    a, b = named_elements["A"], named_elements["B"]
    ok = is_normal(paper_group, subgroup_n)
    ok = ok and g1 * a * g1.conj_transpose() == g2 * g2
    ok = ok and g2 * g2 == a ** 7 * b ** 2
    ok = ok and g2 * a * g2.conj_transpose() == g1 * g1
    ok = ok and g1 * g1 == a * b
    for check_id in ("GRP-N-NORMAL", "GRP-G1AG1-G2SQ", "GRP-G2SQ-A7B2", "GRP-G2AG2-AB"):
        ok = ok and verification_report.by_id(check_id).passed
    _criterion("criterion 09 GRP-N-NORMAL + conjugation identities", ok)


def test_c10_symmetric_complement(paper_group, named_elements, subgroup_n, subgroup_h, verification_report):
    t1, t2, t3 = (named_elements[k] for k in ("T1", "T2", "T3"))
    g1, g2 = (paper_group.matrices[g] for g in paper_group.generators)
    g2g1sq = g2 * g1 * g1
    ok = element_order(t1) == 2 and element_order(t2) == 2
    ok = ok and element_order(g2g1sq) == 2
    ok = ok and t3 == UnitaryMatrix.diagonal([-1, -1, 1])
    ok = ok and subgroup_h.order == 6
    ok = ok and t1 * t3 != t3 * t1
    h_matrices = [paper_group.matrices[x] for x in subgroup_h.members]
    order3 = {m.key_bytes() for m in h_matrices if element_order(m) == 3}
    t1t3 = t1 * t3
    t3t1 = t3 * t1
    ok = ok and order3 == {t1t3.key_bytes(), t3t1.key_bytes()}
    half = Fraction(1, 2)
    s = sqrt2(72) / 2
    displays = [
        UnitaryMatrix.from_rows([[-half, -s, -half], [-s, 0, s], [-half, s, -half]]),
        UnitaryMatrix.from_rows([[-half, -s, half], [-s, 0, -s], [half, -s, -half]]),
        UnitaryMatrix.from_rows([[half, s, -half], [s, 0, s], [half, -s, -half]]),
        UnitaryMatrix.from_rows([[half, s, half], [s, 0, -s], [-half, s, -half]]),
    ]
    words = [t1, t3 * t1 * t3, t1t3, t3t1]
    ok = ok and all(w == d for w, d in zip(words, displays))
    expected_keys = {
        UnitaryMatrix.identity(3).key_bytes(), t3.key_bytes(),
    } | {d.key_bytes() for d in displays}
    ok = ok and {paper_group.keys[x] for x in subgroup_h.members} == expected_keys
    ok = ok and intersect(subgroup_h, subgroup_n).order == 1
    a, b = named_elements["A"], named_elements["B"]
    listed = [a ** 3, a ** 6, a ** 3 * b, a ** 6 * b, a ** 3 * b * b, a ** 6 * b * b, b, b * b]
    ok = ok and all(t1t3 != m and t3t1 != m for m in listed)
    for check_id in ("GRP-T1T2T3", "GRP-H-S3", "GRP-H-MATRICES", "GRP-HN-TRIVIAL", "GRP-ORDER3-NOT-IN-LIST"):
        ok = ok and verification_report.by_id(check_id).passed
    _criterion("criterion 10 GRP-T1T2T3/H-S3/H-MATRICES/HN-TRIVIAL/ORDER3", ok)


def test_c11_factorizations(paper_group, named_elements, verification_report):
    g1, g2 = (paper_group.matrices[g] for g in paper_group.generators)
    identity = UnitaryMatrix.identity(3)
    a, b = named_elements["A"], named_elements["B"]
    t1, t3 = named_elements["T1"], named_elements["T3"]
    g2sqg1 = g2 * g2 * g1
    a3b = a ** 3 * b
    ok = (g2 * g1 * g2) ** 2 == identity
    ok = ok and (g2 * g1) ** 3 == identity and (g1 * g2) ** 3 == identity
    ok = ok and g2sqg1 * g2sqg1 == identity
    ok = ok and g2sqg1 == a3b * t3
    residue = g2sqg1.conj_transpose() * t3
    ok = ok and residue == a3b
    ok = ok and element_order(residue) == 3
    g1sqg2 = g1 * g1 * g2
    t3t1t3 = t3 * t1 * t3
    ok = ok and g1sqg2 == b ** 2 * t3t1t3
    ok = ok and g1sqg2.conj_transpose() * t3t1t3 == b ** 2
    ok = ok and verification_report.by_id("GRP-G2SQG1-FACTOR").passed
    ok = ok and verification_report.by_id("GRP-G1SQG2-FACTOR").passed
    _criterion("criterion 11 GRP-G2SQG1-FACTOR + GRP-G1SQG2-FACTOR", ok)


def test_c12_psi_and_semidirect(paper_group, named_elements, subgroup_n, subgroup_h, verification_report):
    g1el, g2el = paper_group.generators
    a, b = named_elements["A"], named_elements["B"]
    t1, t3 = named_elements["T1"], named_elements["T3"]
    ns = hs = paper_group.matrices  # decompose returns indices of the group
    n, h = decompose(paper_group, g1el, subgroup_n, subgroup_h)
    ok = ns[n] == a ** 5 * b ** 2 and hs[h] == t3
    n, h = decompose(paper_group, g2el, subgroup_n, subgroup_h)
    ok = ok and ns[n] == a ** -1 * b and hs[h] == t3 * t1 * t3
    report = semidirect_verify(paper_group, subgroup_n, subgroup_h)
    ok = ok and report.all_ok
    pairs = {
        decompose(paper_group, x, subgroup_n, subgroup_h) for x in range(paper_group.order)
    }
    ok = ok and len(pairs) == 162
    for check_id in ("GRP-PSI-G1", "GRP-PSI-G2", "GRP-SEMIDIRECT"):
        ok = ok and verification_report.by_id(check_id).passed
    _criterion("criterion 12 GRP-PSI-G1/G2 + GRP-SEMIDIRECT", ok)


def test_c13_presentation(named_elements, verification_report):
    gens = {k: named_elements[k] for k in ("A", "B", "T1", "T3")}
    eye = ()
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
    words = mg.WordEvaluator(gens)
    ok = all(words.equal(lhs, rhs) for lhs, rhs in relations)
    ok = ok and verification_report.by_id("GRP-PRESENTATION").passed
    _criterion("criterion 13 GRP-PRESENTATION (ten relations)", ok)


def test_c14_family_group_and_isomorphism(paper_group, family_group, verification_report):
    ok = family_group.order == 162
    # g -> V g V^-1 as a map on indices, and the homomorphism law on all pairs
    s = sqrt2(72) / 2
    v = UnitaryMatrix.from_rows([[s, 0, -s], [0, root_of_unity(3, 2), 0], [s, 0, s]])
    v_inv = v.conj_transpose()
    phi = [index_of(family_group, v * g * v_inv) for g in paper_group.matrices]
    t_s, t_t = cayley_table(paper_group), cayley_table(family_group)
    ok = ok and len(set(phi)) == 162
    ok = ok and all(
        t_t[phi[i]][phi[j]] == phi[t_s[i][j]] for i in range(162) for j in range(162)
    )
    ok = ok and verification_report.by_id("GRP-D-FAMILY-ORDER").passed
    ok = ok and verification_report.by_id("GRP-ISO-D91211").passed
    _criterion("criterion 14 GRP-D-FAMILY-ORDER + GRP-ISO-D91211", ok)


def test_c15_property_suites(
    tmp_path, theory6, paper_group, named_elements, subgroup_n, subgroup_h, signed_words
):
    rng = random.Random(2024)
    ok = True

    # field axioms on seeded random cyclotomic triples
    def random_value():
        order = rng.choice([8, 12, 24, 72])
        deg = len(cyclotomic_polynomial(order)) - 1
        acc = Cyclo.zero()
        for e in range(deg):
            acc = acc + Cyclo.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) * root_of_unity(order, e)
        return acc

    for _ in range(30):
        x, y, z = random_value(), random_value(), random_value()
        ok = ok and (x + y) * z == x * z + y * z
        ok = ok and (x * y) * z == x * (y * z)
        if not x.is_zero():
            ok = ok and x * x.inv() == 1
        ok = ok and (x * y).conj() == x.conj() * y.conj()

    # unitarity of every stored group element
    identity = UnitaryMatrix.identity(3)
    sample = [rng.randrange(162) for _ in range(30)]
    ok = ok and all(
        paper_group.matrices[x] * paper_group.matrices[x].conj_transpose() == identity
        for x in sample
    )

    # Lagrange for the subgroups in play
    for sub in (subgroup_n, subgroup_h):
        ok = ok and paper_group.order % sub.order == 0

    # word provenance on a seeded sample
    ok = ok and all(
        (signed_words(paper_group.words[x]) if x else identity).key_bytes() == paper_group.keys[x]
        for x in sample
    )

    # export determinism, on H closed as a group of its own (a subgroup of
    # the braid image is a set of its indices and has no export)
    h_group = mg.close([named_elements["T1"], named_elements["T3"]])
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    export_group(h_group, "elements", str(p1))
    export_group(h_group, "elements", str(p2))
    ok = ok and p1.read_bytes() == p2.read_bytes()
    records = json.loads(p1.read_text())
    ok = ok and len(records) == 6

    _criterion("criterion 15 property suites (axioms/unitarity/Lagrange/words/determinism)", ok)
