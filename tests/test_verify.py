"""The verify checklist's data: every check id can fail, the report's
bytes are pinned, and the order 162 is confirmed by two oracles that share
no code with `close`, `Cyclo` arithmetic or `key_bytes`."""

import hashlib
import json
from collections import Counter

import pytest
from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
from sympy.combinatorics.free_groups import free_group

from su3braid import cli, verify
from su3braid import matgroup as mg
from su3braid.braidrep import paper_generators
from su3braid.cyclo import Cyclo, root_of_unity
from su3braid.matrix import UnitaryMatrix
from su3braid.su3families import CParams, DParams, c_generators, d_generators

# sha256 of `su3braid verify` stdout: check lines and the info line only, no
# floats, so it holds on every platform
VERIFY_STDOUT_SHA256 = "b7033d472fd5d37b0dc209c70ada31e1c5804b727c0d5ccf5d387c7a8f782bf7"
# sha256 of the report with its witness floats rounded (the --json witnesses
# carry libm floats, whose last digits may differ between platforms)
REPORT_WITNESS_SHA256 = "e8191a825695f7deac585df86ed3c5e39486a3cf9021b8b0875ca94cdd2e0b5c"


@pytest.fixture(scope="module")
def closed_context(paper_matrices, paper_group):
    ctx = verify._Context(paper_matrices, cap=2000)
    ctx.group = paper_group
    return ctx


def _perturbed(rows, i):
    """Row i made false: an equality gains a right factor G1 (G1 != I), an
    inequality gets its left side on the right."""
    lhs, holds, rhs, message = rows[i]
    row = (lhs, holds, f"{rhs} G1".strip() if holds else lhs, message)
    return rows[:i] + [row] + rows[i + 1:]


def test_every_identity_row_can_fail(closed_context, monkeypatch):
    fns = {check_id: fn for check_id, _, fn in verify.CHECKS}
    for check_id, rows in verify.IDENTITIES.items():
        verify._run_check(closed_context, check_id, fns[check_id])
        for i, row in enumerate(rows):
            monkeypatch.setitem(verify.IDENTITIES, check_id, _perturbed(rows, i))
            with pytest.raises(AssertionError) as failure:
                verify._run_check(closed_context, check_id, fns[check_id])
            assert str(failure.value) == row[3], (check_id, i)
        monkeypatch.setitem(verify.IDENTITIES, check_id, rows)
        verify._run_check(closed_context, check_id, fns[check_id])


# the checks, and the part of GRP-H-MATRICES, that no identity row fails:
# each row patches one name in `verify` for a whole run and expects that
# check's first failure message.  The generators reach a run through
# `paper_generators`; the checks that read N and H are failed through the
# named elements and subgroups alone
B_SQUARED = "G1 G2^-2 G1 G1 G2^-2 G1"  # B^2: N is unchanged, the word for B is not
CYCLIC_162 = [UnitaryMatrix.diagonal([root_of_unity(162), root_of_unity(162, 161), 1])]
FALSIFIERS = [
    ("TL-DELTAS", "delta_n", lambda t, n: Cyclo.one(), "delta_1 mismatch"),
    ("TL-RVALUES", "r_value", lambda t, a, b, c: Cyclo.one(),
     "conjugated R-value at label 0 mismatch"),
    ("TL-TET-TABLE", "tet", lambda t, *labels: Cyclo.zero(), "tet (i,j)=(0,0) mismatch"),
    ("TL-THETA-ID", "theta", lambda t, a, b, c: Cyclo.one(), "theta identity at 0"),
    ("REP-CHARPOLY", "paper_generators", lambda: paper_generators()[::-1],
     "diagonal of G1 is not the expected spectrum"),
    ("GRP-ORDER-162", "paper_generators", lambda: paper_generators()[:1] * 2, "group order is 18"),
    ("GRP-D-FAMILY-ORDER", "d_generators", lambda p: c_generators(p.c), "family group order 81"),
    # a cyclic group of order 162: the family order holds, the isomorphism cannot
    ("GRP-ISO-D91211", "d_generators", lambda p: CYCLIC_162, "no isomorphism found"),
    ("GRP-N-NORMAL", "SUBGROUPS", {**verify.SUBGROUPS, "N": ("A",)}, "N is not normal"),
    ("GRP-CYCLIC-INTERSECT", "ELEMENTS", {**verify.ELEMENTS, "B": "A^3"},
     "<A> meet <B> has order 3"),
    ("GRP-N-INVARIANTS", "SUBGROUPS", {**verify.SUBGROUPS, "N": ("A",)}, "|N| = 9"),
    ("GRP-H-S3", "SUBGROUPS", {**verify.SUBGROUPS, "H": ("T1",)}, "|H| = 2"),
    ("GRP-H-MATRICES", "SUBGROUPS", {**verify.SUBGROUPS, "H": ("T1", "T3", "B")},
     "H element set mismatch"),
    ("GRP-HN-TRIVIAL", "SUBGROUPS", {**verify.SUBGROUPS, "H": ("T1", "T3", "B")},
     "H meet N nontrivial"),
    ("GRP-PSI-G1", "ELEMENTS", {**verify.ELEMENTS, "B": B_SQUARED}, "G1 != A^5 B^2 * T3"),
    ("GRP-PSI-G2", "ELEMENTS", {**verify.ELEMENTS, "B": B_SQUARED}, "G2 != A^-1 B * T3 T1 T3"),
    ("GRP-SEMIDIRECT", "SUBGROUPS", {**verify.SUBGROUPS, "H": ("T1",)},
     "semidirect flags: SemidirectReport(normal=True, trivial_intersection=True, "
     "order_product=False, product_bijective=False)"),
]


@pytest.mark.parametrize("check_id, name, patch, message", FALSIFIERS,
                         ids=[row[0] for row in FALSIFIERS])
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


def test_verify_stdout_digest(capsys):
    assert cli.main(["verify"]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_STDOUT_SHA256


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
    their prefixes, the closures multiply by the generators alone, and the
    subgroups N, H, <A> and <B> are member sets read off the braid image's
    table, so only the two groups' tables are built and guarded."""
    counts, current = Counter(), ["before the checks"]
    product, certify, run_check = UnitaryMatrix.__mul__, mg._certify, verify._run_check
    guarded = []

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

    def tagged(ctx, check_id, fn):
        current.append(check_id)
        return run_check(ctx, check_id, fn)

    monkeypatch.setattr(UnitaryMatrix, "__mul__", counting)
    monkeypatch.setattr(mg, "_certify", guard)
    monkeypatch.setattr(verify, "_run_check", tagged)
    assert verify.run_theorem1_verification().overall
    assert counts["REP-ORDER18"] <= 24
    assert counts["GRP-T1T2T3"] <= 10
    assert counts["GRP-ORDER3-NOT-IN-LIST"] <= 30
    assert counts["GRP-G2SQG1-FACTOR"] <= 23
    for check_id in ("GRP-CYCLIC-INTERSECT", "GRP-N-INVARIANTS", "GRP-HN-TRIVIAL"):
        assert counts[check_id] == 0, check_id
    # the braid image and the family group, 256 sampled products each
    assert guarded == [162, 162]
    assert counts["table guards"] == 2 * 256
    assert sum(counts.values()) <= 1476


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
    assert all(holds for _, holds, _, _ in rows)
    relators = [word(lhs) * word(rhs) ** -1 for lhs, _, rhs, _ in rows]
    cosets = coset_enumeration_r(FpGroup(free, relators), [])
    cosets.compress()
    assert len(cosets.table) == 162
