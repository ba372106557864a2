"""The four benchmark workloads: their seeded inputs, the command one cold
repetition runs, the correctness oracle, and a corruption of a good output
that the oracle must reject.

An oracle returns a list of (check name, passed) pairs.  A crash or a
non-zero exit fails every check of the repetition.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# the 34 verify checks, in report order (ROADMAP pins the ids and their order)
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


def _failed(names: list[str]) -> list[tuple[str, bool]]:
    return [(name, False) for name in names]


class Verify:
    """`su3braid verify --json`: the paper's theorem, 34 checks at order 72."""

    name = "verify"
    job = "cli"
    CHECKS = ["exit 0", "report parses", "ids in order", *(f"{i} passed" for i in CHECK_IDS),
              "overall"]

    def prepare(self, seed: int, tmp: Path) -> None:
        self.seed = seed

    def args(self, rep: Path) -> list[str]:
        return ["verify", "--json", str(rep / "report.json")]

    def check(self, rep: Path, code: int, stdout: str) -> list[tuple[str, bool]]:
        if code != 0:
            return _failed(self.CHECKS)
        try:
            report = json.loads((rep / "report.json").read_text(encoding="ascii"))
            passed = {c["id"]: c["passed"] is True for c in report["checks"]}
            ids = [c["id"] for c in report["checks"]]
        except (OSError, ValueError, KeyError, TypeError):
            return _failed(self.CHECKS)
        return [
            ("exit 0", True),
            ("report parses", True),
            ("ids in order", ids == list(CHECK_IDS)),
            *((f"{i} passed", passed.get(i, False)) for i in CHECK_IDS),
            ("overall", report.get("overall") is True),
        ]

    def corrupt(self, rep: Path) -> None:
        """Flip one passed check to failed."""
        path = rep / "report.json"
        report = json.loads(path.read_text(encoding="ascii"))
        random.Random(self.seed).choice(report["checks"])["passed"] = False
        path.write_text(json.dumps(report), encoding="ascii")


class Cayley648:
    """`su3braid group --emit-elements --emit-cayley` for D(18,1,1;2,1,1)."""

    name = "cayley648"
    job = "cli"
    PARAMS = (18, 1, 1, 2, 1, 1)
    ORDER = 648
    SAMPLE = 4096
    # sha256 of both exports at the commit that introduced this benchmark;
    # ROADMAP requires the exports to stay byte-identical
    DIGESTS = {
        "cayley.csv": "58c55d0f0d774a7dccd6cdeda2520124ee63dba0a91d036274946434d235ebb9",
        "elements.json": "06982f9fb1b2abb4ee82ac4594142fe13902b225d8fb3d4d93de1eebf17aa223",
    }
    CHECKS = ["exit 0", "order printed", "cayley.csv digest", "elements.json digest",
              "table shape", "rows are permutations", "columns are permutations",
              "identity row and column", "elements distinct", "generators present",
              "generator rows match products", "sampled entries match products"]

    def prepare(self, seed: int, tmp: Path) -> None:
        self.seed = seed

    def args(self, rep: Path) -> list[str]:
        return ["group", "--from", "familyD", *map(str, self.PARAMS),
                "--emit-elements", str(rep / "elements.json"),
                "--emit-cayley", str(rep / "cayley.csv")]

    def check(self, rep: Path, code: int, stdout: str) -> list[tuple[str, bool]]:
        import hashlib

        import numpy as np
        import reference

        if code != 0:
            return _failed(self.CHECKS)
        n = self.ORDER
        try:
            digests = {f: hashlib.sha256((rep / f).read_bytes()).hexdigest() for f in self.DIGESTS}
            with open(rep / "cayley.csv", newline="", encoding="ascii") as fh:
                table = [[int(v) for v in row] for row in csv.reader(fh)]
            records = json.loads((rep / "elements.json").read_text(encoding="ascii"))
            mats = np.array([reference.float_matrix(r["matrix"]["float_rows"]) for r in records])
            keys = [r["key"] for r in records]
        except (OSError, ValueError, KeyError, TypeError):
            return _failed(self.CHECKS)
        out = [("exit 0", True), ("order printed", f"order: {n}" in stdout)]
        out += [(f"{f} digest", digests[f] == d) for f, d in self.DIGESTS.items()]
        shape = len(table) == n and all(len(row) == n for row in table) and len(mats) == n
        out.append(("table shape", shape))
        if not shape:
            return out + _failed(self.CHECKS[len(out):])
        full = list(range(n))
        out.append(("rows are permutations", all(sorted(row) == full for row in table)))
        out.append(("columns are permutations",
                    all(sorted(col) == full for col in zip(*table))))
        out.append(("identity row and column",
                    table[0] == full and [row[0] for row in table] == full))
        index = reference.MatrixIndex(mats)
        out.append(("elements distinct", index.collisions == 0 and len(set(keys)) == n))
        gens = [index.find(g) for g in reference.family_generators("D", self.PARAMS)]
        out.append(("generators present", min(gens) >= 0))
        rows_ok = min(gens) >= 0 and all(
            index.find_all(mats[g] @ mats).tolist() == table[g] for g in gens)
        out.append(("generator rows match products", rows_ok))
        rng = random.Random(self.seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.SAMPLE)]
        left = np.array([i for i, _ in pairs])
        right = np.array([j for _, j in pairs])
        found = index.find_all(mats[left] @ mats[right]).tolist()
        out.append(("sampled entries match products",
                    found == [table[i][j] for i, j in pairs]))
        return out

    def corrupt(self, rep: Path) -> None:
        """Swap two entries of one row of the table."""
        path = rep / "cayley.csv"
        table = [line.split(",") for line in path.read_text(encoding="ascii").splitlines()]
        rng = random.Random(self.seed)
        i = rng.randrange(1, self.ORDER)
        j, k = rng.sample(range(1, self.ORDER), 2)
        table[i][j], table[i][k] = table[i][k], table[i][j]
        path.write_text("".join(",".join(row) + "\n" for row in table), encoding="ascii")


class Families:
    """`close` plus `element_records` over seeded C/D family draws."""

    name = "families"
    job = "families"
    # Strata of (family, group order, working order); within a stratum every
    # member also has the same number of distinct generators and inverses.
    # A run closes one parameter set from each stratum, drawn by the seed, so
    # every seed does the same amount of work while the groups and their
    # matrices differ.  Members were found by closing the monomial action of
    # candidate generators; the oracle re-derives each order with sympy.
    STRATA = {
        ("D", 288, 12): [
            (3, 1, 1, 4, 0, 1), (4, 0, 1, 6, 4, 2), (4, 1, 1, 3, 1, 2), (4, 1, 2, 6, 2, 0),
            (4, 1, 3, 6, 4, 4), (4, 3, 3, 3, 2, 1), (6, 1, 4, 4, 3, 0), (12, 0, 3, 3, 1, 0),
            (12, 0, 9, 6, 1, 4), (12, 3, 3, 6, 4, 2), (12, 3, 9, 3, 1, 2), (12, 6, 9, 6, 2, 0)],
        ("C", 300, 20): [
            (10, 0, 1), (10, 1, 3), (10, 1, 9), (10, 3, 4), (10, 4, 5), (10, 5, 9),
            (10, 8, 9), (20, 2, 2), (20, 2, 14), (20, 4, 18), (20, 6, 16), (20, 10, 14)],
        ("D", 486, 36): [
            (9, 0, 2, 6, 1, 1), (9, 0, 4, 6, 1, 5), (9, 0, 8, 6, 5, 3), (9, 2, 6, 6, 1, 1),
            (9, 4, 6, 6, 1, 5), (9, 4, 8, 6, 5, 3), (18, 0, 4, 6, 1, 1), (18, 0, 8, 6, 1, 5),
            (18, 0, 16, 6, 5, 3), (18, 4, 12, 6, 1, 1), (18, 8, 12, 6, 1, 5), (18, 8, 16, 6, 5, 3)],
        ("C", 507, 52): [
            (13, 0, 1), (13, 1, 2), (13, 2, 8), (13, 3, 12), (13, 5, 11), (13, 8, 8),
            (26, 0, 2), (26, 2, 4), (26, 4, 16), (26, 6, 24), (26, 10, 22), (26, 16, 16)],
        ("C", 1587, 92): [
            (23, 0, 1), (23, 1, 1), (23, 2, 2), (23, 3, 4), (23, 4, 7), (23, 5, 11),
            (23, 6, 16), (23, 7, 22), (23, 9, 15), (23, 11, 12), (23, 13, 13), (23, 15, 18)],
        ("C", 363, 132): [
            (33, 0, 3), (33, 0, 18), (33, 3, 3), (33, 3, 18), (33, 6, 6), (33, 6, 21),
            (33, 9, 12), (33, 9, 27), (33, 12, 21), (33, 15, 18), (33, 18, 18), (33, 21, 21)],
    }
    GROUP_CHECKS = ["order reported", "identity present", "elements distinct",
                    "closed under generators and inverses", "order matches sympy"]

    def prepare(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        self.items = [
            {"family": fam, "params": list(rng.choice(members)), "cap": 2 * order}
            for (fam, order, _), members in self.STRATA.items()
        ]
        self.input = tmp / "families.json"
        self.input.write_text(json.dumps(self.items), encoding="ascii")
        self.seed = seed

    def args(self, rep: Path) -> list[str]:
        return [str(self.input), str(rep / "out.json")]

    @property
    def checks(self) -> list[str]:
        return [f"{it['family']}{tuple(it['params'])} {c}"
                for it in self.items for c in self.GROUP_CHECKS]

    def check(self, rep: Path, code: int, stdout: str) -> list[tuple[str, bool]]:
        if code != 0:
            return _failed(self.checks)
        try:
            groups = json.loads((rep / "out.json").read_text(encoding="ascii"))
        except (OSError, ValueError):
            return _failed(self.checks)
        if len(groups) != len(self.items):
            return _failed(self.checks)
        out = []
        for item, group in zip(self.items, groups):
            label = f"{item['family']}{tuple(item['params'])}"
            out += [(f"{label} {c}", ok) for c, ok in
                    zip(self.GROUP_CHECKS, self._check_group(item, group))]
        return out

    @staticmethod
    def _check_group(item: dict, group: dict) -> list[bool]:
        import numpy as np
        from sympy.combinatorics import Permutation, PermutationGroup

        import reference

        n = len(group["elements"])
        if n == 0:
            return [False] * len(Families.GROUP_CHECKS)
        keys = [k for k, _ in group["elements"]]
        mats = np.array([reference.float_matrix(rows) for _, rows in group["elements"]])
        index = reference.MatrixIndex(mats)
        gens = reference.family_generators(item["family"], item["params"])
        perms = [index.find_all(g @ mats) for g in gens]
        inverses = [index.find_all(g.conj().T @ mats) for g in gens]
        closed = all(p.min() >= 0 for p in perms + inverses)
        distinct = index.collisions == 0 and len(set(keys)) == n
        sympy_order = 0
        if closed and distinct:
            sympy_order = PermutationGroup([Permutation(p.tolist()) for p in perms]).order()
        return [
            group["order"] == n,
            index.find(np.eye(3)) >= 0,
            distinct,
            closed,
            sympy_order == n,
        ]

    def corrupt(self, rep: Path) -> None:
        """Remove one element (not the identity) from one closure."""
        path = rep / "out.json"
        groups = json.loads(path.read_text(encoding="ascii"))
        rng = random.Random(self.seed)
        group = rng.choice(groups)
        del group["elements"][rng.randrange(1, len(group["elements"]))]
        group["order"] -= 1
        path.write_text(json.dumps(groups), encoding="ascii")


class Recoupling:
    """Seeded theta, tet and 6j evaluations at r = 5, 7 and 8."""

    name = "recoupling"
    job = "recoupling"
    # r -> number of 6j-symbols drawn; each also evaluates its tet and one
    # tetrahedral-symmetry image, and as many theta identities are drawn
    DRAWS = {5: 8, 7: 8, 8: 8}
    TOL = 1e-7

    def prepare(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        perms = [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)]
        queries: list[list] = []
        self.pairs: list[tuple[str, int, int]] = []
        for r, draws in self.DRAWS.items():
            k = r - 2
            labels = range(r - 1)
            # Symbols in one class evaluate the same multiset of quantum
            # factorials, so they cost the same.  The classes are fixed and the
            # seed draws a member of each: every seed does the same work.
            classes: dict[tuple, list] = {}
            for x in itertools.product(labels, repeat=6):
                if _sixj_admissible(k, *x):
                    classes.setdefault(_sixj_class(x), []).append(x)
            shared = sorted(c for c, members in classes.items() if len(members) > 1)
            for c in _spread(shared, draws):
                x = rng.choice(classes[c])
                queries.append(["sixj", r, list(x)])
                queries.append(["tet", r, list(x)])
                queries.append(["tet", r, list(tet_image(x, rng.choice(perms)))])
                self.pairs.append(("tet symmetry", len(queries) - 2, len(queries) - 1))
            # theta(a,c,e) and theta(c,a,e) cost the same, as do their tets
            triples = sorted({tuple(sorted(t[:2])) + t[2:]
                              for t in itertools.product(labels, repeat=3)
                              if admissible(k, *t) and t[0] != t[1]})
            for a, c, e in _spread(triples, draws):
                if rng.random() < 0.5:
                    a, c = c, a
                queries.append(["theta", r, [a, c, e]])
                queries.append(["tet", r, [a, a, e, c, c, 0]])
                self.pairs.append(("theta(a,c,e) == tet(a,a,e,c,c,0)",
                                   len(queries) - 2, len(queries) - 1))
        self.queries = queries
        self.input = tmp / "recoupling.json"
        self.input.write_text(json.dumps(queries), encoding="ascii")
        self.seed = seed

    def args(self, rep: Path) -> list[str]:
        return [str(self.input), str(rep / "out.json")]

    @property
    def checks(self) -> list[str]:
        return ([f"{kind}{tuple(labels)} at r={r} matches closed form"
                 for kind, r, labels in self.queries]
                + [f"{what}: queries {i} and {j}" for what, i, j in self.pairs])

    def check(self, rep: Path, code: int, stdout: str) -> list[tuple[str, bool]]:
        import reference

        names = self.checks
        if code != 0:
            return _failed(names)
        try:
            values = json.loads((rep / "out.json").read_text(encoding="ascii"))
            exact = [reference.cyclo_key(v) for v in values]
            floats = [reference.cyclo_float(v) for v in values]
        except (OSError, ValueError, KeyError, TypeError):
            return _failed(names)
        if len(values) != len(self.queries):
            return _failed(names)
        refs = {r: reference.Recoupling(r) for r in self.DRAWS}
        oks = []
        for (kind, r, labels), got in zip(self.queries, floats):
            want = getattr(refs[r], kind)(*labels)
            oks.append(abs(got - want) <= self.TOL * max(1.0, abs(want)))
        oks += [exact[i] == exact[j] for _, i, j in self.pairs]
        return list(zip(names, oks))

    def corrupt(self, rep: Path) -> None:
        """Put one coefficient of one 6j value off by one."""
        path = rep / "out.json"
        values = json.loads(path.read_text(encoding="ascii"))
        rng = random.Random(self.seed)
        i = rng.choice([n for n, q in enumerate(self.queries) if q[0] == "sixj"])
        coeffs = values[i]["coeffs"]
        e = rng.randrange(len(coeffs))
        coeffs[e] = str(Fraction(coeffs[e]) + 1)
        path.write_text(json.dumps(values), encoding="ascii")


def _sixj_admissible(k: int, a: int, b: int, kk: int, c: int, d: int, i: int) -> bool:
    """Labels for which sixj(a, b, kk, c, d, i) is defined: the four tet
    vertices and the two theta normalisations are admissible."""
    return all(admissible(k, *t) for t in (
        (a, d, kk), (b, c, kk), (a, b, i), (c, d, i), (a, d, i), (c, b, kk)))


def _sixj_class(x) -> tuple:
    """The quantum-factorial arguments a 6j evaluation uses: the sorted
    vertex half-sums and square sums of its tet, its two theta vertices and
    the loop label."""
    a, b, kk, c, d, i = x
    half = sorted((p + q + s) // 2 for p, q, s in ((a, d, kk), (b, c, kk), (a, b, i), (c, d, i)))
    squares = sorted([(b + d + kk + i) // 2, (a + c + kk + i) // 2, (a + b + c + d) // 2])
    thetas = sorted([tuple(sorted((a, d, i))), tuple(sorted((c, b, kk)))])
    return tuple(half), tuple(squares), tuple(thetas), i


def _spread(items: list, n: int) -> list:
    """n items evenly spaced through the list, ends included."""
    return [items[round(j * (len(items) - 1) / (n - 1))] for j in range(n)]


def admissible(k: int, a: int, b: int, c: int) -> bool:
    """Parity, triangle and level conditions at level k."""
    return (
        (a + b + c) % 2 == 0
        and a <= b + c and b <= a + c and c <= a + b
        and a + b + c <= 2 * k
    )


# The tetrahedron's edges, in the argument order of tet(a, b, e, c, d, f),
# as pairs of its four vertices (a,d,e), (b,c,e), (a,b,f), (c,d,f).
_TET_EDGES = ((0, 2), (1, 2), (0, 1), (1, 3), (0, 3), (2, 3))


def tet_image(labels, perm) -> tuple[int, ...]:
    """Labels of the same tetrahedral net after relabelling its vertices by
    `perm`; tet takes the same value on all 24 images."""
    by_edge = {frozenset(e): x for e, x in zip(_TET_EDGES, labels)}
    return tuple(by_edge[frozenset((perm[u], perm[v]))] for u, v in _TET_EDGES)


WORKLOADS = {w.name: w for w in (Verify, Cayley648, Families, Recoupling)}
