"""Test-side oracles on matrices: the product as the dense schoolbook
triple loop, the determinant as the Leibniz sum over all permutations, and
the monic characteristic polynomial by the Faddeev-LeVerrier recursion.
The recursion multiplies by the shifted matrices M_k + b_k I, which are
not unitary, so the product and determinant tests read them too.
`verify` proves the generators' equal characteristic polynomials from the
braid relation; these compute them."""

from __future__ import annotations

from itertools import permutations

from su3braid.cyclo import Cyclo
from su3braid.matrix import UnitaryMatrix


def schoolbook_mul(a: UnitaryMatrix, b: UnitaryMatrix) -> UnitaryMatrix:
    """The full triple loop: every sum starts at the index-0 product and
    adds all dim products, zero factors included."""
    bcols = tuple(zip(*b.rows))
    out = []
    for arow in a.rows:
        line = []
        for bcol in bcols:
            acc = arow[0] * bcol[0]
            for x, y in zip(arow[1:], bcol[1:]):
                acc = acc + x * y
            line.append(acc)
        out.append(tuple(line))
    return UnitaryMatrix._make(tuple(out))


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(m: UnitaryMatrix) -> Cyclo:
    """The signed sum over all dim! permutations of the products
    m[0][p(0)] ... m[dim-1][p(dim-1)]."""
    acc = Cyclo.zero()
    for perm in permutations(range(m.dim)):
        term = m.rows[0][perm[0]]
        for i in range(1, m.dim):
            term = term * m.rows[i][perm[i]]
        acc = acc + term if _perm_sign(perm) > 0 else acc - term
    return acc


def trace(m: UnitaryMatrix) -> Cyclo:
    acc = m.rows[0][0]
    for i in range(1, m.dim):
        acc = acc + m.rows[i][i]
    return acc


def add_scalar(m: UnitaryMatrix, c: Cyclo) -> UnitaryMatrix:
    """M + c I, built raw: it is not unitary in general."""
    rows = [list(row) for row in m.rows]
    for i in range(m.dim):
        rows[i][i] = rows[i][i] + c
    return UnitaryMatrix._make(tuple(tuple(r) for r in rows))


def charpoly(m: UnitaryMatrix) -> tuple[Cyclo, ...]:
    """Monic characteristic polynomial coefficients, low degree first, by
    the Faddeev-LeVerrier recursion: M_1 = M, b_k = -tr(M_k) / k and
    M_(k+1) = M (M_k + b_k I).  Exact; it divides by integers only."""
    n = m.dim
    coeffs = [Cyclo.zero()] * (n + 1)
    coeffs[n] = Cyclo.one()
    mk = m
    for k in range(1, n + 1):
        bk = -(trace(mk) / k)
        coeffs[n - k] = bk
        if k < n:
            mk = m * add_scalar(mk, bk)
    return tuple(coeffs)
