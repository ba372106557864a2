"""Independent floating-point references for the benchmark oracles.

Nothing here imports su3braid: the oracles compare the program's exported
values against these closed forms, so a defect in the exact arithmetic
cannot also hide in its own check.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# -- exported exact values -----------------------------------------------------


def cyclo_float(value: dict) -> complex:
    """Float value of a `Cyclo.to_dict()` record, computed from its exact
    coefficients (the record's own `approx` field is not trusted)."""
    order = value["order"]
    acc = 0j
    for e, text in enumerate(value["coeffs"]):
        c = Fraction(text)
        if c:
            acc += float(c) * cmath.exp(2j * math.pi * e / order)
    return acc


def cyclo_key(value: dict) -> tuple:
    """Exact identity of a canonical `Cyclo.to_dict()` record."""
    return value["order"], tuple(value["coeffs"])


# -- unitary matrices --------------------------------------------------------------


def float_matrix(float_rows) -> np.ndarray:
    """A 3x3 complex matrix from `[[re, im], ...]` rows, as exported in
    `UnitaryMatrix.to_dict()["float_rows"]`."""
    a = np.asarray(float_rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _zeta(order: int, k: int) -> complex:
    return cmath.exp(2j * math.pi * (k % order) / order)


def family_generators(family: str, params) -> list[np.ndarray]:
    """The C(n,a,b) or D(n,a,b;d,r,s) generators from their definition:
    the 3-cycle E, F = diag(z^a, z^b, z^(-a-b)) with z = e^(2 pi i/n), and
    for D the extra monomial matrix built from d-th roots of unity."""
    n, a, b = params[:3]
    e = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    f = np.diag([_zeta(n, a), _zeta(n, b), _zeta(n, -a - b)])
    if family == "C":
        return [e, f]
    d, r, s = params[3:]
    extra = np.zeros((3, 3), dtype=complex)
    extra[0, 0] = _zeta(d, r)
    extra[1, 2] = _zeta(d, s)
    extra[2, 1] = -_zeta(d, -r - s)
    return [e, f, extra]


class MatrixIndex:
    """Lookup of numerically given group elements.  Entries of the groups
    benchmarked here are sums of few roots of unity, so distinct elements
    differ by far more than the tolerance."""

    TOL = 1e-7

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self._grid: dict[bytes, int] = {}
        for i, cell in enumerate(self._cells(mats)):
            self._grid.setdefault(cell, i)
        self.collisions = len(mats) - len(self._grid)

    @staticmethod
    def _cells(mats: np.ndarray) -> list[bytes]:
        mats = mats.reshape(len(mats), -1)
        flat = np.rint(np.concatenate([mats.real, mats.imag], axis=1) * 1e5).astype(np.int64)
        return [row.tobytes() for row in flat]

    def find_all(self, mats: np.ndarray) -> np.ndarray:
        """Index of the element equal to each of `mats`, or -1."""
        found = np.array([self._grid.get(c, -1) for c in self._cells(mats)])
        hit = found >= 0
        dist = np.abs(self.mats[found[hit]] - mats[hit]).reshape(int(hit.sum()), -1)
        found[np.flatnonzero(hit)[dist.max(axis=1) >= self.TOL]] = -1
        for i in np.flatnonzero(found < 0):
            # a value on a grid-cell boundary: fall back to a full scan
            d = np.abs(self.mats - mats[i]).reshape(len(self.mats), -1).max(axis=1)
            j = int(d.argmin())
            found[i] = j if d[j] < self.TOL else -1
        return found

    def find(self, m: np.ndarray) -> int:
        """Index of the element equal to `m`, or -1."""
        return int(self.find_all(m[None])[0])


# -- Temperley-Lieb closed forms ----------------------------------------------


class Recoupling:
    """theta, tet and 6j at index r in complex floating point, from the
    quantum-factorial closed forms with A = i e^(-2 pi i/(4r)) and
    [n] = (A^(2n) - A^(-2n)) / (A^2 - A^(-2))."""

    def __init__(self, r: int):
        self._a = 1j * cmath.exp(-2j * math.pi / (4 * r))
        self._facts = [1 + 0j]
        for n in range(1, 4 * r):
            self._facts.append(self._facts[-1] * self.qint(n))

    def qint(self, n: int) -> complex:
        a = self._a
        return (a ** (2 * n) - a ** (-2 * n)) / (a**2 - a**-2)

    def fact(self, n: int) -> complex:
        return self._facts[n]

    def theta(self, a: int, b: int, c: int) -> complex:
        m, n, p = (a + c - b) // 2, (a + b - c) // 2, (b + c - a) // 2
        s = m + n + p
        value = (
            self.fact(s + 1) * self.fact(m) * self.fact(n) * self.fact(p)
            / (self.fact(a) * self.fact(b) * self.fact(c))
        )
        return -value if s % 2 else value

    def tet(self, a: int, b: int, e: int, c: int, d: int, f: int) -> complex:
        triples = ((a, d, e), (b, c, e), (a, b, f), (c, d, f))
        half = [(x + y + z) // 2 for x, y, z in triples]
        squares = [(b + d + e + f) // 2, (a + c + e + f) // 2, (a + b + c + d) // 2]
        interior = 1 + 0j
        for bj in squares:
            for ai in half:
                interior *= self.fact(bj - ai)
        exterior = 1 + 0j
        for edge in (a, b, c, d, e, f):
            exterior *= self.fact(edge)
        acc = 0j
        for s in range(max(half), min(squares) + 1):
            den = 1 + 0j
            for ai in half:
                den *= self.fact(s - ai)
            for bj in squares:
                den *= self.fact(bj - s)
            acc += (-1) ** s * self.fact(s + 1) / den
        return interior / exterior * acc

    def sixj(self, a: int, b: int, k: int, c: int, d: int, i: int) -> complex:
        delta = (-1) ** i * self.qint(i + 1)
        return self.tet(a, b, k, c, d, i) * delta / (self.theta(a, d, i) * self.theta(c, b, k))
