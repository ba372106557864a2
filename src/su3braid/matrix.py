"""Square matrices over exact cyclotomic scalars, specialized to unitaries.

Matrices are immutable tuples of :class:`~su3braid.cyclo.Cyclo` entries.
:meth:`UnitaryMatrix.from_rows` checks the shape and exact unitarity
(M M* = I), which gives |det M| = 1 since conjugation is a field
automorphism: det(M) conj(det M) = det(M M*) = 1.  Internal products skip
the re-check since products of unitaries stay unitary under exact
arithmetic.  Inverses are conjugate transposes and determinants minor
expansions, so no operation here divides.  The determinant is the only
scalar invariant: the generators' equal characteristic polynomials follow
from the braid relation (see `verify.PREMISES`), so none is computed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .cyclo import _ADD_MEMO, _MUL_MEMO, _ONE, _ZERO, Cyclo, CycloLike, _coerce, dot


class NotUnitaryError(ValueError):
    """Raised when a matrix fails the exact unitarity invariant."""


class UnitaryMatrix:
    __slots__ = ("dim", "rows")

    dim: int
    rows: tuple[tuple[Cyclo, ...], ...]

    def __init__(self, rows: tuple[tuple[Cyclo, ...], ...], _raw: bool = False):
        if not _raw:
            raise TypeError("use UnitaryMatrix.from_rows")
        self.rows = rows
        self.dim = len(rows)

    @staticmethod
    def _make(rows: tuple[tuple[Cyclo, ...], ...]) -> "UnitaryMatrix":
        return UnitaryMatrix(rows, _raw=True)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[CycloLike]]) -> "UnitaryMatrix":
        """Validating constructor: at least one row, square shape, exact
        unitarity.  |det| = 1 follows: det(M) conj(det M) = det(M M*) = 1."""
        dim = len(rows)
        if dim == 0:
            raise ValueError("matrix must have at least one row")
        conv: list[tuple[Cyclo, ...]] = []
        for row in rows:
            if len(row) != dim:
                raise ValueError("matrix must be square")
            coerced = [_coerce(v) for v in row]
            if NotImplemented in coerced:
                raise TypeError("matrix entries must be Cyclo, int, or Fraction")
            conv.append(tuple(coerced))
        m = UnitaryMatrix._make(tuple(conv))
        if not m.is_unitary():
            raise NotUnitaryError("matrix is not exactly unitary")
        return m

    @staticmethod
    def identity(dim: int) -> "UnitaryMatrix":
        one = Cyclo.one()
        zero = Cyclo.zero()
        return UnitaryMatrix._make(
            tuple(
                tuple(one if i == j else zero for j in range(dim))
                for i in range(dim)
            )
        )

    @staticmethod
    def diagonal(entries: Sequence[CycloLike]) -> "UnitaryMatrix":
        zero = Cyclo.zero()
        vals = [_coerce(v) for v in entries]
        return UnitaryMatrix.from_rows(
            [
                [vals[i] if i == j else zero for j in range(len(vals))]
                for i in range(len(vals))
            ]
        )

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "UnitaryMatrix") -> "UnitaryMatrix":
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        # row i of the product is the sum, for increasing k, of a * (row k of
        # other) over the nonzero a = self[i][k], so each entry adds its
        # nonzero products in index order through the scalar memos, as `dot`
        # does, and is the same interned object.  A zero entry of the running
        # sum takes the next product as it is (0 + p is p).  A row whose one
        # nonzero entry is 1 is the other's row tuple itself, and a row with
        # one nonzero entry scales one row and adds nothing
        mul_memo, add_memo = _MUL_MEMO, _ADD_MEMO
        other_rows = other.rows
        rows = []
        for row in self.rows:
            acc = None
            k = -1  # a plain counter: a zip or range per row measured slower here
            for a in row:
                k += 1
                if a is _ZERO:
                    continue
                if a is _ONE:
                    scaled = other_rows[k]
                else:
                    aid = a._id
                    scaled = [
                        _ZERO if y is _ZERO
                        else hit if (hit := mul_memo.get((aid, y._id))) is not None
                        else a * y
                        for y in other_rows[k]
                    ]
                if acc is None:
                    acc = scaled
                else:
                    acc = [
                        y if x is _ZERO
                        else x if y is _ZERO
                        else hit if (hit := add_memo.get((x._id, y._id))) is not None
                        else x + y
                        for x, y in zip(acc, scaled)
                    ]
            rows.append((_ZERO,) * self.dim if acc is None else tuple(acc))
        return UnitaryMatrix(tuple(rows), True)  # `_make` without its call

    def __pow__(self, exponent: int) -> "UnitaryMatrix":
        """Binary powering from the first factor, not from the identity:
        m ** 1 is m with no product, m ** -1 its conjugate transpose, and
        only m ** 0 builds I."""
        base = self if exponent >= 0 else self.conj_transpose()
        e = abs(exponent)
        result = None
        while e:
            if e & 1:
                result = base if result is None else result * base
            if e > 1:
                base = base * base
            e >>= 1
        return UnitaryMatrix.identity(self.dim) if result is None else result

    def scale(self, factor: CycloLike) -> "UnitaryMatrix":
        f = _coerce(factor)
        return UnitaryMatrix._make(
            tuple(tuple(f * v for v in row) for row in self.rows)
        )

    def __rmul__(self, factor: CycloLike) -> "UnitaryMatrix":
        if isinstance(factor, UnitaryMatrix):
            return NotImplemented
        return self.scale(factor)

    def conj_transpose(self) -> "UnitaryMatrix":
        return UnitaryMatrix._make(
            tuple(
                tuple(self.rows[j][i].conj() for j in range(self.dim))
                for i in range(self.dim)
            )
        )

    # -- scalar invariants ----------------------------------------------------

    def det(self) -> Cyclo:
        """Laplace expansion down the rows from the last: minors[cols] is the
        determinant of the last len(cols) rows on the columns cols, built
        once from the minors one row smaller: at most dim * (2^(dim-1) - 1)
        scalar products and no division."""
        n = self.dim
        minors = {(c,): v for c, v in enumerate(self.rows[-1])}
        for k in range(2, n + 1):
            row = self.rows[n - k]
            minors = {
                cols: dot(
                    [-row[c] if j & 1 else row[c] for j, c in enumerate(cols)],
                    [minors[cols[:j] + cols[j + 1:]] for j in range(k)],
                )
                for cols in combinations(range(n), k)
            }
        return minors[tuple(range(n))]

    def is_unitary(self) -> bool:
        return self * self.conj_transpose() == UnitaryMatrix.identity(self.dim)

    # -- comparisons / conversion ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    # in a group, use an element's index; `matgroup.close` keys a product by
    # its entries' serial ids, which name it at one working order
    __hash__ = None

    def scalar_order(self) -> int:
        """Smallest cyclotomic order containing every entry."""
        import math

        order = 1
        for row in self.rows:
            for v in row:
                order = math.lcm(order, v.order)
        return order

    def embed(self, order: int) -> "UnitaryMatrix":
        return UnitaryMatrix._make(
            tuple(tuple(v.embed(order) if v.order > 1 else v for v in row) for row in self.rows)
        )

    def key_bytes(self) -> bytes:
        """Canonical byte key: entry representations are unique per value,
        so equal matrices built from a common working order share keys.  A
        group's element order and its exports read this text."""
        return b"%d|" % self.dim + b";".join(v.key_bytes() for row in self.rows for v in row)

    def to_dict(self) -> dict:
        floats = [[v.to_complex() for v in row] for row in self.rows]
        return {
            "dim": self.dim,
            "rows": [[v.to_dict() for v in row] for row in self.rows],
            "float_rows": [[[z.real, z.imag] for z in row] for row in floats],
        }

    def __repr__(self) -> str:
        lines = [" ".join(repr(v) for v in row) for row in self.rows]
        return "UnitaryMatrix(\n  " + "\n  ".join(lines) + "\n)"

