"""Generator matrices for the classical parametrized families of finite
SU(3) subgroups.

The C family C(n,a,b) is generated by the 3-cycle permutation matrix E and
the determinant-one diagonal F(n,a,b) = diag(z^a, z^b, z^(-a-b)) with
z = e^(2*pi*i/n).  The D family D(n,a,b;d,r,s) adds one more generator
built from d-th roots of unity with a single minus sign; see d_generators.

Family matrices use the minimal scalar order (lcm of n, d, and 4) and can
be embedded into a larger working order for comparisons.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .cyclo import Cyclo, root_of_unity
from .matrix import UnitaryMatrix


# the parameter records are validated tuples: a NamedTuple cannot override
# __new__ itself, so each class validates in a subclass of its field tuple


class CParams(NamedTuple("CParams", [("n", int), ("a", int), ("b", int)])):
    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int):
        if n < 1:
            raise ValueError("n must be positive")
        if not (0 <= a <= n - 1 and 0 <= b <= n - 1):
            raise ValueError("need 0 <= a, b <= n-1")
        return super().__new__(cls, n, a, b)

    @property
    def order(self) -> int:
        """Working cyclotomic order of the generators: lcm(n, 4)."""
        return math.lcm(self.n, 4)


class DParams(NamedTuple("DParams", [("c", CParams), ("d", int), ("r", int), ("s", int)])):
    __slots__ = ()

    def __new__(cls, c: CParams, d: int, r: int, s: int):
        if d < 1:
            raise ValueError("d must be positive")
        if not (0 <= r <= d - 1 and 0 <= s <= d - 1):
            raise ValueError("need 0 <= r, s <= d-1")
        return super().__new__(cls, c, d, r, s)

    @property
    def order(self) -> int:
        """Working cyclotomic order of the generators: lcm(n, d, 4)."""
        return math.lcm(self.c.n, self.d, 4)


def cycle_matrix() -> UnitaryMatrix:
    """The permutation matrix of the 3-cycle (1,3,2)."""
    return UnitaryMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def c_generators(p: CParams) -> list[UnitaryMatrix]:
    order = p.order
    scale = order // p.n
    f = UnitaryMatrix.diagonal(
        [
            root_of_unity(order, scale * p.a),
            root_of_unity(order, scale * p.b),
            root_of_unity(order, -scale * (p.a + p.b)),
        ]
    )
    return [cycle_matrix(), f]


def d_generators(p: DParams) -> list[UnitaryMatrix]:
    order = p.order
    scale = order // p.d
    zero = Cyclo.zero()
    extra = UnitaryMatrix.from_rows(
        [
            [root_of_unity(order, scale * p.r), zero, zero],
            [zero, zero, root_of_unity(order, scale * p.s)],
            [zero, -root_of_unity(order, -scale * (p.r + p.s)), zero],
        ]
    )
    e, f = (m.embed(order) for m in c_generators(p.c))
    return [e, f, extra]
