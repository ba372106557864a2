"""Unitary braid generators for four anyons of charge c with total charge 0.

The state space is spanned by fusion trees labeled by the internal edge
value alpha, one basis vector per label admissible with (c, c, alpha).
Braiding strands 1-2 or 3-4 acts diagonally through conjugated twist
eigenvalues; braiding the middle pair mixes the basis through the
symmetric matrix

    sigma_mid[alpha, beta] =
        sqrt(delta_alpha) sqrt(delta_beta) / (theta(c,c,alpha) theta(c,c,beta))
        * sum_i delta_i conj(R_i^{c,c}) T[c c i; c c alpha] T[c c i; c c beta]
              / theta(c,c,i)^2

A `FusionBasis` carries the theory and the charge it was built for, so
`sigma_odd(basis)` and `sigma_mid(basis)` take the basis alone.
Determinant-normalizing by a phase lands the generators in SU(dim).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cyclo import Cyclo, _coerce, combine, root_of_unity, sqrt2, sqrt3
from .matrix import UnitaryMatrix
from .recoupling import (
    TheoryParams,
    admissible,
    delta_n,
    inv_theta,
    r_value,
    tet,
    theory,
)


class PhaseMismatchError(ValueError):
    """The supplied phase does not normalize the determinant to one."""


class FusionBasis(NamedTuple):
    """Ordered internal-edge labels of the four-anyon fusion tree space,
    with the theory and the charge they were built for."""

    theory: TheoryParams
    charge: int
    labels: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)


def fusion_basis(t: TheoryParams, c: int) -> FusionBasis:
    """The internal labels a admissible with (c, c, a), ascending.  The
    basis is never empty: for a charge c <= r - 2, (c, c, 0) is admissible,
    so the labels start at 0."""
    if c not in t.label_set:
        raise ValueError(f"charge {c} is outside the label set {t.label_set}")
    labels = tuple(a for a in t.label_set if admissible(t, c, c, a))
    return FusionBasis(theory=t, charge=c, labels=labels)


def sigma_odd(basis: FusionBasis) -> UnitaryMatrix:
    """Braiding of strands 1-2 (and equally 3-4): diagonal in the fusion
    basis with entries conj(R_alpha^{c,c}), in the basis's theory."""
    t, c, labels = basis
    return UnitaryMatrix.diagonal([r_value(t, a, c, c).conj() for a in labels])


def sigma_mid(basis: FusionBasis) -> UnitaryMatrix:
    """Braiding of the middle strands 2-3: the symmetric unitary mixing
    matrix described in the module docstring, in the basis's theory."""
    t, c, labels = basis
    inv_thetas = {a: inv_theta(t, c, c, a) for a in labels}
    roots = {a: _sqrt_delta(delta_n(t, a), t.order) for a in labels}
    # tets[i][x] = T[c c i; c c labels[x]]
    tets = [[tet(t, c, c, i, c, c, a) for a in labels] for i in labels]
    weights = [
        delta_n(t, i) * r_value(t, i, c, c).conj() * inv_thetas[i] * inv_thetas[i]
        for i in labels
    ]
    # sums[x][y] = sum_i (weights[i] * tets[i][x]) * tets[i][y], in one kernel call
    sums = combine(
        [[w * tet_i[x] for w, tet_i in zip(weights, tets)] for x in range(len(labels))],
        tets,
    )
    rows = [
        [roots[a] * roots[b] * inv_thetas[a] * inv_thetas[b] * s for b, s in zip(labels, line)]
        for a, line in zip(labels, sums)
    ]
    return UnitaryMatrix.from_rows(rows)


def su3_normalize(m: UnitaryMatrix, phase) -> UnitaryMatrix:
    """Multiply by a phase chosen so the determinant becomes exactly one."""
    p = _coerce(phase)
    if p ** m.dim * m.det() != 1:
        raise PhaseMismatchError("phase^dim * det != 1")
    return m.scale(p)


def paper_generators() -> tuple[UnitaryMatrix, UnitaryMatrix]:
    """The two SU(3) braid generators for four charge-2 anyons at level 4,
    phase-normalized by e^(i*pi/9)."""
    basis = fusion_basis(theory(6), 2)
    phase = root_of_unity(72, 4)  # e^(i*pi/9)
    g1 = su3_normalize(sigma_odd(basis), phase)
    g2 = su3_normalize(sigma_mid(basis), phase)
    return g1, g2


def _sqrt_delta(value: Cyclo, order: int) -> Cyclo:
    """Positive square root of a loop value; only the small surds the
    level-4 theory needs (1, 2, 3, rational squares) are supported."""
    if value == 2:
        return sqrt2(order)
    if value == 3:
        return sqrt3(order)
    if value.is_rational():
        q = value.rational_value()
        if q >= 0:
            num = math.isqrt(q.numerator)
            den = math.isqrt(q.denominator)
            if num * num == q.numerator and den * den == q.denominator:
                return Cyclo.rational(Fraction(num, den))
    raise ValueError(f"no known exact square root for loop value {value!r}")
